"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src/``.  The worker sets up its inputs, prints ``ready`` with the
monotonic clock and the reference kernel's times just after it (from
which ``run.py`` takes the set-up time), runs the
closed loop (or, with ``--trace 1``, the traced pipeline) and prints one
JSON line with its raw results.  With ``--setup-only`` it stops after
``ready``; ``run.py`` uses that to time set-up more than once per run.

Every op is checked against ``golden.json``, which ``record.py`` wrote
from the commit that defined the benchmark.  An op fails when it raises
or exits outside the documented outcomes, prints a traceback, emits a
PME that differs from the recorded one, or fails a numeric check.  The
failure of an op recorded as a success counts in ``failed`` and makes the
run incorrect.  A failure recorded then is a known defect, and an op with
no record (the check of a PME that newly derives) cannot have regressed:
those count in ``defects``, which lowers ``ok_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from typing import Callable, NamedTuple, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
import reference  # noqa: E402

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
GOLDEN_OUT = os.path.join(BENCH_DIR, "golden")
DOCUMENTED_EXITS = (0, 1, 2, 3, 4, 64)
CHECK_TRIALS = 50
CHECK_TOLERANCE = 1e-8
TRACEBACK = "Traceback (most recent call last)"
# reference kernel calls on each side of a set-up (see run.py)
KERNEL_SAMPLES = 5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def clear_serialize_cache() -> None:
    """Start an op with the cold caches a fresh ``pmegen`` process has."""
    from pmegen import expr

    cache_clear = getattr(expr.serialize, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


# ---------------------------------------------------------------------------
# outcomes and their checks


def run_derive(spec, kb, ops_dir):
    """The timed part of a derive op: its PMEs, or the exception it raised."""
    from pmegen.engine import derive_all

    try:
        return derive_all(spec, kb, ops_dir=ops_dir)
    except Exception as exc:  # classified by derive_outcome, outside the timing
        return exc


def derive_outcome(result) -> dict:
    """Summarize what ``run_derive`` returned."""
    from pmegen.binding import NoViablePartitioningsError
    from pmegen.engine import AllCombinationsStuck

    if isinstance(result, AllCombinationsStuck):
        return {"result": "stuck", "pmes": {}}
    if isinstance(result, NoViablePartitioningsError):
        return {"result": "no-viable", "pmes": {}}
    if isinstance(result, Exception):
        return {"result": f"error: {type(result).__name__}: {result}", "pmes": {}}
    return {"result": "derived", "pmes": pme_digests(result)}


def pme_digests(pmes) -> dict:
    from pmegen.cli import pme_to_json_dict, render_pme_text

    return {
        str(p.combination.index): [
            digest("\n".join(render_pme_text(p))),
            digest(json.dumps(pme_to_json_dict(p), indent=2, sort_keys=True)),
        ]
        for p in pmes
    }


def derive_problem(golden: dict, observed: dict):
    """Why ``observed`` fails against its recorded outcome, or None.

    A combination recorded as stuck may newly derive; a recorded PME must
    come back byte for byte.
    """
    if observed["result"].startswith("error"):
        return observed["result"]
    for index, digests in golden["pmes"].items():
        got = observed["pmes"].get(index)
        if got is None:
            return f"combination {index} no longer derives ({observed['result']})"
        if got[0] != digests[0]:
            return f"combination {index}: text rendering differs"
        if got[1] != digests[1]:
            return f"combination {index}: json rendering differs"
    return None


def check_outcome(pme, spec) -> dict:
    from pmegen.oracle import OracleError, check_pme

    try:
        report = check_pme(pme, spec, trials=CHECK_TRIALS, tolerance=CHECK_TOLERANCE, seed=0)
    except OracleError as exc:
        return {"result": f"error: {type(exc).__name__}: {exc}"}
    if not report.ok:
        return {"result": f"residual {report.max_residual:.3e} over tolerance"}
    return {"result": "ok"}


def check_problem(observed: dict):
    return None if observed["result"] == "ok" else observed["result"]


def cli_invoke(root: str, env: dict, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pmegen.cli", *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _blocks(text: str) -> list[str]:
    return text.split("\n\n")


def derive_stdout_problem(args: list[str], golden: str, got: str):
    """Recorded PMEs must reappear byte for byte; stuck ones may derive."""
    if "json" in args:
        want = json.loads(golden)
        have = json.loads(got)
        have_pmes = {p["combination"]["index"]: p for p in have["pmes"]}
        for p in want["pmes"]:
            index = p["combination"]["index"]
            if index not in have_pmes:
                return f"combination {index} no longer derives"
            if json.dumps(have_pmes[index], sort_keys=True) != json.dumps(p, sort_keys=True):
                return f"combination {index}: json PME differs"
        if len(have_pmes) == len(want["pmes"]) and got != golden:
            return "json document differs"
        return None
    want_blocks, have_blocks = _blocks(golden), _blocks(got)
    if len(want_blocks) != len(have_blocks) or want_blocks[0] != have_blocks[0]:
        return "output header or combination count differs"
    for want, have in zip(want_blocks[1:], have_blocks[1:]):
        if ": stuck" in want:
            continue
        if want != have:
            first = want.splitlines()[0]
            return f"{first} PME differs"
    return None


def cli_problem(record: dict, args: list[str], proc: subprocess.CompletedProcess):
    """Why one invocation failed against its record, or None."""
    if TRACEBACK in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        return f"traceback: {last}"
    if proc.returncode not in DOCUMENTED_EXITS:
        return f"undocumented exit {proc.returncode}"
    if proc.returncode not in record["allowed_exits"]:
        return f"exit {proc.returncode}, expected one of {record['allowed_exits']}"
    golden = record.get("stdout")
    if golden is None or proc.returncode != record["exit"]:
        return None
    with open(os.path.join(GOLDEN_OUT, golden), encoding="utf-8") as fh:
        want = fh.read()
    if args[0] == "derive":
        return derive_stdout_problem(args, want, proc.stdout)
    if args[0] == "kb" and want != proc.stdout:
        return "kb listing differs"
    return None


# ---------------------------------------------------------------------------
# workloads: set-up builds the list of ops the loop cycles through


class Op(NamedTuple):
    key: str
    call: Callable[[], object]
    # the reason the call's result fails against its record, or None
    check: Callable[[object], Optional[str]]
    # run untimed before the call
    reset: Optional[Callable[[], None]] = None


def setup_fuzz(root: str, seed: int, golden: dict) -> list[Op]:
    from pmegen.engine import seed_builtins

    kb = seed_builtins()
    ops = []
    for spec_seed in corpus.shuffled(list(corpus.FUZZ_SEEDS), seed):
        spec = corpus.fuzz_spec(spec_seed)
        key = f"fuzz:{spec_seed}"
        ops.append(_derive_op(key, spec, kb, None, golden["derive"][key]))
    return ops


def setup_spd(root: str, seed: int, golden: dict) -> list[Op]:
    from pmegen.engine import seed_builtins
    from pmegen.opspec import parse_operation

    kb = seed_builtins()
    ops_dir = os.path.join(root, "ops")
    items = [(f"spd:{n}", t) for n, t in corpus.spd_family()]
    items += [(f"spd:{n}", t) for n, t in corpus.shipped_ops(root)]
    ops = []
    for key, text in corpus.shuffled(items, seed):
        spec = parse_operation(text)
        ops.append(_derive_op(key, spec, kb, ops_dir, golden["derive"][key]))
    return ops


def _derive_op(key, spec, kb, ops_dir, record) -> Op:
    def call():
        return run_derive(spec, kb, ops_dir)

    def check(result):
        return derive_problem(record, derive_outcome(result))

    return Op(key, call, check, clear_serialize_cache)


def oracle_corpus(root: str, golden: dict):
    """(key, spec, pme) for every PME derived from ops/*.op and the fuzz specs.

    Only fuzz specs recorded as deriving are derived, so the set of PMEs
    stays the one recorded even when a change lets more specs derive.
    """
    from pmegen.engine import AllCombinationsStuck, derive_all, seed_builtins
    from pmegen.binding import NoViablePartitioningsError
    from pmegen.opspec import parse_operation

    kb = seed_builtins()
    sources = [(f"ops:{n}", parse_operation(t)) for n, t in corpus.shipped_ops(root)]
    sources += [
        (f"fuzz:{s}", corpus.fuzz_spec(s))
        for s in corpus.FUZZ_SEEDS
        if golden["derive"][f"fuzz:{s}"]["result"] == "derived"
    ]
    out = []
    for name, spec in sources:
        try:
            pmes = derive_all(spec, kb)
        except (AllCombinationsStuck, NoViablePartitioningsError):
            continue
        out.extend((f"{name}:{p.combination.index}", spec, p) for p in pmes)
    return out


def setup_oracle(root: str, seed: int, golden: dict) -> list[Op]:
    ops = []
    for key, spec, pme in oracle_corpus(root, golden):

        def call(pme=pme, spec=spec):
            return check_outcome(pme, spec)

        ops.append(Op(f"check:{key}", call, check_problem, clear_serialize_cache))
    # a recorded PME that no longer derives fails its check every visit
    present = {op.key for op in ops}
    for key in golden["outcomes"]:
        if key.startswith("check:") and key not in present:
            ops.append(Op(key, lambda: {"result": "PME no longer derives"}, check_problem))
    return corpus.shuffled(ops, seed)


def child_env(root: str) -> dict:
    """Environment of every process a run starts: the checkout's own code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PME_KB", None)
    return env


def cli_work_dir(root: str) -> str:
    work = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work, exist_ok=True)
    return work


def setup_cli(root: str, seed: int, golden: dict) -> list[Op]:
    import pmegen.cli  # noqa: F401  the import every invocation pays
    from pmegen.opspec import parse_operation

    for _, text in corpus.shipped_ops(root) + corpus.probes():
        parse_operation(text)
    env = child_env(root)
    work = cli_work_dir(root)
    kb_path = os.path.join(work, "learned.kb")
    ops = []
    for job, invocations in corpus.shuffled(corpus.cli_jobs(root, work), seed):
        for i, args in enumerate(invocations):
            key = f"cli:{job}:{i}"
            record = golden["cli"][key]

            def call(args=args):
                return cli_invoke(root, env, args)

            def check(proc, record=record, args=args):
                return cli_problem(record, args, proc)

            reset = (lambda: _remove(kb_path)) if i == 0 and job == "learn" else None
            ops.append(Op(key, call, check, reset))
    return ops


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


SETUPS = {
    "cli-corpus": setup_cli,
    "fuzz-derive": setup_fuzz,
    "spd-solve": setup_spd,
    "oracle-check": setup_oracle,
}


# ---------------------------------------------------------------------------
# the closed loop


def is_regression(outcomes: dict, key: str) -> bool:
    """A failing op regressed only if it was recorded as a success."""
    return key in outcomes and outcomes[key] is None


def closed_loop(ops: list[Op], seconds: float, golden: dict) -> dict:
    """One client: the next op starts when the previous one is checked.

    The loop visits the ops in passes, in set-up order, until ``seconds``
    have gone by; it always completes the first pass, so that every input
    is timed at least once.  Returns one ``[key, seconds, ok, kernel
    seconds]`` sample per op, the last the reference kernel's time just
    before the op.  ``failed`` counts the ops that failed where a success was
    recorded; ``defects`` counts the other failing ops, the known defects.
    """
    outcomes = golden["outcomes"]
    samples: list[list] = []
    unexpected: list[str] = []
    failed = defects = 0
    deadline = time.perf_counter() + seconds
    while len(samples) < len(ops) or time.perf_counter() < deadline:
        op = ops[len(samples) % len(ops)]
        if op.reset is not None:
            op.reset()
        kernel_s = reference.time_kernel()
        t0 = time.perf_counter()
        observed = op.call()
        elapsed = time.perf_counter() - t0
        problem = op.check(observed)
        samples.append([op.key, elapsed, problem is None, kernel_s])
        if problem is None:
            continue
        if not is_regression(outcomes, op.key):
            defects += 1
            continue
        failed += 1
        if len(unexpected) < 20:
            unexpected.append(f"{op.key}: {problem}")
    return {
        "attempted": len(samples),
        "failed": failed,
        "defects": defects,
        "samples": samples,
        "unexpected": unexpected,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-corpus" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def ready() -> None:
    """Report the end of set-up, then time the reference kernel after it."""
    ready_at = time.monotonic()
    kernels = [reference.time_kernel() for _ in range(KERNEL_SAMPLES)]
    print(f"ready {ready_at} {json.dumps(kernels)}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(SETUPS))
    p.add_argument("--root", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    os.chdir(root)
    golden = load_golden()
    if args.trace:
        import trace_run

        inputs = trace_run.setup(args.workload, root)
        ready()
        if args.setup_only:
            return 0
        result = trace_run.run(args.workload, root, inputs, golden)
    else:
        ops = SETUPS[args.workload](root, args.seed, golden)
        ready()
        if args.setup_only:
            return 0
        result = closed_loop(ops, args.seconds, golden)
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
