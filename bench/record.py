"""Record the golden outcomes every benchmark op is checked against.

Run from the repository root, on the commit whose behaviour is the
reference::

    PYTHONPATH=src PYTHONHASHSEED=0 python bench/record.py

It first checks that ``corpus.random_spec`` still renders the same specs
as ``random_spec`` in ``tests/conftest.py`` for the fuzz seeds, then
writes ``bench/golden.json`` (digests of every derived PME, and for every
op None or the reason it fails now, which later runs count as a known
defect) and ``bench/golden/*.out`` (the recorded command-line output).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import corpus  # noqa: E402
import trace_run  # noqa: E402
import worker  # noqa: E402


def self_check(root: str) -> None:
    """The copied generator must match the test suite's, spec for spec."""
    import numpy as np
    from pmegen.opspec import render_spec

    sys.path.insert(0, os.path.join(root, "tests"))
    from conftest import random_spec as test_random_spec

    for s in corpus.FUZZ_SEEDS:
        ours = render_spec(corpus.fuzz_spec(s))
        theirs = render_spec(test_random_spec(np.random.default_rng(s)))
        if ours != theirs:
            raise SystemExit(f"random_spec copy differs from tests/conftest.py at seed {s}")


def record_derives(root: str, golden: dict) -> None:
    from pmegen.engine import seed_builtins
    from pmegen.opspec import parse_operation

    kb = seed_builtins()
    ops_dir = os.path.join(root, "ops")
    items = [(f"fuzz:{s}", corpus.fuzz_spec(s), None) for s in corpus.FUZZ_SEEDS]
    family = corpus.spd_family() + corpus.shipped_ops(root)
    items += [(f"spd:{n}", parse_operation(t), ops_dir) for n, t in family]
    for key, spec, spec_ops_dir in items:
        worker.clear_serialize_cache()
        outcome = worker.derive_outcome(worker.run_derive(spec, kb, spec_ops_dir))
        golden["derive"][key] = outcome
        result = outcome["result"]
        golden["outcomes"][key] = result if result.startswith("error") else None


def record_checks(root: str, golden: dict) -> None:
    for key, spec, pme in worker.oracle_corpus(root, golden):
        worker.clear_serialize_cache()
        outcome = worker.check_outcome(pme, spec)
        golden["outcomes"][f"check:{key}"] = worker.check_problem(outcome)


def out_name(job: str, i: int) -> str:
    return f"{job.replace(':', '-')}.{i}.out"


def record_cli(root: str, golden: dict, checks: bool) -> None:
    env = worker.child_env(root)
    work = worker.cli_work_dir(root)
    for job, invocations in corpus.cli_jobs(root, work):
        if (job.startswith("check:")) != checks:
            continue
        if job == "learn":
            worker._remove(os.path.join(work, "learned.kb"))
        for i, args in enumerate(invocations):
            key = f"cli:{job}:{i}"
            proc = worker.cli_invoke(root, env, args)
            allowed = {0, proc.returncode}
            if job.startswith("derive:"):
                allowed = set(corpus.EXPECTED_EXITS.get(job.split(":")[1], allowed))
            elif args[0] == "check":
                allowed = {0}
            record = {"exit": proc.returncode, "allowed_exits": sorted(allowed)}
            if args[0] != "check" and proc.returncode in (0, 3):
                name = out_name(job, i)
                with open(os.path.join(worker.GOLDEN_OUT, name), "w", encoding="utf-8") as fh:
                    fh.write(proc.stdout)
                record["stdout"] = name
            golden["cli"][key] = record
            golden["outcomes"][key] = worker.cli_problem(record, args, proc)


def record_traces(root: str, golden: dict) -> None:
    work = worker.cli_work_dir(root)
    for workload in worker.SETUPS:
        items = trace_run.setup(workload, root)
        worker.clear_serialize_cache()
        _, outcomes = trace_run.pipeline(items, trace_run.Tracer(enabled=False), work)
        for key, reason in outcomes.items():
            golden["outcomes"][f"trace:{workload}:{key}"] = reason


def main() -> int:
    root = os.getcwd()
    self_check(root)
    if os.path.isdir(worker.GOLDEN_OUT):
        shutil.rmtree(worker.GOLDEN_OUT)
    os.makedirs(worker.GOLDEN_OUT)
    golden: dict = {"derive": {}, "cli": {}, "outcomes": {}}
    record_derives(root, golden)
    record_checks(root, golden)
    record_cli(root, golden, checks=False)
    record_cli(root, golden, checks=True)
    record_traces(root, golden)
    with open(worker.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    fuzz = [v["result"] for k, v in golden["derive"].items() if k.startswith("fuzz:")]
    print(
        f"fuzz: {fuzz.count('derived')} derive, {fuzz.count('stuck')} stuck, "
        f"{sum(len(v['pmes']) for k, v in golden['derive'].items() if k.startswith('fuzz:'))} PMEs; "
        f"known failures: {sum(v is not None for v in golden['outcomes'].values())}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
