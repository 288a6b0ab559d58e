"""Run one pmegen benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fuzz-derive --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one worker process at a time):

- ``cli-corpus``: ``python -m pmegen.cli`` invocations, one after another:
  derive in three formats over ``ops/*.op`` and the probes, derive with
  ``--ops-dir``, learn into a fresh KB and read it back, ``kb list`` and
  ``check --trials 50``.  Start-up dominates each invocation.
- ``fuzz-derive``: in-process ``derive_all`` over the fuzz specs (seeds
  0-299 of ``random_spec``).  Grid construction dominates.
- ``spd-solve``: in-process ``derive_all(..., ops_dir="ops")`` over the
  Cholesky-family specs.  Refuted SPD guards dominate.
- ``oracle-check``: in-process ``check_pme`` (50 trials) over every PME
  derived from ``ops/*.op`` and the fuzz specs recorded as deriving.  The
  numeric layer dominates.

``--seed`` fixes the order in which a workload's ops are visited.  Every
op starts from a cold ``serialize`` cache, as a fresh ``pmegen`` process
would.  Each run starts fresh interpreters with ``PYTHONPATH`` set to the
checkout's ``src/`` and a fixed ``PYTHONHASHSEED``, all on one CPU.  Every
time it reports is a wall time corrected to nominal host speed by a
reference kernel timed beside it (see ``reference.py``).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
the traced pipeline (see ``trace_run.py``).  The lines before it print
every metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import reference
import worker

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 5
# the whole run must end well inside the three minutes a run is allowed
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float):
    """Start one worker; returns (set-up seconds, parsed result or None).

    The set-up time is corrected to nominal host speed with the reference
    kernel timed just before the worker starts and just after it is ready.
    """
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        args.workload,
        "--root", ROOT,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    kernels = [reference.time_kernel() for _ in range(worker.KERNEL_SAMPLES)]
    start = time.monotonic()
    # its own process group, so that a worker stopped on time takes the
    # command-line invocation it may be waiting for with it
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker.child_env(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise RuntimeError("worker ran past the time limit") from None
    except BaseException:  # interrupted or terminated: take the worker along
        stop_group(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("ready ")]
    if not ready:
        raise RuntimeError("worker never reported ready")
    _, ready_at, after = ready[0].split(" ", 2)
    kernels += json.loads(after)
    setup_s = (float(ready_at) - start) / reference.host_speed(kernels)
    result = None if setup_only else json.loads(lines[-1])
    return setup_s, result


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until all of it is gone."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def weighted_percentile(values: list[float], weights: list[float], pct: float) -> float:
    """Percentile of weighted samples, interpolating between the midpoints
    of neighbouring samples' weights."""
    pairs = sorted(zip(values, weights))
    target = pct / 100.0 * sum(weights)
    acc = 0.0
    prev = None
    for value, weight in pairs:
        mid = acc + weight / 2.0
        if mid >= target:
            if prev is None:
                return value
            prev_mid, prev_value = prev
            return prev_value + (target - prev_mid) / (mid - prev_mid) * (value - prev_value)
        prev = (mid, value)
        acc += weight
    return pairs[-1][0]


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    """Metrics over every visit of the run, at nominal host speed.

    Each op's wall time is corrected by the reference kernel timed just
    before it (see ``reference.py``).  Each visit weighs 1/visits of its
    input, so every distinct input counts once however often the run
    reached it: a run stops part-way through a pass.  A failing input has
    no latency worth reporting: the timing metrics cover the inputs that
    succeeded on every visit, and ``ok_ratio`` (1 - fail_ratio, since no
    metric here may be 0) says what share of the inputs those are.
    """
    samples = result["samples"]
    kernels = [kernel_s for _, _, _, kernel_s in samples]
    times = reference.corrected([wall for _, wall, _, _ in samples], kernels)
    clean: dict[str, bool] = {}
    visits: dict[str, int] = {}
    for key, _, good, _ in samples:
        clean[key] = clean.get(key, True) and good
        visits[key] = visits.get(key, 0) + 1
    timed = [(key, t) for (key, _, _, _), t in zip(samples, times) if clean[key]]
    if len({key for key, _ in timed}) < 2:  # a broken program: time every op rather than none
        timed = [(key, t) for (key, _, _, _), t in zip(samples, times)]
    values = [t for _, t in timed]
    weights = [1.0 / visits[key] for key, _ in timed]
    mean_s = sum(w * t for w, t in zip(weights, values)) / sum(weights)
    ok_share = sum(clean.values()) / len(clean)
    p90_ms = weighted_percentile(values, weights, 90) * 1000.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1.0 / mean_s, "1/s"),
        "latency_ms_p50": (weighted_percentile(values, weights, 50) * 1000.0, "ms"),
        "latency_ms_p90": (p90_ms, "ms"),
        "ok_ratio": (ok_share, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    walls = [wall for key, wall, _, _ in samples if clean[key]] or [wall for _, wall, _, _ in samples]
    notes = [
        f"set-up samples = {len(setups)}",
        f"{result['attempted']} ops over {len(visits)} inputs, "
        f"{min(visits.values())}-{max(visits.values())} visits each",
        f"ops_per_s and latencies cover {len(timed)} visits of {len({k for k, _ in timed})} inputs "
        f"(those that succeeded, if 2 or more); {sum(t * 1000.0 > p90_ms for t in values)} visits beyond p90",
        f"host speed: reference kernel median {statistics.median(kernels) * 1000.0:.3f} ms, "
        f"{reference.host_speed(kernels):.2f} x nominal; uncorrected median op "
        f"{statistics.median(walls) * 1000.0:.4g} ms",
        f"fail_ratio = {1.0 - ok_share:.4f} ({len(clean) - sum(clean.values())} of {len(clean)} inputs "
        f"fail: {result['defects']} known-defect ops, {result['failed']} regressions)",
    ]
    return metrics, notes


def _terminated(signum, frame) -> None:
    raise SystemExit(1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(worker.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    for needed in ("src/pmegen/__init__.py", "ops"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} is missing: run from the root of a pmegen checkout")
    signal.signal(signal.SIGTERM, _terminated)
    # one CPU for this process and every process it starts, so that the
    # reference kernel and the op it corrects run on the same CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_worker(args, False, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    setups.append(setup_s)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        notes = [
            f"traced corpus: {attempted} operations, {result['defects']} known-defect failures, "
            f"{failed} regressions"
        ]
    else:
        metrics, notes = end_to_end(setups, result)
    for problem in result["unexpected"]:
        print(f"bench: unexpected failure: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    summary = {
        "correct": failed == 0 and not result["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
