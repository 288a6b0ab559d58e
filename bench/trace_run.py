"""The traced run: the pipeline called step by step, one span per layer call.

For every operation of the workload's corpus the run calls, from here,
``parse_operation`` -> ``enumerate_combinations`` -> per combination
``blocked_postcondition``, ``initial_state``, ``derive_pme`` -> the three
renderings -> KB save and load -> ``check_pme``.  Spans (name, start, end,
parent, op id) are kept in memory and written to ``.work/spans-*.json``
at the end.  The corpus is fixed per workload, so every count repeats
exactly between runs.

The corpus is run untraced, then traced, each pass from an empty
``serialize`` cache; a small corpus repeats the pair until the untraced
passes add up to three seconds.  Layer times are per pass, and
``trace.overhead_ratio`` is the ratio of the traced to the untraced wall
time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

import corpus
import worker

IMPORT_SAMPLES = 5
MIN_UNTRACED_S = 3.0
_IMPORT_PROBE = (
    "import sys\n"
    "before = len(sys.modules)\n"
    "import pmegen.cli\n"
    "print(len(sys.modules) - before)\n"
)


class Tracer:
    """Spans in memory; ``call`` runs a function inside one."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        # [name, start, end, parent index, op id]; "op" spans parent the rest
        self.spans: list[list] = []
        self._parent = -1
        self._op = ""

    def begin_op(self, op: str) -> None:
        self._op = op
        if self.enabled:
            self.spans.append(["op", time.perf_counter(), 0.0, -1, op])
            self._parent = len(self.spans) - 1

    def end_op(self) -> None:
        if self.enabled:
            self.spans[self._parent][2] = time.perf_counter()
            self._parent = -1

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, time.perf_counter(), self._parent, self._op])

    def self_ms(self) -> dict[str, float]:
        """Each span name's total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i]) * 1000.0
        return out


def expression_nodes(e) -> int:
    """Expression nodes in a tree, found through the dataclass fields."""
    from pmegen.expr import Expression

    total = 1
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        children = value if isinstance(value, tuple) else (value,)
        total += sum(expression_nodes(c) for c in children if isinstance(c, Expression))
    return total


def setup(workload: str, root: str) -> list[tuple[str, str, str | None]]:
    """(item id, .op text, ops_dir) for the workload's traced corpus.

    Also imports every module the pipeline calls, so that neither pass
    pays for imports.
    """
    import pmegen.cli  # noqa: F401
    import pmegen.oracle  # noqa: F401

    ops_dir = os.path.join(root, "ops")
    shipped = [(f"ops:{n}", t, None) for n, t in corpus.shipped_ops(root)]
    if workload == "cli-corpus":
        items = shipped + [(f"probe:{n}", t, None) for n, t in corpus.probes()]
        lyapunov = next(t for k, t, _ in items if k == "probe:lyapunov")
        items.append(("probe:lyapunov:ops-dir", lyapunov, ops_dir))
        return items
    if workload == "spd-solve":
        items = [(f"spd:{n}", t, ops_dir) for n, t in corpus.spd_family()]
        return items + [(f"spd:{n}", t, ops_dir) for n, t in corpus.shipped_ops(root)]
    from pmegen.opspec import render_spec

    fuzz = [(f"fuzz:{s}", render_spec(corpus.fuzz_spec(s)), None) for s in corpus.FUZZ_SEEDS]
    return fuzz if workload == "fuzz-derive" else shipped + fuzz


def pipeline(items, tracer: Tracer, work: str) -> tuple[dict, dict]:
    """Run every item through every layer; returns (counts, outcomes).

    ``outcomes`` maps each item, and each check of one of its PMEs, to
    None or the reason it failed.
    """
    from pmegen.binding import BindingError, enumerate_combinations
    from pmegen.blockarith import blocked_postcondition
    from pmegen.cli import document_to_json, render_pme_latex, render_pme_text
    from pmegen.engine import (
        StuckDerivation,
        derive_pme,
        initial_state,
        learn,
        load_kb,
        save_kb,
        seed_builtins,
    )
    from pmegen.oracle import OracleError, check_pme
    from pmegen.opspec import parse_operation

    counts = {
        "opspec.specs": 0,
        "binding.combinations": 0,
        "blockarith.cells": 0,
        "blockarith.grid_nodes": 0,
        "engine.steps": 0,
        "engine.pmes": 0,
        "engine.stuck": 0,
        "engine.nested": 0,
        "engine.guard_failures.spd": 0,
        "cli.output_bytes": 0,
        "oracle.trials": 0,
        "oracle.unsupported": 0,
        "oracle.max_residual": 0.0,
    }
    outcomes: dict[str, str | None] = {}
    kb = seed_builtins()
    kb_path = os.path.join(work, "trace.kb")
    nested_names = {n for n, _ in corpus.shipped_ops(os.getcwd())}
    for item, text, ops_dir in items:
        tracer.begin_op(item)
        outcomes[item] = None
        spec = tracer.call("opspec.parse", parse_operation, text)
        counts["opspec.specs"] += 1
        try:
            combos = tracer.call("binding.enumerate", enumerate_combinations, spec)
        except BindingError as exc:
            outcomes[item] = f"{type(exc).__name__}: {exc}"
            tracer.end_op()
            continue
        counts["binding.combinations"] += len(combos)
        pmes = []
        for combo in combos:
            grid = tracer.call("blockarith.grid", blocked_postcondition, spec, combo)
            cells = grid.all_cells()
            counts["blockarith.cells"] += len(cells)
            counts["blockarith.grid_nodes"] += sum(
                expression_nodes(q.equation.lhs) + expression_nodes(q.equation.rhs) for q in cells
            )
            tracer.call("engine.state", initial_state, spec, combo)
            try:
                pme = tracer.call("engine.derive", derive_pme, spec, combo, kb, ops_dir=ops_dir)
            except StuckDerivation as exc:
                counts["engine.stuck"] += 1
                counts["engine.guard_failures.spd"] += sum(
                    "could not establish spd(" in n for n in exc.notes
                )
                continue
            except Exception as exc:  # a defect of the program, counted
                outcomes[item] = f"{type(exc).__name__}: {exc}"
                break
            pmes.append(pme)
            counts["engine.steps"] += len(pme.trace)
            if ops_dir:
                counts["engine.nested"] += sum(
                    s.pattern in nested_names and s.pattern != spec.name for s in pme.trace
                )
        counts["engine.pmes"] += len(pmes)
        for pme in pmes:
            text_out = tracer.call("cli.render", lambda: "\n".join(render_pme_text(pme)))
            latex_out = tracer.call("cli.render", lambda: "\n".join(render_pme_latex(pme)))
            counts["cli.output_bytes"] += len(text_out) + len(latex_out)
        if pmes:
            doc = tracer.call("cli.render", document_to_json, spec.name, pmes)
            counts["cli.output_bytes"] += len(doc)
            learned = learn(spec, seed_builtins())
            tracer.call("engine.save_kb", save_kb, learned, kb_path)
            tracer.call("engine.load_kb", load_kb, kb_path)
        for pme in pmes:
            check_key = f"{item}:check:{pme.combination.index}"
            outcomes[check_key] = None
            try:
                report = tracer.call(
                    "oracle.check",
                    check_pme,
                    pme,
                    spec,
                    trials=worker.CHECK_TRIALS,
                    tolerance=worker.CHECK_TOLERANCE,
                    seed=0,
                )
            except OracleError as exc:
                counts["oracle.unsupported"] += 1
                outcomes[check_key] = f"{type(exc).__name__}: {exc}"
                continue
            counts["oracle.trials"] += len(report.trials)
            counts["oracle.max_residual"] = max(counts["oracle.max_residual"], report.max_residual)
            if not report.ok:
                outcomes[check_key] = f"residual {report.max_residual:.3e}"
        tracer.end_op()
    return counts, outcomes


def serialize_entries() -> int:
    """Entries in the ``serialize`` cache; 0 once the program has no such cache."""
    from pmegen import expr

    info = getattr(expr.serialize, "cache_info", None)
    return info().currsize if info is not None else 0


def import_layer(root: str) -> tuple[float, int]:
    """Median wall time of a fresh interpreter importing ``pmegen.cli``."""
    env = worker.child_env(root)
    walls, modules = [], 0
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout
        walls.append((time.perf_counter() - t0) * 1000.0)
        modules = int(out.strip())
    return statistics.median(walls), modules


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "pmegen")):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run(workload: str, root: str, items, golden: dict) -> dict:
    work = worker.cli_work_dir(root)
    plain, traced = Tracer(enabled=False), Tracer(enabled=True)
    walls = {plain: 0.0, traced: 0.0}
    passes = 0
    # small corpora take a fraction of a second: repeat the pair of passes
    # until the untraced ones add up to MIN_UNTRACED_S
    while passes == 0 or walls[plain] < MIN_UNTRACED_S:
        for tracer in (plain, traced):
            worker.clear_serialize_cache()
            t0 = time.perf_counter()
            counts, outcomes = pipeline(items, tracer, work)
            walls[tracer] += time.perf_counter() - t0
        passes += 1

    with open(os.path.join(work, f"spans-{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": traced.spans}, fh)

    self_ms = {name: ms / passes for name, ms in traced.self_ms().items()}
    derive_ms = self_ms.get("engine.derive", 0.0)
    state_ms = self_ms.get("engine.state", 0.0)
    import_ms, import_modules = import_layer(root)
    metrics = {
        "import.cli_ms": (import_ms, "ms"),
        "import.modules": (import_modules, "count"),
        "opspec.parse_ms": (self_ms.get("opspec.parse", 0.0), "ms"),
        "binding.enumerate_ms": (self_ms.get("binding.enumerate", 0.0), "ms"),
        "blockarith.grid_ms": (self_ms.get("blockarith.grid", 0.0), "ms"),
        "engine.state_ms": (state_ms, "ms"),
        "engine.solve_ms": (derive_ms - state_ms, "ms"),
        "engine.load_kb_ms": (self_ms.get("engine.load_kb", 0.0), "ms"),
        "engine.save_kb_ms": (self_ms.get("engine.save_kb", 0.0), "ms"),
        "cli.render_ms": (self_ms.get("cli.render", 0.0), "ms"),
        "oracle.check_ms": (self_ms.get("oracle.check", 0.0), "ms"),
        "src.lines": (src_lines(root), "count"),
        "trace.overhead_ratio": (walls[traced] / walls[plain], "ratio"),
        "expr.serialize_entries": (serialize_entries(), "count"),
    }
    for name, value in counts.items():
        unit = "ratio" if name == "oracle.max_residual" else "count"
        metrics[name] = (value, unit)
    failing = {f"trace:{workload}:{k}": v for k, v in outcomes.items() if v is not None}
    unexpected = [
        f"{k}: {v}" for k, v in failing.items() if worker.is_regression(golden["outcomes"], k)
    ]
    return {
        "attempted": len(outcomes),
        "failed": len(unexpected),
        "defects": len(failing) - len(unexpected),
        "unexpected": unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
