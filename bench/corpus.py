"""Benchmark inputs: the fuzz-spec generator, the Cholesky-family generator,
the probe operations and the command-line mix.

The generators live here, not in the test suite, so that editing a test
cannot silently change what the benchmark measures.  ``record.py`` checks
that ``random_spec`` still renders the same specs as the test suite's copy.
"""

from __future__ import annotations

import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBES_DIR = os.path.join(BENCH_DIR, "probes")

# spec seeds of the fuzz corpus; golden.json holds the outcome of each
FUZZ_SEEDS = range(300)


# ---------------------------------------------------------------------------
# random, dimension-consistent operation specs (same draws as the test suite)


def random_spec(rng):
    """A random valid spec: sums of chained products against a known rhs.

    ``rng`` is a ``numpy.random.Generator``.  The sequence of draws matches
    ``random_spec`` in the test suite, so seed ``s`` gives the same spec.
    """
    from pmegen.expr import Dimension, Equation, minus, operand_names, plus, ref, times, trans
    from pmegen.opspec import (
        KIND_MATRIX,
        ROLE_KNOWN,
        ROLE_UNKNOWN,
        OperandDecl,
        Property,
        build_spec,
    )

    structures = (
        frozenset(),
        frozenset(),
        frozenset(),
        frozenset({Property.LOWER_TRIANGULAR}),
        frozenset({Property.UPPER_TRIANGULAR}),
        frozenset({Property.SYMMETRIC}),
        frozenset({Property.SPD}),
        frozenset({Property.DIAGONAL}),
    )
    pool = ("m", "n", "p")
    for _ in range(50):
        decls = []
        by_dims = {}
        counter = [0]

        def new_operand(rows, cols):
            name = "ABCDEFGHJKQW"[counter[0]]
            counter[0] += 1
            if rows == cols:
                props = structures[rng.integers(0, len(structures))]
            else:
                props = frozenset()
            decls.append(
                OperandDecl(name, KIND_MATRIX, Dimension(rows, cols), ROLE_KNOWN, props)
            )
            by_dims.setdefault((rows, cols), []).append(name)
            return name

        def factor(rows, cols):
            reuse = by_dims.get((rows, cols), [])
            mirrored = by_dims.get((cols, rows), [])
            roll = rng.random()
            if reuse and roll < 0.4:
                return ref(reuse[int(rng.integers(0, len(reuse)))])
            if mirrored and roll < 0.55 and rows != cols:
                return trans(ref(mirrored[int(rng.integers(0, len(mirrored)))]))
            if counter[0] >= 10:
                if reuse:
                    return ref(reuse[0])
                if mirrored:
                    return trans(ref(mirrored[0]))
            return ref(new_operand(rows, cols))

        d0 = pool[int(rng.integers(0, 3))]
        d1 = pool[int(rng.integers(0, 3))]
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 4))
            chain = [d0] + [pool[int(rng.integers(0, 3))] for _ in range(length - 1)] + [d1]
            factors = [factor(chain[i], chain[i + 1]) for i in range(length)]
            term = factors[0] if len(factors) == 1 else times(*factors)
            if rng.random() < 0.25:
                term = minus(term)
            terms.append(term)
        lhs = plus(*terms)
        rhs_name = new_operand(d0, d1)
        lhs_used = operand_names(lhs)
        lhs_names = sorted(d.name for d in decls if d.name != rhs_name and d.name in lhs_used)
        if not lhs_names:
            continue
        unknown = lhs_names[int(rng.integers(0, len(lhs_names)))]
        final = [
            OperandDecl(
                d.name,
                d.kind,
                d.dims,
                ROLE_UNKNOWN if d.name == unknown else ROLE_KNOWN,
                d.properties,
            )
            for d in decls
            if d.name in lhs_used or d.name == rhs_name
        ]
        try:
            return build_spec("randop", final, Equation(lhs, ref(rhs_name)), "Delta")
        except Exception:
            continue
    raise RuntimeError("could not generate a random spec")


def fuzz_spec(spec_seed: int):
    import numpy as np

    return random_spec(np.random.default_rng(spec_seed))


# ---------------------------------------------------------------------------
# Cholesky-family specs: L * trans(L) = <rhs> with L unknown lower triangular


def _chol_op(name: str, extra: list[str], rhs: str) -> str:
    lines = [
        f"operation {name}",
        "  operand L : matrix(m,m) , unknown , lower_triangular",
        "  operand A : matrix(m,m) , known , spd",
        *(f"  operand {decl}" for decl in extra),
        f"  postcondition: L * trans(L) = {rhs}",
        "  solve: Gamma",
    ]
    return "\n".join(lines) + "\n"


def _with_props(name: str, dims: str, props: str) -> str:
    return f"{name} : matrix({dims}) , known" + (f" , {props}" if props else "")


def spd_family() -> list[tuple[str, str]]:
    """Every spec the Cholesky-family generator can emit, as (name, .op text).

    Each right-hand side asks the SPD prover a different question; some it
    proves, the rest it refutes after a full bounded search.  With the
    three shipped ops the workload has 25 distinct inputs, so that p50 and
    p90 (12.5 and 22.5 inputs in) fall in the middle of one input's
    samples rather than between two inputs of different cost.
    """
    out = [("chol_a", _chol_op("chol_a", [], "A"))]
    for props in ("spd", "symmetric", "diagonal", "lower_triangular", "upper_triangular"):
        out.append(
            (f"chol_as_{props}", _chol_op(f"chol_as_{props}", [_with_props("S", "m,m", props)], "A + S"))
        )
    for props in ("", "symmetric", "lower_triangular", "diagonal", "spd"):
        tag = props or "general"
        out.append(
            (f"chol_ab_{tag}", _chol_op(f"chol_ab_{tag}", [_with_props("B", "m,m", props)], "A + B"))
        )
    for dims, props, tag in (("m,m", "", "m"), ("m,n", "", "n"), ("m,m", "lower_triangular", "lower")):
        out.append(
            (
                f"chol_down_{tag}",
                _chol_op(f"chol_down_{tag}", [_with_props("B", dims, props)], "A - B * trans(B)"),
            )
        )
    for props in ("spd", "symmetric", "diagonal"):
        out.append(
            (
                f"chol_up_{props}",
                _chol_op(
                    f"chol_up_{props}",
                    [_with_props("B", "m,n", ""), _with_props("C", "n,n", props)],
                    "A + B * C * trans(B)",
                ),
            )
        )
    for props in ("", "lower_triangular", "diagonal", "upper_triangular"):
        tag = props or "general"
        out.append(
            (
                f"chol_congr_{tag}",
                _chol_op(f"chol_congr_{tag}", [_with_props("M", "m,m", props)], "M * A * trans(M)"),
            )
        )
    out.append(
        (
            "chol_upper",
            "operation chol_upper\n"
            "  operand U : matrix(m,m) , unknown , upper_triangular\n"
            "  operand A : matrix(m,m) , known , spd\n"
            "  postcondition: trans(U) * U = A\n"
            "  solve: GammaU\n",
        )
    )
    return out


def _op_files(directory: str) -> list[tuple[str, str]]:
    out = []
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".op"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                out.append((fname[: -len(".op")], fh.read()))
    return out


def shipped_ops(root: str) -> list[tuple[str, str]]:
    """The repository's own ``ops/*.op`` files as (name, text)."""
    return _op_files(os.path.join(root, "ops"))


def probes() -> list[tuple[str, str]]:
    """The benchmark's ``probes/*.op`` files as (name, text)."""
    return _op_files(PROBES_DIR)


# Exit codes a probe may end with.  Probes not listed may keep their recorded
# outcome or newly derive.  Scalar scaling should derive (it exits 1 today);
# LU should derive or stop with a diagnosed exit code (it prints a traceback
# today); the dimension clash should derive or be rejected.
EXPECTED_EXITS = {"scal": (0,), "lu": (0, 1, 2, 3), "dim_clash": (0, 1)}


# ---------------------------------------------------------------------------
# the command-line mix


def cli_jobs(root: str, work: str) -> list[tuple[str, list[list[str]]]]:
    """Jobs of the command-line workload: (name, argument lists run in order).

    Every job but ``learn`` is one invocation.  ``learn`` grows a fresh KB
    file and then reads it back, so its invocations keep their order.
    Paths are relative to ``root``; ``work`` holds the KB file.
    """
    rel_probes = os.path.relpath(PROBES_DIR, root)
    rel_golden = os.path.relpath(os.path.join(BENCH_DIR, "golden"), root)
    files = [(n, f"ops/{n}.op") for n, _ in shipped_ops(root)]
    files += [(n, f"{rel_probes}/{n}.op") for n, _ in probes()]
    jobs = []
    for name, path in files:
        for fmt in ("text", "latex", "json"):
            jobs.append((f"derive:{name}:{fmt}", [["derive", path, "--format", fmt]]))
    jobs.append(
        ("derive:lyapunov:ops-dir", [["derive", f"{rel_probes}/lyapunov.op", "--ops-dir", "ops"]])
    )
    for name, path in files:
        # the recorded json output of the derive job is the check input
        doc = os.path.join(rel_golden, f"derive-{name}-json.0.out")
        if _has_pmes(os.path.join(root, doc)):
            jobs.append((f"check:{name}", [["check", path, doc, "--trials", "50"]]))
    kb = os.path.join(work, "learned.kb")
    jobs.append(
        (
            "learn",
            [
                ["derive", "ops/trsm.op", "--kb", kb, "--learn"],
                ["derive", "ops/cholesky.op", "--kb", kb, "--learn"],
                ["derive", "ops/cholesky.op", "--kb", kb, "--no-builtin", "trsm"],
                ["derive", "ops/sylvester.op", "--kb", kb, "--format", "json"],
                ["kb", "list", "--kb", kb],
            ],
        )
    )
    jobs.append(("kb-list", [["kb", "list"]]))
    return jobs


def _has_pmes(path: str) -> bool:
    if not os.path.exists(path):
        return False
    with open(path, encoding="utf-8") as fh:
        return bool(json.load(fh)["pmes"])


def shuffled(items: list, seed: int) -> list:
    """A copy of ``items`` in an order fixed by ``seed``."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
