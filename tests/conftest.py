"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from pmegen import blockarith, engine, expr, opspec
from pmegen.binding import NoViablePartitioningsError, RuleCombination
from pmegen.blockarith import blocked_operands, raw_blocked_equations
from pmegen.expr import (
    Dimension,
    Equation,
    Expression,
    OperandRef,
    minus,
    operand_names,
    plus,
    ref,
    serialize,
    times,
    trans,
)
from pmegen.opspec import (
    KIND_MATRIX,
    OperandDecl,
    OperationSpec,
    Property,
    ROLE_KNOWN,
    ROLE_UNKNOWN,
    build_spec,
    parse_operation,
)
from pmegen.oracle import (
    CONDITION_LIMIT,
    OracleError,
    SingularMatrixError,
    _sampler,
    _size,
    block_edges,
    evaluate,
)

OPS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "ops")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


# ---------------------------------------------------------------------------
# first-principles solvers: the independent references for the oracle's
# LAPACK kernels


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor by the column-by-column recurrence."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise OracleError("cholesky needs a square matrix")
    l = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(l[j, :j], l[j, :j])
        if d <= 0.0:
            raise OracleError(f"matrix is not positive definite at column {j}")
        l[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            l[i, j] = (a[i, j] - np.dot(l[i, :j], l[j, :j])) / l[j, j]
    return l


def solve_triangular_sylvester(
    l: np.ndarray, u: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Solve ``l x + x u = c`` with l lower and u upper triangular.

    Entry (i, j) depends only on earlier rows of the same column and
    earlier columns of the same row, so a forward sweep suffices.
    """
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = c.shape
    x = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            denom = l[i, i] + u[j, j]
            if abs(denom) < 1e-13:
                raise SingularMatrixError(
                    f"diagonal sum vanished at entry ({i}, {j})"
                )
            acc = c[i, j]
            acc -= np.dot(l[i, :i], x[:i, j])
            acc -= np.dot(x[i, :j], u[:j, j])
            x[i, j] = acc / denom
    return x


def solve_transposed_lower_right(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``x @ l.T = b`` for lower triangular ``l`` by back substitution."""
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = b.shape
    x = np.zeros((m, n))
    for j in range(n):
        if abs(l[j, j]) < 1e-13:
            raise SingularMatrixError(f"zero diagonal at column {j}")
        for i in range(m):
            x[i, j] = (b[i, j] - np.dot(x[i, :j], l[j, :j])) / l[j, j]
    return x


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise OracleError("inverse needs a square matrix")
    work = np.hstack([a.copy(), np.eye(n)])
    scale = max(np.max(np.abs(a)), 1.0)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        if abs(work[pivot_row, col]) < 1e-13 * scale:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        work[col] /= work[col, col]
        factors = work[:, col].copy()
        factors[col] = 0.0
        work -= np.outer(factors, work[col])
    out = work[:, n:]
    # crude condition estimate guards against meaningless results
    cond = float(np.abs(a).sum(axis=1).max() * np.abs(out).sum(axis=1).max())
    if cond > CONDITION_LIMIT:
        raise SingularMatrixError(f"condition estimate {cond:.2e} too large")
    return out


def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by Gauss elimination with partial pivoting."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    n = a.shape[0]
    if b.ndim == 1:
        b = b.reshape(n, 1)
    scale = max(np.max(np.abs(a)), 1.0)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-13 * scale:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            if f != 0.0:
                a[row, col:] -= f * a[col, col:]
                b[row] -= f * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def kron_sylvester_solution(l: np.ndarray, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Brute-force Sylvester solution through the Kronecker linear system."""
    m, n = c.shape
    system = np.kron(np.eye(n), l) + np.kron(u.T, np.eye(m))
    vec = gauss_solve(system, c.reshape(-1, order="F"))
    return vec.reshape((m, n), order="F")


def min_symmetric_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((a + a.T) / 2.0).min())


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m pmegen.cli`` child that imports this
    checkout's ``src/``, like the test process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def load_op(name: str) -> OperationSpec:
    with open(os.path.join(OPS_DIR, f"{name}.op"), "r", encoding="utf-8") as fh:
        return parse_operation(fh.read())


@pytest.fixture(scope="session")
def cholesky_spec() -> OperationSpec:
    return load_op("cholesky")


@pytest.fixture(scope="session")
def sylvester_spec() -> OperationSpec:
    return load_op("sylvester")


@pytest.fixture(scope="session")
def trsm_spec() -> OperationSpec:
    return load_op("trsm")


# ---------------------------------------------------------------------------
# random, dimension-consistent operation specs


_STRUCTURES = (
    frozenset(),
    frozenset(),
    frozenset(),
    frozenset({Property.LOWER_TRIANGULAR}),
    frozenset({Property.UPPER_TRIANGULAR}),
    frozenset({Property.SYMMETRIC}),
    frozenset({Property.SPD}),
    frozenset({Property.DIAGONAL}),
)


def random_spec(rng: np.random.Generator) -> OperationSpec:
    """A random valid spec: sums of chained products against a known rhs.

    Operands are declared as they are first used, with structure only on
    square operands, so every generated postcondition is dimensionally
    consistent by construction.
    """
    pool = ("m", "n", "p")
    for _ in range(50):
        decls: list[OperandDecl] = []
        by_dims: dict[tuple[str, str], list[str]] = {}
        counter = [0]

        def new_operand(rows: str, cols: str) -> str:
            name = "ABCDEFGHJKQW"[counter[0]]
            counter[0] += 1
            if rows == cols:
                props = _STRUCTURES[rng.integers(0, len(_STRUCTURES))]
            else:
                props = frozenset()
            decls.append(
                OperandDecl(name, KIND_MATRIX, Dimension(rows, cols), ROLE_KNOWN, props)
            )
            by_dims.setdefault((rows, cols), []).append(name)
            return name

        def factor(rows: str, cols: str) -> Expression:
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
        terms: list[Expression] = []
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
        used = {d.name for d in decls}
        lhs_names = sorted(
            n for n in used - {rhs_name} if n in _names_of(lhs)
        )
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
            if d.name in _names_of(lhs) or d.name == rhs_name
        ]
        try:
            return build_spec("randop", final, Equation(lhs, ref(rhs_name)), "Delta")
        except Exception:
            continue
    raise RuntimeError("could not generate a random spec")


def corpus_specs() -> list[tuple[str, OperationSpec]]:
    """The corpus: ``ops/*.op`` and ``random_spec`` seeds 0-299, labelled."""
    specs = [
        (f"ops:{f}", load_op(f[:-3])) for f in sorted(os.listdir(OPS_DIR)) if f.endswith(".op")
    ]
    return specs + [(f"seed:{s}", random_spec(np.random.default_rng(s))) for s in range(300)]


def _bench_module(name: str):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", f"{name}.py")
    module_spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def bench_corpus():
    """The benchmark's input generators (``bench/corpus.py``)."""
    return _bench_module("corpus")


def bench_worker():
    """The benchmark's outcome checks (``bench/worker.py``).  The worker puts
    ``bench/`` on ``sys.path`` to import its siblings; that lasts only while
    it loads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        return _bench_module("worker")


@pytest.fixture(scope="session")
def corpus_run() -> dict[str, list]:
    """The corpus, derived once per session, with what the derivation passes
    to five functions recorded.

    The corpus is the benchmark's spd family, with and without ``ops/``,
    and :func:`corpus_specs` with ``ops/``.  No fuzz seed nests, so
    ``ops/`` changes none of their results; it only adds the calls that
    look for a nested derivation.

    - ``"derived"``: (spec, ops_dir, ``derive_each`` results), with None as
      the results of a spec without viable partitionings;
    - ``"states"``: each ``_initial_state`` state, as its derivation left it;
    - ``"state_specs"``: the spec of each of those states;
    - ``"grids"``: each grid of ``raw_blocked_equations``;
    - ``"prove_spd"``: each distinct SPD query, with a snapshot of its state;
    - ``"plus"``: each distinct argument tuple of ``expr.plus``;
    - ``"has_unknown"``: each distinct expression, with a frozen copy of its
      known names.
    """
    states: list[engine.DerivationState] = []
    state_specs: list[OperationSpec] = []
    grids: list[blockarith.BlockedEquationGrid] = []
    queries: dict[tuple[str, ...], tuple[Expression, engine.DerivationState]] = {}
    sums: dict[tuple[str, ...], tuple[Expression, ...]] = {}
    unknowns: dict[tuple[str, frozenset[str]], tuple[Expression, frozenset[str]]] = {}
    real_state, real_raw = engine._initial_state, blockarith.raw_blocked_equations
    real_prove, real_plus, real_has_unknown = engine.prove_spd, expr.plus, expr.has_unknown

    def initial_state(spec, *args):
        states.append(real_state(spec, *args))
        state_specs.append(spec)
        return states[-1]

    def raw_blocked_equations(*args):
        grids.append(real_raw(*args))
        return grids[-1]

    def prove_spd(e, state):
        key = (
            serialize(e),
            *(f"{f.property.value} {serialize(f.expression)}" for f in state.facts),
            "|",
            *(serialize(t) for t in state.tautologies),
        )
        snapshot = replace(state, facts=list(state.facts), tautologies=list(state.tautologies))
        queries.setdefault(key, (e, snapshot))
        return real_prove(e, state)

    def plus_(*terms):
        sums.setdefault(tuple(map(serialize, terms)), terms)
        return real_plus(*terms)

    def has_unknown(e, known):
        known = frozenset(known)
        unknowns.setdefault((serialize(e), known), (e, known))
        return real_has_unknown(e, known)

    specs = [parse_operation(text) for _, text in bench_corpus().spd_family()]
    runs = [(spec, ops_dir) for spec in specs for ops_dir in (None, OPS_DIR)]
    runs += [(spec, OPS_DIR) for _, spec in corpus_specs()]
    derived = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_initial_state", initial_state)
        mp.setattr(blockarith, "raw_blocked_equations", raw_blocked_equations)
        mp.setattr(engine, "prove_spd", prove_spd)
        # every module that imports ``plus`` by name, and expr for its own callers
        for module in (expr, blockarith, opspec):
            mp.setattr(module, "plus", plus_)
        mp.setattr(expr, "has_unknown", has_unknown)
        for spec, ops_dir in runs:
            try:
                results = engine.derive_each(spec, engine.seed_builtins(), ops_dir=ops_dir)
            except NoViablePartitioningsError:
                results = None
            derived.append((spec, ops_dir, results))
    return {
        "derived": derived,
        "states": states,
        "state_specs": state_specs,
        "grids": grids,
        "prove_spd": list(queries.values()),
        "plus": list(sums.values()),
        "has_unknown": list(unknowns.values()),
    }


@pytest.fixture(scope="session")
def spd_corpus_queries(corpus_run) -> list[tuple[Expression, engine.DerivationState]]:
    """Every distinct SPD query, with a snapshot of its state, that deriving
    the corpus asks (see ``corpus_run``)."""
    return corpus_run["prove_spd"]


def _names_of(e: Expression) -> frozenset[str]:
    return operand_names(e)


# ---------------------------------------------------------------------------
# numeric faithfulness helper (blocked arithmetic vs whole-matrix arithmetic)


def _sizes_for(blocks, rng: np.random.Generator, lo: int = 2, hi: int = 6) -> dict[str, int]:
    parents: set[str] = set()
    splits: dict[str, str] = {}
    for b in blocks.values():
        for size in b.row_sizes + b.col_sizes:
            if "-" in size:
                parent, split = size.split("-", 1)
                parents.add(parent)
                splits[split] = parent
            elif size != "1":
                parents.add(size)
    sizes = {p: int(rng.integers(lo, hi + 1)) for p in sorted(parents)}
    for split, parent in sorted(splits.items()):
        sizes[split] = int(rng.integers(1, sizes[parent]))
    return sizes


def check_blocking_faithful(
    spec: OperationSpec,
    combo: RuleCombination,
    rng: np.random.Generator,
    tol: float = 1e-12,
) -> int:
    """Evaluate every raw quadrant equation against slices of the full sides.

    Returns the number of cells compared; raises AssertionError on any
    relative mismatch beyond ``tol``.
    """
    blocks = blocked_operands(spec, combo)
    grid = raw_blocked_equations(spec, blocks)
    sizes = _sizes_for(blocks, rng)
    axes = [grid.row_sizes, grid.col_sizes]
    axes += [axis for b in blocks.values() for axis in (b.row_sizes, b.col_sizes)]
    size_of = {s: _size(s)(sizes) for axis in axes for s in axis}
    values: dict[str, np.ndarray] = {}
    for decl in spec.operands:
        b = blocks[decl.name]
        row_edges = block_edges(b.row_sizes, size_of)
        col_edges = block_edges(b.col_sizes, size_of)
        full = _sampler(decl.kind, decl.properties)((row_edges[-1], col_edges[-1]), rng)
        values[decl.name] = full
        for i, row in enumerate(b.cells):
            for j, cell in enumerate(row):
                if isinstance(cell, OperandRef):
                    values[cell.name] = full[
                        row_edges[i] : row_edges[i + 1],
                        col_edges[j] : col_edges[j + 1],
                    ]
    lhs_full = evaluate(spec.postcondition.lhs, values)
    rhs_full = evaluate(spec.postcondition.rhs, values)
    row_edges = block_edges(grid.row_sizes, size_of)
    col_edges = block_edges(grid.col_sizes, size_of)
    scale_l = max(float(np.linalg.norm(lhs_full)), 1.0)
    scale_r = max(float(np.linalg.norm(rhs_full)), 1.0)
    checked = 0
    for i, row in enumerate(grid.cells):
        for j, q in enumerate(row):
            shape = (
                row_edges[i + 1] - row_edges[i],
                col_edges[j + 1] - col_edges[j],
            )
            lv = evaluate(q.equation.lhs, values, shape=shape)
            rv = evaluate(q.equation.rhs, values, shape=shape)
            ls = lhs_full[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            rs = rhs_full[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            assert np.linalg.norm(lv - ls) / scale_l <= tol
            assert np.linalg.norm(rv - rs) / scale_r <= tol
            checked += 1
    return checked
