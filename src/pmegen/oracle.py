"""Numeric instantiation harness for verifying symbolic derivations.

Symbolic results only deserve trust once random conforming matrices have
been pushed through them.  This module samples operands that honor their
declared structure, evaluates expressions over those samples, resolves
inverses and solution operators through LAPACK kernels (``numpy.linalg``:
``inv``, ``cholesky`` and one ``solve`` per system), and measures how well
a PME reproduces the operation it was derived from.

The kernels keep the guards of the first-principles solvers they replaced
(now the tests' independent references): a condition estimate for
inverses, positive definiteness, a vanishing ``l_ii + u_jj`` for triangular
Sylvester systems and a zero triangular diagonal.  The switch changed the
residual digits of the checks once; seeds, sizes and verdicts did not.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import partial
from itertools import accumulate
from typing import Callable, Collection, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .blockarith import blocked_operands
from .engine import PME
from .expr import (
    Expression,
    Inverse,
    Minus,
    OperandRef,
    Plus,
    SolvedBy,
    Times,
    Transpose,
    Zero,
    serialize,
    walk,
)
from .opspec import KIND_SCALAR, OperationSpec, Property


CONDITION_LIMIT = 1e12


class OracleError(ValueError):
    pass


class SingularMatrixError(OracleError):
    pass


class UnboundOperandError(OracleError):
    pass


# ---------------------------------------------------------------------------
# base solvers, on LAPACK kernels


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse, refused when its infinity-norm condition estimate is too large."""
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"inverse: {exc}") from None
    cond = float(np.abs(a).sum(axis=1).max() * np.abs(out).sum(axis=1).max())
    if not cond <= CONDITION_LIMIT:
        raise SingularMatrixError(f"condition estimate {cond:.2e} too large")
    return out


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, read from the lower triangle of ``a``."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"cholesky: {exc}") from None


def sylvester(l: np.ndarray, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``l x + x u = c`` with l lower and u upper triangular.

    The Kronecker system ``(I (x) l + u^T (x) I) vec(x) = vec(c)`` is
    triangular with diagonal ``l_ii + u_jj``, so it is singular exactly
    when one of those sums vanishes.
    """
    m, n = c.shape
    if l.shape != (m, m) or u.shape != (n, n):
        raise OracleError(f"sylvester blocks do not conform to the {m}x{n} right side")
    vanished = np.argwhere(np.abs(np.add.outer(np.diag(l), np.diag(u))) < 1e-13)
    if len(vanished):
        raise SingularMatrixError("diagonal sum vanished at entry ({}, {})".format(*vanished[0]))
    # entry [j, i, k, p] is the coefficient of x[p, k] in equation (i, j)
    system = u.T[:, None, :, None] * np.eye(m)[None, :, None, :]
    system[np.arange(n), :, np.arange(n), :] += l
    x = np.linalg.solve(system.reshape(n * m, n * m), c.T.reshape(n * m))
    return x.reshape(n, m).T


def trsm(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``x @ l.T = b`` for lower triangular ``l``."""
    zero = np.flatnonzero(np.abs(np.diag(l)) < 1e-13)
    if len(zero):
        raise SingularMatrixError(f"zero diagonal at column {zero[0]}")
    return np.linalg.solve(l, b.T).T


BASE_SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "Gamma": cholesky,
    "Omega": sylvester,
    "Trsm": trsm,
}


# ---------------------------------------------------------------------------
# sampling


def _size(size: str) -> Callable[[Mapping[str, int]], int]:
    """``size`` (a symbol, the literal 1, or ``a-b``) parsed once, into a
    closure over one trial's symbol values."""
    symbol, minus, rest = size.partition("-")
    subtracted = _size(rest) if minus else None

    def run(sizes):
        try:
            value = 1 if symbol == "1" else int(sizes[symbol])
        except KeyError:
            raise UnboundOperandError(f"size symbol {symbol} is unbound") from None
        if value <= 0:
            raise OracleError(f"size {symbol} evaluated to {value}")
        if subtracted:
            value -= subtracted(sizes)
            if value <= 0:
                raise OracleError(f"size {size} evaluated to {value}")
        return value

    return run


def _sampler(kind: str, properties: Collection[Property]) -> Callable[..., np.ndarray]:
    """Random matrix draw honoring the declared structure exactly, chosen
    once per input from its kind and properties so that a trial only draws.

    Triangular and diagonal samples get diagonal entries of magnitude at
    least one, spd samples are built as ``m.T @ m + n * eye`` so their
    conditioning stays mild at desk scale.
    """
    if kind == KIND_SCALAR:
        return lambda shape, rng: rng.uniform(1.0, 2.0, size=(1, 1))
    if Property.SPD in properties:
        return _spd
    if Property.DIAGONAL in properties:
        return lambda shape, rng: np.diag(rng.uniform(1.0, 2.0, size=shape[0]))
    if Property.LOWER_TRIANGULAR in properties or Property.UPPER_TRIANGULAR in properties:
        return partial(_triangular, Property.LOWER_TRIANGULAR in properties)
    if Property.SYMMETRIC in properties:
        return _symmetric
    return lambda shape, rng: rng.uniform(-1.0, 1.0, size=shape)


def _spd(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    m = shape[0]
    base = rng.uniform(-1.0, 1.0, size=(m, m))
    out = base.T @ base
    out.reshape(-1)[:: m + 1] += m
    return out


def _triangular(lower: bool, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, size=shape)
    view = a if lower else a.T  # the triangle to zero lies above its diagonal
    for i in range(shape[0]):
        view[i, i + 1 :] = 0.0
    a.reshape(-1)[:: shape[1] + 1] = rng.uniform(1.0, 2.0, size=shape[0])
    return a


def _symmetric(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, size=shape)
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# evaluation


# nodes whose value is kept for the rest of a trial when they repeat
_REUSABLE = (Times, Inverse, SolvedBy)
_TRANSPOSE = operator.attrgetter("T")


def evaluate(
    e: Expression, values: Mapping[str, np.ndarray], shape: Optional[tuple[int, int]] = None
) -> np.ndarray:
    """Evaluate an expression over the values of its operands and blocks.

    ``shape`` supplies the dimensions of a bare zero block, which carries
    no size information of its own.
    """
    sizes = {} if shape is None else {"rows": shape[0], "cols": shape[1]}
    return _compile(e, frozenset(), shape and ("rows", "cols"))(values, sizes)


def _compile(
    e: Expression, reused: frozenset[str], shape: Optional[tuple[str, str]] = None
) -> Callable[[dict, Mapping[str, int]], np.ndarray]:
    """``e`` as a closure over one trial's values (names, and the keys of
    reused subtrees) and sizes (size expressions).

    Node types are dispatched here, once, so that a trial only computes.
    ``shape`` names the size expressions of a bare zero block.  A subtree
    whose key is in ``reused`` is evaluated once per trial: its value is
    kept in the trial's values under that key, which no name can equal.
    Errors that depend on the trial (an unbound name, an operator without
    a solver, a singular kernel) are raised when the closure runs.
    """
    kind = type(e)
    if kind is OperandRef:
        name = e.name

        def run(values, sizes):
            try:
                return values[name]
            except KeyError:
                raise UnboundOperandError(f"operand {name} is unbound") from None

        return run
    if kind is Zero:

        def run(values, sizes):
            if shape is None:
                raise OracleError("cannot size a bare zero block without context")
            return np.zeros((sizes[shape[0]], sizes[shape[1]]))

        return run
    # only a sum or a negation hands a zero block's shape down
    down = shape if kind in (Plus, Minus) else None
    children = [_compile(c, reused, down) for c in e.children()]
    if kind in (Plus, Times):
        combine = operator.add if kind is Plus else operator.matmul
        first, *rest = children

        def run(values, sizes):
            acc = first(values, sizes)
            for child in rest:
                acc = combine(acc, child(values, sizes))
            return acc

    elif kind is SolvedBy:
        operator_name, solver = e.operator_name, BASE_SOLVERS.get(e.operator_name)

        def run(values, sizes):
            if solver is None:
                raise OracleError(f"no base solver for operator {operator_name}")
            return solver(*[child(values, sizes) for child in children])

    else:
        unary = {Minus: operator.neg, Transpose: _TRANSPOSE, Inverse: inverse}[kind]
        (child,) = children

        def run(values, sizes):
            return unary(child(values, sizes))

    key = serialize(e)
    if key not in reused:
        return run

    def shared(values, sizes):
        value = values.get(key)
        if value is None:
            value = values[key] = run(values, sizes)
        return value

    return shared


def relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Frobenius norms as ``np.linalg.norm`` computes them, ``sqrt(v.dot(v))``
    over the entries in memory order."""
    diff, ref = (lhs - rhs).ravel("K"), rhs.ravel("K")
    return math.sqrt(diff.dot(diff)) / max(math.sqrt(ref.dot(ref)), 1e-30)


# ---------------------------------------------------------------------------
# PME checking


class TrialResult(NamedTuple):
    seed: int
    sizes: tuple[tuple[str, int], ...]
    residual: float
    ok: bool


class CheckReport(NamedTuple):
    operation: str
    combination_index: int
    tolerance: float
    trials: tuple[TrialResult, ...]
    max_residual: float
    ok: bool

    def render(self) -> str:
        lines = [
            f"check {self.operation} combination {self.combination_index}: "
            f"trials={len(self.trials)} tol={self.tolerance:.1e}"
        ]
        for t in self.trials:
            size_text = " ".join(f"{k}={v}" for k, v in t.sizes)
            status = "ok" if t.ok else "FAIL"
            lines.append(
                f"  trial seed={t.seed} {size_text} residual={t.residual:.3e} {status}"
            )
        lines.append(f"  max residual {self.max_residual:.3e}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def block_edges(sizes: Sequence[str], size_of: Mapping[str, int]) -> list[int]:
    """Offsets along one axis of blocks of the given sizes: 0, then each end.

    ``size_of`` maps every size expression to its value for one trial.
    """
    return list(accumulate(map(size_of.__getitem__, sizes), initial=0))


def check_pme(
    pme: PME, spec: OperationSpec, trials: int = 50, tolerance: float = 1e-8, seed: int = 0
) -> CheckReport:
    """Numerically verify a PME against the unblocked postcondition.

    Every trial samples fresh sizes (splits range over 1..parent-1; the
    first two trials pin all splits to the extremes), samples structured
    inputs, evaluates the solved assignments in dependency order,
    reassembles the blocked outputs, and measures the relative residual
    of the original equation.

    The plan is built once per call: the distinct size expressions, each
    parsed into a closure over the trial's symbol values; each input's
    sampler, chosen from its kind and properties, and its named blocks;
    each assignment and output block compiled with its block shape; and
    both sides of the postcondition compiled.  A trial only draws and
    computes: it evaluates every size expression once, and every product,
    inverse or solver application that occurs more than once in the plan
    once.
    """
    return _check_pme(pme, spec, trials, tolerance, seed, None)


def _check_pme(
    pme: PME, spec: OperationSpec, trials: int, tolerance: float, seed: int, blocks: Optional[dict]
) -> CheckReport:
    """:func:`check_pme` over ``blocks``, the blocked operands of the PME's
    combination by name, when the caller has built them already."""
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    if pme.operation != spec.name:
        raise ValueError(f"PME of operation {pme.operation} given for operation {spec.name}")
    if blocks is None:
        blocks = blocked_operands(spec, pme.combination)
    axes = {b.row_sizes for b in blocks.values()} | {b.col_sizes for b in blocks.values()}
    block_sizes = sorted({s for axis in axes for s in axis})
    split_of = dict(size.split("-", 1)[::-1] for size in block_sizes if "-" in size)
    atoms = sorted({a for s in block_sizes for a in s.split("-") if a != "1"})
    parents = [a for a in atoms if a not in split_of]
    splits = sorted(split_of.items())

    # inputs keep their named blocks, outputs every block expression with
    # its shape
    inputs, outputs = [], []
    for decl in spec.operands:
        b = blocks[decl.name]
        cells = [
            (i, j, cell, (rows, cols))
            for i, (rows, row) in enumerate(zip(b.row_sizes, b.cells))
            for j, (cols, cell) in enumerate(zip(b.col_sizes, row))
        ]
        if decl.is_input:
            named = [(i, j, cell.name) for i, j, cell, _ in cells if type(cell) is OperandRef]
            draw = _sampler(decl.kind, decl.properties)
            inputs.append((decl.name, draw, b.row_sizes, b.col_sizes, named))
        else:
            outputs.append((decl.name, b.row_sizes, b.col_sizes, cells))
    where = {
        q.position: (q.equation, rows, cols)
        for rows, row in zip(pme.row_sizes, pme.cells)
        for cols, q in zip(pme.col_sizes, row)
    }
    steps = []
    for pos in pme.order:
        equation, rows, cols = where[pos]
        if type(equation.lhs) is not OperandRef:
            raise OracleError(f"cell {pos} does not assign a single block")
        # a base solver takes a fixed number of blocks; an operator without
        # one fails at its first evaluation
        for node in walk(equation.rhs):
            solver = type(node) is SolvedBy and BASE_SOLVERS.get(node.operator_name)
            if solver and solver.__code__.co_argcount != len(node.arguments):
                raise OracleError(
                    f"cell {pos} applies operator {node.operator_name} to "
                    f"{len(node.arguments)} arguments, but its solver takes "
                    f"{solver.__code__.co_argcount}"
                )
        steps.append((equation.lhs.name, equation.rhs, (rows, cols)))
    size_strings = sorted({*block_sizes, *(s for step in steps for s in step[2])})
    size_runs = [(s, _size(s)) for s in size_strings]

    post = spec.postcondition
    roots = [rhs for _, rhs, _ in steps] + [c[2] for *_, cells in outputs for c in cells]
    nodes = (n for root in (*roots, post.lhs, post.rhs) for n in walk(root))
    keys = [serialize(n) for n in nodes if type(n) in _REUSABLE]
    reused = frozenset(key for key, count in Counter(keys).items() if count > 1)
    steps = [(name, _compile(rhs, reused, shape)) for name, rhs, shape in steps]
    outputs = [
        (name, rows, cols, [(i, j, _compile(cell, reused, shape)) for i, j, cell, shape in cells])
        for name, rows, cols, cells in outputs
    ]
    lhs, rhs = _compile(post.lhs, reused), _compile(post.rhs, reused)

    results: list[TrialResult] = []
    worst = 0.0
    for t in range(trials):
        trial_seed = seed + t
        rng = np.random.default_rng(trial_seed)
        sizes = {symbol: int(rng.integers(2, 9)) for symbol in parents}
        for split, parent in splits:
            limit = sizes[parent]
            if t == 0:
                sizes[split] = 1
            elif t == 1:
                sizes[split] = limit - 1
            else:
                sizes[split] = int(rng.integers(1, limit))
        size_of = {s: run(sizes) for s, run in size_runs}
        edges = {axis: block_edges(axis, size_of) for axis in axes}

        # sample full inputs, then slice them into their blocks
        values: dict[str, np.ndarray] = {}
        for input_name, draw, rows, cols, named in inputs:
            r, c = edges[rows], edges[cols]
            full = values[input_name] = draw((r[-1], c[-1]), rng)
            for i, j, name in named:
                values[name] = full[r[i] : r[i + 1], c[j] : c[j + 1]]
        for name, run in steps:
            values[name] = run(values, size_of)
        # assemble blocked outputs into full operands
        for name, rows, cols, cells in outputs:
            r, c = edges[rows], edges[cols]
            full = np.zeros((r[-1], c[-1]))
            for i, j, run in cells:
                full[r[i] : r[i + 1], c[j] : c[j + 1]] = run(values, size_of)
            values[name] = full
        residual = relative_residual(lhs(values, size_of), rhs(values, size_of))
        worst = max(worst, residual)
        sized = tuple(sorted(sizes.items()))
        results.append(TrialResult(trial_seed, sized, residual, residual <= tolerance))
    ok = all(r.ok for r in results)
    return CheckReport(pme.operation, pme.combination.index, tolerance, tuple(results), worst, ok)
