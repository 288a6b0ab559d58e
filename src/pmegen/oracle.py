"""Numeric instantiation harness for verifying symbolic derivations.

Symbolic results only deserve trust once random conforming matrices have
been pushed through them.  This module samples operands that honor their
declared structure, evaluates expressions over those samples, resolves
solution operators through small first-principles solvers (a dense
Cholesky recurrence, a forward-substitution triangular Sylvester solver,
back substitution for triangular systems, Gauss-Jordan inversion), and
measures how well a PME reproduces the operation it was derived from.

None of the solvers here aim at performance; they are desk-scale
reference implementations kept deliberately independent from the
symbolic layer they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

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
# base solvers, written from first principles


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


BASE_SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "Gamma": cholesky_lower,
    "Omega": solve_triangular_sylvester,
    "Trsm": solve_transposed_lower_right,
}


# ---------------------------------------------------------------------------
# sampling


def eval_size(size: str, sizes: Mapping[str, int]) -> int:
    """Evaluate a size expression: a symbol, the literal 1, or ``a-b``."""
    if "-" in size:
        a, b = size.split("-", 1)
        value = eval_size(a, sizes) - eval_size(b, sizes)
    elif size == "1":
        value = 1
    else:
        try:
            value = int(sizes[size])
        except KeyError:
            raise UnboundOperandError(f"size symbol {size} is unbound") from None
    if value <= 0:
        raise OracleError(f"size {size} evaluated to {value}")
    return value


def sample_value(
    kind: str,
    shape: tuple[int, int],
    properties: frozenset[Property] | set[Property],
    rng: np.random.Generator,
) -> np.ndarray:
    """Random matrix honoring the declared structure exactly.

    Triangular and diagonal samples get diagonal entries of magnitude at
    least one, spd samples are built as ``m.T @ m + n * eye`` so their
    conditioning stays mild at desk scale.
    """
    m, n = shape
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    if kind == KIND_SCALAR:
        return rng.uniform(1.0, 2.0, size=(1, 1))
    if Property.SPD in properties:
        base = rng.uniform(-1.0, 1.0, size=(m, m))
        return base.T @ base + m * np.eye(m)
    if Property.DIAGONAL in properties:
        return np.diag(rng.uniform(1.0, 2.0, size=m))
    if Property.LOWER_TRIANGULAR in properties:
        a = np.tril(a)
        a[np.diag_indices(m)] = rng.uniform(1.0, 2.0, size=m)
        return a
    if Property.UPPER_TRIANGULAR in properties:
        a = np.triu(a)
        a[np.diag_indices(m)] = rng.uniform(1.0, 2.0, size=m)
        return a
    if Property.SYMMETRIC in properties:
        return (a + a.T) / 2.0
    return a


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    e: Expression, values: Mapping[str, np.ndarray], shape: Optional[tuple[int, int]] = None
) -> np.ndarray:
    """Evaluate an expression over the values of its operands and blocks.

    ``shape`` supplies the dimensions of a bare zero block, which carries
    no size information of its own.
    """
    if isinstance(e, OperandRef):
        try:
            return values[e.name]
        except KeyError:
            raise UnboundOperandError(f"operand {e.name} is unbound") from None
    if isinstance(e, Zero):
        if shape is None:
            raise OracleError("cannot size a bare zero block without context")
        return np.zeros(shape)
    if isinstance(e, Plus):
        acc = evaluate(e.terms[0], values, shape)
        for t in e.terms[1:]:
            acc = acc + evaluate(t, values, shape)
        return acc
    if isinstance(e, Times):
        acc = evaluate(e.factors[0], values)
        for f in e.factors[1:]:
            acc = acc @ evaluate(f, values)
        return acc
    if isinstance(e, Minus):
        return -evaluate(e.operand, values, shape)
    if isinstance(e, Transpose):
        return evaluate(e.operand, values).T
    if isinstance(e, Inverse):
        return gauss_jordan_inverse(evaluate(e.operand, values))
    if isinstance(e, SolvedBy):
        try:
            solver = BASE_SOLVERS[e.operator_name]
        except KeyError:
            raise OracleError(
                f"no base solver for operator {e.operator_name}"
            ) from None
        args = [evaluate(a, values) for a in e.arguments]
        return solver(*args)
    raise OracleError(f"cannot evaluate node {type(e).__name__}")


def relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(rhs)), 1e-30)
    return float(np.linalg.norm(lhs - rhs)) / denom


# ---------------------------------------------------------------------------
# PME checking


@dataclass(frozen=True, slots=True)
class TrialResult:
    seed: int
    sizes: tuple[tuple[str, int], ...]
    residual: float
    ok: bool


@dataclass(frozen=True, slots=True)
class CheckReport:
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
    return list(accumulate((size_of[s] for s in sizes), initial=0))


def check_pme(
    pme: PME,
    spec: OperationSpec,
    trials: int = 50,
    tolerance: float = 1e-8,
    seed: int = 0,
) -> CheckReport:
    """Numerically verify a PME against the unblocked postcondition.

    Every trial samples fresh sizes (splits range over 1..parent-1; the
    first two trials pin all splits to the extremes), samples structured
    inputs, evaluates the solved assignments in dependency order,
    reassembles the blocked outputs, and measures the relative residual
    of the original equation.

    The layout is built once per call: the distinct size expressions,
    each input's named blocks, each assignment with its block shape, and
    the output blocks.  Each trial evaluates every size expression once.
    """
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must not be negative, got {seed}")
    if pme.operation != spec.name:
        raise ValueError(f"PME of operation {pme.operation} given for operation {spec.name}")
    blocks = blocked_operands(spec, pme.combination)
    axes = {b.row_sizes for b in blocks.values()} | {b.col_sizes for b in blocks.values()}
    block_sizes = sorted({s for axis in axes for s in axis})
    split_of: dict[str, str] = {}
    for size in block_sizes:
        if "-" in size:
            parent, split = size.split("-", 1)
            split_of[split] = parent
    atoms = sorted({a for s in block_sizes for a in s.split("-") if a != "1"})
    parents = [a for a in atoms if a not in split_of]
    splits = sorted(split_of.items())

    # inputs keep their named blocks, outputs every block expression
    inputs, outputs = [], []
    for decl in spec.operands:
        b = blocks[decl.name]
        cells = [(i, j, cell) for i, row in enumerate(b.cells) for j, cell in enumerate(row)]
        if decl.is_input:
            named = [(i, j, cell.name) for i, j, cell in cells if isinstance(cell, OperandRef)]
            inputs.append((decl, b.row_sizes, b.col_sizes, named))
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
        if not isinstance(equation.lhs, OperandRef):
            raise OracleError(f"cell {pos} does not assign a single block")
        # a base solver takes a fixed number of blocks; an operator without
        # one fails at its first evaluation
        for node in walk(equation.rhs):
            solver = isinstance(node, SolvedBy) and BASE_SOLVERS.get(node.operator_name)
            if solver and solver.__code__.co_argcount != len(node.arguments):
                raise OracleError(
                    f"cell {pos} applies operator {node.operator_name} to "
                    f"{len(node.arguments)} arguments, but its solver takes "
                    f"{solver.__code__.co_argcount}"
                )
        steps.append((equation.lhs.name, equation.rhs, rows, cols))
    size_strings = sorted({*block_sizes, *(s for step in steps for s in step[2:])})

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
        size_of = {s: eval_size(s, sizes) for s in size_strings}
        edges = {axis: block_edges(axis, size_of) for axis in axes}

        # sample full inputs, then slice them into their blocks
        values: dict[str, np.ndarray] = {}
        for decl, rows, cols, cells in inputs:
            r, c = edges[rows], edges[cols]
            full = sample_value(decl.kind, (r[-1], c[-1]), decl.properties, rng)
            values[decl.name] = full
            for i, j, name in cells:
                values[name] = full[r[i] : r[i + 1], c[j] : c[j + 1]]
        for name, rhs, rows, cols in steps:
            values[name] = evaluate(rhs, values, (size_of[rows], size_of[cols]))
        # assemble blocked outputs into full operands
        for name, rows, cols, cells in outputs:
            r, c = edges[rows], edges[cols]
            full = np.zeros((r[-1], c[-1]))
            for i, j, cell in cells:
                shape = (r[i + 1] - r[i], c[j + 1] - c[j])
                full[r[i] : r[i + 1], c[j] : c[j + 1]] = evaluate(cell, values, shape)
            values[name] = full
        residual = relative_residual(
            evaluate(spec.postcondition.lhs, values),
            evaluate(spec.postcondition.rhs, values),
        )
        worst = max(worst, residual)
        results.append(
            TrialResult(
                seed=trial_seed,
                sizes=tuple(sorted(sizes.items())),
                residual=residual,
                ok=residual <= tolerance,
            )
        )
    return CheckReport(
        operation=pme.operation,
        combination_index=pme.combination.index,
        tolerance=tolerance,
        trials=tuple(results),
        max_residual=worst,
        ok=all(r.ok for r in results),
    )
