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
from typing import Callable, Mapping, Optional

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
)
from .opspec import KIND_SCALAR, OperationSpec, Property
from .partition import BlockedOperand


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
        for row in range(n):
            if row != col and work[row, col] != 0.0:
                work[row] -= work[row, col] * work[col]
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


BASE_SOLVERS: dict[str, Callable[..., np.ndarray]] = {
    "Gamma": cholesky_lower,
    "Omega": solve_triangular_sylvester,
    "Trsm": solve_transposed_lower_right,
}


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True, slots=True)
class NumericBinding:
    """Concrete sizes for symbols and concrete values for operands."""

    sizes: Mapping[str, int]
    values: Mapping[str, np.ndarray]


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
    e: Expression, binding: NumericBinding, shape: Optional[tuple[int, int]] = None
) -> np.ndarray:
    """Evaluate an expression under a numeric binding.

    ``shape`` supplies the dimensions of a bare zero block, which carries
    no size information of its own.
    """
    if isinstance(e, OperandRef):
        try:
            return binding.values[e.name]
        except KeyError:
            raise UnboundOperandError(f"operand {e.name} is unbound") from None
    if isinstance(e, Zero):
        if shape is None:
            raise OracleError("cannot size a bare zero block without context")
        return np.zeros(shape)
    if isinstance(e, Plus):
        acc = evaluate(e.terms[0], binding, shape)
        for t in e.terms[1:]:
            acc = acc + evaluate(t, binding, shape)
        return acc
    if isinstance(e, Times):
        acc = evaluate(e.factors[0], binding)
        for f in e.factors[1:]:
            acc = acc @ evaluate(f, binding)
        return acc
    if isinstance(e, Minus):
        return -evaluate(e.operand, binding, shape)
    if isinstance(e, Transpose):
        return evaluate(e.operand, binding).T
    if isinstance(e, Inverse):
        return gauss_jordan_inverse(evaluate(e.operand, binding))
    if isinstance(e, SolvedBy):
        try:
            solver = BASE_SOLVERS[e.operator_name]
        except KeyError:
            raise OracleError(
                f"no base solver for operator {e.operator_name}"
            ) from None
        args = [evaluate(a, binding) for a in e.arguments]
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


def _atomic_symbols(blocks: Mapping[str, BlockedOperand]) -> list[str]:
    out: set[str] = set()
    for b in blocks.values():
        for size in b.row_sizes + b.col_sizes:
            for atom in size.split("-"):
                if atom != "1":
                    out.add(atom)
    return sorted(out)


def _split_symbols(blocks: Mapping[str, BlockedOperand]) -> dict[str, str]:
    """Map each split symbol to the parent symbol it subdivides."""
    out: dict[str, str] = {}
    for b in blocks.values():
        for size in b.row_sizes + b.col_sizes:
            if "-" in size:
                parent, split = size.split("-", 1)
                out[split] = parent
    return out


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
    """
    blocks = blocked_operands(spec, pme.combination)
    parents = _atomic_symbols(blocks)
    split_of = _split_symbols(blocks)
    results: list[TrialResult] = []
    worst = 0.0
    for t in range(trials):
        trial_seed = seed + t
        rng = np.random.default_rng(trial_seed)
        sizes: dict[str, int] = {}
        for symbol in parents:
            if symbol not in split_of:
                sizes[symbol] = int(rng.integers(2, 9))
        for split, parent in sorted(split_of.items()):
            limit = sizes[parent]
            if t == 0:
                sizes[split] = 1
            elif t == 1:
                sizes[split] = limit - 1
            else:
                sizes[split] = int(rng.integers(1, limit))
        residual = _run_trial(pme, spec, blocks, sizes, rng)
        ok = residual <= tolerance
        worst = max(worst, residual)
        results.append(
            TrialResult(
                seed=trial_seed,
                sizes=tuple(sorted(sizes.items())),
                residual=residual,
                ok=ok,
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


def _run_trial(
    pme: PME,
    spec: OperationSpec,
    blocks: Mapping[str, BlockedOperand],
    sizes: Mapping[str, int],
    rng: np.random.Generator,
) -> float:
    values: dict[str, np.ndarray] = {}
    # sample full inputs, then slice them into their blocks
    for decl in spec.inputs():
        rows, cols = _parent_shape(blocks[decl.name], sizes)
        full = sample_value(decl.kind, (rows, cols), decl.properties, rng)
        values[decl.name] = full
        _slice_blocks(blocks[decl.name], full, sizes, values)
    binding = NumericBinding(sizes=dict(sizes), values=values)
    for pos in pme.order:
        cell = pme.cell(pos)
        out_ref = cell.equation.lhs
        if not isinstance(out_ref, OperandRef):
            raise OracleError(f"cell {pos} does not assign a single block")
        shape = _cell_shape(pme, pos, sizes)
        values[out_ref.name] = evaluate(cell.equation.rhs, binding, shape)
    # assemble blocked outputs into full operands
    for decl in spec.outputs():
        values[decl.name] = _assemble(blocks[decl.name], sizes, binding)
    lhs = evaluate(spec.postcondition.lhs, binding)
    rhs = evaluate(spec.postcondition.rhs, binding)
    return relative_residual(lhs, rhs)


def _parent_shape(b: BlockedOperand, sizes: Mapping[str, int]) -> tuple[int, int]:
    rows = sum(eval_size(s, sizes) for s in b.row_sizes)
    cols = sum(eval_size(s, sizes) for s in b.col_sizes)
    return rows, cols


def _slice_blocks(
    b: BlockedOperand,
    full: np.ndarray,
    sizes: Mapping[str, int],
    values: dict[str, np.ndarray],
) -> None:
    row_edges = np.cumsum([0] + [eval_size(s, sizes) for s in b.row_sizes])
    col_edges = np.cumsum([0] + [eval_size(s, sizes) for s in b.col_sizes])
    for i, row in enumerate(b.cells):
        for j, cell in enumerate(row):
            if isinstance(cell, OperandRef):
                values[cell.name] = full[
                    row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]
                ]


def _cell_shape(pme: PME, position: str, sizes: Mapping[str, int]) -> tuple[int, int]:
    nr, nc = pme.shape
    for i in range(nr):
        for j in range(nc):
            if pme.cells[i][j].position == position:
                return (
                    eval_size(pme.row_sizes[i], sizes),
                    eval_size(pme.col_sizes[j], sizes),
                )
    raise KeyError(position)


def _assemble(
    b: BlockedOperand, sizes: Mapping[str, int], binding: NumericBinding
) -> np.ndarray:
    rows, cols = _parent_shape(b, sizes)
    out = np.zeros((rows, cols))
    row_edges = np.cumsum([0] + [eval_size(s, sizes) for s in b.row_sizes])
    col_edges = np.cumsum([0] + [eval_size(s, sizes) for s in b.col_sizes])
    for i, row in enumerate(b.cells):
        for j, cell in enumerate(row):
            shape = (
                row_edges[i + 1] - row_edges[i],
                col_edges[j + 1] - col_edges[j],
            )
            out[
                row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]
            ] = evaluate(cell, binding, shape)
    return out
