"""Blocked arithmetic: distribute an equation over operand partitionings.

Substituting each operand's blocking into the postcondition and carrying
out symbolic block products and sums turns one matrix equation into a
grid of per-quadrant equations.  Each cell is put into canonical form
immediately (unknown-containing terms left, known-only terms right), and
cells whose equation is the transpose of another cell's are marked
redundant with a star, pointing at their partner.  The blockings come
from :mod:`binding`, which makes them conform, so the block arithmetic
here checks nothing again.

Grids are at most 2x2 because individual operands are never blocked
finer than 2x2.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .binding import BindingAnalysis, RuleCombination, analyze
from .expr import (
    Dimension,
    Equation,
    Expression,
    Minus,
    OperandRef,
    Plus,
    Times,
    Transpose,
    known_only,
    minus,
    operand_names,
    plus,
    serialize_equation,
    times,
    to_canonical_equation,
    trans,
    transpose_equation,
    inv,
)
from .opspec import OperandDecl, OperationSpec
from .partition import BlockedOperand, PartitionRule, apply_rule, position_names


STATUS_UNSOLVED = "unsolved"
STATUS_SOLVED = "solved"
STATUS_STAR = "star"


class QuadrantEquation(NamedTuple):
    """One per-block equation with its solving status."""

    position: str
    equation: Equation
    status: str = STATUS_UNSOLVED
    partner: Optional[str] = None


class QuadrantCells:
    """Accessors for a grid of quadrant equations.

    Subclasses provide ``cells`` (rows of :class:`QuadrantEquation`),
    ``row_sizes`` and ``col_sizes``.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_sizes), len(self.col_sizes))

    def cell(self, position: str) -> QuadrantEquation:
        for row in self.cells:
            for q in row:
                if q.position == position:
                    return q
        raise KeyError(position)

    def all_cells(self) -> tuple[QuadrantEquation, ...]:
        return tuple(q for row in self.cells for q in row)


class _Grid(NamedTuple):
    """Cells over block sizes: block expressions while blocked arithmetic
    runs, quadrant equations in a :class:`BlockedEquationGrid`; a
    :class:`BlockedOperand` has the same fields."""

    cells: tuple[tuple, ...]
    row_sizes: tuple[str, ...]
    col_sizes: tuple[str, ...]


class BlockedEquationGrid(_Grid, QuadrantCells):
    __slots__ = ()

    def scan_positions(self) -> tuple[str, ...]:
        """Column-major scan order: TL, BL, TR, BR (T, B / L, R / whole)."""
        nr, nc = self.shape
        names = position_names(nr, nc)
        return tuple(names[i][j] for j in range(nc) for i in range(nr))

    def with_cell(self, q: QuadrantEquation) -> "BlockedEquationGrid":
        rows = tuple(
            tuple(q if c.position == q.position else c for c in row)
            for row in self.cells
        )
        return self._replace(cells=rows)


def blocked_operands(
    spec: OperationSpec, rules: RuleCombination
) -> dict[str, BlockedOperand]:
    """Apply each operand's rule, with sizes canonicalized per dimension group."""
    table = operand_blockings(spec, analyze(spec), (rules,))
    return {decl.name: table[rules.rule_for(decl.name)] for decl in spec.operands}


def operand_blockings(
    spec: OperationSpec,
    analysis: BindingAnalysis,
    combos: Sequence[RuleCombination],
) -> dict[PartitionRule, BlockedOperand]:
    """Each operand's blocking under each distinct rule that ``combos`` use.

    Sizes are canonicalized per dimension group, under an analysis of
    ``spec`` already made.  A rule names its operand, so it alone keys the
    blocking, and combinations that share a rule share its blocking.
    """
    out: dict[PartitionRule, BlockedOperand] = {}
    for decl in spec.operands:
        rows, cols = analysis.canonical_dims(decl.name)
        canonical = OperandDecl(
            decl.name, decl.kind, Dimension(rows, cols), decl.io_role, decl.properties
        )
        for combo in combos:
            rule = combo.rule_for(decl.name)
            if rule not in out:
                out[rule] = apply_rule(canonical, rule)
    return out


def _mul(a: _Grid, b: _Grid) -> _Grid:
    cells = tuple(
        tuple(
            plus(*(times(a.cells[i][k], b.cells[k][j]) for k in range(len(a.col_sizes))))
            for j in range(len(b.col_sizes))
        )
        for i in range(len(a.row_sizes))
    )
    return _Grid(cells, a.row_sizes, b.col_sizes)


def _eval_blocked(
    e: Expression, blocks: dict[str, BlockedOperand]
) -> _Grid | BlockedOperand:
    if isinstance(e, OperandRef):
        return blocks[e.name]
    grid, *rest = [_eval_blocked(x, blocks) for x in e.children()]
    rows, cols = grid.row_sizes, grid.col_sizes
    if isinstance(e, Times):
        for other in rest:
            grid = _mul(grid, other)
        return grid
    if isinstance(e, Plus):
        summands = [grid.cells, *(other.cells for other in rest)]
        return _Grid(tuple(tuple(map(plus, *row)) for row in zip(*summands)), rows, cols)
    if isinstance(e, Minus):
        return _Grid(tuple(tuple(map(minus, row)) for row in grid.cells), rows, cols)
    if isinstance(e, Transpose):
        return _Grid(tuple(tuple(map(trans, col)) for col in zip(*grid.cells)), cols, rows)
    return _Grid(((inv(grid.cells[0][0]),),), rows, cols)


def raw_blocked_equations(
    spec: OperationSpec, blocks: dict[str, BlockedOperand]
) -> BlockedEquationGrid:
    """Distribute ``=`` over the given blockings without canonicalization.

    ``blocks`` must block each operand by its rule in one of
    ``enumerate_combinations(spec)``, so the block arithmetic conforms.
    """
    lhs = _eval_blocked(spec.postcondition.lhs, blocks)
    rhs = _eval_blocked(spec.postcondition.rhs, blocks)
    nr, nc = len(lhs.row_sizes), len(lhs.col_sizes)
    names = position_names(nr, nc)
    cells = tuple(
        tuple(
            QuadrantEquation(
                position=names[i][j],
                equation=Equation(lhs.cells[i][j], rhs.cells[i][j]),
            )
            for j in range(nc)
        )
        for i in range(nr)
    )
    return BlockedEquationGrid(cells, lhs.row_sizes, lhs.col_sizes)


def blocked_postcondition(
    spec: OperationSpec, rules: RuleCombination
) -> BlockedEquationGrid:
    """The star-marked, canonicalized grid of quadrant equations.

    ``rules`` must be one of ``enumerate_combinations(spec)``.  Cells that
    hold trivially (zero equals zero) are marked solved right away so the
    derivation loop only ever sees informative equations.
    """
    blocks = blocked_operands(spec, rules)
    known = frozenset(n for d in spec.inputs() for n in blocks[d.name].dims)
    return _blocked_grid(spec, blocks, known)


def _blocked_grid(
    spec: OperationSpec, blocks: dict[str, BlockedOperand], known: frozenset[str]
) -> BlockedEquationGrid:
    """:func:`blocked_postcondition` over blocks and known names already built."""
    raw = raw_blocked_equations(spec, blocks)
    rows: list[tuple[QuadrantEquation, ...]] = []
    for row in raw.cells:
        out_row: list[QuadrantEquation] = []
        for q in row:
            eq = to_canonical_equation(q.equation, known)
            status = STATUS_UNSOLVED
            # a canonical right side is known, so a known left side is enough
            if known_only(eq.lhs, known) and eq.lhs == eq.rhs:
                status = STATUS_SOLVED
            out_row.append(QuadrantEquation(q.position, eq, status))
        rows.append(tuple(out_row))
    grid = BlockedEquationGrid(tuple(rows), raw.row_sizes, raw.col_sizes)
    return detect_star(grid)


def detect_star(grid: BlockedEquationGrid) -> BlockedEquationGrid:
    """Mark cells whose equation is the transpose of a partner's.

    Only one cell of each pair is marked; for the mirrored quadrants of a
    2x2 grid the strictly-upper cell yields to the lower one.  Already
    marked or solved cells are left alone, so the marking is idempotent.
    Transposition keeps operand names, so only cells naming the same
    operands are compared.  Cell equations must be normalized.
    """
    nr, nc = grid.shape
    if nr == nc == 1:
        return grid
    flat = [(i, j, grid.cells[i][j]) for i in range(nr) for j in range(nc)]
    names = [operand_names(q.equation.lhs) | operand_names(q.equation.rhs) for _, _, q in flat]
    out = grid
    starred: set[str] = {
        q.position for _, _, q in flat if q.status == STATUS_STAR
    }
    for ai in range(len(flat)):
        i, j, a = flat[ai]
        if a.status != STATUS_UNSOLVED or a.position in starred:
            continue
        for bi in range(ai + 1, len(flat)):
            bi_i, bi_j, b = flat[bi]
            if b.status != STATUS_UNSOLVED or b.position in starred:
                continue
            if names[bi] != names[ai]:
                continue
            if serialize_equation(transpose_equation(b.equation)) != serialize_equation(a.equation):
                continue
            # the strictly-upper cell of the pair carries the star; for
            # pairs without one, the later cell in reading order yields
            if j > i and not bi_j > bi_i:
                star_cell, keep_cell = a, b
            else:
                star_cell, keep_cell = b, a
            out = out.with_cell(
                QuadrantEquation(
                    star_cell.position,
                    star_cell.equation,
                    STATUS_STAR,
                    partner=keep_cell.position,
                )
            )
            starred.add(star_cell.position)
            break
    return out
