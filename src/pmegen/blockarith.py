"""Blocked arithmetic: distribute an equation over operand partitionings.

Each operand is blocked as its rule asks, into a grid of block
expressions that carries what the blocking alone implies: the
dimensions of each named block, and the facts its blocks carry.  Blocks
are named after :func:`position_names`, the one source of quadrant names
(``A_TL``, ``x_B``; an unpartitioned operand keeps its own name).
Blocks on the diagonal inherit the parent's properties; triangular and
diagonal parents put a zero block off the triangle, and symmetric (and
spd) parents store the top-right quadrant literally as the transpose of
the bottom-left one.  Beyond direct inheritance, an spd parent
contributes theorem-level facts: both Schur complements of its 2x2
blocking are spd as well.

Substituting each operand's blocking into the postcondition and carrying
out symbolic block products and sums turns one matrix equation into a
grid of per-quadrant equations.  Each cell is put into canonical form
immediately (unknown-containing terms left, known-only terms right).
The top-right cell of a 2x2 grid, the quadrant a symmetric parent
mirrors, is marked redundant with a star when its equation is the
transpose of the bottom-left cell's, pointing at that partner.  The
blockings come from :mod:`binding`, which makes them admissible and
conform, so nothing here checks them again.

Grids are at most 2x2 because individual operands are never blocked
finer than 2x2.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .binding import BindingAnalysis, PartitionRule, RuleCombination, analyze
from .expr import (
    ZERO,
    Dimension,
    Equation,
    Expression,
    Minus,
    OperandRef,
    Plus,
    Times,
    Transpose,
    minus,
    operand_names,
    plus,
    serialize,
    times,
    to_canonical_equation,
    trans,
    inv,
)
from .opspec import OperandDecl, OperationSpec, Property


class PropertyFact(NamedTuple):
    """A property asserted for a (normalized) expression."""

    expression: Expression
    property: Property


class BlockedOperand(NamedTuple):
    """An operand rewritten as a grid of block expressions.

    ``cells[i][j]`` is the block expression (a block reference, the zero
    block, or a transposed reference for the mirrored quadrant of a
    symmetric parent) occupying row partition ``i`` and column partition
    ``j``; its dimensions are ``row_sizes[i] x col_sizes[j]``.  ``dims``
    maps each named block to its dimensions; no cell names any other
    block.  ``facts`` lists the properties each diagonal block inherits,
    in grid and property order, then the Schur complements of an spd
    parent's 2x2 blocking.
    """

    row_sizes: tuple[str, ...]
    col_sizes: tuple[str, ...]
    cells: tuple[tuple[Expression, ...], ...]
    dims: dict[str, Dimension]
    facts: tuple[PropertyFact, ...]


def _rest(parent: str, split: str) -> str:
    return f"{parent}-{split}"


def position_names(nrows: int, ncols: int) -> tuple[tuple[str, ...], ...]:
    """Quadrant names of an ``nrows x ncols`` grid, the one naming scheme."""
    if (nrows, ncols) == (2, 2):
        return (("TL", "TR"), ("BL", "BR"))
    if (nrows, ncols) == (2, 1):
        return (("T",), ("B",))
    if (nrows, ncols) == (1, 2):
        return (("L", "R"),)
    if (nrows, ncols) == (1, 1):
        return (("whole",),)
    raise ValueError(f"unsupported grid shape {nrows}x{ncols}")


def apply_rule(decl: OperandDecl, rule: PartitionRule) -> BlockedOperand:
    """Block one operand; each block is named ``<operand>_<position>``.

    ``rule`` must be ``decl``'s rule in one of ``enumerate_combinations(spec)``,
    which admits it under binding's table; it is built as given.
    """
    name = decl.name
    props = decl.properties
    kr, kc = rule.split_rows, rule.split_cols
    row_sizes = (decl.dims.rows,) if kr is None else (kr, _rest(decl.dims.rows, kr))
    col_sizes = (decl.dims.cols,) if kc is None else (kc, _rest(decl.dims.cols, kc))
    if rule.is_identity:
        grid = [[OperandRef(name)]]
    else:
        names = position_names(len(row_sizes), len(col_sizes))
        grid = [[OperandRef(f"{name}_{pos}") for pos in row] for row in names]
    # off the diagonal, a structured parent has a zero block or, when
    # symmetric, the mirror of the other off-diagonal quadrant
    if rule.shape == "2x2":
        if Property.LOWER_TRIANGULAR in props:
            grid[0][1] = ZERO
        elif Property.UPPER_TRIANGULAR in props:
            grid[1][0] = ZERO
        elif Property.DIAGONAL in props:
            grid[0][1] = grid[1][0] = ZERO
        elif Property.SYMMETRIC in props:
            # stored literally as a transpose, so it never introduces a
            # separate unknown
            grid[0][1] = trans(grid[1][0])
    dims: dict[str, Dimension] = {}
    facts: list[PropertyFact] = []
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if type(cell) is OperandRef:
                dims[cell.name] = Dimension(row_sizes[i], col_sizes[j])
                if i == j:
                    facts += [PropertyFact(cell, p) for p in sorted(props, key=lambda p: p.value)]
    # an spd parent's diagonal blocks inherit spd above; both Schur
    # complements of its 2x2 blocking are spd as well (a zero block may
    # reduce one to a diagonal block, which is then listed already)
    if Property.SPD in props and not rule.is_identity:
        (a_tl, _), (a_bl, a_br) = grid
        for schur in (
            plus(a_tl, minus(times(trans(a_bl), inv(a_br), a_bl))),
            plus(a_br, minus(times(a_bl, inv(a_tl), trans(a_bl)))),
        ):
            if PropertyFact(schur, Property.SPD) not in facts:
                facts.append(PropertyFact(schur, Property.SPD))
    return BlockedOperand(
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        cells=tuple(tuple(row) for row in grid),
        dims=dims,
        facts=tuple(facts),
    )


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


def blocked_operands(
    spec: OperationSpec, rules: RuleCombination
) -> dict[str, BlockedOperand]:
    """Apply each operand's rule, with sizes canonicalized per dimension group."""
    return operand_blockings(spec, analyze(spec), (rules,))[rules]


def operand_blockings(
    spec: OperationSpec,
    analysis: BindingAnalysis,
    combos: Sequence[RuleCombination],
) -> dict[RuleCombination, dict[str, BlockedOperand]]:
    """Each of ``combos`` with its operands' blockings, by operand name.

    Sizes are canonicalized per dimension group, under an analysis of
    ``spec`` already made.  A rule names its operand, so each operand is
    blocked once per distinct rule, and combinations that share a rule
    share its blocking.
    """
    decls = {decl.name: decl for decl in spec.operands}
    built: dict[PartitionRule, BlockedOperand] = {}
    out: dict[RuleCombination, dict[str, BlockedOperand]] = {}
    for combo in combos:
        blocks = out[combo] = {}
        for name, rule in combo.rules:
            if rule not in built:
                decl = decls[name]
                dims = Dimension(*analysis.canonical_dims(name))
                built[rule] = apply_rule(decl._replace(dims=dims), rule)
            blocks[name] = built[rule]
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
    kind = type(e)
    if kind is OperandRef:
        return blocks[e.name]
    grid, *rest = [_eval_blocked(x, blocks) for x in e.children()]
    rows, cols = grid.row_sizes, grid.col_sizes
    if kind is Times:
        for other in rest:
            grid = _mul(grid, other)
        return grid
    if kind is Plus:
        summands = [grid.cells, *(other.cells for other in rest)]
        return _Grid(tuple(tuple(map(plus, *row)) for row in zip(*summands)), rows, cols)
    if kind is Minus:
        return _Grid(tuple(tuple(map(minus, row)) for row in grid.cells), rows, cols)
    if kind is Transpose:
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
            # a canonical right side is known, so equal sides are known too
            status = STATUS_SOLVED if eq.lhs == eq.rhs else STATUS_UNSOLVED
            out_row.append(QuadrantEquation(q.position, eq, status))
        rows.append(tuple(out_row))
    grid = BlockedEquationGrid(tuple(rows), raw.row_sizes, raw.col_sizes)
    return detect_star(grid)


def detect_star(grid: BlockedEquationGrid) -> BlockedEquationGrid:
    """Star the top-right cell of a 2x2 grid when its equation is the
    transpose of the bottom-left cell's, with that cell as its partner.

    These are the quadrants a symmetric parent stores as one block and
    its transpose; no other pair is compared.  A starred or solved cell
    is left alone, so the marking is idempotent.  Transposition keeps
    operand names, so the cells are compared only when they name the
    same operands.  Cell equations must be normalized.
    """
    if grid.shape != (2, 2):
        return grid
    (tl, tr), (bl, br) = grid.cells
    if tr.status != STATUS_UNSOLVED or bl.status != STATUS_UNSOLVED:
        return grid
    if operand_names(tr.equation) != operand_names(bl.equation):
        return grid
    mirrored = Equation(trans(bl.equation.lhs), trans(bl.equation.rhs))
    if serialize(mirrored) != serialize(tr.equation):
        return grid
    star = QuadrantEquation(tr.position, tr.equation, STATUS_STAR, partner=bl.position)
    return grid._replace(cells=((tl, star), (bl, br)))
