"""Blocking of one operand and block property inheritance.

A general matrix admits the identity, 1x2, 2x1 and 2x2 blockings; a
structured matrix (triangular, symmetric, spd, diagonal) only the
identity or a 2x2 blocking with a square top-left quadrant; vectors only
the identity or 2x1; scalars only the identity.  :mod:`binding` enforces
this table when it enumerates the rules; this module builds the blocking
a rule asks for, a grid of block expressions together with the
properties each named block inherits directly.  Blocks are named after
:func:`position_names`, the one source of quadrant names (``A_TL``,
``x_B``; an unpartitioned operand keeps its own name).  Blocks on the
diagonal inherit the parent's properties; triangular and diagonal
parents put a zero block off the triangle, and symmetric (and spd)
parents store the top-right quadrant literally as the transpose of the
bottom-left one.

Beyond direct inheritance, an spd parent contributes theorem-level facts:
both Schur complements of its 2x2 blocking are spd as well
(:func:`spd_facts`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .expr import (
    Dimension,
    Expression,
    OperandRef,
    ZERO,
    inv,
    minus,
    plus,
    times,
    trans,
)
from .opspec import OperandDecl, Property


class PartitionRule(NamedTuple):
    """A blocking choice for one operand: the fresh size symbol each split
    axis is cut at, or None for an axis kept whole."""

    operand: str
    split_rows: Optional[str] = None
    split_cols: Optional[str] = None

    @property
    def shape(self) -> str:
        """``"RxC"``: 2 blocks along each split axis, 1 along a kept one."""
        return f"{1 + (self.split_rows is not None)}x{1 + (self.split_cols is not None)}"

    @property
    def is_identity(self) -> bool:
        return self.split_rows is None and self.split_cols is None


class PropertyFact(NamedTuple):
    """A property asserted for a (normalized) expression."""

    expression: Expression
    property: Property


class BlockedOperand(NamedTuple):
    """An operand rewritten as a grid of block expressions.

    ``cells[i][j]`` is the block expression (a block reference, the zero
    block, or a transposed reference for the mirrored quadrant of a
    symmetric parent) occupying row partition ``i`` and column partition
    ``j``; its dimensions are ``row_sizes[i] x col_sizes[j]``.
    """

    operand: str
    parent_properties: frozenset[Property]
    row_sizes: tuple[str, ...]
    col_sizes: tuple[str, ...]
    cells: tuple[tuple[Expression, ...], ...]
    props: tuple[tuple[str, frozenset[Property]], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_sizes), len(self.col_sizes))

    def block_dims(self) -> dict[str, Dimension]:
        """Dimensions of each named block; no cell names any other block."""
        out: dict[str, Dimension] = {}
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if isinstance(cell, OperandRef):
                    out[cell.name] = Dimension(self.row_sizes[i], self.col_sizes[j])
        return out


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
    which admits it under the table above; it is built as given.
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
    none: frozenset[Property] = frozenset()
    return BlockedOperand(
        operand=name,
        parent_properties=props,
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        cells=tuple(tuple(row) for row in grid),
        props=tuple(
            (cell.name, props if i == j else none)
            for i, row in enumerate(grid)
            for j, cell in enumerate(row)
            if isinstance(cell, OperandRef)
        ),
    )


def spd_facts(blocked: BlockedOperand) -> tuple[PropertyFact, ...]:
    """SPD facts contributed by an spd parent.

    For a 2x2 blocking these are the two principal quadrants plus both
    Schur complements; an unpartitioned parent contributes itself only.
    """
    if Property.SPD not in blocked.parent_properties:
        raise ValueError(f"operand {blocked.operand} is not spd")
    if blocked.shape == (1, 1):
        return (PropertyFact(OperandRef(blocked.operand), Property.SPD),)
    a_tl = blocked.cells[0][0]
    a_bl = blocked.cells[1][0]
    a_br = blocked.cells[1][1]
    schur_br = plus(a_br, minus(times(a_bl, inv(a_tl), trans(a_bl))))
    schur_tl = plus(a_tl, minus(times(trans(a_bl), inv(a_br), a_bl)))
    return (
        PropertyFact(a_tl, Property.SPD),
        PropertyFact(a_br, Property.SPD),
        PropertyFact(schur_tl, Property.SPD),
        PropertyFact(schur_br, Property.SPD),
    )


def inheritance_facts(blocked: BlockedOperand) -> tuple[PropertyFact, ...]:
    """Directly inherited properties of every named block, as facts."""
    out: list[PropertyFact] = []
    for name, props in blocked.props:
        for p in sorted(props, key=lambda p: p.value):
            out.append(PropertyFact(OperandRef(name), p))
    return tuple(out)
