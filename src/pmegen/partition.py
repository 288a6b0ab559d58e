"""Blocking of one operand and block property inheritance.

A general matrix admits the identity, 1x2, 2x1 and 2x2 blockings; a
structured matrix (triangular, symmetric, spd, diagonal) only the
identity or a 2x2 blocking with a square top-left quadrant; vectors only
the identity or 2x1; scalars only the identity.  :mod:`binding` enforces
this table when it enumerates the rules; this module builds the blocking
a rule asks for, a grid of block expressions together with what that
blocking alone implies: the dimensions of each named block, and the
facts its blocks carry.  Blocks are named after :func:`position_names`,
the one source of quadrant names (``A_TL``, ``x_B``; an unpartitioned
operand keeps its own name).  Blocks on the diagonal inherit the
parent's properties; triangular and diagonal parents put a zero block
off the triangle, and symmetric (and spd) parents store the top-right
quadrant literally as the transpose of the bottom-left one.

Beyond direct inheritance, an spd parent contributes theorem-level facts:
both Schur complements of its 2x2 blocking are spd as well.
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
    dims: dict[str, Dimension] = {}
    facts: list[PropertyFact] = []
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if isinstance(cell, OperandRef):
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
