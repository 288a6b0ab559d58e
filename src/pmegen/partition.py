"""Partitioning rules per operand structure and block property inheritance.

A general matrix admits the identity, 1x2, 2x1 and 2x2 blockings; a
structured matrix (triangular, symmetric, spd, diagonal) only the
identity or a 2x2 blocking with a square top-left quadrant; vectors only
the identity or 2x1; scalars only the identity.  Applying a rule yields a
grid of block expressions together with the properties each named block
inherits directly: triangular parents put a zero block off the triangle
and pass triangularity to the diagonal quadrants, symmetric parents store
the top-right quadrant literally as the transpose of the bottom-left one,
and spd parents additionally pass definiteness to both diagonal quadrants.

Beyond direct inheritance, an spd parent contributes theorem-level facts:
both Schur complements of its 2x2 blocking are spd as well
(:func:`spd_facts`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .expr import (
    Dimension,
    Expression,
    OperandRef,
    ZERO,
    inv,
    minus,
    normalize,
    plus,
    times,
    trans,
)
from .opspec import OperandDecl, Property, KIND_SCALAR, KIND_VECTOR


class PartitionShape(str, enum.Enum):
    R1x1 = "1x1"
    R1x2 = "1x2"
    R2x1 = "2x1"
    R2x2 = "2x2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class InadmissibleRuleError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PartitionRule:
    """A blocking choice for one operand; split sizes are fresh symbols."""

    shape: PartitionShape
    operand: str
    split_rows: Optional[str] = None
    split_cols: Optional[str] = None

    def __post_init__(self) -> None:
        want_rows = self.shape in (PartitionShape.R2x1, PartitionShape.R2x2)
        want_cols = self.shape in (PartitionShape.R1x2, PartitionShape.R2x2)
        if want_rows != (self.split_rows is not None):
            raise InadmissibleRuleError(
                f"{self.shape.value} rule for {self.operand}: split_rows mismatch"
            )
        if want_cols != (self.split_cols is not None):
            raise InadmissibleRuleError(
                f"{self.shape.value} rule for {self.operand}: split_cols mismatch"
            )

    @property
    def is_identity(self) -> bool:
        return self.shape is PartitionShape.R1x1


@dataclass(frozen=True, slots=True)
class PropertyFact:
    """A property asserted for a (normalized) expression."""

    expression: Expression
    property: Property


@dataclass(frozen=True, slots=True)
class BlockedOperand:
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

    def block_properties(self) -> dict[str, frozenset[Property]]:
        return dict(self.props)

    def block_dims(self) -> dict[str, Dimension]:
        out: dict[str, Dimension] = {}
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                if isinstance(cell, OperandRef):
                    out[cell.name] = Dimension(self.row_sizes[i], self.col_sizes[j])
        return out


def admissible_rules(decl: OperandDecl) -> tuple[PartitionShape, ...]:
    """Blocking shapes allowed by the operand's kind and structure."""
    if decl.kind == KIND_SCALAR:
        return (PartitionShape.R1x1,)
    if decl.kind == KIND_VECTOR:
        return (PartitionShape.R1x1, PartitionShape.R2x1)
    if decl.is_structured:
        return (PartitionShape.R1x1, PartitionShape.R2x2)
    return (
        PartitionShape.R1x1,
        PartitionShape.R1x2,
        PartitionShape.R2x1,
        PartitionShape.R2x2,
    )


def _rest(parent: str, split: str) -> str:
    return f"{parent}-{split}"


def apply_rule(decl: OperandDecl, rule: PartitionRule) -> BlockedOperand:
    """Block one operand; block names follow the TL/TR/BL/BR, T/B, L/R scheme."""
    if rule.operand != decl.name:
        raise InadmissibleRuleError(f"rule for {rule.operand} applied to {decl.name}")
    if rule.shape not in admissible_rules(decl):
        raise InadmissibleRuleError(
            f"{rule.shape.value} is not admissible for operand {decl.name}"
        )
    name = decl.name
    props = decl.properties
    rows, cols = decl.dims.rows, decl.dims.cols

    if rule.shape is PartitionShape.R1x1:
        return BlockedOperand(
            operand=name,
            parent_properties=props,
            row_sizes=(rows,),
            col_sizes=(cols,),
            cells=((OperandRef(name),),),
            props=((name, props),),
        )

    if rule.shape is PartitionShape.R2x1:
        k = rule.split_rows
        assert k is not None
        top, bot = OperandRef(f"{name}_T"), OperandRef(f"{name}_B")
        return BlockedOperand(
            operand=name,
            parent_properties=props,
            row_sizes=(k, _rest(rows, k)),
            col_sizes=(cols,),
            cells=((top,), (bot,)),
            props=((top.name, frozenset()), (bot.name, frozenset())),
        )

    if rule.shape is PartitionShape.R1x2:
        k = rule.split_cols
        assert k is not None
        left, right = OperandRef(f"{name}_L"), OperandRef(f"{name}_R")
        return BlockedOperand(
            operand=name,
            parent_properties=props,
            row_sizes=(rows,),
            col_sizes=(k, _rest(cols, k)),
            cells=((left, right),),
            props=((left.name, frozenset()), (right.name, frozenset())),
        )

    kr, kc = rule.split_rows, rule.split_cols
    assert kr is not None and kc is not None
    if decl.is_structured and kr != kc:
        raise InadmissibleRuleError(
            f"structured operand {name} needs a square top-left block"
        )
    tl = OperandRef(f"{name}_TL")
    tr = OperandRef(f"{name}_TR")
    bl = OperandRef(f"{name}_BL")
    br = OperandRef(f"{name}_BR")
    row_sizes = (kr, _rest(rows, kr))
    col_sizes = (kc, _rest(cols, kc))
    none: frozenset[Property] = frozenset()

    if Property.LOWER_TRIANGULAR in props:
        cells = ((tl, ZERO), (bl, br))
        bp = ((tl.name, props), (bl.name, none), (br.name, props))
    elif Property.UPPER_TRIANGULAR in props:
        cells = ((tl, tr), (ZERO, br))
        bp = ((tl.name, props), (tr.name, none), (br.name, props))
    elif Property.DIAGONAL in props:
        cells = ((tl, ZERO), (ZERO, br))
        bp = ((tl.name, props), (br.name, props))
    elif Property.SYMMETRIC in props:
        # the mirrored quadrant is stored literally as a transpose, so it
        # never introduces a separate unknown
        cells = ((tl, trans(bl)), (bl, br))
        bp = ((tl.name, props), (bl.name, none), (br.name, props))
    else:
        cells = ((tl, tr), (bl, br))
        bp = ((tl.name, none), (tr.name, none), (bl.name, none), (br.name, none))
    return BlockedOperand(
        operand=name,
        parent_properties=props,
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        cells=cells,
        props=bp,
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
    if blocked.shape != (2, 2):
        raise ValueError("spd operands are blocked 1x1 or 2x2 only")
    a_tl = blocked.cells[0][0]
    a_bl = blocked.cells[1][0]
    a_br = blocked.cells[1][1]
    schur_br = normalize(plus(a_br, minus(times(a_bl, inv(a_tl), trans(a_bl)))))
    schur_tl = normalize(plus(a_tl, minus(times(trans(a_bl), inv(a_br), a_bl))))
    return (
        PropertyFact(normalize(a_tl), Property.SPD),
        PropertyFact(normalize(a_br), Property.SPD),
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
