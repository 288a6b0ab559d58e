"""Dimension binding and enumeration of viable partitioning combinations.

Partitioning one dimension of an operand can force other dimensions to be
partitioned at the same point: a triangular operand ties its rows to its
columns, a product ties the inner dimensions of its factors, a sum and
the equality tie corresponding dimensions of both sides.  This module
walks the postcondition tree once, in post-order, merging dimension
variables (one per operand axis) into equivalence groups with a disjoint
set structure.

With ``g`` partitionable groups there are ``2**g`` keep/split choices;
the all-keep choice does not partition anything and is dropped, leaving
``2**g - 1`` viable rule combinations.  Combinations are emitted in
binary counting order with the first-seen group as the most significant
bit, and group ``i`` splits at the fresh size symbol ``k{i+1}``.  At
most :data:`MAX_PARTITIONABLE_GROUPS` groups may be partitionable, so a
spec has at most 255 combinations; a spec with more is rejected with a
:class:`BindingError` before any combination is built.

This module alone decides the blockings: each combination it emits is
admissible for every operand and conforms across the equation, and
:mod:`blockarith` builds it without checking again.  A general matrix
admits the identity, 1x2, 2x1 and 2x2 blockings; a structured matrix
(triangular, symmetric, spd, diagonal) only the identity or a 2x2
blocking with a square top-left quadrant; vectors only the identity or
2x1; scalars only the identity.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .expr import (
    Equation,
    Expression,
    Inverse,
    OperandRef,
    Times,
    Transpose,
    Zero,
)
from .opspec import OperationSpec


MAX_PARTITIONABLE_GROUPS = 8


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


class BindingError(ValueError):
    pass


class DimensionConflictError(BindingError):
    """The postcondition forces a size symbol to equal a fixed size 1."""


class NoViablePartitioningsError(BindingError):
    """No dimension group can be partitioned."""


class DimensionVar(NamedTuple):
    """One axis of one operand; axis is ``"r"`` or ``"c"``."""

    operand: str
    axis: str


class RuleCombination(NamedTuple):
    """One keep/split choice per dimension group, mapped to operand rules."""

    index: int
    rules: tuple[tuple[str, PartitionRule], ...]
    group_choices: tuple[tuple[int, str], ...]


class _DSU:
    def __init__(self) -> None:
        self.parent: dict[DimensionVar, DimensionVar] = {}

    def add(self, v: DimensionVar) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: DimensionVar) -> DimensionVar:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: DimensionVar, b: DimensionVar) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class BindingAnalysis(NamedTuple):
    """Groups plus the per-group data the rest of the pipeline needs."""

    groups: tuple[frozenset[DimensionVar], ...]
    partitionable: tuple[bool, ...]
    var_group: dict[DimensionVar, int]
    canonical_sizes: dict[DimensionVar, str]

    def canonical_dims(self, operand: str) -> tuple[str, str]:
        return (
            self.canonical_sizes[DimensionVar(operand, "r")],
            self.canonical_sizes[DimensionVar(operand, "c")],
        )


def _declared_size(spec: OperationSpec, v: DimensionVar) -> str:
    d = spec.operand(v.operand).dims
    return d.rows if v.axis == "r" else d.cols


def _visit(
    e: Expression | Equation,
    spec: OperationSpec,
    dsu: _DSU,
    forced_keep: set[DimensionVar],
) -> tuple[DimensionVar, DimensionVar]:
    """Row and column variables of ``e``, merging the groups it ties."""
    kind = type(e)
    if kind is OperandRef:
        r, c = DimensionVar(e.name, "r"), DimensionVar(e.name, "c")
        dsu.add(r)
        dsu.add(c)
        if spec.operand(e.name).is_structured:
            dsu.union(r, c)
        return (r, c)
    if kind is Zero:
        raise BindingError("the zero block may not appear in postconditions")
    (r, c), *rest = [_visit(x, spec, dsu, forced_keep) for x in e.children()]
    if kind is Transpose:
        return (c, r)
    if kind is Inverse:
        dsu.union(r, c)
        # blocked inverses of partitioned operands are out of scope, so
        # an inverted subtree pins its dimension group to "keep"
        forced_keep.add(r)
    for xr, xc in rest:
        if kind is Times:
            dsu.union(c, xr)
            c = xc
        else:  # Plus, or an Equation, which ties its sides as a sum its terms
            dsu.union(r, xr)
            dsu.union(c, xc)
    return (r, c)


def analyze(spec: OperationSpec) -> BindingAnalysis:
    """Post-order traversal of the postcondition, returning merged groups."""
    dsu = _DSU()
    forced_keep: set[DimensionVar] = set()
    _visit(spec.postcondition, spec, dsu, forced_keep)
    # ``add`` is the only insertion into the DSU, so its keys come in the
    # order the walk first met them: groups are ordered by their first
    # member, and each group lists that member first
    by_root: dict[DimensionVar, list[DimensionVar]] = {}
    for v in list(dsu.parent):
        by_root.setdefault(dsu.find(v), []).append(v)

    groups: list[frozenset[DimensionVar]] = []
    partitionable: list[bool] = []
    var_group: dict[DimensionVar, int] = {}
    canonical: dict[DimensionVar, str] = {}
    for idx, members in enumerate(by_root.values()):
        fs = frozenset(members)
        groups.append(fs)
        sizes = {_declared_size(spec, v) for v in members}
        if "1" in sizes and len(sizes) > 1:
            symbolic = sorted(s for s in sizes if s != "1")
            raise DimensionConflictError(
                f"size symbol(s) {', '.join(symbolic)} forced to the fixed size 1"
            )
        canon = _declared_size(spec, members[0])
        # size 1 marks the scalar axes and vector columns: matrix sizes and
        # vector rows are identifiers, and a group never mixes 1 with one
        partitionable.append(canon != "1" and not (fs & forced_keep))
        for v in members:
            var_group[v] = idx
            canonical[v] = canon
    return BindingAnalysis(
        groups=tuple(groups),
        partitionable=tuple(partitionable),
        var_group=var_group,
        canonical_sizes=canonical,
    )


def enumerate_combinations(spec: OperationSpec) -> tuple[RuleCombination, ...]:
    """All viable rule combinations, ``2**g - 1`` of them.

    Groups of size 1 (scalar axes, vector columns) or of an inverted
    subtree are forced to keep, which reduces the effective ``g``.  A ``g``
    over :data:`MAX_PARTITIONABLE_GROUPS` raises :class:`BindingError`.
    """
    return _combinations(spec, analyze(spec))


def _combinations(
    spec: OperationSpec, analysis: BindingAnalysis
) -> tuple[RuleCombination, ...]:
    """:func:`enumerate_combinations` over an analysis of ``spec`` already made."""
    part_idx = [i for i, ok in enumerate(analysis.partitionable) if ok]
    g = len(part_idx)
    if g == 0:
        raise NoViablePartitioningsError(
            f"operation {spec.name}: no viable partitionings"
        )
    if g > MAX_PARTITIONABLE_GROUPS:
        raise BindingError(
            f"operation {spec.name}: {2**g - 1} combinations exceed the bound of "
            f"{2**MAX_PARTITIONABLE_GROUPS - 1} ({g} partitionable dimension groups, "
            f"at most {MAX_PARTITIONABLE_GROUPS})"
        )
    # each operand's groups and its rules for every (row, column) keep/split
    # choice, built once: choice (r, c) is entry 2 * r + c
    operands = []
    for decl in spec.operands:
        rg = analysis.var_group[DimensionVar(decl.name, "r")]
        cg = analysis.var_group[DimensionVar(decl.name, "c")]
        rows, cols = (None, f"k{rg + 1}"), (None, f"k{cg + 1}")
        table = [(decl.name, PartitionRule(decl.name, r, c)) for r in rows for c in cols]
        operands.append((rg, cg, table))
    out: list[RuleCombination] = []
    for mask in range(1, 2**g):
        split_groups = {
            part_idx[i] for i in range(g) if mask & (1 << (g - 1 - i))
        }
        rules = tuple(t[2 * (rg in split_groups) + (cg in split_groups)] for rg, cg, t in operands)
        choices = tuple(
            (i, "split" if i in split_groups else "keep")
            for i in range(len(analysis.groups))
        )
        out.append(
            RuleCombination(index=len(out) + 1, rules=rules, group_choices=choices)
        )
    return tuple(out)
