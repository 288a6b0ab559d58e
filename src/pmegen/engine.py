"""Pattern knowledge base and the iterative derivation of PMEs.

A pattern is the machine form of an operation description: a template
equation over operand slots, the knownness and properties each slot
requires, and a solved form that expresses the output slot in terms of
the inputs.  The knowledge base starts from a hard-coded set of
elementary solvers (assignment, additive isolation, general and
triangular system solves, transposition, scalar division) and grows by
learning the pattern of every operation whose PME has been derived.

Deriving a PME iterates three actions over the grid of quadrant
equations: structural pattern matching, flagging the matched outputs as
known, and re-canonicalizing the remaining equations.  The operation's
own pattern is registered in a working copy of the knowledge base first,
so sub-problems of the operation's own kind are recognized immediately.
A derivation starts from what each operand's blocking carries
(:class:`blockarith.BlockedOperand`): the dimensions of its named
blocks and its facts, joined in rule order.

Property guards are discharged in two ways.  Triangularity, symmetry and
diagonality come from direct block inheritance plus a small structural
closure (sums, negation, transpose flips, zero blocks).  Definiteness is
proved by :func:`prove_spd`, a bounded breadth-first search that rewrites
with the tautologies collected so far (both orientations), contracts and
expands product inverses, cancels adjacent inverse pairs, and meets in
the middle between the query expression and the known SPD facts.  Before
searching, it refutes a query whose inert summands (no inverse, no
tautology side inside) hold names found in no other summand and no
tautology, when every SPD fact misses one of those names: no rewrite can
remove such a summand, so no fact can be reached.  It then refutes a
query that an exact 1x1 model over GF(p), in which every tautology holds,
separates from every fact: each search step keeps a node's value there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .binding import (
    BindingError,
    RuleCombination,
    _combinations,
    analyze,
)
from .blockarith import (
    STATUS_SOLVED,
    STATUS_UNSOLVED,
    BlockedEquationGrid,
    BlockedOperand,
    PropertyFact,
    QuadrantCells,
    QuadrantEquation,
    _blocked_grid,
    blocked_operands,
    operand_blockings,
)
from .expr import (
    _IDENT,
    _RESERVED,
    _leaf_names,
    Dimension,
    Equation,
    Expression,
    Inverse,
    Minus,
    OperandRef,
    Plus,
    SolvedBy,
    Times,
    Transpose,
    Zero,
    additive_terms,
    known_only,
    normalize,
    operand_names,
    parse_prefix_equation,
    trans,
    rewrite_candidates,
    serialize,
    solved_by,
    to_canonical_equation,
    walk,
)
from .opspec import (
    KIND_MATRIX,
    KIND_SCALAR,
    KIND_VECTOR,
    OperandDecl,
    OperationSpec,
    Property,
    ROLE_KNOWN,
    ROLE_UNKNOWN,
    STRUCTURAL,
    SpecError,
    parse_equation,
    parse_operation,
)


SPD_SEARCH_DEPTH = 8
SPD_SEARCH_NODES = 4000
_FIELD_PRIME = 2**31 - 1  # p % 4 == 3: a square root mod p is one power
_MODEL_SEEDS = 8
NESTED_DEPTH_LIMIT = 3


class PatternConflictError(ValueError):
    pass


class KnowledgeBaseError(ValueError):
    pass


class CombinationRangeError(ValueError):
    pass


class Pattern(NamedTuple):
    """An operation's slots, template and solved form.

    Each slot is an operand declaration.  Its ``dims`` record the slot's
    symbolic shape; shared symbols across slots express the dimension
    relations the precondition imposes (a factorization's operands are
    all square of one size, a solve's right-hand side agrees with its
    system, and so on).
    """

    name: str
    solution_operator: Optional[str]
    slots: tuple[OperandDecl, ...]
    template: Equation
    solved: Equation
    provenance: str


def pattern_from_spec(spec: OperationSpec, provenance: str) -> Pattern:
    """The learnable pattern of an operation.

    The template is the canonical postcondition; the solved form applies
    the solution operator to the inputs in declaration order.
    """
    template = to_canonical_equation(spec.postcondition, spec.known_names())
    outputs = spec.outputs()
    if len(outputs) != 1:
        raise PatternConflictError(
            f"operation {spec.name}: patterns need exactly one unknown operand"
        )
    if not spec.inputs():
        raise PatternConflictError(f"operation {spec.name}: patterns need a known operand")
    solved = Equation(
        OperandRef(outputs[0].name),
        solved_by(spec.solution_operator, [OperandRef(d.name) for d in spec.inputs()]),
    )
    return Pattern(spec.name, spec.solution_operator, spec.operands, template, solved, provenance)


# ---------------------------------------------------------------------------
# builtin patterns


# One row per builtin: ``name: slots | template | solved form``.  A slot is
# ``name rows cols [property...]``; a 1 x 1 slot is a scalar.  The left side
# of the solved form names the unknown slot.
_BUILTIN_ROWS = """
assign: X q n, E q n | X = E | X = E
add_isolate: X q n, E q n, F q n | E + X = F | X = F - E
solve_left: A q q general, X q n, B q n | A * X = B | X = inv(A) * B
solve_right: A n n general, X q n, B q n | X * A = B | X = B * inv(A)
trsm_lx: L q q lower_triangular, X q n, B q n | L * X = B | X = inv(L) * B
trsm_xlt: L n n lower_triangular, X q n, B q n | X * trans(L) = B | X = B * trans(inv(L))
trsm_ux: U q q upper_triangular, X q n, B q n | U * X = B | X = inv(U) * B
trsm_xu: U n n upper_triangular, X q n, B q n | X * U = B | X = B * inv(U)
trsm_ltx: L q q lower_triangular, X q n, B q n | trans(L) * X = B | X = trans(inv(L)) * B
trsm_xl: L n n lower_triangular, X q n, B q n | X * L = B | X = B * inv(L)
trsm_utx: U q q upper_triangular, X q n, B q n | trans(U) * X = B | X = trans(inv(U)) * B
trsm_xut: U n n upper_triangular, X q n, B q n | X * trans(U) = B | X = B * trans(inv(U))
transpose_solve: X q n, E n q | trans(X) = E | X = trans(E)
scalar_div: s 1 1, x 1 1, t 1 1 | s * x = t | x = inv(s) * t
"""


def _seed_patterns() -> tuple[Pattern, ...]:
    out = []
    for row in _BUILTIN_ROWS.strip().splitlines():
        name, rest = row.split(": ", 1)
        slot_texts, template, solved = rest.split(" | ")
        solved_eq = parse_equation(solved)
        slots = []
        for text in slot_texts.split(", "):
            slot, rows, cols, *props = text.split()
            slots.append(
                OperandDecl(
                    slot,
                    KIND_SCALAR if rows == cols == "1" else KIND_MATRIX,
                    Dimension(rows, cols),
                    ROLE_UNKNOWN if slot == solved_eq.lhs.name else ROLE_KNOWN,
                    frozenset(map(Property, props)),
                )
            )
        out.append(
            Pattern(name, None, tuple(slots), parse_equation(template), solved_eq, "builtin")
        )
    return tuple(out)


class KnowledgeBase(NamedTuple):
    """Immutable pattern store: fixed builtins plus learned patterns."""

    builtins: tuple[Pattern, ...]
    learned: tuple[Pattern, ...] = ()

    def get(self, name: str) -> Optional[Pattern]:
        for p in self.builtins + self.learned:
            if p.name == name:
                return p
        return None

    def match_order(self) -> tuple[Pattern, ...]:
        """Learned patterns first, most recent first, then builtins."""
        return tuple(reversed(self.learned)) + self.builtins

    def with_learned(self, pattern: Pattern) -> "KnowledgeBase":
        return self._replace(learned=self.learned + (pattern,))

    def without_builtins(self, names: Iterable[str]) -> "KnowledgeBase":
        """Drop builtins by exact name or family prefix (``trsm``)."""
        drop = tuple(names)
        keep = tuple(
            p
            for p in self.builtins
            if not any(p.name == n or p.name.startswith(n + "_") for n in drop)
        )
        return self._replace(builtins=keep)


def seed_builtins() -> KnowledgeBase:
    """A fresh knowledge base holding only the elementary solvers."""
    return KnowledgeBase(builtins=_seed_patterns())


def learn(spec: OperationSpec, kb: KnowledgeBase) -> KnowledgeBase:
    """Extend the knowledge base with the operation's own pattern.

    Learning the same pattern twice is a no-op; redefining a name with a
    different template is an error.
    """
    pattern = pattern_from_spec(spec, provenance=f"learned-from:{spec.name}")
    existing = kb.get(pattern.name)
    if existing is not None:
        if existing._replace(provenance=pattern.provenance) == pattern:
            return kb
        raise PatternConflictError(
            f"pattern {pattern.name} already exists with a different definition"
        )
    return kb.with_learned(pattern)


# ---------------------------------------------------------------------------
# structural matching


def _match_expr(tpl: Expression, sub: Expression, binds: dict[str, Expression]) -> bool:
    kind = type(tpl)
    if kind is OperandRef:
        if tpl.name in binds:
            return binds[tpl.name] == sub
        binds[tpl.name] = sub
        return True
    if kind is not type(sub):
        return False
    tpl_kids, sub_kids = tpl.children(), sub.children()
    if len(tpl_kids) != len(sub_kids):
        return False
    if kind is Plus:
        return _match_terms(list(tpl_kids), list(sub_kids), binds)
    if kind is SolvedBy and tpl.operator_name != sub.operator_name:
        return False
    # a failure leaves partial binds: _match_terms restores its own, and
    # match_equation drops them
    for t, s in zip(tpl_kids, sub_kids):
        if not _match_expr(t, s, binds):
            return False
    return True


def _match_terms(
    tpl_terms: list[Expression],
    sub_terms: list[Expression],
    binds: dict[str, Expression],
) -> bool:
    """Match sum terms up to permutation (canonical sorting renames freely)."""
    if not tpl_terms:
        return not sub_terms
    head = tpl_terms[0]
    for i, s in enumerate(sub_terms):
        snapshot = dict(binds)
        if _match_expr(head, s, binds) and _match_terms(
            tpl_terms[1:], sub_terms[:i] + sub_terms[i + 1 :], binds
        ):
            return True
        binds.clear()
        binds.update(snapshot)
    return False


# ---------------------------------------------------------------------------
# derivation state and guards


class TraceStep(NamedTuple):
    position: str
    pattern: str
    outputs: tuple[str, ...]
    known_count: int


@dataclass
class DerivationState:
    """Mutable working state of one PME derivation.

    ``cells`` maps each position of the initial ``grid``, in scan order,
    to its current quadrant equation.
    """

    grid: BlockedEquationGrid
    cells: dict[str, QuadrantEquation]
    known: set[str]
    facts: list[PropertyFact]
    tautologies: list[Equation]
    dims: dict[str, Dimension]
    trace: list[TraceStep] = field(default_factory=list)

    def fact_holds(self, e: Expression, prop: Property) -> bool:
        key = serialize(e)
        return any(
            f.property is prop and serialize(f.expression) == key for f in self.facts
        )


def initial_state(spec: OperationSpec, rules: RuleCombination) -> DerivationState:
    return _initial_state(spec, blocked_operands(spec, rules))


def _initial_state(spec: OperationSpec, blocks: dict[str, BlockedOperand]) -> DerivationState:
    """The state of one combination, joined from its operands' blockings in
    rule order."""
    known = {n for d in spec.inputs() for n in blocks[d.name].dims}
    grid = _blocked_grid(spec, blocks, known)
    cells = {q.position: q for q in grid.all_cells()}
    return DerivationState(
        grid=grid,
        cells={p: cells[p] for p in grid.scan_positions()},
        known=known,
        facts=[f for b in blocks.values() for f in b.facts],
        tautologies=[],
        dims={n: d for b in blocks.values() for n, d in b.dims.items()},
    )


def _dims_of(e: Expression, dims: dict[str, Dimension]) -> Optional[Dimension]:
    kind = type(e)
    if kind is OperandRef:
        return dims.get(e.name)
    if kind in (Minus, Inverse):
        return _dims_of(e.operand, dims)
    if kind is Transpose:
        d = _dims_of(e.operand, dims)
        return Dimension(d.cols, d.rows) if d else None
    if kind is Times:
        first = _dims_of(e.factors[0], dims)
        last = _dims_of(e.factors[-1], dims)
        if first and last:
            return Dimension(first.rows, last.cols)
        return None
    if kind is Plus:
        for t in e.terms:
            d = _dims_of(t, dims)
            if d:
                return d
    return None


def _established(e: Expression, prop: Property, state: DerivationState) -> bool:
    """Structural property propagation: facts, zero blocks, sums, transpose."""
    if state.fact_holds(e, prop):
        return True
    implied_by = {
        Property.SYMMETRIC: (Property.SPD, Property.DIAGONAL),
        Property.LOWER_TRIANGULAR: (Property.DIAGONAL,),
        Property.UPPER_TRIANGULAR: (Property.DIAGONAL,),
    }
    for stronger in implied_by.get(prop, ()):
        if state.fact_holds(e, stronger):
            return True
    if prop is Property.SYMMETRIC and trans(e) == e:
        return True
    kind = type(e)
    if kind is Zero:
        return prop in (
            Property.LOWER_TRIANGULAR,
            Property.UPPER_TRIANGULAR,
            Property.SYMMETRIC,
            Property.DIAGONAL,
        )
    if kind is Minus and prop is not Property.SPD:
        return _established(e.operand, prop, state)
    if kind is Plus and prop is not Property.SPD:
        return all(_established(t, prop, state) for t in e.terms)
    if kind is Transpose:
        flip = {
            Property.LOWER_TRIANGULAR: Property.UPPER_TRIANGULAR,
            Property.UPPER_TRIANGULAR: Property.LOWER_TRIANGULAR,
            Property.SYMMETRIC: Property.SYMMETRIC,
            Property.DIAGONAL: Property.DIAGONAL,
            Property.SPD: Property.SPD,
        }
        return _established(e.operand, flip[prop], state)
    return False


def _is_plain_general(e: Expression, state: DerivationState) -> bool:
    """A bare block reference with no structural property on record."""
    if type(e) is not OperandRef:
        return False
    return not any(
        f.property in STRUCTURAL
        and type(f.expression) is OperandRef
        and f.expression.name == e.name
        for f in state.facts
    )


class MatchResult(NamedTuple):
    pattern: Pattern
    solved: Equation
    outputs: tuple[str, ...]


def _role_failure(slot: OperandDecl, bound: Expression | None, known: set[str]) -> Optional[str]:
    """Why ``bound`` cannot fill ``slot`` whatever its size, or None."""
    if bound is None:
        return f"slot {slot.name} unbound"
    if slot.io_role == ROLE_UNKNOWN:
        if type(bound) is not OperandRef:
            return f"slot {slot.name} must bind a single unknown block"
        if bound.name in known:
            return f"{bound.name} is already known"
    elif not known_only(bound, known):
        return f"slot {slot.name} binds unknown quantities ({serialize(bound)})"
    return None


def _check_guards(
    pattern: Pattern, binds: dict[str, Expression], state: DerivationState, roles: bool = True
) -> Optional[str]:
    """Why a structurally matching pattern is rejected, or None.

    The bound slots are sized first, in order up to the first conflict,
    binding the pattern's size symbols.  A slot whose bound expression has
    no determinable dimensions (a bare zero block, say) contributes no
    constraints; everything else must be explainable by one consistent
    assignment of pattern symbols.  Then each slot in turn must pass
    :func:`_role_failure` (unless ``roles`` is false, when the caller has
    passed every slot already), fit a scalar slot and have its properties
    established.  A stuck note reports the first failure in this order.
    """
    assignment: dict[str, str] = {}
    sizes: dict[str, Optional[Dimension]] = {}
    for slot in pattern.slots:
        if slot.name not in binds:
            continue
        actual = sizes[slot.name] = _dims_of(binds[slot.name], state.dims)
        if slot.dims is None or actual is None:
            continue
        for symbol, size in ((slot.dims.rows, actual.rows), (slot.dims.cols, actual.cols)):
            if symbol == "1":
                if size != "1":
                    return f"slot {slot.name} must have a fixed size-1 axis, got {size}"
                continue
            if assignment.setdefault(symbol, size) != size:
                return (
                    f"slot {slot.name}: size {symbol} would need to be both "
                    f"{assignment[symbol]} and {size}"
                )
    for slot in pattern.slots:
        bound = binds.get(slot.name)
        if roles and (failure := _role_failure(slot, bound, state.known)) is not None:
            return failure
        d = sizes[slot.name]
        if slot.kind == KIND_SCALAR and (d is None or d != Dimension("1", "1")):
            return f"slot {slot.name} must bind a scalar"
        for prop in sorted(slot.properties, key=lambda p: p.value):
            if prop is Property.GENERAL:
                if not _is_plain_general(bound, state):
                    return (
                        f"slot {slot.name} needs an unstructured block, "
                        f"got {serialize(bound)}"
                    )
            elif prop is Property.SPD:
                if not prove_spd(bound, state):
                    return f"could not establish spd({serialize(bound)})"
            elif not _established(bound, prop, state):
                return f"could not establish {prop.value}({serialize(bound)})"
    return None


def match_equation(
    eq: QuadrantEquation,
    patterns: Sequence[Pattern],
    state: DerivationState,
    notes: Optional[list[str]] = None,
) -> Optional[MatchResult]:
    """First of ``patterns`` that matches the equation and passes all guards.

    Without ``notes`` the search needs a verdict alone, so a structural
    match first faces every slot's :func:`_role_failure`, which needs no
    sizes, and :func:`_check_guards` does not repeat it; each failure there
    is one of :func:`_check_guards` too, so the verdict is the same.  With
    ``notes`` the guards explain: the first failure in
    :func:`_check_guards`'s order is appended.  A template side whose root
    is neither a slot nor of the equation side's type cannot match, so it
    is not tried, nor, in the search, a bare slot on a left side that is no
    single block: the search's cells hold an unknown on the left, so a known
    slot cannot bind that side, and the unknown slot binds one block.
    """
    subject = eq.equation
    lhs, rhs = type(subject.lhs), type(subject.rhs)
    left_roots = (lhs,) if notes is None else (OperandRef, lhs)
    for pattern in patterns:
        tpl = pattern.template
        if type(tpl.lhs) not in left_roots or type(tpl.rhs) not in (OperandRef, rhs):
            continue
        binds: dict[str, Expression] = {}
        if not (
            _match_expr(tpl.lhs, subject.lhs, binds) and _match_expr(tpl.rhs, subject.rhs, binds)
        ):
            continue
        if notes is None and any(
            _role_failure(s, binds.get(s.name), state.known) for s in pattern.slots
        ):
            continue
        failure = _check_guards(pattern, binds, state, roles=notes is not None)
        if failure is not None:
            if notes is not None:
                notes.append(f"{eq.position}: pattern {pattern.name}: {failure}")
            continue
        solved = _substitute(pattern.solved, binds)
        outputs = tuple(
            sorted(
                binds[s.name].name  # type: ignore[union-attr]
                for s in pattern.slots
                if s.io_role == ROLE_UNKNOWN
            )
        )
        return MatchResult(pattern=pattern, solved=solved, outputs=outputs)
    return None


def _substitute(e: Expression | Equation, binds: dict[str, Expression]) -> Expression | Equation:
    if type(e) is OperandRef:
        return binds.get(e.name, e)
    return e.rebuild([_substitute(c, binds) for c in e.children()])


# ---------------------------------------------------------------------------
# spd proving


def prove_spd(e: Expression, state: DerivationState) -> bool:
    """Bounded equational search for membership in the SPD fact set.

    Returns False when no proof is found within the bounds, or when a
    check shows that none exists at any bound: the query keeps summands
    that no rewrite can touch, each fact lacking one of their private
    names (:func:`_inert_summands_refute`), or a model of the tautologies
    separates it from every fact (:func:`_counter_model_refutes`).  Either
    way that is a failure to establish the property, never a disproof.
    """
    targets = [f.expression for f in state.facts if f.property is Property.SPD]
    if not targets:
        return False
    start_key = serialize(e)
    target_keys = {serialize(t) for t in targets}
    if start_key in target_keys:
        return True
    rules = list(state.tautologies)
    if _inert_summands_refute(e, targets, rules) or _counter_model_refutes(e, targets, rules):
        return False
    fwd_seen: set[str] = {start_key}
    bwd_seen: set[str] = set(target_keys)
    fwd_frontier: list[Expression] = [e]
    bwd_frontier: list[Expression] = list(targets)
    for _ in range(SPD_SEARCH_DEPTH):
        if not fwd_frontier and not bwd_frontier:
            break
        fwd_frontier = _expand(fwd_frontier, rules, fwd_seen)
        if any(serialize(x) in bwd_seen for x in fwd_frontier):
            return True
        bwd_frontier = _expand(bwd_frontier, rules, bwd_seen)
        if any(serialize(x) in fwd_seen for x in bwd_frontier):
            return True
    return False


def _inert_summands_refute(
    start: Expression, targets: list[Expression], rules: list[Equation]
) -> bool:
    """True when inert summands of ``start`` keep the search from meeting.

    A top-level summand is inert when it holds no inverse and no rule side
    is a subtree of it.  A private name of a summand occurs in it, in no
    other summand and in no rule side.  With ``W`` the private names of all
    inert summands, no proof exists when ``W`` is not empty and every
    target misses some name of ``W``:

    - an inert summand is never rewritten: a ground rewrite replaces a
      whole node equal to a rule side, and an inverse move needs an inverse;
    - it is never cancelled: ``plus`` cancels only an equal core, which
      would hold a private name, and no other summand can gain that name,
      since rewrites insert only rule-side names and inverse moves none;
    - so every forward node contains all of ``W``, while every backward
      node descends from one target ``t`` and names only ``t`` and rule
      sides, so it misses a name of ``W`` whenever ``t`` does.
    """
    sides = [side for r in rules for side in (r.lhs, r.rhs)]
    side_keys = {serialize(side) for side in sides}
    terms = additive_terms(start)
    names = [operand_names(t) for t in terms]
    private: set[str] = set()
    for i, term in enumerate(terms):
        if "(inv " in serialize(term) or any(serialize(n) in side_keys for n in walk(term)):
            continue
        private |= names[i].difference(*names[:i], *names[i + 1 :])
    private.difference_update(*map(operand_names, sides))
    return bool(private) and all(not private <= operand_names(t) for t in targets)


def _counter_model_refutes(
    start: Expression, targets: list[Expression], rules: list[Equation]
) -> bool:
    """True when a 1x1 model over GF(p) satisfies every rule but gives
    ``start`` a value that no target has.

    Blocks are integers mod ``p``: transpose is the identity, ``Zero`` is
    0, ``Inverse`` the modular inverse and ``SolvedBy`` a table keyed by
    operator and argument values.  Names that no solved form ``X = F``
    (``X`` not in ``F``) defines get seeded values; solved forms are then
    evaluated in rule order, a ``SolvedBy`` form taking ``X`` as a root of
    the quadrant equation just before it (of degree at most 2 in ``X``).
    The first seed under which every value exists, no inverse is of 0 and
    every rule holds decides.

    Sound, since every search step keeps a node's value in such a model: a
    ground rewrite swaps equal sides; the smart constructors use identities
    of a commutative field with trivial transpose; inverse moves hold for
    nonzero factors, and every inverse in a search node descends from one
    in ``start``, a target or a rule, all nonzero (a product is nonzero iff
    its factors are).  So a meeting would give ``start`` a target's value.
    The arithmetic is exact; a seed without a model leaves the search.
    """
    solved = [
        (i, r.lhs.name, r.rhs)
        for i, r in enumerate(rules)
        if type(r.lhs) is OperandRef and r.lhs.name not in operand_names(r.rhs)
    ]
    exprs = [start, *targets, *rules]
    free = sorted(set().union(*map(operand_names, exprs)) - {x for _, x, _ in solved})
    p = _FIELD_PRIME
    for state in range(_MODEL_SEEDS):
        # names map to values, (operator, *argument values) to SolvedBy values
        model: dict = {}
        for name in free:
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            model[name] = (state >> 33) % (p - 1) + 1
        try:
            for i, x, f in solved:
                if type(f) is not SolvedBy:
                    model[x] = _model_value(f, model)
                    continue
                if i == 0:
                    raise ValueError("no quadrant equation before the solved form")
                eq, c = rules[i - 1], []
                for model[x] in (0, 1, 2):
                    c.append((_model_value(eq.lhs, model) - _model_value(eq.rhs, model)) % p)
                # a*X^2 + b*X + c[0] = 0, interpolated from X = 0, 1, 2
                a = (c[2] - 2 * c[1] + c[0]) * ((p + 1) // 2) % p
                b = (c[1] - c[0] - a) % p
                disc = (b * b - 4 * a * c[0]) % p
                root = pow(disc, (p + 1) // 4, p)
                if root * root % p != disc:
                    raise ValueError("no square root")
                model[x] = ((root - b) * pow(2 * a, -1, p) if a else -c[0] * pow(b, -1, p)) % p
                key = (f.operator_name, *(_model_value(g, model) for g in f.arguments))
                if model.setdefault(key, model[x]) != model[x]:
                    raise ValueError("conflicting solved forms")
            if all(_model_value(r.lhs, model) == _model_value(r.rhs, model) for r in rules):
                values = [_model_value(e, model) for e in (start, *targets)]
                return values[0] not in values[1:]
        except (KeyError, ValueError):
            pass
    return False


def _model_value(e: Expression, model: dict) -> int:
    """``e`` in a :func:`_counter_model_refutes` model; KeyError or ValueError if none."""
    kind = type(e)
    if kind is OperandRef:
        return model[e.name]
    if kind is Zero:
        return 0
    values = [_model_value(c, model) for c in e.children()]
    if kind is SolvedBy:
        return model[(e.operator_name, *values)]
    if kind is Inverse:
        return pow(values[0], -1, _FIELD_PRIME)
    if kind is Minus:
        return -values[0] % _FIELD_PRIME
    if kind is Plus:
        return sum(values) % _FIELD_PRIME
    return prod(values) % _FIELD_PRIME  # Transpose is the identity


def _expand(
    frontier: list[Expression], rules: list[Equation], seen: set[str]
) -> list[Expression]:
    out: list[Expression] = []
    for node in frontier:
        if len(seen) >= SPD_SEARCH_NODES:
            break
        for cand in rewrite_candidates(node, rules):
            key = serialize(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
    return out


# ---------------------------------------------------------------------------
# derivation


class StuckDerivation(Exception):
    """No unsolved quadrant matched anything in a full sweep.

    The derivation core returns it as a combination's result; only
    :func:`derive_pme` raises it.  It keeps the patterns and state of the
    final sweep, which nothing changes afterwards, to explain it on request.
    """

    def __init__(
        self,
        operation: str,
        combination: RuleCombination,
        unsolved: Sequence[QuadrantEquation],
        patterns: Sequence[Pattern],
        state: DerivationState,
    ) -> None:
        self.operation = operation
        self.combination = combination
        self.unsolved = tuple(unsolved)
        self._patterns = tuple(patterns)
        self._state = state
        positions = ", ".join(q.position for q in self.unsolved)
        super().__init__(
            f"operation {operation}, combination {combination.index}: "
            f"stuck with unsolved quadrant(s) {positions}"
        )

    @property
    def notes(self) -> tuple[str, ...]:
        """Why the final sweep solved nothing, written when read."""
        notes: list[str] = []
        _first_match(self.unsolved, self._patterns, self._state, notes)
        return tuple(notes)


class AllCombinationsStuck(Exception):
    def __init__(self, operation: str, failures: Sequence[StuckDerivation]) -> None:
        self.operation = operation
        self.failures = tuple(failures)
        super().__init__(
            f"operation {operation}: every combination got stuck "
            f"({len(self.failures)} total)"
        )


class _PMEFields(NamedTuple):
    operation: str
    combination: RuleCombination
    row_sizes: tuple[str, ...]
    col_sizes: tuple[str, ...]
    cells: tuple[tuple[QuadrantEquation, ...], ...]
    order: tuple[str, ...]
    trace: tuple[TraceStep, ...] = ()


class PME(_PMEFields, QuadrantCells):
    """A fully solved grid: each output block expressed over known inputs."""

    __slots__ = ()


class _OpsDir:
    """An operations directory, parsed when a nested derivation first needs it.

    One instance serves a top-level derivation and every derivation nested
    in it, so each file is read, parsed and turned into a pattern at most
    once per top-level call.
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = path

    @cached_property
    def candidates(self) -> list[tuple[OperationSpec, Pattern]]:
        """Each operation of the directory that yields a pattern, with it."""
        if not self.path or not os.path.isdir(self.path):
            return []
        out = []
        for fname in sorted(os.listdir(self.path)):
            if not fname.endswith(".op"):
                continue
            path = os.path.join(self.path, fname)
            try:
                with open(path, "rb") as fh:
                    spec = parse_operation(fh.read().decode("utf-8"))
            except (SpecError, UnicodeDecodeError) as exc:
                raise SpecError(f"{path}: {exc}") from exc
            try:
                out.append((spec, pattern_from_spec(spec, f"learned-from:{spec.name}")))
            except PatternConflictError:
                # an operation that yields no pattern cannot solve anything
                continue
        return out


def derive_pme(
    spec: OperationSpec,
    rules: RuleCombination,
    kb: KnowledgeBase,
    ops_dir: Optional[str] = None,
) -> PME:
    """Derive the PME for one rule combination, or raise
    :class:`StuckDerivation`.

    The operation's own pattern is registered first in a working copy of
    the knowledge base, so the derivation can bootstrap sub-problems of
    its own kind.  When an equation matches nothing and an operations
    directory is given, operation files there are tried as nested
    derivations; a pattern acquired that way is used immediately.
    """
    self_pattern = pattern_from_spec(spec, provenance="self")
    blocks = blocked_operands(spec, rules)
    result = _derive_pme(spec, rules, blocks, kb, _OpsDir(ops_dir), 0, self_pattern)
    if isinstance(result, StuckDerivation):
        raise result
    return result


def _derive_pme(
    spec: OperationSpec,
    rules: RuleCombination,
    blocks: dict[str, BlockedOperand],
    kb: KnowledgeBase,
    ops: _OpsDir,
    depth: int,
    self_pattern: Pattern,
) -> PME | StuckDerivation:
    """:func:`derive_pme` at nesting ``depth``, over ``blocks``, the blocked
    operands of ``rules`` by name, with the operation's own pattern already
    built; a stuck combination is returned, not raised."""
    state = _initial_state(spec, blocks)
    patterns = [self_pattern, *kb.match_order()]
    tried_nested: set[str] = set()
    while unsolved := [q for q in state.cells.values() if q.status == STATUS_UNSOLVED]:
        if (found := _first_match(unsolved, patterns, state)) is None:
            if _try_nested(spec, kb, ops, depth, unsolved, state, patterns, tried_nested):
                continue
            return StuckDerivation(spec.name, rules, unsolved, patterns, state)
        q, result = found
        state.cells[q.position] = QuadrantEquation(q.position, result.solved, STATUS_SOLVED)
        state.known.update(result.outputs)
        # both the identity the quadrant now encodes and its solved form
        # feed later rewriting
        for taut in (q.equation, result.solved):
            if taut not in state.tautologies:
                state.tautologies.append(taut)
        state.trace.append(
            TraceStep(q.position, result.pattern.name, result.outputs, len(state.known))
        )
        for pos, other in state.cells.items():
            if other.status == STATUS_UNSOLVED:
                state.cells[pos] = other._replace(
                    equation=to_canonical_equation(other.equation, state.known)
                )
    return PME(
        operation=spec.name,
        combination=rules,
        row_sizes=state.grid.row_sizes,
        col_sizes=state.grid.col_sizes,
        cells=tuple(tuple(state.cells[q.position] for q in row) for row in state.grid.cells),
        order=tuple(t.position for t in state.trace),
        trace=tuple(state.trace),
    )


def _first_match(
    unsolved: Sequence[QuadrantEquation],
    patterns: Sequence[Pattern],
    state: DerivationState,
    notes: Optional[list[str]] = None,
) -> Optional[tuple[QuadrantEquation, MatchResult]]:
    """One sweep: the first of ``unsolved`` that ``patterns`` solve, with the
    match.  With ``notes``, why each quadrant before it failed is appended.

    Every pattern has one unknown slot, which binds one block, and known
    slots bind known blocks only, so a cell naming two unknown blocks
    matches nothing; without ``notes`` it is not tried."""
    for q in unsolved:
        # the cell is canonical, so its right side is known
        unknowns = _unknown_blocks(q.equation.lhs, state.known)
        if not unknowns:
            if notes is not None:
                text = serialize(q.equation)
                notes.append(f"{q.position}: no unknowns left but sides differ ({text})")
            continue
        if unknowns > 1 and notes is None:
            continue
        result = match_equation(q, patterns, state, notes)
        if result is not None:
            return q, result
    return None


def _unknown_blocks(e: Expression, known: set[str]) -> int:
    """How many distinct blocks outside ``known`` ``e`` names, counted up to 2."""
    unknown = (name for name in _leaf_names(e) if name not in known)
    first = next(unknown, None)
    return 0 if first is None else 1 + any(name != first for name in unknown)


def _try_nested(
    spec: OperationSpec,
    kb: KnowledgeBase,
    ops: _OpsDir,
    depth: int,
    unsolved: Sequence[QuadrantEquation],
    state: DerivationState,
    patterns: list[Pattern],
    tried: set[str],
) -> bool:
    """Acquire a pattern from the operations directory for a stuck equation
    of ``unsolved``; as in :func:`_first_match`, only a cell naming one
    unknown block can match a candidate."""
    if not ops.path or depth >= NESTED_DEPTH_LIMIT:
        return False
    cells = [q for q in unsolved if _unknown_blocks(q.equation.lhs, state.known) == 1]
    if not cells:
        return False
    candidates = [
        (cand, pattern)
        for cand, pattern in ops.candidates
        if cand.name != spec.name and cand.name not in tried and kb.get(cand.name) is None
    ]
    for q in cells:
        for cand, pattern in candidates:
            if match_equation(q, [pattern], state) is None:
                continue
            tried.add(cand.name)
            try:
                results = _derive_each(cand, kb, ops, depth + 1)
            except BindingError:
                # no viable partitionings, or more than the bound allows
                continue
            if not any(isinstance(r, PME) for r in results):
                continue
            patterns.insert(0, pattern)
            return True
    return False


def derive_each(
    spec: OperationSpec,
    kb: KnowledgeBase,
    ops_dir: Optional[str] = None,
    combination: Optional[int] = None,
) -> list[PME | StuckDerivation | None]:
    """Derive every viable combination: its PME, or why it got stuck.

    The results follow combination order.  With ``combination`` (counted
    from 1), only that combination is derived and every other entry is
    None; an index outside the combinations raises
    :class:`CombinationRangeError` before any derivation starts.  The spec
    is analyzed once, each operand is blocked once per distinct rule of the
    derived combinations, and ``ops_dir`` is parsed at most once for the
    whole call.
    """
    return _derive_each(spec, kb, _OpsDir(ops_dir), 0, combination)


def _derive_each(
    spec: OperationSpec,
    kb: KnowledgeBase,
    ops: _OpsDir,
    depth: int,
    combination: Optional[int] = None,
) -> list[PME | StuckDerivation | None]:
    """:func:`derive_each` at nesting ``depth``, sharing ``ops``."""
    analysis = analyze(spec)
    combos = _combinations(spec, analysis)
    if combination is not None and not 1 <= combination <= len(combos):
        raise CombinationRangeError(
            f"combination {combination} out of range 1..{len(combos)}"
        )
    self_pattern = pattern_from_spec(spec, provenance="self")
    # every blocking the selected combinations use, built before any of them
    chosen = combos if combination is None else (combos[combination - 1],)
    blockings = operand_blockings(spec, analysis, chosen)
    return [
        _derive_pme(spec, combo, blockings[combo], kb, ops, depth, self_pattern)
        if combo in blockings
        else None
        for combo in combos
    ]


def derive_all(
    spec: OperationSpec, kb: KnowledgeBase, ops_dir: Optional[str] = None
) -> tuple[PME, ...]:
    """Run the whole pipeline and return one PME per solvable combination.

    Raises :class:`AllCombinationsStuck` when no combination at all can
    be completed.
    """
    results = derive_each(spec, kb, ops_dir)
    pmes = tuple(r for r in results if isinstance(r, PME))
    if not pmes:
        raise AllCombinationsStuck(spec.name, results)
    return pmes


# ---------------------------------------------------------------------------
# knowledge-base persistence


def save_kb(kb: KnowledgeBase, path: str) -> None:
    """Write learned patterns as one record each; the write is atomic."""
    lines = ["# pattern knowledge base"]
    for p in kb.learned:
        lines.append(f"pattern {p.name}")
        lines.append(f"provenance {p.provenance}")
        lines.append(f"solve {p.solution_operator or '-'}")
        for s in p.slots:
            dims = f"{s.dims.rows} {s.dims.cols}" if s.dims else "- -"
            props = " ".join(sorted(q.value for q in s.properties))
            suffix = f" {props}" if props else ""
            lines.append(f"slot {s.name} {s.kind} {s.io_role} {dims}{suffix}")
        lines.append(f"post {serialize(p.template)}")
        lines.append(f"solved {serialize(p.solved)}")
        lines.append("end")
    text = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # only this writer needs tempfile, so importing the engine does not pay for it
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kb-", text=True)
    except OSError as exc:
        # the temporary file's random name would mean nothing to the user
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _kb_value(fields: list[str], what: str) -> str:
    """The value of a one-value KB line; a line without one names ``what`` it
    lacks, and a line with more names how many values it holds."""
    if len(fields) < 2:
        raise KnowledgeBaseError(f"{fields[0]!r} needs {what}")
    if len(fields) > 2:
        raise KnowledgeBaseError(f"{fields[0]!r} takes one value, got {len(fields) - 1}")
    return fields[1]


def load_kb(path: Optional[str]) -> KnowledgeBase:
    """Builtins plus the learned patterns stored at ``path`` (if any)."""
    kb = seed_builtins()
    if not path or not os.path.exists(path):
        return kb
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    record: dict[str, object] | None = None
    slots: list[OperandDecl] = []
    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            head = fields[0]
            if head == "pattern":
                if record is not None:
                    raise KnowledgeBaseError("record not closed with 'end'")
                name = _kb_value(fields, "a pattern name")
                if not _IDENT.match(name):
                    raise KnowledgeBaseError(f"invalid pattern name {name!r}")
                record = {"name": name}
                slots = []
            elif record is None:
                raise KnowledgeBaseError(f"unexpected {head!r} outside a record")
            elif head == "provenance":
                record["provenance"] = _kb_value(fields, "a source")
            elif head == "solve":
                op = _kb_value(fields, "a solution operator or '-'")
                if op != "-" and not _IDENT.match(op):
                    raise KnowledgeBaseError(f"invalid solution operator {op!r}")
                record["solve"] = None if op == "-" else op
            elif head == "slot":
                if len(fields) < 6:
                    raise KnowledgeBaseError(
                        "slot records need name, kind, role, rows and cols"
                    )
                if not _IDENT.match(fields[1]) or fields[1] in _RESERVED:
                    raise KnowledgeBaseError(f"invalid slot name {fields[1]!r}")
                if fields[2] not in (KIND_MATRIX, KIND_VECTOR, KIND_SCALAR):
                    raise KnowledgeBaseError(f"unknown slot kind {fields[2]!r}")
                if fields[3] not in (ROLE_KNOWN, ROLE_UNKNOWN):
                    raise KnowledgeBaseError(f"unknown slot role {fields[3]!r}")
                rows, cols = fields[4], fields[5]
                dims = None if rows == "-" else Dimension(rows, cols)
                props = frozenset(Property(p) for p in fields[6:])
                slots.append(OperandDecl(fields[1], fields[2], dims, fields[3], props))
            elif head == "post":
                record["post"] = parse_prefix_equation(line[len("post ") :])
            elif head == "solved":
                record["solved"] = parse_prefix_equation(line[len("solved ") :])
            elif head == "end":
                if len(fields) > 1:
                    raise KnowledgeBaseError(f"'end' takes no value, got {len(fields) - 1}")
                kb = _close_record(kb, record, slots)
                record = None
            else:
                raise KnowledgeBaseError(f"unknown field {head!r}")
        if record is not None:
            raise KnowledgeBaseError("unterminated pattern record")
    except (IndexError, ValueError) as exc:
        raise KnowledgeBaseError(f"{path}:{lineno}: {exc}") from exc
    return kb


def _close_record(
    kb: KnowledgeBase, record: dict[str, object], slots: list[OperandDecl]
) -> KnowledgeBase:
    try:
        name = str(record["name"])
        template = record["post"]
        solved = record["solved"]
    except KeyError as exc:
        raise KnowledgeBaseError(f"record missing field {exc}") from exc
    if normalize(template) != template:
        raise KnowledgeBaseError(f"pattern {name}: template is not normalized")
    if kb.get(name) is not None:
        raise KnowledgeBaseError(f"pattern {name} defined twice")
    slot_names = {s.name for s in slots}
    if len(slot_names) != len(slots):
        raise KnowledgeBaseError(f"pattern {name}: duplicate slot names")
    used = operand_names(template)
    if not used <= slot_names:
        raise KnowledgeBaseError(f"pattern {name}: template uses undeclared slots")
    # what pattern_from_spec guarantees for a learned pattern: its solved
    # form assigns the one unknown slot from known slots alone
    unknown = [s.name for s in slots if s.io_role == ROLE_UNKNOWN]
    if len(unknown) != 1:
        raise KnowledgeBaseError(f"pattern {name}: needs exactly one unknown slot")
    (out,) = unknown
    solved = normalize(solved)
    if solved.lhs != OperandRef(out):
        raise KnowledgeBaseError(f"pattern {name}: solved form must assign the unknown slot {out}")
    stray = sorted(operand_names(solved.rhs) - (slot_names - {out}))
    if stray:
        raise KnowledgeBaseError(
            f"pattern {name}: solved form must read only known slots, not {', '.join(stray)}"
        )
    pattern = Pattern(
        name=name,
        solution_operator=record.get("solve"),  # type: ignore[arg-type]
        slots=tuple(slots),
        template=template,
        solved=solved,
        provenance=str(record.get("provenance", "learned-from:unknown")),
    )
    return kb.with_learned(pattern)
