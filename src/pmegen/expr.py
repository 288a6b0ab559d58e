"""Immutable symbolic matrix expressions and a deterministic normal form.

Expressions are built from operand references, a zero block, n-ary sums,
n-ary non-commutative products, unary negation, transposition, formal
inversion, and applications of solution operators (``Gamma``, ``Omega``,
...).  :func:`normalize` rewrites any well-formed tree into a canonical
form whose prefix serialization is unique: two normalized expressions are
structurally equal exactly when their serializations are byte-equal.

The normal form is produced by smart constructors (:func:`plus`,
:func:`times`, :func:`minus`, :func:`trans`, :func:`inv`) that assume
normalized children and keep the following invariants:

* sums and products are flat, sums are sorted by serialization and free
  of cancelling ``x`` / ``-x`` pairs and of zero terms;
* unary minus never wraps a minus, never sits inside a product and is
  distributed over sums;
* no ``trans(trans(x))``, ``trans`` of a sum or product, ``inv(inv(x))``
  or ``inv(trans(x))`` remains (the canonical order is transpose outside
  inverse);
* products containing a zero block collapse to zero.

The smart constructors are the normalizer: a tree built from normal trees
through them is normal.  So :func:`normalize` runs only where trees come
in from outside, on the postcondition in ``opspec.build_spec`` and on a
stored pattern's template and solved form in ``engine._close_record``.
Nodes check nothing when built: the prefix reader and the ``.op`` parser
check names, arity and flatness where text enters, and the smart
constructors keep them; only an :class:`Equation` checks its sides.

The nine node classes (:class:`OperandRef`, :class:`Zero`, :class:`Plus`,
:class:`Times`, :class:`Minus`, :class:`Transpose`, :class:`Inverse`,
:class:`SolvedBy` and :class:`Equation`) are final, so a walker that asks
which node it holds compares the exact class (``type(e) is Plus``) instead
of walking the class hierarchy; only the bases ``Expression`` and
``_Unary`` are tested through it.

A grouped inverse such as ``inv(L * trans(L))`` is deliberately left
alone by :func:`normalize`; expanding or contracting product inverses is
one of the steps :func:`rewrite_candidates` offers, next to ground
rewriting with solved equations.

Every node computes its prefix serialization once and keeps it as its
key.  Operand and operator names contain no spaces or parentheses, so a
subtree's key is a contiguous substring of every tree that contains it;
the rewriting steps use that to skip subtrees a rule cannot touch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, final


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"plus", "minus", "times", "trans", "inv", "solved", "eq"})

#: nesting levels an operation file may write; a tree built from them is at
#: most about three times as deep, and its prefix form may nest four times
#: as deep.  Both keep every recursive walk far from Python's limit.
MAX_DEPTH = 64
_PREFIX_DEPTH = 4 * MAX_DEPTH


class StructuralError(ValueError):
    """A prefix form or an equation is malformed: wrong arity, name or child."""


class _Node:
    """Base class of expression nodes and equations; all are immutable.

    Every node exposes its subexpressions through :meth:`children` and
    builds its normalized counterpart over new children through
    :meth:`rebuild`; generic walkers use this pair and never inspect node
    types.  Interior nodes carry their prefix-form keyword in ``head``.
    The ``_key`` slot holds the node's serialization once computed; it is
    not a dataclass field, so equality, hashing and ``repr`` ignore it.
    """

    __slots__ = ("_key",)

    def children(self) -> tuple[Expression, ...]:
        return ()

    def rebuild(self, children: Sequence[Expression]) -> _Node:
        """The same node over ``children``, through the smart constructors."""
        return self


class Expression(_Node):
    """Base class for expression nodes, the only nodes that may be children."""

    __slots__ = ()


@final
@dataclass(frozen=True, slots=True)
class OperandRef(Expression):
    """Reference to a named operand or block (``A``, ``L_TL``)."""

    name: str


@final
@dataclass(frozen=True, slots=True)
class Zero(Expression):
    """The zero block; its dimensions are implied by context."""


ZERO = Zero()


@final
@dataclass(frozen=True, slots=True)
class Plus(Expression):
    """Flat n-ary sum, at least two terms, no direct Plus children."""

    head = "plus"
    terms: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return plus(*children)


@final
@dataclass(frozen=True, slots=True)
class Times(Expression):
    """Flat ordered n-ary product; matrix product is non-commutative."""

    head = "times"
    factors: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.factors

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return times(*children)


@dataclass(frozen=True, slots=True)
class _Unary(Expression):
    """Shape shared by the one-operand nodes."""

    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@final
class Minus(_Unary):
    """Unary negation."""

    __slots__ = ()
    head = "minus"

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return minus(*children)


@final
class Transpose(_Unary):
    __slots__ = ()
    head = "trans"

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return trans(*children)


@final
class Inverse(_Unary):
    """Formal inverse; no invertibility check happens at this layer."""

    __slots__ = ()
    head = "inv"

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return inv(*children)


@final
@dataclass(frozen=True, slots=True)
class SolvedBy(Expression):
    """Application of a solution operator, e.g. ``Gamma(A_TL)``."""

    head = "solved"
    operator_name: str
    arguments: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.arguments

    def rebuild(self, children: Sequence[Expression]) -> Expression:
        return SolvedBy(self.operator_name, tuple(children))


@final
@dataclass(frozen=True, slots=True)
class Equation(_Node):
    """``lhs = rhs``; a node only at the root, never a child."""

    head = "eq"
    lhs: Expression
    rhs: Expression

    def __post_init__(self) -> None:
        for side in (self.lhs, self.rhs):
            if not isinstance(side, Expression):
                raise StructuralError(f"expected an Expression, got {type(side).__name__}")

    def children(self) -> tuple[Expression, ...]:
        return (self.lhs, self.rhs)

    def rebuild(self, children: Sequence[Expression]) -> Equation:
        return Equation(*children)


class Dimension(NamedTuple):
    """Symbolic dimensions; sizes are identifiers, ``1``, or ``a-b``."""

    rows: str
    cols: str


def ref(name: str) -> OperandRef:
    return OperandRef(name)


# ---------------------------------------------------------------------------
# serialization


def serialize(e: _Node) -> str:
    """Parenthesized prefix form; unique on normalized expressions."""
    key = getattr(e, "_key", None)
    if key is not None:
        return key
    kind = type(e)
    if kind is OperandRef:
        key = e.name
    elif kind is Zero:
        key = "0"
    else:
        head = f"solved {e.operator_name}" if kind is SolvedBy else e.head
        key = f"({head} {' '.join([serialize(c) for c in e.children()])})"
    object.__setattr__(e, "_key", key)
    return key


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


_PREFIX_NODES = {cls.head: cls for cls in (Plus, Times, Minus, Transpose, Inverse, SolvedBy)}


def _read(toks: list[str], i: int, depth: int) -> tuple[Expression, int]:
    """The node at ``toks[i]``, nested ``depth`` nodes deep, and the index past it."""
    if i >= len(toks):
        raise StructuralError("unexpected end of prefix form")
    t = toks[i]
    if t == ")":
        raise StructuralError("unexpected ')' in prefix form")
    if t != "(":
        if t == "0":
            return ZERO, i + 1
        if not _IDENT.match(t) or t in _RESERVED:
            raise StructuralError(f"invalid operand name: {t!r}")
        return OperandRef(t), i + 1
    if depth == _PREFIX_DEPTH:
        raise StructuralError(f"prefix form nested deeper than {_PREFIX_DEPTH} levels")
    head = toks[i + 1] if i + 1 < len(toks) else None
    i += 2
    cls = _PREFIX_NODES.get(head)
    if cls is None:
        raise StructuralError(f"unknown prefix head: {head!r}")
    if cls is SolvedBy:
        if i >= len(toks) or toks[i] in ("(", ")"):
            raise StructuralError("solved needs an operator name")
        op_name = toks[i]
        i += 1
    args: list[Expression] = []
    while i < len(toks) and toks[i] != ")":
        node, i = _read(toks, i, depth + 1)
        args.append(node)
    if i >= len(toks):
        raise StructuralError("missing ')' in prefix form")
    i += 1
    if cls is SolvedBy:
        if not _IDENT.match(op_name):
            raise StructuralError(f"invalid operator name: {op_name!r}")
        if not args:
            raise StructuralError("SolvedBy needs at least one argument")
        return SolvedBy(op_name, tuple(args)), i
    if issubclass(cls, _Unary):
        if len(args) != 1:
            raise StructuralError(f"{head} takes exactly one argument")
        return cls(args[0]), i
    name, items = cls.__name__, "terms" if cls is Plus else "factors"
    if len(args) < 2:
        raise StructuralError(f"{name} needs at least two {items}")
    if any(type(a) is cls for a in args):
        raise StructuralError(f"{name} may not contain a direct {name} child")
    return cls(tuple(args)), i


def parse_prefix_equation(text: str) -> Equation:
    toks = _TOKEN.findall(text)
    if len(toks) < 4 or toks[0] != "(" or toks[1] != "eq":
        raise StructuralError("expected '(eq lhs rhs)'")
    lhs, i = _read(toks, 2, 0)
    rhs, i = _read(toks, i, 0)
    if i != len(toks) - 1 or toks[i] != ")":
        raise StructuralError("malformed '(eq ...)' form")
    return Equation(lhs, rhs)


# ---------------------------------------------------------------------------
# smart constructors (assume normalized inputs, produce normalized output)


def plus(*terms: Expression) -> Expression:
    if len(terms) == 1 and type(terms[0]) is not Plus:
        return terms[0]
    # one entry per core term x, in order of first appearance: the count
    # of x minus the count of -x, the first x and the first -x
    net: dict[str, list] = {}
    for t in terms:
        kind = type(t)
        if kind is Zero:
            continue
        for u in t.terms if kind is Plus else (t,):
            if type(u) is Minus:
                key, sign, slot = serialize(u.operand), -1, 2
            else:
                key, sign, slot = serialize(u), 1, 1
            entry = net.get(key)
            if entry is None:
                net[key] = entry = [sign, None, None]
            else:
                entry[0] += sign
            if entry[slot] is None:
                entry[slot] = u
    survivors: list[Expression] = []
    for n, pos, neg in net.values():
        if n > 0:
            survivors.extend([pos] * n)
        elif n < 0:
            survivors.extend([neg] * -n)
    if not survivors:
        return ZERO
    if len(survivors) == 1:
        return survivors[0]
    survivors.sort(key=serialize)
    return Plus(tuple(survivors))


def times(*factors: Expression) -> Expression:
    flat: list[Expression] = []
    negative = False
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        while type(f) is Minus:
            negative = not negative
            f = f.operand
        kind = type(f)
        if kind is Zero:
            return ZERO
        if kind is Times:
            stack.extend(reversed(f.factors))
        else:
            flat.append(f)
    if not flat:
        raise StructuralError("times needs at least one factor")
    result: Expression = flat[0] if len(flat) == 1 else Times(tuple(flat))
    return minus(result) if negative else result


def minus(e: Expression) -> Expression:
    kind = type(e)
    if kind is Zero:
        return ZERO
    if kind is Minus:
        return e.operand
    if kind is Plus:
        return plus(*(minus(t) for t in e.terms))
    return Minus(e)


def trans(e: Expression) -> Expression:
    kind = type(e)
    if kind is Zero:
        return ZERO
    if kind is Transpose:
        return e.operand
    if kind is Times:
        return times(*(trans(f) for f in reversed(e.factors)))
    if kind is Plus:
        return plus(*(trans(t) for t in e.terms))
    if kind is Minus:
        return minus(trans(e.operand))
    return Transpose(e)


def inv(e: Expression) -> Expression:
    kind = type(e)
    if kind is Inverse:
        return e.operand
    if kind is Transpose:
        return trans(inv(e.operand))
    if kind is Minus:
        return minus(inv(e.operand))
    return Inverse(e)


def solved_by(operator_name: str, arguments: Sequence[Expression]) -> SolvedBy:
    return SolvedBy(operator_name, tuple(arguments))


def normalize(e: _Node) -> _Node:
    """Rewrite ``e`` bottom-up to the canonical form (idempotent)."""
    kids = e.children()
    if not kids:
        return e
    return e.rebuild([normalize(c) for c in kids])


# ---------------------------------------------------------------------------
# queries


def walk(e: Expression) -> Iterator[Expression]:
    """``e`` and all of its subexpressions, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def _leaf_names(e: _Node) -> Iterator[str]:
    """Names of the operand references in ``e``, repeats included."""
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is OperandRef:
            yield node.name
        else:
            stack.extend(node.children())


def operand_names(e: _Node) -> frozenset[str]:
    """All operand/block names referenced anywhere in ``e``."""
    return frozenset(_leaf_names(e))


def additive_terms(e: Expression) -> tuple[Expression, ...]:
    """Top-level summands of a normalized expression (zero has none)."""
    kind = type(e)
    if kind is Plus:
        return e.terms
    if kind is Zero:
        return ()
    return (e,)


def has_unknown(e: Expression, known: frozenset[str] | set[str]) -> bool:
    """True when ``e`` names an operand outside ``known``; stops at the first."""
    return not known.issuperset(_leaf_names(e))


def known_only(e: Expression, known: frozenset[str] | set[str]) -> bool:
    return not has_unknown(e, known)


def to_canonical_equation(eq: Equation, known: frozenset[str] | set[str]) -> Equation:
    """Move terms across ``=`` so unknowns sit left and knowns right.

    Terms only change side with a sign flip, so the solution set is
    preserved.  An equation without any unknown operand is returned
    unchanged (a tautology candidate); a single term mixing unknown and
    known factors legally stays on the left.  When every left-hand term
    ends up negated, both sides are negated once more so the leading side
    reads positively; otherwise, when no term changes side, ``eq`` is
    returned as it is.  The right side of the result is always known.
    Both sides must already be normalized, as every smart constructor
    leaves them.
    """
    new_l: list[Expression] = []
    new_r: list[Expression] = []
    lhs_terms = additive_terms(eq.lhs)
    for t in lhs_terms:
        if has_unknown(t, known):
            new_l.append(t)
        else:
            new_r.append(minus(t))
    stayed = len(new_l)
    for t in additive_terms(eq.rhs):
        if has_unknown(t, known):
            new_l.append(minus(t))
        else:
            new_r.append(t)
    if not new_l:
        return eq
    if all(type(t) is Minus for t in new_l):
        new_l = [minus(t) for t in new_l]
        new_r = [minus(t) for t in new_r]
    elif len(new_l) == stayed == len(lhs_terms):
        return eq
    return Equation(plus(*new_l), plus(*new_r))


# ---------------------------------------------------------------------------
# ground rewriting


def replace_all(e: Expression, target: Expression, replacement: Expression) -> Expression:
    """Replace every occurrence of ``target`` in the normalized ``e``.

    Only the paths to replaced occurrences are rebuilt, through the smart
    constructors; every untouched subtree comes back as the same object.
    """
    key = serialize(e)
    target_key = serialize(target)
    if key == target_key:
        return replacement
    if target_key not in key:
        return e
    kids = e.children()
    new = [replace_all(c, target, replacement) for c in kids]
    if all(n is c for n, c in zip(new, kids)):
        return e
    return e.rebuild(new)


def _uninvert(e: Expression) -> Optional[Expression]:
    """Return ``x`` with ``e == inv(x)`` when that shape is recognizable."""
    if type(e) is Inverse:
        return e.operand
    if type(e) is Transpose and type(e.operand) is Inverse:
        return trans(e.operand.operand)
    return None


def _local_variants(e: Expression) -> list[Expression]:
    """Inverse-group moves available at this node (not in children)."""
    out: list[Expression] = []
    if type(e) is Times:
        fs = e.factors
        for i in range(len(fs) - 1):
            a, b = fs[i], fs[i + 1]
            ua, ub = _uninvert(a), _uninvert(b)
            if ua is not None and ub is not None:
                # inv(x)·inv(y) contracts to inv(y·x)
                merged = inv(times(ub, ua))
                out.append(times(*fs[:i], merged, *fs[i + 2 :]))
            if inv(a) == b:
                rest = fs[:i] + fs[i + 2 :]
                if rest:
                    out.append(times(*rest))
    if type(e) is Inverse and type(e.operand) is Times:
        out.append(times(*(inv(f) for f in reversed(e.operand.factors))))
    return out


def _positional_variants(e: Expression) -> list[Expression]:
    # every inverse-group move involves an inverse inside ``e``
    if "(inv " not in serialize(e):
        return []
    out = _local_variants(e)
    kids = e.children()
    for i, child in enumerate(kids):
        for v in _positional_variants(child):
            out.append(e.rebuild(kids[:i] + (v,) + kids[i + 1 :]))
    return out


def rewrite_candidates(e: Expression, rules: Sequence[Equation]) -> list[Expression]:
    """All distinct one-step rewrites of ``e``, in deterministic order.

    A step is either a ground replacement of every occurrence of one rule
    side by the other (both orientations), or one inverse-group move:
    contraction of adjacent inverses, expansion of an inverted product,
    or cancellation of an adjacent ``x``/``inv(x)`` pair.  ``e`` must be
    normalized.
    """
    e_key = serialize(e)
    seen = {e_key}
    out: list[Expression] = []
    for rule in rules:
        for frm, to in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs)):
            frm_key = serialize(frm)
            if frm_key == serialize(to) or frm_key not in e_key:
                continue
            cand = replace_all(e, frm, to)
            key = serialize(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
    for cand in _positional_variants(e):
        key = serialize(cand)
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out
