"""Normal form, canonical equations, the node interface and one-step rewriting."""

from __future__ import annotations

import dataclasses
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmegen.expr import (
    MAX_DEPTH,
    Equation,
    Expression,
    Inverse,
    Minus,
    OperandRef,
    Plus,
    SolvedBy,
    Times,
    Transpose,
    ZERO,
    Zero,
    StructuralError,
    additive_terms,
    has_unknown,
    inv,
    known_only,
    minus,
    normalize,
    operand_names,
    parse_prefix_equation,
    plus,
    ref,
    rewrite_candidates,
    serialize,
    solved_by,
    times,
    to_canonical_equation,
    trans,
    walk,
)
from pmegen.engine import PME
from pmegen.oracle import evaluate

A, B, C, X = ref("A"), ref("B"), ref("C"), ref("X")
L_TL, L_BL, L_BR = ref("L_TL"), ref("L_BL"), ref("L_BR")
A_TL, A_BL, A_BR = ref("A_TL"), ref("A_BL"), ref("A_BR")


class TestNormalize:
    def test_transpose_involution(self):
        assert normalize(Transpose(Transpose(A))) == A

    def test_transpose_of_product_with_own_transpose(self):
        e = Transpose(Times((ref("L"), Transpose(ref("L")))))
        assert normalize(e) == times(ref("L"), trans(ref("L")))

    def test_cancellation_to_zero(self):
        e = Plus((Times((B, C)), Minus(Times((B, C)))))
        assert normalize(e) == ZERO

    def test_zero_absorbs_product(self):
        assert times(A, ZERO, B) == ZERO

    def test_zero_dropped_from_sum(self):
        assert plus(A, ZERO) == A

    def test_minus_distributes_over_sum(self):
        e = Minus(Plus((A, Minus(B))))
        assert normalize(e) == plus(minus(A), B)

    def test_inverse_of_transpose_reorders(self):
        assert normalize(Inverse(Transpose(A))) == Transpose(Inverse(A))

    def test_inverse_involution(self):
        assert normalize(Inverse(Inverse(A))) == A

    def test_sign_extraction_from_product(self):
        assert times(minus(A), B) == minus(times(A, B))
        assert times(minus(A), minus(B)) == times(A, B)

    def test_grouped_inverse_kept(self):
        e = inv(times(ref("L"), trans(ref("L"))))
        assert normalize(e) == e
        assert isinstance(e, Inverse)

    def test_plus_terms_sorted_by_serialization(self):
        assert serialize(plus(X, A)) == "(plus A X)"
        assert serialize(plus(A, minus(X))) == "(plus (minus X) A)"

    def test_partial_cancellation_keeps_multiplicity(self):
        assert normalize(Plus((A, A, Minus(A)))) == A
        assert normalize(Plus((Minus(A), Minus(A), A))) == minus(A)

    def test_arity_validation(self):
        # nodes check nothing when built; the prefix reader checks what enters
        for text, message in (
            ("(eq X (plus A))", "Plus needs at least two terms"),
            ("(eq X (times A))", "Times needs at least two factors"),
            ("(eq X 9bad)", "invalid operand name: '9bad'"),
        ):
            with pytest.raises(StructuralError) as err:
                parse_prefix_equation(text)
            assert str(err.value) == message


def _nodes(e: Expression):
    yield e
    if isinstance(e, Plus):
        for t in e.terms:
            yield from _nodes(t)
    elif isinstance(e, Times):
        for f in e.factors:
            yield from _nodes(f)
    elif isinstance(e, (Minus, Transpose, Inverse)):
        yield from _nodes(e.operand)
    elif isinstance(e, SolvedBy):
        for a in e.arguments:
            yield from _nodes(a)


def _violations(e: Expression) -> list[str]:
    out = []
    for node in _nodes(e):
        if isinstance(node, Transpose) and isinstance(
            node.operand, (Transpose, Times, Plus)
        ):
            out.append("transpose over compound")
        if isinstance(node, Inverse) and isinstance(node.operand, (Inverse, Transpose)):
            out.append("inverse ordering")
        if isinstance(node, Minus) and isinstance(node.operand, Minus):
            out.append("double minus")
        if isinstance(node, Times) and any(
            isinstance(f, (Zero, Minus)) for f in node.factors
        ):
            out.append("zero or minus inside product")
    return out


_names = st.sampled_from(["A", "B", "C", "L", "U"])
_leaves = st.one_of(_names.map(OperandRef), st.just(ZERO))


def _grow(children):
    def safe_plus(ts):
        flat = []
        for t in ts:
            flat.extend(t.terms if isinstance(t, Plus) else [t])
        return Plus(tuple(flat)) if len(flat) >= 2 else flat[0]

    def safe_times(fs):
        flat = []
        for f in fs:
            flat.extend(f.factors if isinstance(f, Times) else [f])
        return Times(tuple(flat)) if len(flat) >= 2 else flat[0]

    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(safe_plus),
        st.lists(children, min_size=2, max_size=3).map(safe_times),
        children.map(Minus),
        children.map(Transpose),
        children.map(Inverse),
        st.lists(children, min_size=1, max_size=2).map(
            lambda args: SolvedBy("Gamma", tuple(args))
        ),
    )


_expressions = st.recursive(_leaves, _grow, max_leaves=24)


class TestNormalFormProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_expressions)
    def test_idempotent(self, e):
        n = normalize(e)
        assert normalize(n) == n

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_expressions)
    def test_invariants_hold(self, e):
        assert _violations(normalize(e)) == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_expressions)
    def test_serialization_round_trip(self, e):
        n = normalize(e)
        key = serialize(n)
        assert parse_prefix_equation(f"(eq {key} {key})").lhs == n

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_expressions, _expressions)
    def test_serialization_unique(self, e1, e2):
        n1, n2 = normalize(e1), normalize(e2)
        assert (n1 == n2) == (serialize(n1) == serialize(n2))


@pytest.mark.parametrize(
    "e",
    [
        A,
        ZERO,
        plus(A, minus(times(B, C))),
        times(A, trans(B), inv(C)),
        minus(times(A, B)),
        trans(inv(A)),
        inv(times(A, B)),
        solved_by("Gamma", [A, plus(B, C)]),
    ],
    ids=lambda e: type(e).__name__,
)
def test_node_interface_round_trip(e):
    assert normalize(e) == e
    assert e.rebuild(e.children()) == e
    key = serialize(e)
    assert serialize(e) == key
    fresh = parse_prefix_equation(f"(eq {key} {key})").lhs
    assert fresh == e
    # the key a node carries takes no part in equality, hashing or repr
    assert hash(fresh) == hash(e)
    assert repr(fresh) == repr(e)
    assert serialize(fresh) == key
    assert repr(fresh) == repr(e)


def test_dataclass_fields_are_children_on_corpus(corpus_run):
    """The benchmark counts tree nodes through ``dataclasses.fields``: on
    every node of every corpus PME cell, the Expression values of the
    fields are ``children()``, in order, so a walk over ``children()``
    counts the same nodes."""
    seen = set()
    for _, _, results in corpus_run["derived"]:
        for pme in results or ():
            if not isinstance(pme, PME):
                continue
            for q in pme.all_cells():
                for node in (*walk(q.equation.lhs), *walk(q.equation.rhs)):
                    found = []
                    for f in dataclasses.fields(node):
                        value = getattr(node, f.name)
                        values = value if isinstance(value, tuple) else (value,)
                        found += [c for c in values if isinstance(c, Expression)]
                    kids = node.children()
                    assert len(found) == len(kids), serialize(node)
                    assert all(map(operator.is_, found, kids)), serialize(node)
                    seen.add(type(node))
    assert seen >= {OperandRef, Plus, Times, Minus, Transpose, Inverse, SolvedBy}


def test_serialization_golden():
    eq = Equation(times(ref("L"), trans(ref("L"))), ref("A"))
    assert serialize(eq) == "(eq (times L (trans L)) A)"
    assert serialize(plus(A, minus(times(B, C)))) == "(plus (minus (times B C)) A)"
    assert parse_prefix_equation("(eq (times L (trans L)) A)") == eq


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_prefix_nesting_bound(side):
    def nested(levels):
        deep = "(minus " * levels + "A" + ")" * levels
        return f"(eq {deep} X)" if side == "lhs" else f"(eq X {deep})"

    eq = parse_prefix_equation(nested(4 * MAX_DEPTH))
    assert serialize(eq) == nested(4 * MAX_DEPTH)
    for levels in (4 * MAX_DEPTH + 1, 3000):
        with pytest.raises(StructuralError, match="^prefix form nested deeper than 256 levels$"):
            parse_prefix_equation(nested(levels))


class TestCanonicalEquation:
    def test_known_product_moves_right(self):
        # after the bottom-left quadrant is solved, its contribution to the
        # trailing equation becomes known and crosses the equality
        eq = Equation(
            plus(times(L_BL, trans(L_BL)), times(L_BR, trans(L_BR))), A_BR
        )
        out = to_canonical_equation(eq, {"L_BL", "A_BR"})
        assert out == Equation(
            times(L_BR, trans(L_BR)),
            plus(A_BR, minus(times(L_BL, trans(L_BL)))),
        )

    def test_already_canonical_unchanged(self):
        eq = Equation(times(ref("L"), trans(ref("L"))), A)
        assert to_canonical_equation(eq, {"A"}) == eq

    def test_single_unknown_isolation(self):
        eq = Equation(A, plus(X, B))
        assert to_canonical_equation(eq, {"A", "B"}) == Equation(X, plus(A, minus(B)))

    def test_mixed_term_stays_left(self):
        eq = Equation(times(L_BL, trans(L_TL := ref("L_TL"))), A_BL)
        out = to_canonical_equation(eq, {"L_TL", "A_BL"})
        assert out == eq

    def test_no_unknowns_reported_as_tautology_candidate(self):
        eq = Equation(times(A, B), C)
        known = {"A", "B", "C"}
        assert to_canonical_equation(eq, known) is eq
        assert _tautology_candidate(eq, known) and known_only(eq.lhs, known)

    def test_all_negative_side_flips(self):
        eq = Equation(minus(X), B)
        out = to_canonical_equation(eq, {"B"})
        assert out == Equation(X, minus(B))

    def test_unknown_right_term_moves_left(self):
        # no left term moves, but a right one does
        eq = Equation(X, plus(ref("Y"), B))
        assert to_canonical_equation(eq, {"B"}) == Equation(plus(X, minus(ref("Y"))), B)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_expressions, _expressions, st.frozensets(_names))
    def test_matches_rebuild(self, lhs, rhs, known):
        eq = Equation(normalize(lhs), normalize(rhs))
        out = to_canonical_equation(eq, known)
        assert out == _rebuilt_canonical(eq, known)
        assert known_only(out.lhs, known) == _tautology_candidate(out, known)

    def test_matches_rebuild_on_corpus(self, corpus_run):
        """Every raw grid cell of the corpus, canonicalized again under the
        known names of its derivation at the start and after each solve,
        equals a full rebuild, and its left side alone decides whether no
        side names an unknown."""
        grids, states = corpus_run["grids"], corpus_run["states"]
        assert len(grids) == len(states) > 2000
        calls = unchanged = candidates = 0
        for raw, state in zip(grids, states):
            outputs = [step.outputs for step in state.trace]
            stages = [frozenset(state.known.difference(*outputs))]
            for solved in outputs:
                stages.append(stages[-1].union(solved))
            for q, start in zip(raw.all_cells(), state.grid.all_cells()):
                eq = q.equation
                for known in stages:
                    out = to_canonical_equation(eq, known)
                    assert out == _rebuilt_canonical(eq, known), serialize(eq)
                    assert known_only(out.lhs, known) == _tautology_candidate(out, known)
                    calls += 1
                    unchanged += out is eq
                    candidates += known_only(out.lhs, known)
                    if known is stages[0]:
                        assert out == start.equation
                    eq = out
        # the shortcuts and the full rebuild both run; both outcomes occur
        assert 4000 < unchanged < calls - 4000 and 2000 < candidates < calls - 2000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solution_set_preserved_numerically(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        eq = Equation(
            plus(times(ref("P"), ref("Q")), ref("R"), minus(ref("S"))),
            plus(ref("T"), ref("R")),
        )
        out = to_canonical_equation(eq, {"Q", "R", "T"})
        values = {k: rng.uniform(-1, 1, (n, n)) for k in ("P", "Q", "R", "S", "T")}
        before = evaluate(eq.lhs, values) - evaluate(eq.rhs, values)
        after = evaluate(out.lhs, values) - evaluate(out.rhs, values)
        flipped = min(
            np.linalg.norm(before - after), np.linalg.norm(before + after)
        )
        assert flipped <= 1e-12 * max(np.linalg.norm(before), 1.0)


def _tautology_candidate(eq: Equation, known: frozenset[str]) -> bool:
    """The reference for the one-sided test on a canonical equation: no
    side mentions an unknown operand."""
    return not has_unknown(eq.lhs, known) and not has_unknown(eq.rhs, known)


def _rebuilt_canonical(eq: Equation, known: frozenset[str]) -> Equation:
    """The reference for ``to_canonical_equation``: both sides rebuilt
    from their sorted terms, whether or not a term changed side."""
    lhs, rhs = additive_terms(eq.lhs), additive_terms(eq.rhs)
    new_l = [t for t in lhs if has_unknown(t, known)]
    new_l += [minus(t) for t in rhs if has_unknown(t, known)]
    new_r = [minus(t) for t in lhs if not has_unknown(t, known)]
    new_r += [t for t in rhs if not has_unknown(t, known)]
    if not new_l:
        return eq
    if all(isinstance(t, Minus) for t in new_l):
        new_l, new_r = [minus(t) for t in new_l], [minus(t) for t in new_r]
    return Equation(plus(*new_l), plus(*new_r))


def _grouped_plus(*terms: Expression) -> Expression:
    """The reference for ``plus``: its first algorithm, which groups the
    positive and the negated occurrences of each core term in lists and
    keeps the surplus of one over the other."""
    flat: list[Expression] = []
    for t in terms:
        if isinstance(t, Plus):
            flat.extend(t.terms)
        elif not isinstance(t, Zero):
            flat.append(t)
    order: list[str] = []
    pos: dict[str, list[Expression]] = {}
    neg: dict[str, list[Expression]] = {}
    for t in flat:
        core = t.operand if isinstance(t, Minus) else t
        key = serialize(core)
        if key not in pos:
            order.append(key)
            pos[key] = []
            neg[key] = []
        (neg if isinstance(t, Minus) else pos)[key].append(core)
    survivors: list[Expression] = []
    for key in order:
        n = len(pos[key]) - len(neg[key])
        core = (pos[key] or neg[key])[0]
        if n > 0:
            survivors.extend([core] * n)
        elif n < 0:
            survivors.extend([Minus(core)] * (-n))
    survivors.sort(key=serialize)
    if not survivors:
        return ZERO
    if len(survivors) == 1:
        return survivors[0]
    return Plus(tuple(survivors))


# summands that repeat and negate each other, normalized or not
_summands = st.lists(
    st.one_of(_expressions, _expressions.map(normalize)), min_size=1, max_size=2
).flatmap(lambda base: st.lists(st.sampled_from([*base, *map(Minus, base), ZERO]), max_size=6))


class TestSumAndUnknownTest:
    def test_plus_matches_reference_on_corpus(self, corpus_run):
        calls = corpus_run["plus"]
        assert len(calls) > 5000
        for terms in calls:
            assert plus(*terms) == _grouped_plus(*terms), [serialize(t) for t in terms]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_summands)
    def test_plus_matches_reference(self, terms):
        assert plus(*terms) == _grouped_plus(*terms)

    def test_has_unknown_matches_name_set_on_corpus(self, corpus_run):
        calls = corpus_run["has_unknown"]
        assert len(calls) > 5000
        outcomes = set()
        for e, known in calls:
            expected = any(n not in known for n in operand_names(e))
            assert has_unknown(e, known) == has_unknown(e, set(known)) == expected
            outcomes.add(expected)
        assert outcomes == {False, True}

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_expressions, st.frozensets(_names))
    def test_has_unknown_matches_name_set(self, e, known):
        assert has_unknown(e, known) == any(n not in known for n in operand_names(e))


class TestRewriteCandidates:
    def test_substitutes_solved_block(self):
        e = plus(A_BR, minus(times(L_BL, trans(L_BL))))
        rule = Equation(L_BL, times(A_BL, trans(inv(L_TL))))
        out = rewrite_candidates(e, [rule])[0]
        expected = plus(
            A_BR,
            minus(times(A_BL, trans(inv(L_TL)), inv(L_TL), trans(A_BL))),
        )
        assert out == expected

    def test_replaces_grouped_product_by_known_block(self):
        e = plus(
            A_BR,
            minus(times(A_BL, inv(times(L_TL, trans(L_TL))), trans(A_BL))),
        )
        rule = Equation(times(L_TL, trans(L_TL)), A_TL)
        out = rewrite_candidates(e, [rule])[0]
        assert out == plus(A_BR, minus(times(A_BL, inv(A_TL), trans(A_BL))))

    def test_no_rules_fixpoint(self):
        e = plus(A, times(B, C))
        assert rewrite_candidates(e, []) == []


@pytest.mark.parametrize("seed", range(60))
def test_normalize_numerically_sound(seed):
    """Random square-operand expressions evaluate identically after normalize."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    names = ["A", "B", "C"]
    values = {
        k: rng.uniform(-1.0, 1.0, (n, n)) + (n + 2) * np.eye(n) for k in names
    }

    def flat(cls, parts):
        out = []
        for p in parts:
            out.extend(p.terms if isinstance(p, cls) and cls is Plus else
                       p.factors if isinstance(p, cls) and cls is Times else [p])
        return cls(tuple(out))

    def build(depth: int) -> Expression:
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return ref(names[int(rng.integers(0, len(names)))])
        if roll < 0.5:
            return flat(Plus, (build(depth - 1), build(depth - 1)))
        if roll < 0.7:
            return flat(Times, (build(depth - 1), build(depth - 1)))
        if roll < 0.8:
            return Minus(build(depth - 1))
        if roll < 0.95:
            return Transpose(build(depth - 1))
        return Inverse(build(depth - 1))

    e = build(4)
    from pmegen.oracle import SingularMatrixError

    try:
        direct = evaluate(e, values)
        canon = evaluate(normalize(e), values)
    except SingularMatrixError:
        pytest.skip("randomly singular inverse argument")
    scale = max(np.linalg.norm(direct), 1.0)
    assert np.linalg.norm(direct - canon) / scale <= 1e-12
