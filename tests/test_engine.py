"""Knowledge base, matching, spd proving, and full PME derivations."""

from __future__ import annotations

import hashlib
import os
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmegen import binding, blockarith, engine
from pmegen.binding import NoViablePartitioningsError, enumerate_combinations
from pmegen.blockarith import (
    STATUS_SOLVED,
    STATUS_STAR,
    STATUS_UNSOLVED,
    PropertyFact,
    QuadrantEquation,
)
from pmegen.cli import render_pme_text
from pmegen.engine import (
    PME,
    SPD_SEARCH_NODES,
    AllCombinationsStuck,
    KnowledgeBaseError,
    PatternConflictError,
    StuckDerivation,
    derive_all,
    derive_each,
    derive_pme,
    initial_state,
    learn,
    load_kb,
    match_equation,
    pattern_from_spec,
    prove_spd,
    save_kb,
    seed_builtins,
)
from pmegen.expr import (
    _IDENT,
    _RESERVED,
    ZERO,
    Dimension,
    Equation,
    Expression,
    OperandRef,
    SolvedBy,
    _local_variants,
    inv,
    minus,
    normalize,
    operand_names,
    plus,
    ref,
    rewrite_candidates,
    serialize,
    solved_by,
    times,
    trans,
    walk,
)
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_SCALAR,
    ROLE_UNKNOWN,
    OperandDecl,
    Property,
    parse_operation,
    render_spec,
)

from conftest import (
    OPS_DIR,
    bench_corpus,
    bench_worker,
    cholesky_lower,
    corpus_specs,
    load_op,
    min_symmetric_eigenvalue,
    random_spec,
)

L_TL, L_BL, L_BR = ref("L_TL"), ref("L_BL"), ref("L_BR")
A_TL, A_BL, A_BR = ref("A_TL"), ref("A_BL"), ref("A_BR")
A, N, Q, W, Y, Z = (ref(name) for name in "ANQWYZ")

CHOLESKY_TAUTOLOGIES = [
    Equation(times(L_TL, trans(L_TL)), A_TL),
    Equation(L_TL, solved_by("Gamma", [A_TL])),
    Equation(times(L_BL, trans(L_TL)), A_BL),
    Equation(L_BL, times(A_BL, trans(inv(L_TL)))),
]


@pytest.fixture
def cholesky_state(cholesky_spec):
    (rules,) = enumerate_combinations(cholesky_spec)
    return initial_state(cholesky_spec, rules)


@pytest.fixture
def expand_calls(monkeypatch):
    """Frontier sizes of every ``_expand`` call, one per search level."""
    calls: list[int] = []
    real = engine._expand

    def counted(frontier, rules, seen):
        calls.append(len(frontier))
        return real(frontier, rules, seen)

    monkeypatch.setattr(engine, "_expand", counted)
    return calls


def _updated_cholesky_tautologies(
    update_tl: Expression, update_bl: Expression, gamma_args: Sequence[Expression]
) -> list[Equation]:
    """The rules of a Cholesky factorization of ``A + update`` once TL and BL
    are solved: each quadrant equation just before its solved form."""
    return [
        Equation(times(L_TL, trans(L_TL)), plus(update_tl, A_TL)),
        Equation(L_TL, solved_by("Gamma", gamma_args)),
        Equation(times(L_BL, trans(L_TL)), plus(update_bl, A_BL)),
        Equation(L_BL, times(plus(update_bl, A_BL), trans(inv(L_TL)))),
    ]


B_T, B_B, C = ref("B_T"), ref("B_B"), ref("C")
# A + B*C*trans(B) (chol_up_*) and A - B*trans(B) (chol_down_n) of the spd family
UP_TAUTOLOGIES = _updated_cholesky_tautologies(
    times(B_T, C, trans(B_T)), times(B_B, C, trans(B_T)), [A_TL, B_T, C]
)
DOWN_TAUTOLOGIES = _updated_cholesky_tautologies(
    minus(times(B_T, trans(B_T))), minus(times(B_B, trans(B_T))), [A_TL, B_T]
)


# Each builtin in order: name, slots as (name, kind, dims, role, properties),
# and the prefix forms of its template and solved form.
PINNED_BUILTINS = [
    (
        "assign",
        [
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("E", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq X E)",
        "(eq X E)",
    ),
    (
        "add_isolate",
        [
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("E", "matrix", ("q", "n"), "known", ()),
            ("F", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (plus E X) F)",
        "(eq X (plus (minus E) F))",
    ),
    (
        "solve_left",
        [
            ("A", "matrix", ("q", "q"), "known", ("general",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times A X) B)",
        "(eq X (times (inv A) B))",
    ),
    (
        "solve_right",
        [
            ("A", "matrix", ("n", "n"), "known", ("general",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times X A) B)",
        "(eq X (times B (inv A)))",
    ),
    (
        "trsm_lx",
        [
            ("L", "matrix", ("q", "q"), "known", ("lower_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times L X) B)",
        "(eq X (times (inv L) B))",
    ),
    (
        "trsm_xlt",
        [
            ("L", "matrix", ("n", "n"), "known", ("lower_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times X (trans L)) B)",
        "(eq X (times B (trans (inv L))))",
    ),
    (
        "trsm_ux",
        [
            ("U", "matrix", ("q", "q"), "known", ("upper_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times U X) B)",
        "(eq X (times (inv U) B))",
    ),
    (
        "trsm_xu",
        [
            ("U", "matrix", ("n", "n"), "known", ("upper_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times X U) B)",
        "(eq X (times B (inv U)))",
    ),
    (
        "trsm_ltx",
        [
            ("L", "matrix", ("q", "q"), "known", ("lower_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times (trans L) X) B)",
        "(eq X (times (trans (inv L)) B))",
    ),
    (
        "trsm_xl",
        [
            ("L", "matrix", ("n", "n"), "known", ("lower_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times X L) B)",
        "(eq X (times B (inv L)))",
    ),
    (
        "trsm_utx",
        [
            ("U", "matrix", ("q", "q"), "known", ("upper_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times (trans U) X) B)",
        "(eq X (times (trans (inv U)) B))",
    ),
    (
        "trsm_xut",
        [
            ("U", "matrix", ("n", "n"), "known", ("upper_triangular",)),
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("B", "matrix", ("q", "n"), "known", ()),
        ],
        "(eq (times X (trans U)) B)",
        "(eq X (times B (trans (inv U))))",
    ),
    (
        "transpose_solve",
        [
            ("X", "matrix", ("q", "n"), "unknown", ()),
            ("E", "matrix", ("n", "q"), "known", ()),
        ],
        "(eq (trans X) E)",
        "(eq X (trans E))",
    ),
    (
        "scalar_div",
        [
            ("s", "scalar", ("1", "1"), "known", ()),
            ("x", "scalar", ("1", "1"), "unknown", ()),
            ("t", "scalar", ("1", "1"), "known", ()),
        ],
        "(eq (times s x) t)",
        "(eq x (times (inv s) t))",
    ),
]


class TestBuiltins:
    def test_seed_names_stable(self):
        kb = seed_builtins()
        assert tuple(p.name for p in kb.builtins) == (
            "assign",
            "add_isolate",
            "solve_left",
            "solve_right",
            "trsm_lx",
            "trsm_xlt",
            "trsm_ux",
            "trsm_xu",
            "trsm_ltx",
            "trsm_xl",
            "trsm_utx",
            "trsm_xut",
            "transpose_solve",
            "scalar_div",
        )

    def test_seed_patterns_pinned(self):
        builtins = seed_builtins().builtins
        assert {(p.solution_operator, p.provenance) for p in builtins} == {(None, "builtin")}
        assert [
            (
                p.name,
                [
                    (
                        s.name,
                        s.kind,
                        (s.dims.rows, s.dims.cols),
                        s.io_role,
                        tuple(sorted(x.value for x in s.properties)),
                    )
                    for s in p.slots
                ],
                serialize(p.template),
                serialize(p.solved),
            )
            for p in builtins
        ] == PINNED_BUILTINS

    def test_triangular_system_lookup(self, cholesky_state):
        # bottom-left quadrant of the blocked factorization equation
        eq = QuadrantEquation("BL", Equation(times(L_BL, trans(L_TL)), A_BL))
        cholesky_state.known.add("L_TL")
        result = match_equation(eq, seed_builtins().match_order(), cholesky_state)
        assert result is not None
        assert result.pattern.name == "trsm_xlt"
        assert result.solved == Equation(L_BL, times(A_BL, trans(inv(L_TL))))

    def test_assignment_matches_composite_rhs(self, cholesky_state):
        cholesky_state.known |= {"P", "Q", "S"}
        eq = QuadrantEquation(
            "TL",
            Equation(ref("W"), plus(ref("P"), minus(times(ref("Q"), ref("S"))))),
        )
        result = match_equation(eq, seed_builtins().match_order(), cholesky_state)
        assert result is not None and result.pattern.name == "assign"
        assert result.outputs == ("W",)

    def test_unlearned_factorization_has_no_match(self, cholesky_state):
        eq = QuadrantEquation("TL", Equation(times(L_TL, trans(L_TL)), A_TL))
        assert match_equation(eq, seed_builtins().match_order(), cholesky_state) is None

    def test_general_solve_requires_unstructured_plain_block(self, cholesky_state):
        # a triangular block never matches the general inverse solver, with
        # or without a transpose wrapped around it
        eq = QuadrantEquation("BL", Equation(times(L_BL, trans(L_TL)), A_BL))
        kb = seed_builtins().without_builtins(["trsm"])
        assert match_equation(eq, kb.match_order(), cholesky_state) is None

    def test_disabled_family_removed(self):
        kb = seed_builtins().without_builtins(["trsm"])
        names = [p.name for p in kb.builtins]
        assert all(not n.startswith("trsm") for n in names)
        assert "solve_left" in names


class TestMatchEquation:
    def test_self_pattern_matches_top_left(self, cholesky_spec, cholesky_state):
        pattern = pattern_from_spec(cholesky_spec, provenance="self")
        eq = QuadrantEquation("TL", Equation(times(L_TL, trans(L_TL)), A_TL))
        result = match_equation(eq, [pattern], cholesky_state)
        assert result is not None
        assert result.solved == Equation(L_TL, solved_by("Gamma", [A_TL]))

    def test_unsatisfied_spd_guard_blocks_match(self, cholesky_spec, cholesky_state):
        pattern = pattern_from_spec(cholesky_spec, provenance="self")
        eq = QuadrantEquation(
            "BR",
            Equation(
                times(L_BR, trans(L_BR)),
                plus(A_BR, minus(times(ref("Z"), trans(ref("Z"))))),
            ),
        )
        cholesky_state.known.add("Z")
        notes: list[str] = []
        assert match_equation(eq, [pattern], cholesky_state, notes) is None
        assert any("spd" in n for n in notes)

    def test_two_unknown_sum_has_no_match(self, cholesky_spec, cholesky_state):
        pattern = pattern_from_spec(cholesky_spec, provenance="self")
        eq = QuadrantEquation(
            "BR",
            Equation(
                plus(times(L_BL, trans(L_BL)), times(L_BR, trans(L_BR))), A_BR
            ),
        )
        kb = seed_builtins()
        assert match_equation(eq, [pattern] + list(kb.match_order()), cholesky_state) is None

    def test_sum_match_backtracks_over_term_order(self, sylvester_spec):
        # the cell's first term fits L * X, which binds L and X, but then
        # X * U fails on the second; that attempt must leave no binds behind
        template = pattern_from_spec(sylvester_spec, provenance="self").template
        P, B, Q = ref("P"), ref("B"), ref("Q")
        eq = Equation(plus(times(P, B), times(B, Q)), C)
        assert serialize(eq.lhs) == "(plus (times B Q) (times P B))"
        binds = {}
        assert engine._match_expr(template.lhs, eq.lhs, binds)
        assert engine._match_expr(template.rhs, eq.rhs, binds)
        assert binds == {"L": P, "X": B, "U": Q, "C": C}

    def test_learned_pattern_matches_embedded_equation(self, sylvester_spec):
        kb = learn(sylvester_spec, seed_builtins())
        (rules,) = enumerate_combinations(load_op("cholesky"))[:1]
        state = initial_state(load_op("cholesky"), rules)
        state.known |= {"L2", "U2", "F", "G"}
        from pmegen.opspec import Property

        state.facts.append(PropertyFact(ref("L2"), Property.LOWER_TRIANGULAR))
        state.facts.append(PropertyFact(ref("U2"), Property.UPPER_TRIANGULAR))
        eq = QuadrantEquation(
            "whole",
            Equation(
                plus(times(ref("L2"), ref("Y")), times(ref("Y"), ref("U2"))),
                plus(ref("F"), minus(ref("G"))),
            ),
        )
        result = match_equation(eq, kb.match_order(), state)
        assert result is not None and result.pattern.name == "sylvester"
        assert result.solved == Equation(
            ref("Y"),
            solved_by("Omega", [ref("L2"), ref("U2"), plus(ref("F"), minus(ref("G")))]),
        )

    @pytest.mark.parametrize(
        "name,lhs,symbol",
        [("solve_left", times(N, ref("X")), "q"), ("solve_right", times(ref("X"), N), "n")],
    )
    def test_general_solve_rejects_non_square_system(self, cholesky_state, name, lhs, symbol):
        # the system slot is declared square through one size symbol, so a
        # non-square block fails the dimension unification
        pattern = seed_builtins().get(name)
        eq = QuadrantEquation("TL", Equation(lhs, ref("B")))
        x_dims = Dimension("k", "p") if name == "solve_left" else Dimension("p", "m")
        b_dims = Dimension("m", "p") if name == "solve_left" else Dimension("p", "k")
        state = replace(
            cholesky_state,
            known={"N", "B"},
            facts=[],
            dims={"N": Dimension("m", "k"), "X": x_dims, "B": b_dims},
        )
        notes: list[str] = []
        assert match_equation(eq, [pattern], state, notes) is None
        assert notes == [
            f"TL: pattern {name}: slot A: size {symbol} would need to be both m and k"
        ]
        square = {"N": Dimension("m", "m"), "X": Dimension("m", "m"), "B": Dimension("m", "m")}
        result = match_equation(eq, [pattern], replace(state, dims=square))
        assert result is not None and result.outputs == ("X",)

    @pytest.mark.parametrize(
        "op,combination,position,slots,template,failure",
        [
            # the template never names slot Z, so nothing binds it
            (
                "trsm", 1, "L", "X m n unknown, L n n known, B m n known, Z p p known",
                Equation(times(ref("X"), ref("L")), ref("B")), "slot Z unbound",
            ),
            # the unknown slot comes first and binds the known L_TL
            (
                "operand L : matrix(m,m) , known , lower_triangular\n"
                "operand B : matrix(m,n) , known\n"
                "operand X : matrix(m,n) , unknown\n"
                "postcondition: L * X = B",
                2, "T", "X m k unknown, A k n known, B m n known",
                Equation(times(ref("X"), ref("A")), ref("B")), "L_TL is already known",
            ),
            # a scalar slot with no dims passes the sizing, then fails its kind
            (
                "trsm", 2, "T", "X m n unknown, A - - known, B m n known",
                Equation(times(ref("X"), ref("A")), ref("B")), "slot A must bind a scalar",
            ),
        ],
        ids=["unbound", "known", "scalar"],
    )
    def test_guard_failure_note(self, op, combination, position, slots, template, failure):
        """A pattern that matches a cell's shape but fails one guard leaves
        that guard's note.  ``op`` names a shipped operation or holds a
        spec's operand and postcondition lines; a slot is ``name rows cols
        role``, and ``- -`` a scalar slot without dims."""
        if "\n" in op:
            spec = parse_operation(f"operation op\n{op}\nsolve: S\n")
        else:
            spec = load_op(op)
        state = initial_state(spec, enumerate_combinations(spec)[combination - 1])
        decls = []
        for text in slots.split(", "):
            name, rows, cols, role = text.split()
            if rows == "-":
                decls.append(OperandDecl(name, KIND_SCALAR, None, role, frozenset()))
            else:
                dims = Dimension(rows, cols)
                decls.append(OperandDecl(name, KIND_MATRIX, dims, role, frozenset()))
        solved = Equation(ref(decls[0].name), solved_by("S", [ref("B")]))
        pattern = engine.Pattern("extra", "S", tuple(decls), template, solved, "test")
        notes: list[str] = []
        assert match_equation(state.cells[position], [pattern], state, notes) is None
        assert notes == [f"{position}: pattern extra: {failure}"]


def test_root_filter_skips_only_failing_shapes(corpus_run, monkeypatch):
    """``match_equation`` tries the shape of a pattern only when the root
    types of its template sides fit the cell's.  Over every cell of every
    corpus state, each builtin and the spec's own pattern that the explained
    path skips is one whose shape does not match; each that the search skips
    either does not match or is rejected by the explained path for that
    cell (a bare-slot left side on a cell whose left side is not one
    block)."""
    tried = []

    def real_shape(template, eq):
        binds = {}
        return engine._match_expr(template.lhs, eq.lhs, binds) and engine._match_expr(
            template.rhs, eq.rhs, binds
        )

    def skipped_by(q, patterns, state, notes):
        tried.clear()
        # the first side's match records the template side it was given
        with monkeypatch.context() as m:
            m.setattr(engine, "_match_expr", lambda tpl, sub, binds: tried.append(tpl))
            assert match_equation(q, patterns, state, notes) is None
        return [p for p in patterns if not any(t is p.template.lhs for t in tried)]

    builtins = seed_builtins().builtins
    self_patterns = {}
    skipped = matched = bare = 0
    for spec, state in zip(corpus_run["state_specs"], corpus_run["states"]):
        if id(spec) not in self_patterns:
            self_patterns[id(spec)] = pattern_from_spec(spec, provenance="self")
        patterns = [self_patterns[id(spec)], *builtins]
        for q in state.grid.all_cells():
            explained_skips = skipped_by(q, patterns, state, [])
            for p in explained_skips:
                skipped += 1
                assert not real_shape(p.template, q.equation), (p.name, q)
            matched += sum(real_shape(p.template, q.equation) for p in patterns)
            for p in skipped_by(q, patterns, state, None):
                if p in explained_skips or not real_shape(p.template, q.equation):
                    continue
                bare += 1
                assert type(p.template.lhs) is OperandRef, (p.name, q)
                assert match_equation(q, [p], state, []) is None, (p.name, q)
    assert skipped > 40000 and matched > 10000 and bare > 5000


def test_search_verdict_is_the_explained_verdict(monkeypatch):
    """While deriving the corpus, every search sweep (no notes) finds the
    cell and match that the explained sweep finds, so the two reject the
    same patterns before it, whichever guard fails first and whichever
    cells the search skips; every search call of ``match_equation`` returns
    the explained verdict; and every candidate that the nested search skips,
    on a cell without exactly one unknown block, is rejected with notes."""
    real_sweep, real_match, real_nested = (
        engine._first_match, engine.match_equation, engine._try_nested
    )
    sweeps = calls = rejected = skipped = 0

    def sweep_both_ways(unsolved, patterns, state, notes=None):
        nonlocal sweeps, rejected
        found = real_sweep(unsolved, patterns, state, notes)
        if notes is None:
            explained: list[str] = []
            assert real_sweep(unsolved, patterns, state, explained) == found, explained
            sweeps += 1
            rejected += len(explained)
        return found

    def match_both_ways(eq, patterns, state, notes=None):
        nonlocal calls
        verdict = real_match(eq, patterns, state, notes)
        if notes is None:
            assert real_match(eq, patterns, state, []) == verdict, eq
            calls += 1
        return verdict

    def nested_skips_rejected(spec, kb, ops, depth, unsolved, state, patterns, tried):
        nonlocal skipped
        assert list(unsolved) == [
            q for q in state.cells.values() if q.status == STATUS_UNSOLVED
        ]
        if ops.path and depth < engine.NESTED_DEPTH_LIMIT:
            for q in unsolved:
                if engine._unknown_blocks(q.equation.lhs, state.known) != 1:
                    for _, pattern in ops.candidates:
                        skipped += 1
                        assert real_match(q, [pattern], state, []) is None, (q, pattern.name)
        return real_nested(spec, kb, ops, depth, unsolved, state, patterns, tried)

    monkeypatch.setattr(engine, "_first_match", sweep_both_ways)
    monkeypatch.setattr(engine, "match_equation", match_both_ways)
    monkeypatch.setattr(engine, "_try_nested", nested_skips_rejected)
    # fuzz seeds 0-299, the shipped ops, the spd family and the probes
    corpus = bench_corpus()
    texts = [text for _, text in corpus.spd_family() + corpus.probes()]
    for spec in [s for _, s in corpus_specs()] + [parse_operation(t) for t in texts]:
        try:
            derive_each(spec, seed_builtins(), ops_dir=OPS_DIR)
        except (binding.BindingError, PatternConflictError):
            continue  # no viable partitioning, or no pattern
    assert sweeps > 3000 and calls > 6500 and rejected > 15000 and skipped > 9000


def test_every_pattern_solves_one_unknown_slot(tmp_path):
    """The rule the search relies on to skip cells: a pattern has exactly
    one unknown slot, and its template names slots only.  It holds for the
    builtins, for the self pattern of every corpus spec that has one, and
    for every pattern ``load_kb`` reads back from a KB learned from them."""
    corpus = bench_corpus()
    texts = [text for _, text in corpus.spd_family() + corpus.probes()]
    specs = [s for _, s in corpus_specs()] + [parse_operation(t) for t in texts]
    kb = seed_builtins()
    patterns = list(kb.builtins)
    for spec in specs:
        try:
            patterns.append(pattern_from_spec(spec, provenance="self"))
            kb = learn(spec, kb)
        except PatternConflictError:
            continue  # no pattern, or a name learned already
    path = str(tmp_path / "patterns.kb")
    save_kb(kb, path)
    loaded = load_kb(path).learned
    assert len(loaded) == len(kb.learned) > 30 and len(patterns) > 300
    for p in patterns + list(loaded):
        assert [s.io_role for s in p.slots].count(ROLE_UNKNOWN) == 1, p.name
        assert operand_names(p.template) <= {s.name for s in p.slots}, p.name


def test_search_builds_no_notes(monkeypatch):
    """``derive_all`` asks the guards for verdicts alone: over a corpus slice
    no sweep and no ``match_equation`` call gets a notes list.  A stuck
    combination writes its notes when they are read, the same tuple each
    time, and the ``StuckDerivation`` that ``derive_pme`` raises has the
    notes of the matching ``derive_each`` entry."""
    given: dict[str, list] = {"_first_match": [], "match_equation": []}

    def recording(name):
        real = getattr(engine, name)

        def record(*args, **kwargs):
            given[name].append(args[3] if len(args) > 3 else kwargs.get("notes"))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, name, record)

    for name in given:
        recording(name)
    specs = [load_op(n) for n in ("cholesky", "sylvester", "trsm")]
    specs += [random_spec(np.random.default_rng(s)) for s in range(60)]
    stuck = []
    for spec in specs:
        try:
            derive_all(spec, seed_builtins(), ops_dir=OPS_DIR)
        except AllCombinationsStuck as exc:
            stuck += [(spec, entry) for entry in exc.failures]
        except NoViablePartitioningsError:
            continue
    assert len(given["_first_match"]) > 600 and len(given["match_equation"]) > 1300
    assert len(stuck) > 300
    assert all(notes is None for calls in given.values() for notes in calls)

    for calls in given.values():
        calls.clear()
    read = 0
    for spec, entry in stuck[::5]:
        notes = entry.notes
        assert entry.notes == notes
        read += len(notes)
        with pytest.raises(StuckDerivation) as err:
            derive_pme(spec, entry.combination, seed_builtins(), ops_dir=OPS_DIR)
        assert err.value.notes == notes
    assert read > 400
    assert all(any(notes is not None for notes in calls) for calls in given.values())


class TestEstablished:
    """The structural closure behind the triangular, symmetric and diagonal
    guards."""

    @pytest.fixture
    def state(self, cholesky_state):
        facts = [
            PropertyFact(ref(name), prop)
            for name, prop in [
                ("L", Property.LOWER_TRIANGULAR),
                ("U", Property.UPPER_TRIANGULAR),
                ("S", Property.SYMMETRIC),
                ("D", Property.DIAGONAL),
                ("P", Property.SPD),
            ]
        ]
        return replace(cholesky_state, facts=facts)

    def test_zero_block(self, state):
        assert all(
            engine._established(ZERO, prop, state)
            for prop in (
                Property.LOWER_TRIANGULAR,
                Property.UPPER_TRIANGULAR,
                Property.SYMMETRIC,
                Property.DIAGONAL,
            )
        )
        assert not engine._established(ZERO, Property.SPD, state)

    def test_negation_keeps_non_spd_properties(self, state):
        assert engine._established(minus(ref("L")), Property.LOWER_TRIANGULAR, state)
        assert engine._established(minus(ref("S")), Property.SYMMETRIC, state)
        assert not engine._established(minus(ref("L")), Property.UPPER_TRIANGULAR, state)
        # a negated spd block is not spd
        assert not engine._established(minus(ref("P")), Property.SPD, state)

    def test_transpose_flips_triangles_and_keeps_the_rest(self, state):
        lower, upper = Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR
        assert engine._established(trans(ref("L")), upper, state)
        assert not engine._established(trans(ref("L")), lower, state)
        assert engine._established(trans(ref("U")), lower, state)
        assert not engine._established(trans(ref("U")), upper, state)
        assert engine._established(trans(ref("S")), Property.SYMMETRIC, state)
        assert engine._established(trans(ref("D")), Property.DIAGONAL, state)
        assert engine._established(trans(ref("P")), Property.SPD, state)
        assert not engine._established(trans(ref("S")), Property.DIAGONAL, state)


class TestProveSpd:
    def test_direct_schur_chain(self, cholesky_state):
        cholesky_state.tautologies = list(CHOLESKY_TAUTOLOGIES)
        e = plus(A_BR, minus(times(L_BL, trans(L_BL))))
        assert prove_spd(e, cholesky_state)

    def test_expansion_stops_at_node_bound(self):
        rules = [Equation(ref("P"), ref("Q"))]
        assert engine._expand([ref("P")], rules, set()) == [ref("Q")]
        seen = {str(i) for i in range(SPD_SEARCH_NODES)}
        assert engine._expand([ref("P")], rules, seen) == []
        assert len(seen) == SPD_SEARCH_NODES

    def test_declared_quadrant_fact(self, cholesky_state):
        assert prove_spd(A_TL, cholesky_state)

    def test_unconstrained_product_rejected(self, cholesky_state):
        cholesky_state.tautologies = []
        assert not prove_spd(times(ref("P"), ref("Q")), cholesky_state)

    def test_solved_by_tautologies_still_prove(self, cholesky_state):
        # the triangular solve may have been answered by a learned pattern,
        # so the solved form is opaque; the identity form still closes the chain
        cholesky_state.tautologies = [
            Equation(times(L_TL, trans(L_TL)), A_TL),
            Equation(L_TL, solved_by("Gamma", [A_TL])),
            Equation(times(L_BL, trans(L_TL)), A_BL),
            Equation(L_BL, solved_by("Trsm", [L_TL, A_BL])),
        ]
        e = plus(A_BR, minus(times(L_BL, trans(L_BL))))
        assert prove_spd(e, cholesky_state)

    @pytest.mark.parametrize("trial", range(20))
    def test_accepted_expressions_numerically_spd(self, cholesky_state, trial):
        cholesky_state.tautologies = list(CHOLESKY_TAUTOLOGIES)
        candidates = [
            A_TL,
            A_BR,
            plus(A_BR, minus(times(L_BL, trans(L_BL)))),
            plus(A_BR, minus(times(A_BL, inv(A_TL), trans(A_BL)))),
        ]
        accepted = [e for e in candidates if prove_spd(e, cholesky_state)]
        assert len(accepted) == len(candidates)
        rng = np.random.default_rng(trial)
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, n))
        base = rng.uniform(-1.0, 1.0, (n, n))
        a = base.T @ base + n * np.eye(n)
        l = cholesky_lower(a)
        values = {
            "A_TL": a[:k, :k],
            "A_BL": a[k:, :k],
            "A_BR": a[k:, k:],
            "L_TL": l[:k, :k],
            "L_BL": l[k:, :k],
        }
        from pmegen.oracle import evaluate

        for e in accepted:
            assert min_symmetric_eigenvalue(evaluate(e, values)) > 0

    @pytest.mark.parametrize("with_ops_dir", [False, True])
    def test_pruned_search_step_matches_full_rebuild(self, with_ops_dir, monkeypatch):
        """Every search step on the Cholesky-family corpus offers exactly the
        candidates, in the same order, that rebuilding every subtree offers.
        The counter-model is off, so that the refutations it decides are
        still searched."""
        expanded: dict[tuple[str, ...], tuple[Expression, list[Equation]]] = {}

        def recorded(e, rules):
            key = (serialize(e), *(serialize(r) for r in rules))
            expanded.setdefault(key, (e, list(rules)))
            return rewrite_candidates(e, rules)

        monkeypatch.setattr(engine, "rewrite_candidates", recorded)
        monkeypatch.setattr(engine, "_counter_model_refutes", lambda *args: False)
        for _, text in bench_corpus().spd_family():
            try:
                derive_all(
                    parse_operation(text),
                    seed_builtins(),
                    ops_dir=OPS_DIR if with_ops_dir else None,
                )
            except AllCombinationsStuck:
                pass
        assert expanded
        for e, rules in expanded.values():
            assert rewrite_candidates(e, rules) == _full_rebuild_candidates(e, rules)

    def test_name_cancelled_by_tautology_proves(self, cholesky_state):
        # N is in no fact and no tautology, but it is no bare summand
        A, N, Y, Z = ref("A"), ref("N"), ref("Y"), ref("Z")
        state = replace(
            cholesky_state,
            facts=[PropertyFact(A, Property.SPD)],
            tautologies=[Equation(Y, Z)],
        )
        assert prove_spd(plus(A, times(N, Y), minus(times(N, Z))), state)

    def test_bare_summand_named_twice_proves(self, cholesky_state):
        # N is a bare summand, but its second occurrence cancels it
        A, N, Y = ref("A"), ref("N"), ref("Y")
        state = replace(
            cholesky_state, facts=[PropertyFact(A, Property.SPD)], tautologies=[]
        )
        assert prove_spd(plus(A, N, minus(times(N, Y, inv(Y)))), state)

    @pytest.mark.parametrize(
        "query, tautologies",
        [
            # N is named once, but its summand holds the rule side Z, which is zero
            (plus(A, times(N, Z)), [Equation(Z, ZERO)]),
            # N is named in one summand only, but its inverse cancels it there
            (plus(A, minus(Y), times(N, inv(N), Y)), []),
            # N*W holds no inverse and no rule side, but its names are not private
            (plus(A, times(N, W), minus(times(N, Q, inv(Q), W))), []),
        ],
        ids=["zero_collapse", "inverse_cancellation", "shared_name_cancellation"],
    )
    def test_summand_removable_by_search_proves(self, cholesky_state, query, tautologies):
        state = replace(
            cholesky_state, facts=[PropertyFact(A, Property.SPD)], tautologies=tautologies
        )
        assert prove_spd(query, state)

    def test_each_target_missing_a_private_name_refutes(self, cholesky_state, expand_calls):
        # A_BR and B_BR are both facts, but each one misses the other's name
        B_BR = ref("B_BR")
        state = replace(
            cholesky_state,
            facts=[*cholesky_state.facts, PropertyFact(B_BR, Property.SPD)],
            tautologies=list(CHOLESKY_TAUTOLOGIES),
        )
        assert not prove_spd(plus(A_BR, B_BR, minus(times(L_BL, trans(L_BL)))), state)
        assert expand_calls == []

    def test_bare_summand_refuted_without_search(self, cholesky_state, expand_calls):
        cholesky_state.tautologies = list(CHOLESKY_TAUTOLOGIES)
        e = plus(A_BR, ref("B_BR"), minus(times(L_BL, trans(L_BL))))
        assert not prove_spd(e, cholesky_state)
        assert expand_calls == []

    @pytest.mark.parametrize(
        "query, tautologies, fact",
        [
            (
                plus(A_BR, minus(times(L_BL, trans(L_BL))), times(B_B, C, trans(B_B))),
                UP_TAUTOLOGIES,
                PropertyFact(C, prop),
            )
            for prop in (Property.SPD, Property.SYMMETRIC, Property.DIAGONAL)
        ]
        + [
            (
                plus(A_BR, minus(times(B_B, trans(B_B))), minus(times(L_BL, trans(L_BL)))),
                DOWN_TAUTOLOGIES,
                None,
            )
        ],
        ids=["up_spd", "up_symmetric", "up_diagonal", "down_n"],
    )
    def test_schur_complement_of_update_refuted_without_search(
        self, cholesky_state, expand_calls, query, tautologies, fact
    ):
        # B_B occurs in a rule side, so no names-only argument decides these;
        # the model takes L_TL as a square root through its quadrant equation
        state = replace(
            cholesky_state,
            facts=[*cholesky_state.facts, *([fact] if fact else [])],
            tautologies=list(tautologies),
        )
        targets = [f.expression for f in state.facts if f.property is Property.SPD]
        assert not engine._inert_summands_refute(query, targets, tautologies)
        assert not prove_spd(query, state)
        assert expand_calls == []

    @pytest.mark.parametrize(
        "query, tautologies",
        [
            # the model gives Z the value 0, so inv(Z) has none
            (plus(A, minus(Y), times(Y, inv(Z), Z)), [Equation(Z, ZERO)]),
            # a solved form with no quadrant equation before it
            (plus(A, Y, minus(solved_by("Op", [N]))), [Equation(Y, solved_by("Op", [N]))]),
        ],
        ids=["inverse_of_zero", "solved_form_first"],
    )
    def test_no_counter_model_leaves_the_search(
        self, cholesky_state, expand_calls, query, tautologies
    ):
        state = replace(
            cholesky_state, facts=[PropertyFact(A, Property.SPD)], tautologies=tautologies
        )
        assert not engine._counter_model_refutes(query, [A], tautologies)
        assert prove_spd(query, state)
        assert expand_calls

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_counter_model_never_refutes_a_rewritten_target(self, cholesky_spec, data):
        """A node that 1-4 rewrite steps reach from an SPD fact is provable,
        so the counter-model must not refute it; the same node plus a fresh
        name shows that a model was found."""
        (combination,) = enumerate_combinations(cholesky_spec)
        state = initial_state(cholesky_spec, combination)
        targets = [f.expression for f in state.facts if f.property is Property.SPD]
        rules = data.draw(st.sampled_from([CHOLESKY_TAUTOLOGIES, UP_TAUTOLOGIES, DOWN_TAUTOLOGIES]))
        node = data.draw(st.sampled_from(targets))
        for _ in range(data.draw(st.integers(1, 4))):
            candidates = rewrite_candidates(node, rules)
            if not candidates:
                break
            node = data.draw(st.sampled_from(candidates))
        assert not engine._counter_model_refutes(node, targets, rules)
        assert engine._counter_model_refutes(plus(node, N), targets, rules)

    def test_refutation_check_keeps_every_verdict(
        self, spd_corpus_queries, expand_calls, monkeypatch
    ):
        """Every query of the spd family (with and without ``ops_dir``) and
        fuzz seeds 0-299 gets the same verdict with both refutation checks
        as with neither, and no refutation among them reaches the search."""
        fired = {"_inert_summands_refute": 0, "_counter_model_refutes": 0}

        def spy(name):
            real = getattr(engine, name)

            def check(start, targets, rules):
                refuted = real(start, targets, rules)
                fired[name] += refuted
                return refuted

            return check

        for name in fired:
            monkeypatch.setattr(engine, name, spy(name))
        with_checks = []
        for e, state in spd_corpus_queries:
            expand_calls.clear()
            with_checks.append(prove_spd(e, state))
            assert with_checks[-1] or expand_calls == [], serialize(e)
        for name in fired:
            monkeypatch.setattr(engine, name, lambda *args: False)
        without_checks = [prove_spd(e, state) for e, state in spd_corpus_queries]
        assert with_checks == without_checks
        # the bare-summand special case alone fires on 8 of these queries
        assert any(with_checks) and fired["_inert_summands_refute"] > 8
        assert fired["_counter_model_refutes"] > 0


def _full_replace_all(e: Expression, target: Expression, replacement: Expression) -> Expression:
    """Reference ground rewrite: compares trees and rebuilds every subtree."""
    if e == target:
        return replacement
    kids = e.children()
    if not kids:
        return e
    return e.rebuild([_full_replace_all(c, target, replacement) for c in kids])


def _full_positional_variants(e: Expression) -> list[Expression]:
    """Reference inverse-group moves: visits every subtree."""
    out = _local_variants(e)
    kids = e.children()
    for i, child in enumerate(kids):
        for v in _full_positional_variants(child):
            out.append(e.rebuild(kids[:i] + (v,) + kids[i + 1 :]))
    return out


def _full_rebuild_candidates(e: Expression, rules: Sequence[Equation]) -> list[Expression]:
    """Reference for ``rewrite_candidates`` without pruning or node keys."""
    seen = {e}
    out: list[Expression] = []
    moves = [
        _full_replace_all(e, frm, to)
        for rule in rules
        for frm, to in ((rule.lhs, rule.rhs), (rule.rhs, rule.lhs))
        if frm != to
    ]
    for cand in moves + _full_positional_variants(e):
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


EXPECTED_CHOLESKY = {
    "TL": "(eq L_TL (solved Gamma A_TL))",
    "BL": "(eq L_BL (times A_BL (trans (inv L_TL))))",
    "BR": "(eq L_BR (solved Gamma (plus (minus (times L_BL (trans L_BL))) A_BR)))",
}

EXPECTED_SYLVESTER_ROW = {
    "T": "(eq X_T (solved Omega L_TL U C_T))",
    "B": "(eq X_B (solved Omega L_BR U (plus (minus (times L_BL X_T)) C_B)))",
}

EXPECTED_SYLVESTER_COL = {
    "L": "(eq X_L (solved Omega L U_TL C_L))",
    "R": "(eq X_R (solved Omega L U_BR (plus (minus (times X_L U_TR)) C_R)))",
}


TRSM_OP_TEXT = (
    "operation trsm\n"
    "  operand L : matrix(n,n) , known , lower_triangular\n"
    "  operand B : matrix(m,n) , known\n"
    "  operand X : matrix(m,n) , unknown\n"
    "  postcondition: X * trans(L) = B\n"
    "  solve: Trsm\n"
)


class TestDerivePme:
    def test_cholesky_bootstraps_from_builtins_only(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        pme = derive_pme(cholesky_spec, rules, seed_builtins())
        cells = {q.position: q for q in pme.all_cells()}
        for pos, expected in EXPECTED_CHOLESKY.items():
            cell = cells[pos]
            assert cell.status == STATUS_SOLVED
            assert serialize(cell.equation) == expected
        tr = cells["TR"]
        assert tr.status == STATUS_STAR and tr.partner == "BL"
        assert pme.order == ("TL", "BL", "BR")

    def test_sylvester_row_split(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        pme = derive_pme(sylvester_spec, combos[1], seed_builtins())
        cells = {q.position: q for q in pme.all_cells()}
        for pos, expected in EXPECTED_SYLVESTER_ROW.items():
            assert serialize(cells[pos].equation) == expected
        assert pme.order == ("T", "B")

    def test_sylvester_column_split(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        pme = derive_pme(sylvester_spec, combos[0], seed_builtins())
        cells = {q.position: q for q in pme.all_cells()}
        for pos, expected in EXPECTED_SYLVESTER_COL.items():
            assert serialize(cells[pos].equation) == expected

    def test_trace_is_monotone(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        pme = derive_pme(sylvester_spec, combos[2], seed_builtins())
        counts = [step.known_count for step in pme.trace]
        assert counts == sorted(counts) and len(set(counts)) == len(counts)
        non_redundant = sum(
            1 for q in pme.all_cells() if q.status != STATUS_STAR
        )
        assert len(pme.trace) <= non_redundant

    def test_stuck_without_triangular_solver(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        kb = seed_builtins().without_builtins(["trsm"])
        with pytest.raises(StuckDerivation) as err:
            derive_pme(cholesky_spec, rules, kb)
        positions = {q.position for q in err.value.unsolved}
        assert "BL" in positions
        assert any("BL" in note for note in err.value.notes)

    def test_learned_triangular_pattern_restores_derivation(
        self, cholesky_spec, trsm_spec
    ):
        kb = seed_builtins().without_builtins(["trsm"])
        kb = learn(trsm_spec, kb)
        (rules,) = enumerate_combinations(cholesky_spec)
        pme = derive_pme(cholesky_spec, rules, kb)
        cells = {q.position: q for q in pme.all_cells()}
        assert serialize(cells["BL"].equation) == (
            "(eq L_BL (solved Trsm L_TL A_BL))"
        )
        assert cells["BR"].status == STATUS_SOLVED

    def test_nested_acquisition_from_ops_dir(self, cholesky_spec, tmp_path):
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        (ops_dir / "Trsm.op").write_text(TRSM_OP_TEXT)
        # only ``.op`` files are read as operations
        (ops_dir / "notes.txt").write_text("not an operation\n")
        kb = seed_builtins().without_builtins(["trsm"])
        (rules,) = enumerate_combinations(cholesky_spec)
        pme = derive_pme(cholesky_spec, rules, kb, ops_dir=str(ops_dir))
        cells = {q.position: q for q in pme.all_cells()}
        assert serialize(cells["BL"].equation) == (
            "(eq L_BL (solved Trsm L_TL A_BL))"
        )

    def test_stuck_when_ops_dir_empty(self, cholesky_spec, tmp_path):
        kb = seed_builtins().without_builtins(["trsm"])
        (rules,) = enumerate_combinations(cholesky_spec)
        with pytest.raises(StuckDerivation):
            derive_pme(cholesky_spec, rules, kb, ops_dir=str(tmp_path))

    def test_ops_dir_that_is_a_file_offers_nothing(self, cholesky_spec, tmp_path):
        # the CLI rejects such a directory; a library caller gets no candidates
        path = tmp_path / "Trsm.op"
        path.write_text(TRSM_OP_TEXT)
        kb = seed_builtins().without_builtins(["trsm"])
        (rules,) = enumerate_combinations(cholesky_spec)
        with pytest.raises(StuckDerivation):
            derive_pme(cholesky_spec, rules, kb, ops_dir=str(path))

    def test_nested_candidate_without_pme_is_skipped(self, tmp_path, monkeypatch):
        # the L cell of combination 1, written as an operation: its
        # pattern matches the cell, but it derives no PME of its own
        parent = parse_operation(
            "operation abc\n"
            "  operand A : matrix(p,m) , known\n"
            "  operand B : matrix(m,n) , unknown\n"
            "  operand C : matrix(n,n) , known\n"
            "  operand D : matrix(p,n) , known\n"
            "  postcondition: A * B * C = D\n"
            "  solve: Delta\n"
        )
        need = (
            "operation need\n"
            "  operand A : matrix(p,m) , known\n"
            "  operand B : matrix(m,n) , unknown\n"
            "  operand C : matrix(n,k) , known\n"
            "  operand D : matrix(p,k) , known\n"
            "  postcondition: A * B * C = D\n"
            "  solve: Need\n"
        )
        (tmp_path / "need.op").write_text(need)
        assert not any(isinstance(r, PME) for r in derive_each(parse_operation(need), seed_builtins()))
        nested: list[str] = []
        real = engine._derive_each

        def counted(spec, *args):
            nested.append(spec.name)
            return real(spec, *args)

        monkeypatch.setattr(engine, "_derive_each", counted)
        stuck = derive_each(parent, seed_builtins(), ops_dir=str(tmp_path), combination=1)[0]
        assert "need" in nested
        assert isinstance(stuck, StuckDerivation)
        assert [q.position for q in stuck.unsolved] == ["L", "R"]

    def test_raised_stuck_equals_returned_entry(self, corpus_run):
        """Each stuck combination of the spd family with ``ops/``:
        ``derive_pme`` raises what ``derive_each`` returned for it, so the
        raise and the returned value come from one path."""
        family = [parse_operation(text) for _, text in bench_corpus().spd_family()]
        stuck = [
            (spec, r)
            for spec, ops_dir, results in corpus_run["derived"]
            if ops_dir == OPS_DIR and spec in family
            for r in results or ()
            if isinstance(r, StuckDerivation)
        ]
        assert len(stuck) == 33
        for spec, entry in stuck:
            with pytest.raises(StuckDerivation) as err:
                derive_pme(spec, entry.combination, seed_builtins(), ops_dir=OPS_DIR)
            raised = err.value
            assert raised.operation == entry.operation
            assert raised.combination == entry.combination
            assert raised.unsolved == entry.unsolved
            assert raised.notes == entry.notes


class TestDeriveAll:
    def test_vector_forward_substitution(self):
        spec = parse_operation(
            "operation fwdsub\n"
            "  operand L : matrix(n,n) , known , lower_triangular\n"
            "  operand b : vector(n) , known\n"
            "  operand x : vector(n) , unknown\n"
            "  postcondition: L * x = b\n"
            "  solve: Solve\n"
        )
        pmes = derive_all(spec, seed_builtins())
        assert len(pmes) == 1
        pme = pmes[0]
        cells = {q.position: q for q in pme.all_cells()}
        # the operation's own pattern is registered first, so the diagonal
        # sub-systems come back through its solution operator
        assert serialize(cells["T"].equation) == (
            "(eq x_T (solved Solve L_TL b_T))"
        )
        assert serialize(cells["B"].equation) == (
            "(eq x_B (solved Solve L_BR (plus (minus (times L_BL x_T)) b_B)))"
        )

    @pytest.mark.parametrize("name", ["cholesky", "sylvester", "trsm"])
    def test_assignments_in_dependency_order(self, name):
        from pmegen.expr import known_only, operand_names

        spec = load_op(name)
        for pme in derive_all(spec, seed_builtins()):
            state = initial_state(spec, pme.combination)
            known = set(state.known)
            cells = {q.position: q for q in pme.all_cells()}
            for pos in pme.order:
                cell = cells[pos]
                assert known_only(cell.equation.rhs, known)
                known |= operand_names(cell.equation.lhs)

    def test_counts(self, cholesky_spec, sylvester_spec, trsm_spec):
        kb = seed_builtins()
        assert len(derive_all(cholesky_spec, kb)) == 1
        assert len(derive_all(sylvester_spec, kb)) == 3
        assert len(derive_all(trsm_spec, kb)) == 3

    def test_trsm_variants(self, trsm_spec):
        pmes = derive_all(trsm_spec, seed_builtins())
        by_index = {p.combination.index: p for p in pmes}
        rows = {q.position: q for q in by_index[2].all_cells()}
        assert serialize(rows["T"].equation) == (
            "(eq X_T (solved Trsm L B_T))"
        )
        assert serialize(rows["B"].equation) == (
            "(eq X_B (solved Trsm L B_B))"
        )
        cols = {q.position: q for q in by_index[1].all_cells()}
        assert serialize(cols["R"].equation) == (
            "(eq X_R (solved Trsm L_BR (plus (minus (times X_L (trans L_BL))) B_R)))"
        )

    def test_aggregate_error(self, cholesky_spec):
        kb = seed_builtins().without_builtins(["trsm"])
        with pytest.raises(AllCombinationsStuck) as err:
            derive_all(cholesky_spec, kb)
        assert len(err.value.failures) == 1
        # a kept traceback would hold the stuck state in a reference cycle
        assert err.value.failures[0].__traceback__ is None

    def test_derive_each_in_combination_order(self, cholesky_spec, sylvester_spec):
        results = derive_each(sylvester_spec, seed_builtins())
        assert [r.combination.index for r in results] == [1, 2, 3]
        assert tuple(results) == derive_all(sylvester_spec, seed_builtins())
        (stuck,) = derive_each(cholesky_spec, seed_builtins().without_builtins(["trsm"]))
        assert isinstance(stuck, StuckDerivation)
        assert stuck.__traceback__ is None

    def test_each_combination_blocked_once(self, sylvester_spec, monkeypatch):
        calls = dict(analyze=0, raw_blocked_equations=0, pattern_from_spec=0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for module in (binding, blockarith, engine):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        applied = []

        def apply_rule(decl, rule):
            applied.append((decl.name, rule))
            return real_apply(decl, rule)

        real_apply = blockarith.apply_rule
        monkeypatch.setattr(blockarith, "apply_rule", apply_rule)
        grids = []

        def blocked_grid(spec, blocks, known):
            grids.append((blocks, len(applied)))
            return real_grid(spec, blocks, known)

        real_grid = engine._blocked_grid
        monkeypatch.setattr(engine, "_blocked_grid", blocked_grid)
        # sylvester, and a fuzz spec of 7 operands with 31 combinations
        for spec, count in ((sylvester_spec, 3), (random_spec(np.random.default_rng(41)), 31)):
            combos = enumerate_combinations(spec)
            assert len(combos) == count
            calls.update(analyze=0, raw_blocked_equations=0, pattern_from_spec=0)
            applied.clear()
            grids.clear()
            assert len(derive_each(spec, seed_builtins())) == count
            # one analysis and one self pattern per spec, one grid per combination
            assert calls == {"analyze": 1, "raw_blocked_equations": count, "pattern_from_spec": 1}
            # one blocking per distinct (operand, rule), all built before any grid
            distinct = {(name, rule) for c in combos for name, rule in c.rules}
            assert len(applied) == len(set(applied)) == len(distinct)
            assert set(applied) == distinct
            assert len(distinct) < sum(len(c.rules) for c in combos)
            assert {built for _, built in grids} == {len(distinct)}
            # combinations that share a rule share its blocked operand
            by_rule: dict = {}
            for rules, (blocks, _) in zip(combos, grids):
                for name, rule in rules.rules:
                    assert by_rule.setdefault(rule, blocks[name]) is blocks[name]
            assert len(by_rule) == len(distinct)

    def test_derive_path_trees_are_normal(self, corpus_run):
        """The smart constructors keep every tree the derivation builds
        normal, so only the input boundaries call normalize.  Nodes check
        nothing when built, so the names they carry are checked here."""
        equations = [eq for p in seed_builtins().builtins for eq in (p.template, p.solved)]
        solved_cells = 0
        for spec, _, results in corpus_run["derived"]:
            # the derived spec is the one its text parses back to
            parsed = parse_operation(render_spec(spec))
            assert parsed == spec
            pattern = pattern_from_spec(parsed, provenance="self")
            equations += [parsed.postcondition, pattern.template, pattern.solved]
            for pme in results or ():
                if isinstance(pme, StuckDerivation):
                    continue
                for q in pme.all_cells():
                    if q.status == STATUS_SOLVED:
                        equations.append(q.equation)
                        solved_cells += 1
        facts = [f for state in corpus_run["states"] for f in state.facts]
        tautologies = [t for state in corpus_run["states"] for t in state.tautologies]
        equations += tautologies
        assert solved_cells > 800 and len(tautologies) > 1500
        assert sum(f.property is Property.SPD for f in facts) > 1000
        for eq in equations:
            assert normalize(eq) == eq, serialize(eq)
        for f in facts:
            assert normalize(f.expression) == f.expression, serialize(f.expression)
        cells = [q.equation for grid in corpus_run["grids"] for q in grid.all_cells()]
        for e in [*equations, *cells, *(f.expression for f in facts)]:
            for node in walk(e):
                if isinstance(node, OperandRef):
                    assert _IDENT.match(node.name) and node.name not in _RESERVED, node.name
                elif isinstance(node, SolvedBy):
                    assert _IDENT.match(node.operator_name) and node.arguments, serialize(node)

    def test_derive_output_matches_bench_golden(self, corpus_run):
        """Every ``derive`` entry of bench/golden.json, judged by the
        benchmark's own rule: each recorded PME comes back with the same text
        and JSON digests, and a spec recorded as stuck or without viable
        partitionings may newly derive.

        The fuzz entries were recorded without ``ops/``, and corpus_run
        derives them with it.  A nested derivation that succeeds puts its
        pattern first, where it solves a cell in the next sweep, so it shows
        in the trace: a PME whose trace names no operation of ``ops/`` is
        the one derived without it.
        """
        worker, corpus = bench_worker(), bench_corpus()
        golden = worker.load_golden()["derive"]
        runs = {(spec, ops_dir): results for spec, ops_dir, results in corpus_run["derived"]}
        shipped = corpus.shipped_ops(os.path.join(OPS_DIR, os.pardir))
        nested = {name for name, _ in shipped}
        inputs = [
            (f"spd:{name}", parse_operation(text), OPS_DIR)
            for name, text in corpus.spd_family() + shipped
        ]
        inputs += [(f"fuzz:{s}", corpus.fuzz_spec(s), None) for s in corpus.FUZZ_SEEDS]
        assert sorted(key for key, _, _ in inputs) == sorted(golden)
        assert len(golden) == 325
        for key, spec, ops_dir in inputs:
            results = runs[spec, OPS_DIR]
            pmes = [r for r in results or () if not isinstance(r, StuckDerivation)]
            if ops_dir is None:
                assert not nested & {t.pattern for p in pmes for t in p.trace}, key
            outcome = "derived" if pmes else "stuck" if results else "no-viable"
            observed = {"result": outcome, "pmes": worker.pme_digests(pmes)}
            assert worker.derive_problem(golden[key], observed) is None, key

    def test_corpus_outcomes_pinned(self, corpus_run):
        """One digest over every corpus derivation: each PME's text, and
        each stuck combination's notes, unsolved positions and equations.
        The bench golden pins only PME digests, so this is what holds the
        stuck notes, guard-failure messages and their order in place."""
        h = hashlib.sha256()
        notes = 0
        for spec, ops_dir, results in corpus_run["derived"]:
            h.update(f"== {render_spec(spec)} {ops_dir is not None}\n".encode())
            if results is None:
                h.update(b"no viable partitionings\n")
                continue
            for r in results:
                if isinstance(r, StuckDerivation):
                    notes += len(r.notes)
                    lines = [
                        f"stuck {r.combination.index}",
                        *r.notes,
                        *(f"{q.position} {serialize(q.equation)}" for q in r.unsolved),
                    ]
                else:
                    lines = render_pme_text(r)
                h.update(("\n".join(lines) + "\n").encode())
        assert notes == 15001
        assert h.hexdigest() == (
            "f1f05c7b9176887c461eb3c9ff20e3c1b7597547d1a5d25c22b7179d13dd7c63"
        )

    def test_ops_dir_parsed_once(self, monkeypatch):
        # each of the three combinations tries a nested derivation from
        # ops/ before it gets stuck
        spec = parse_operation(
            "operation chol_down\n"
            "  operand L : matrix(m,m) , unknown , lower_triangular\n"
            "  operand A : matrix(m,m) , known , spd\n"
            "  operand B : matrix(m,m) , known\n"
            "  postcondition: L * trans(L) = A - B * trans(B)\n"
            "  solve: Gamma\n"
        )
        parsed: list[str] = []

        def counted(text):
            op = parse_operation(text)
            parsed.append(op.name)
            return op

        monkeypatch.setattr(engine, "parse_operation", counted)
        with pytest.raises(AllCombinationsStuck) as err:
            derive_all(spec, seed_builtins(), ops_dir=OPS_DIR)
        assert len(err.value.failures) == 3
        names = sorted(f[: -len(".op")] for f in os.listdir(OPS_DIR) if f.endswith(".op"))
        assert sorted(parsed) == names


class TestLearn:
    def test_idempotent(self, cholesky_spec):
        kb = seed_builtins()
        once = learn(cholesky_spec, kb)
        twice = learn(cholesky_spec, once)
        assert once == twice
        assert once.get("cholesky") is not None
        assert once.get("cholesky").provenance == "learned-from:cholesky"

    def test_conflicting_redefinition(self, cholesky_spec):
        kb = learn(cholesky_spec, seed_builtins())
        other = parse_operation(
            "operation cholesky\n"
            "  operand U : matrix(m,m) , unknown , upper_triangular\n"
            "  operand A : matrix(m,m) , known , spd\n"
            "  postcondition: trans(U) * U = A\n"
            "  solve: Gamma\n"
        )
        with pytest.raises(PatternConflictError):
            learn(other, kb)

    def test_guard_includes_spd(self, cholesky_spec):
        kb = learn(cholesky_spec, seed_builtins())
        pattern = kb.get("cholesky")
        from pmegen.opspec import Property

        slots = {s.name: s for s in pattern.slots}
        assert Property.SPD in slots["A"].properties


class TestKnowledgeBaseFile:
    def test_round_trip(self, cholesky_spec, sylvester_spec, tmp_path):
        kb = learn(sylvester_spec, learn(cholesky_spec, seed_builtins()))
        path = str(tmp_path / "patterns.kb")
        save_kb(kb, path)
        loaded = load_kb(path)
        assert loaded.learned == kb.learned
        # byte-stable on rewrite
        save_kb(loaded, path + ".2")
        assert open(path).read() == open(path + ".2").read()

    def test_record_without_operator_round_trips(self, tmp_path):
        text = (
            "# pattern knowledge base\n"
            "pattern p\nprovenance learned-from:p\nsolve -\n"
            "slot X matrix unknown m n\nslot E matrix known m n\n"
            "post (eq X E)\nsolved (eq X E)\nend\n"
        )
        path = tmp_path / "p.kb"
        path.write_text(text)
        kb = load_kb(str(path))
        assert kb.get("p").solution_operator is None
        save_kb(kb, str(tmp_path / "again.kb"))
        assert (tmp_path / "again.kb").read_text() == text

    def test_failed_write_leaves_no_temporary_file(self, cholesky_spec, tmp_path, monkeypatch):
        def no_replace(src, dst):
            raise OSError(28, "No space left on device", dst)

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError, match="No space left"):
            save_kb(learn(cholesky_spec, seed_builtins()), str(tmp_path / "patterns.kb"))
        assert os.listdir(tmp_path) == []

    def test_write_into_missing_directory_names_kb_path(self, cholesky_spec, tmp_path):
        # the error names the KB file, not the temporary file beside it
        path = str(tmp_path / "missing" / "patterns.kb")
        with pytest.raises(OSError) as err:
            save_kb(learn(cholesky_spec, seed_builtins()), path)
        assert err.value.filename == path

    def test_load_missing_is_builtins(self, tmp_path):
        kb = load_kb(str(tmp_path / "absent.kb"))
        assert kb.learned == ()

    def test_duplicate_pattern_rejected(self, cholesky_spec, tmp_path):
        kb = learn(cholesky_spec, seed_builtins())
        path = str(tmp_path / "patterns.kb")
        save_kb(kb, path)
        text = open(path).read()
        open(path, "w").write(text + text[text.index("\npattern ") + 1 :])
        with pytest.raises(KnowledgeBaseError, match="twice"):
            load_kb(path)

    def test_unnormalized_template_rejected(self, tmp_path):
        path = str(tmp_path / "badnorm.kb")
        with open(path, "w") as fh:
            fh.write(
                "pattern bad\n"
                "provenance learned-from:bad\n"
                "solve S\n"
                "slot X matrix unknown m n\n"
                "slot E matrix known m n\n"
                "post (eq (trans (trans X)) E)\n"
                "solved (eq X E)\n"
                "end\n"
            )
        with pytest.raises(KnowledgeBaseError, match="is not normalized"):
            load_kb(path)

    def test_undeclared_slots_rejected(self, tmp_path):
        path = str(tmp_path / "badslots.kb")
        with open(path, "w") as fh:
            fh.write(
                "pattern bad\n"
                "provenance learned-from:bad\n"
                "solve S\n"
                "slot X matrix unknown m n\n"
                "post (eq X E)\n"
                "solved (eq X E)\n"
                "end\n"
            )
        with pytest.raises(KnowledgeBaseError, match="uses undeclared"):
            load_kb(path)

    def test_malformed_slot_line_rejected(self, tmp_path):
        path = str(tmp_path / "badline.kb")
        with open(path, "w") as fh:
            fh.write(
                "pattern bad\n"
                "provenance learned-from:bad\n"
                "solve S\n"
                "slot X matrix unknown\n"
                "post (eq X X)\n"
                "solved (eq X X)\n"
                "end\n"
            )
        with pytest.raises(KnowledgeBaseError, match="slot records need"):
            load_kb(path)

    @pytest.mark.parametrize(
        "slot, message",
        [
            ("slot X bogus unknown m n", "unknown slot kind 'bogus'"),
            ("slot X matrix weird m n", "unknown slot role 'weird'"),
        ],
    )
    def test_invalid_slot_kind_or_role_rejected(self, tmp_path, slot, message):
        path = str(tmp_path / "badslot.kb")
        with open(path, "w") as fh:
            fh.write(
                "pattern bad\n"
                "provenance learned-from:bad\n"
                "solve S\n"
                f"{slot}\n"
                "slot E matrix known m n\n"
                "post (eq X E)\n"
                "solved (eq X E)\n"
                "end\n"
            )
        with pytest.raises(KnowledgeBaseError, match=f"badslot.kb:4: {message}"):
            load_kb(path)

    @pytest.mark.parametrize(
        "roles, solved, message",
        [
            # a learned pattern solves for exactly one unknown slot
            (
                ("known", "unknown", "unknown"),
                "(eq X (solved Trsm L B))",
                "pattern trsm: needs exactly one unknown slot",
            ),
            (
                ("known", "known", "known"),
                "(eq X (solved Trsm L B))",
                "pattern trsm: needs exactly one unknown slot",
            ),
            # the solved form assigns that slot, not a known one
            (
                ("known", "known", "unknown"),
                "(eq B (solved Trsm L X))",
                "pattern trsm: solved form must assign the unknown slot X",
            ),
            # and reads known slots only: not the unknown, nor an undeclared name
            (
                ("known", "known", "unknown"),
                "(eq X (solved Trsm L X))",
                "pattern trsm: solved form must read only known slots, not X",
            ),
            (
                ("known", "known", "unknown"),
                "(eq X (solved Trsm L Q))",
                "pattern trsm: solved form must read only known slots, not Q",
            ),
        ],
    )
    def test_solved_form_must_assign_its_unknown_slot(self, tmp_path, roles, solved, message):
        # a record that breaks these would emit a PME whose cell assigns a
        # known block, or reads an unbound one
        path = str(tmp_path / "solved.kb")
        slots = [
            f"slot {name} matrix {role} {dims}"
            for (name, dims), role in zip((("L", "n n"), ("B", "m n"), ("X", "m n")), roles)
        ]
        with open(path, "w") as fh:
            fh.write(
                "pattern trsm\nprovenance learned-from:trsm\nsolve Trsm\n"
                + "\n".join(slots)
                + f"\npost (eq (times X (trans L)) B)\nsolved {solved}\nend\n"
            )
        with pytest.raises(KnowledgeBaseError, match=f"solved.kb:9: {message}$"):
            load_kb(path)


def test_records_stay_immutable(cholesky_spec):
    (pme,) = derive_all(cholesky_spec, seed_builtins())
    records = [
        (dict(pme.combination.rules)["L"], "split_rows"),
        ({q.position: q for q in pme.all_cells()}["TL"], "status"),
        (seed_builtins().builtins[0], "template"),
        (cholesky_spec.operands[0], "properties"),
        (pme, "order"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
