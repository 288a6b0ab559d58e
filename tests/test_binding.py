"""Dimension binding groups, combination enumeration, and the rules binding
admits for each operand."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from pmegen.binding import (
    BindingError,
    DimensionConflictError,
    DimensionVar,
    NoViablePartitioningsError,
    PartitionRule,
    analyze,
    enumerate_combinations,
)
from pmegen.expr import ZERO, Dimension, Equation, ref
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_SCALAR,
    KIND_VECTOR,
    ROLE_UNKNOWN,
    OperandDecl,
    build_spec,
    parse_operation,
)

from conftest import (
    OPS_DIR,
    bench_corpus,
    check_blocking_faithful,
    corpus_specs,
    load_op,
    random_spec,
)


def V(operand: str, axis: str) -> DimensionVar:
    return DimensionVar(operand, axis)


def offered(operands: str, postcondition: str, operand: str) -> list[PartitionRule]:
    """The rules binding offers ``operand`` across a spec's combinations."""
    spec = parse_operation(
        f"operation op\n{operands}  postcondition: {postcondition}\n  solve: S\n"
    )
    return [dict(c.rules)[operand] for c in enumerate_combinations(spec)]


def shapes(rules: list[PartitionRule]) -> set[str]:
    return {r.shape for r in rules}


class TestBindDimensions:
    def test_sylvester_two_groups(self, sylvester_spec):
        groups = analyze(sylvester_spec).groups
        assert groups == (
            frozenset({V("L", "r"), V("L", "c"), V("X", "r"), V("C", "r")}),
            frozenset({V("U", "r"), V("U", "c"), V("X", "c"), V("C", "c")}),
        )

    def test_cholesky_single_group(self, cholesky_spec):
        groups = analyze(cholesky_spec).groups
        assert groups == (
            frozenset({V("L", "r"), V("L", "c"), V("A", "r"), V("A", "c")}),
        )

    def test_plain_assignment_two_groups(self):
        spec = parse_operation(
            "operation assignop\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  operand B : matrix(m,n) , known\n"
            "  postcondition: X = B\n"
            "  solve: S\n"
        )
        assert analyze(spec).groups == (
            frozenset({V("X", "r"), V("B", "r")}),
            frozenset({V("X", "c"), V("B", "c")}),
        )

    def test_declaration_order_irrelevant(self, sylvester_spec):
        reordered = parse_operation(
            "operation sylvester\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  operand C : matrix(m,n) , known\n"
            "  operand U : matrix(n,n) , known , upper_triangular\n"
            "  operand L : matrix(m,m) , known , lower_triangular\n"
            "  postcondition: L * X + X * U = C\n"
            "  solve: Omega\n"
        )
        assert set(analyze(reordered).groups) == set(analyze(sylvester_spec).groups)

    def test_zero_block_rejected(self):
        decl = OperandDecl("X", KIND_MATRIX, Dimension("m", "m"), ROLE_UNKNOWN, frozenset())
        spec = build_spec("z", [decl], Equation(ref("X"), ZERO), "S")
        with pytest.raises(BindingError) as err:
            enumerate_combinations(spec)
        assert str(err.value) == "the zero block may not appear in postconditions"

    def test_dimension_conflict_with_fixed_size(self):
        spec = parse_operation(
            "operation bad\n"
            "  operand A : matrix(m,n) , known\n"
            "  operand v : vector(n) , known\n"
            "  operand C : matrix(m,p) , unknown\n"
            "  postcondition: A * v = C\n"
            "  solve: S\n"
        )
        with pytest.raises(DimensionConflictError):
            analyze(spec)

    def test_inverse_binds_square_and_pins_group(self):
        spec = parse_operation(
            "operation invprod\n"
            "  operand A : matrix(m,m) , known\n"
            "  operand B : matrix(m,n) , known\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  postcondition: inv(A) * X = B\n"
            "  solve: S\n"
        )
        a = analyze(spec)
        assert frozenset({V("A", "r"), V("A", "c"), V("X", "r"), V("B", "r")}) in a.groups
        pinned = a.groups.index(
            frozenset({V("A", "r"), V("A", "c"), V("X", "r"), V("B", "r")})
        )
        assert not a.partitionable[pinned]
        # the column group is still free, so exactly one combination remains
        combos = enumerate_combinations(spec)
        assert len(combos) == 1
        assert dict(combos[0].rules)["A"].shape == "1x1"


    @pytest.mark.parametrize(
        "name", sorted(f[: -len(".op")] for f in os.listdir(OPS_DIR) if f.endswith(".op"))
    )
    def test_analysis_leaves_no_cyclic_garbage(self, name):
        spec = load_op(name)
        gc.collect()
        gc.disable()
        try:
            analyze(spec)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumerate:
    def test_sylvester_matches_expected_rule_table(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        assert len(combos) == 3

        def shapes(c):
            return {name: rule.shape for name, rule in c.rules}

        assert shapes(combos[0]) == {"L": "1x1", "U": "2x2", "C": "1x2", "X": "1x2"}
        assert shapes(combos[1]) == {"L": "2x2", "U": "1x1", "C": "2x1", "X": "2x1"}
        assert shapes(combos[2]) == {"L": "2x2", "U": "2x2", "C": "2x2", "X": "2x2"}
        # split symbols are per group: k1 for the row group, k2 for the column group
        assert dict(combos[0].rules)["U"].split_rows == "k2"
        assert dict(combos[0].rules)["X"].split_cols == "k2"
        assert dict(combos[1].rules)["L"].split_rows == "k1"
        assert dict(combos[1].rules)["C"].split_rows == "k1"
        assert dict(combos[2].rules)["C"].split_rows == "k1"
        assert dict(combos[2].rules)["C"].split_cols == "k2"
        assert [c.index for c in combos] == [1, 2, 3]

    def test_cholesky_single_combination(self, cholesky_spec):
        combos = enumerate_combinations(cholesky_spec)
        assert len(combos) == 1
        assert {n: r.shape for n, r in combos[0].rules} == {
            "L": "2x2",
            "A": "2x2",
        }
        assert dict(combos[0].rules)["L"].split_rows == "k1"
        assert dict(combos[0].rules)["A"].split_rows == "k1"

    def test_scalar_equation_has_no_partitionings(self):
        spec = parse_operation(
            "operation scalarmul\n"
            "  operand x : scalar , known\n"
            "  operand y : scalar , unknown\n"
            "  operand z : scalar , known\n"
            "  postcondition: x * y = z\n"
            "  solve: Div\n"
        )
        with pytest.raises(NoViablePartitioningsError):
            enumerate_combinations(spec)

    def test_vector_column_axis_forced_keep(self):
        spec = parse_operation(
            "operation matvec\n"
            "  operand A : matrix(m,n) , known\n"
            "  operand x : vector(n) , known\n"
            "  operand b : vector(m) , unknown\n"
            "  postcondition: A * x = b\n"
            "  solve: S\n"
        )
        combos = enumerate_combinations(spec)
        shapes_seen = {
            tuple(sorted((n, r.shape) for n, r in c.rules)) for c in combos
        }
        # columns of the vectors never split
        for c in combos:
            assert dict(c.rules)["x"].shape in ("1x1", "2x1")
            assert dict(c.rules)["b"].shape in ("1x1", "2x1")
        assert len(combos) == 3
        assert len(shapes_seen) == 3


@pytest.mark.parametrize("seed", range(40))
def test_combination_count_law_and_conformance(seed):
    """|combinations| is 2^g - 1 and every combination is well defined."""
    spec = random_spec(np.random.default_rng(seed))
    a = analyze(spec)
    g = sum(a.partitionable)
    if g == 0:
        with pytest.raises(NoViablePartitioningsError):
            enumerate_combinations(spec)
        return
    combos = enumerate_combinations(spec)
    assert len(combos) == 2**g - 1
    assert len({tuple(c.group_choices) for c in combos}) == len(combos)
    for combo in combos:
        assert not all(rule.is_identity for _, rule in combo.rules)
        check_blocking_faithful(spec, combo, np.random.default_rng(seed))


def test_binding_output_is_admissible():
    """The admissibility table of :mod:`pmegen.binding`, on every
    combination binding enumerates for the specs of ``corpus_run`` and the
    benchmark's probes: a scalar is kept whole, a vector splits its rows
    only, a structured operand is kept whole or split 2x2 at one symbol,
    and every combination splits something."""
    corpus = bench_corpus()
    texts = [text for _, text in corpus.spd_family() + corpus.probes()]
    combos = 0
    kinds = set()
    for spec in [parse_operation(t) for t in texts] + [spec for _, spec in corpus_specs()]:
        try:
            enumerated = enumerate_combinations(spec)
        except (NoViablePartitioningsError, DimensionConflictError):
            continue
        for combo in enumerated:
            combos += 1
            assert not all(rule.is_identity for _, rule in combo.rules), combo
            for decl in spec.operands:
                kinds.add(decl.kind)
                rule = dict(combo.rules)[decl.name]
                if decl.kind == KIND_SCALAR:
                    assert rule.shape == "1x1", rule
                elif decl.kind == KIND_VECTOR:
                    assert rule.shape in ("1x1", "2x1"), rule
                elif decl.is_structured:
                    assert rule.is_identity or (
                        rule.shape == "2x2" and rule.split_rows == rule.split_cols
                    ), rule
    assert combos > 2000
    # trsv brings vectors; no spec that binds has a scalar yet
    assert KIND_VECTOR in kinds


class TestAdmissibleRules:
    """The table of the module docstring, as binding enforces it."""

    def test_general_matrix_all_four(self):
        operands = (
            "  operand A : matrix(m,n) , known\n"
            "  operand X : matrix(n,p) , unknown\n"
            "  operand B : matrix(m,p) , known\n"
        )
        assert shapes(offered(operands, "A * X = B", "A")) == {"1x1", "1x2", "2x1", "2x2"}

    @staticmethod
    def structured(prop: str) -> list[PartitionRule]:
        operands = (
            f"  operand A : matrix(m,m) , known , {prop}\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  operand B : matrix(m,n) , known\n"
        )
        return offered(operands, "A * X = B", "A")

    def test_spd_identity_or_square_2x2(self):
        rules = self.structured("spd")
        assert shapes(rules) == {"1x1", "2x2"}
        assert all(r.split_rows == r.split_cols for r in rules)

    def test_triangular_and_diagonal(self):
        for prop in ("lower_triangular", "upper_triangular", "diagonal"):
            rules = self.structured(prop)
            assert shapes(rules) == {"1x1", "2x2"}
            assert all(r.split_rows == r.split_cols for r in rules)

    def test_scalar_identity_only(self):
        operands = (
            "  operand x : vector(m) , known\n"
            "  operand a : scalar , known\n"
            "  operand y : vector(m) , unknown\n"
        )
        assert shapes(offered(operands, "x * a = y", "a")) == {"1x1"}

    def test_vector_identity_or_rows(self):
        operands = (
            "  operand A : matrix(m,n) , known\n"
            "  operand x : vector(n) , known\n"
            "  operand b : vector(m) , unknown\n"
        )
        for name in ("x", "b"):
            assert shapes(offered(operands, "A * x = b", name)) == {"1x1", "2x1"}
