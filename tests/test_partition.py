"""Blocking rules, inherited block properties, and the spd theorem facts."""

from __future__ import annotations

import numpy as np
import pytest

from pmegen.binding import PartitionRule, enumerate_combinations
from pmegen.blockarith import apply_rule
from pmegen.expr import Dimension, OperandRef, ZERO, ref, serialize, trans
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_VECTOR,
    OperandDecl,
    Property,
    ROLE_KNOWN,
    parse_operation,
)
from pmegen.oracle import eval_size, sample_value

from conftest import min_symmetric_eigenvalue


def decl(props=(), kind=KIND_MATRIX, dims=("m", "n"), name="A", role=ROLE_KNOWN):
    return OperandDecl(name, kind, Dimension(*dims), role, frozenset(props))


def offered(operands: str, postcondition: str, operand: str) -> list[PartitionRule]:
    """The rules binding offers ``operand`` across a spec's combinations."""
    spec = parse_operation(
        f"operation op\n{operands}  postcondition: {postcondition}\n  solve: S\n"
    )
    return [c.rule_for(operand) for c in enumerate_combinations(spec)]


def shapes(rules: list[PartitionRule]) -> set[str]:
    return {r.shape for r in rules}


def inherited(b) -> dict[str, frozenset]:
    """Each named block's directly inherited properties, read off ``b.facts``."""
    out: dict[str, set] = {name: set() for name in b.dims}
    for f in b.facts:
        if isinstance(f.expression, OperandRef):
            out[f.expression.name].add(f.property)
    return {name: frozenset(props) for name, props in out.items()}


def spd_texts(b) -> list[str]:
    return [serialize(f.expression) for f in b.facts if f.property is Property.SPD]


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


class TestApplyRule:
    def test_spd_2x2_mirrors_lower_block(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A", "k1", "k1"))
        assert b.cells == (
            (ref("A_TL"), trans(ref("A_BL"))),
            (ref("A_BL"), ref("A_BR")),
        )
        props = inherited(b)
        assert props["A_TL"] == frozenset({Property.SPD, Property.SYMMETRIC})
        assert props["A_BR"] == frozenset({Property.SPD, Property.SYMMETRIC})
        assert props["A_BL"] == frozenset()
        assert b.row_sizes == ("k1", "m-k1")
        assert b.dims == {
            "A_TL": Dimension("k1", "k1"),
            "A_BL": Dimension("m-k1", "k1"),
            "A_BR": Dimension("m-k1", "m-k1"),
        }

    def test_lower_triangular_2x2(self):
        d = decl({Property.LOWER_TRIANGULAR}, dims=("m", "m"), name="L")
        b = apply_rule(d, PartitionRule("L", "k1", "k1"))
        assert b.cells == ((ref("L_TL"), ZERO), (ref("L_BL"), ref("L_BR")))
        props = inherited(b)
        assert props["L_TL"] == frozenset({Property.LOWER_TRIANGULAR})
        assert props["L_BR"] == frozenset({Property.LOWER_TRIANGULAR})

    def test_diagonal_2x2(self):
        d = decl({Property.DIAGONAL}, dims=("m", "m"), name="D")
        b = apply_rule(d, PartitionRule("D", "k1", "k1"))
        assert b.cells == ((ref("D_TL"), ZERO), (ZERO, ref("D_BR")))

    def test_identity_unchanged(self):
        b = apply_rule(decl(name="C"), PartitionRule("C"))
        assert b.cells == ((ref("C"),),)
        assert b.row_sizes == ("m",) and b.col_sizes == ("n",)

    def test_general_2x2_and_vectors(self):
        b = apply_rule(decl(name="C"), PartitionRule("C", "k1", "k2"))
        assert [c.name for row in b.cells for c in row] == [
            "C_TL", "C_TR", "C_BL", "C_BR",
        ]
        v = apply_rule(
            decl(kind=KIND_VECTOR, dims=("m", "1"), name="v"),
            PartitionRule("v", split_rows="k1"),
        )
        assert v.cells == ((ref("v_T"),), (ref("v_B"),))
        h = apply_rule(decl(name="C"), PartitionRule("C", split_cols="k2"))
        assert h.cells == ((ref("C_L"), ref("C_R")),)

    def test_shape_follows_splits(self):
        rules = [
            PartitionRule("C"),
            PartitionRule("C", split_cols="k2"),
            PartitionRule("C", split_rows="k1"),
            PartitionRule("C", "k1", "k2"),
        ]
        assert [r.shape for r in rules] == ["1x1", "1x2", "2x1", "2x2"]
        assert [r.is_identity for r in rules] == [True, False, False, False]


class TestSpdFacts:
    def test_both_schur_complements(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A", "k1", "k1"))
        # the inherited facts in grid and property order, then the Schur
        # complements, the principal quadrants being listed already
        assert [(serialize(f.expression), f.property.value) for f in b.facts] == [
            ("A_TL", "spd"),
            ("A_TL", "symmetric"),
            ("A_BR", "spd"),
            ("A_BR", "symmetric"),
            ("(plus (minus (times (trans A_BL) (inv A_BR) A_BL)) A_TL)", "spd"),
            ("(plus (minus (times A_BL (inv A_TL) (trans A_BL))) A_BR)", "spd"),
        ]

    def test_identity_blocking_single_fact(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A"))
        assert spd_texts(b) == ["A"]
        assert b.dims == {"A": Dimension("m", "m")}

    def test_non_spd_parent_has_no_spd_fact(self):
        d = decl({Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A", "k1", "k1"))
        assert spd_texts(b) == []

    def test_zero_blocks_reduce_schur_complements(self):
        # the Schur complements of an spd diagonal parent are its diagonal
        # blocks, which are listed once
        d = decl({Property.SPD, Property.SYMMETRIC, Property.DIAGONAL}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A", "k1", "k1"))
        assert spd_texts(b) == ["A_TL", "A_BR"]
        assert len(set(b.facts)) == len(b.facts) == 6


GOLDEN_PROPS = {
    frozenset(): {
        "A_TL": frozenset(), "A_TR": frozenset(),
        "A_BL": frozenset(), "A_BR": frozenset(),
    },
    frozenset({Property.LOWER_TRIANGULAR}): {
        "A_TL": frozenset({Property.LOWER_TRIANGULAR}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.LOWER_TRIANGULAR}),
    },
    frozenset({Property.UPPER_TRIANGULAR}): {
        "A_TL": frozenset({Property.UPPER_TRIANGULAR}),
        "A_TR": frozenset(),
        "A_BR": frozenset({Property.UPPER_TRIANGULAR}),
    },
    frozenset({Property.DIAGONAL}): {
        "A_TL": frozenset({Property.DIAGONAL}),
        "A_BR": frozenset({Property.DIAGONAL}),
    },
    frozenset({Property.SYMMETRIC}): {
        "A_TL": frozenset({Property.SYMMETRIC}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.SYMMETRIC}),
    },
    frozenset({Property.SPD, Property.SYMMETRIC}): {
        "A_TL": frozenset({Property.SPD, Property.SYMMETRIC}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.SPD, Property.SYMMETRIC}),
    },
}


def test_block_property_golden_tables():
    for props, expected in GOLDEN_PROPS.items():
        d = decl(props, dims=("m", "m"))
        b = apply_rule(d, PartitionRule("A", "k1", "k1"))
        assert inherited(b) == expected
    # facts mirror the tables
    d = decl({Property.LOWER_TRIANGULAR}, dims=("m", "m"), name="L")
    b = apply_rule(d, PartitionRule("L", "k1", "k1"))
    assert (
        sum(1 for f in b.facts if f.property is Property.LOWER_TRIANGULAR) == 2
    )


def _structure_holds(a: np.ndarray, props: frozenset) -> bool:
    if Property.LOWER_TRIANGULAR in props and not np.array_equal(a, np.tril(a)):
        return False
    if Property.UPPER_TRIANGULAR in props and not np.array_equal(a, np.triu(a)):
        return False
    if Property.DIAGONAL in props and not np.array_equal(a, np.diag(np.diag(a))):
        return False
    if Property.SYMMETRIC in props and not np.array_equal(a, a.T):
        return False
    if Property.SPD in props and min_symmetric_eigenvalue(a) <= 0:
        return False
    return True


@pytest.mark.parametrize(
    "props",
    [
        frozenset(),
        frozenset({Property.LOWER_TRIANGULAR}),
        frozenset({Property.UPPER_TRIANGULAR}),
        frozenset({Property.DIAGONAL}),
        frozenset({Property.SYMMETRIC}),
        frozenset({Property.SPD, Property.SYMMETRIC}),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numeric_reassembly(props, seed):
    """Slicing a structured parent honors every structural cell and every
    inherited block property, and reassembling reproduces the parent."""
    rng = np.random.default_rng(seed)
    d = decl(props, dims=("m", "m"))
    b = apply_rule(d, PartitionRule("A", "k1", "k1"))
    m = int(rng.integers(3, 8))
    k = int(rng.integers(1, m))
    sizes = {"m": m, "k1": k}
    full = sample_value(KIND_MATRIX, (m, m), props, rng)
    assert _structure_holds(full, props)
    edges_r = np.cumsum([0] + [eval_size(s, sizes) for s in b.row_sizes])
    edges_c = np.cumsum([0] + [eval_size(s, sizes) for s in b.col_sizes])
    values = {}
    rebuilt = np.zeros_like(full)
    prop_map = inherited(b)
    for i in range(2):
        for j in range(2):
            cell = b.cells[i][j]
            piece = full[edges_r[i]:edges_r[i + 1], edges_c[j]:edges_c[j + 1]]
            if cell == ZERO:
                assert np.array_equal(piece, np.zeros_like(piece))
            elif isinstance(cell, OperandRef):
                values[cell.name] = piece
                assert _structure_holds(piece, prop_map[cell.name])
            else:
                # mirrored quadrant of a symmetric parent
                assert cell == trans(ref("A_BL"))
                assert np.array_equal(
                    piece, full[edges_r[1]:edges_r[2], edges_c[0]:edges_c[1]].T
                )
            rebuilt[edges_r[i]:edges_r[i + 1], edges_c[j]:edges_c[j + 1]] = piece
    assert np.array_equal(rebuilt, full)
    assert _structure_holds(rebuilt, props)
