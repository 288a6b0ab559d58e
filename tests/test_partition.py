"""Blocking rules, inherited block properties, and the spd theorem facts."""

from __future__ import annotations

import numpy as np
import pytest

from pmegen.expr import Dimension, OperandRef, ZERO, ref, serialize, trans
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_SCALAR,
    KIND_VECTOR,
    OperandDecl,
    Property,
    ROLE_KNOWN,
)
from pmegen.oracle import eval_size, sample_value
from pmegen.partition import (
    InadmissibleRuleError,
    PartitionRule,
    PartitionShape,
    admissible_rules,
    apply_rule,
    inheritance_facts,
    spd_facts,
)

from conftest import min_symmetric_eigenvalue


def decl(props=(), kind=KIND_MATRIX, dims=("m", "n"), name="A", role=ROLE_KNOWN):
    return OperandDecl(name, kind, Dimension(*dims), role, frozenset(props))


R = PartitionShape


class TestAdmissibleRules:
    def test_general_matrix_all_four(self):
        assert admissible_rules(decl()) == (R.R1x1, R.R1x2, R.R2x1, R.R2x2)

    def test_spd_identity_or_square_2x2(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        assert admissible_rules(d) == (R.R1x1, R.R2x2)

    def test_triangular_and_diagonal(self):
        for p in (Property.LOWER_TRIANGULAR, Property.UPPER_TRIANGULAR, Property.DIAGONAL):
            assert admissible_rules(decl({p}, dims=("n", "n"))) == (R.R1x1, R.R2x2)

    def test_scalar_identity_only(self):
        assert admissible_rules(decl(kind=KIND_SCALAR, dims=("1", "1"))) == (R.R1x1,)

    def test_vector_identity_or_rows(self):
        assert admissible_rules(decl(kind=KIND_VECTOR, dims=("m", "1"))) == (
            R.R1x1,
            R.R2x1,
        )


class TestApplyRule:
    def test_spd_2x2_mirrors_lower_block(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule(R.R2x2, "A", "k1", "k1"))
        assert b.cells == (
            (ref("A_TL"), trans(ref("A_BL"))),
            (ref("A_BL"), ref("A_BR")),
        )
        props = dict(b.props)
        assert props["A_TL"] == frozenset({Property.SPD, Property.SYMMETRIC})
        assert props["A_BR"] == frozenset({Property.SPD, Property.SYMMETRIC})
        assert props["A_BL"] == frozenset()
        assert b.row_sizes == ("k1", "m-k1")

    def test_lower_triangular_2x2(self):
        d = decl({Property.LOWER_TRIANGULAR}, dims=("m", "m"), name="L")
        b = apply_rule(d, PartitionRule(R.R2x2, "L", "k1", "k1"))
        assert b.cells == ((ref("L_TL"), ZERO), (ref("L_BL"), ref("L_BR")))
        props = dict(b.props)
        assert props["L_TL"] == frozenset({Property.LOWER_TRIANGULAR})
        assert props["L_BR"] == frozenset({Property.LOWER_TRIANGULAR})

    def test_diagonal_2x2(self):
        d = decl({Property.DIAGONAL}, dims=("m", "m"), name="D")
        b = apply_rule(d, PartitionRule(R.R2x2, "D", "k1", "k1"))
        assert b.cells == ((ref("D_TL"), ZERO), (ZERO, ref("D_BR")))

    def test_identity_unchanged(self):
        b = apply_rule(decl(name="C"), PartitionRule(R.R1x1, "C"))
        assert b.cells == ((ref("C"),),)
        assert b.row_sizes == ("m",) and b.col_sizes == ("n",)

    def test_general_2x2_and_vectors(self):
        b = apply_rule(decl(name="C"), PartitionRule(R.R2x2, "C", "k1", "k2"))
        assert [c.name for row in b.cells for c in row] == [
            "C_TL", "C_TR", "C_BL", "C_BR",
        ]
        v = apply_rule(
            decl(kind=KIND_VECTOR, dims=("m", "1"), name="v"),
            PartitionRule(R.R2x1, "v", split_rows="k1"),
        )
        assert v.cells == ((ref("v_T"),), (ref("v_B"),))
        h = apply_rule(decl(name="C"), PartitionRule(R.R1x2, "C", split_cols="k2"))
        assert h.cells == ((ref("C_L"), ref("C_R")),)

    def test_inadmissible_rules_rejected(self):
        spd = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        with pytest.raises(InadmissibleRuleError):
            apply_rule(spd, PartitionRule(R.R1x2, "A", split_cols="k1"))
        with pytest.raises(InadmissibleRuleError):
            apply_rule(spd, PartitionRule(R.R2x2, "A", "k1", "k2"))
        with pytest.raises(InadmissibleRuleError):
            apply_rule(
                decl(kind=KIND_SCALAR, dims=("1", "1")),
                PartitionRule(R.R2x1, "A", split_rows="k1"),
            )

    def test_rule_split_validation(self):
        with pytest.raises(InadmissibleRuleError):
            PartitionRule(R.R2x2, "A", "k1", None)
        with pytest.raises(InadmissibleRuleError):
            PartitionRule(R.R1x1, "A", split_rows="k1")


class TestSpdFacts:
    def test_both_schur_complements(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule(R.R2x2, "A", "k1", "k1"))
        facts = spd_facts(b)
        texts = {serialize(f.expression) for f in facts}
        assert texts == {
            "A_TL",
            "A_BR",
            "(plus (minus (times (trans A_BL) (inv A_BR) A_BL)) A_TL)",
            "(plus (minus (times A_BL (inv A_TL) (trans A_BL))) A_BR)",
        }
        assert all(f.property is Property.SPD for f in facts)

    def test_identity_blocking_single_fact(self):
        d = decl({Property.SPD, Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule(R.R1x1, "A"))
        (fact,) = spd_facts(b)
        assert fact.expression == ref("A") and fact.property is Property.SPD

    def test_non_spd_parent_rejected(self):
        d = decl({Property.SYMMETRIC}, dims=("m", "m"))
        b = apply_rule(d, PartitionRule(R.R2x2, "A", "k1", "k1"))
        with pytest.raises(ValueError, match="not spd"):
            spd_facts(b)


GOLDEN_PROPS = {
    (frozenset(), R.R2x2): {
        "A_TL": frozenset(), "A_TR": frozenset(),
        "A_BL": frozenset(), "A_BR": frozenset(),
    },
    (frozenset({Property.LOWER_TRIANGULAR}), R.R2x2): {
        "A_TL": frozenset({Property.LOWER_TRIANGULAR}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.LOWER_TRIANGULAR}),
    },
    (frozenset({Property.UPPER_TRIANGULAR}), R.R2x2): {
        "A_TL": frozenset({Property.UPPER_TRIANGULAR}),
        "A_TR": frozenset(),
        "A_BR": frozenset({Property.UPPER_TRIANGULAR}),
    },
    (frozenset({Property.DIAGONAL}), R.R2x2): {
        "A_TL": frozenset({Property.DIAGONAL}),
        "A_BR": frozenset({Property.DIAGONAL}),
    },
    (frozenset({Property.SYMMETRIC}), R.R2x2): {
        "A_TL": frozenset({Property.SYMMETRIC}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.SYMMETRIC}),
    },
    (frozenset({Property.SPD, Property.SYMMETRIC}), R.R2x2): {
        "A_TL": frozenset({Property.SPD, Property.SYMMETRIC}),
        "A_BL": frozenset(),
        "A_BR": frozenset({Property.SPD, Property.SYMMETRIC}),
    },
}


def test_block_property_golden_tables():
    for (props, shape), expected in GOLDEN_PROPS.items():
        d = decl(props, dims=("m", "m"))
        b = apply_rule(d, PartitionRule(shape, "A", "k1", "k1"))
        assert dict(b.props) == expected
    # facts mirror the tables
    d = decl({Property.LOWER_TRIANGULAR}, dims=("m", "m"), name="L")
    b = apply_rule(d, PartitionRule(R.R2x2, "L", "k1", "k1"))
    facts = inheritance_facts(b)
    assert (
        sum(1 for f in facts if f.property is Property.LOWER_TRIANGULAR) == 2
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
    b = apply_rule(d, PartitionRule(R.R2x2, "A", "k1", "k1"))
    m = int(rng.integers(3, 8))
    k = int(rng.integers(1, m))
    sizes = {"m": m, "k1": k}
    full = sample_value(KIND_MATRIX, (m, m), props, rng)
    assert _structure_holds(full, props)
    edges_r = np.cumsum([0] + [eval_size(s, sizes) for s in b.row_sizes])
    edges_c = np.cumsum([0] + [eval_size(s, sizes) for s in b.col_sizes])
    values = {}
    rebuilt = np.zeros_like(full)
    prop_map = dict(b.props)
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
