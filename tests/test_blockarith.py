"""Blocked postcondition grids, conformance, star marking, and each
operand's blocking: inherited block properties and the spd theorem facts."""

from __future__ import annotations

import numpy as np
import pytest

from pmegen.binding import PartitionRule, RuleCombination, enumerate_combinations
from pmegen.cli import render_pme_text
from pmegen.engine import derive_all, seed_builtins
from pmegen.blockarith import (
    STATUS_SOLVED,
    STATUS_STAR,
    STATUS_UNSOLVED,
    apply_rule,
    blocked_operands,
    blocked_postcondition,
    detect_star,
    raw_blocked_equations,
)
from pmegen.expr import (
    ZERO,
    Dimension,
    Equation,
    OperandRef,
    normalize,
    ref,
    serialize,
    trans,
)
from pmegen.opspec import (
    KIND_MATRIX,
    KIND_VECTOR,
    OperandDecl,
    Property,
    ROLE_KNOWN,
    parse_operation,
)
from pmegen.oracle import _sampler, _size

from conftest import check_blocking_faithful, min_symmetric_eigenvalue, random_spec


def combo(rules: dict[str, PartitionRule], index: int = 1) -> RuleCombination:
    return RuleCombination(
        index=index, rules=tuple(rules.items()), group_choices=()
    )


def decl(props=(), kind=KIND_MATRIX, dims=("m", "n"), name="A", role=ROLE_KNOWN):
    return OperandDecl(name, kind, Dimension(*dims), role, frozenset(props))


def inherited(b) -> dict[str, frozenset]:
    """Each named block's directly inherited properties, read off ``b.facts``."""
    out: dict[str, set] = {name: set() for name in b.dims}
    for f in b.facts:
        if isinstance(f.expression, OperandRef):
            out[f.expression.name].add(f.property)
    return {name: frozenset(props) for name, props in out.items()}


def spd_texts(b) -> list[str]:
    return [serialize(f.expression) for f in b.facts if f.property is Property.SPD]


def distribute(spec, rules):
    """Distribute the postcondition over ``rules``, which must be one of
    ``enumerate_combinations(spec)``."""
    return raw_blocked_equations(spec, blocked_operands(spec, rules))


class TestValidateConformance:
    def test_matching_splits_conform(self, cholesky_spec):
        rules = combo(
            {
                "L": PartitionRule("L", "k1", "k1"),
                "A": PartitionRule("A", "k1", "k1"),
            }
        )
        # the one combination binding offers; the arithmetic conforms
        assert rules.rules == enumerate_combinations(cholesky_spec)[0].rules
        assert distribute(cholesky_spec, rules).shape


def grid_by_position(grid):
    return {q.position: q for q in grid.all_cells()}


class TestBlockedPostcondition:
    def test_cholesky_grid(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        grid = blocked_postcondition(cholesky_spec, rules)
        cells = grid_by_position(grid)
        assert serialize(cells["TL"].equation) == (
            "(eq (times L_TL (trans L_TL)) A_TL)"
        )
        assert serialize(cells["BL"].equation) == (
            "(eq (times L_BL (trans L_TL)) A_BL)"
        )
        assert serialize(cells["BR"].equation) == (
            "(eq (plus (times L_BL (trans L_BL)) (times L_BR (trans L_BR))) A_BR)"
        )
        assert cells["TR"].status == STATUS_STAR
        assert cells["TR"].partner == "BL"
        assert grid.row_sizes == ("k1", "m-k1")
        assert grid.scan_positions() == ("TL", "BL", "TR", "BR")

    def test_sylvester_row_split_grid(self, sylvester_spec):
        # L 2x2, U identity, C and X split by rows: hand block product of
        # (2x2)(2x1) + (2x1)(1x1) gives the two stacked equations
        combos = enumerate_combinations(sylvester_spec)
        grid = blocked_postcondition(sylvester_spec, combos[1])
        cells = grid_by_position(grid)
        assert set(cells) == {"T", "B"}
        assert serialize(cells["T"].equation) == (
            "(eq (plus (times L_TL X_T) (times X_T U)) C_T)"
        )
        assert serialize(cells["B"].equation) == (
            "(eq (plus (times L_BL X_T) (times L_BR X_B) (times X_B U)) C_B)"
        )
        assert all(q.status == STATUS_UNSOLVED for q in cells.values())

    def test_sylvester_column_split_grid(self, sylvester_spec):
        # L identity, U 2x2, C and X split by columns: (1x1)(1x2) + (1x2)(2x2)
        combos = enumerate_combinations(sylvester_spec)
        grid = blocked_postcondition(sylvester_spec, combos[0])
        cells = grid_by_position(grid)
        assert set(cells) == {"L", "R"}
        assert serialize(cells["L"].equation) == (
            "(eq (plus (times L X_L) (times X_L U_TL)) C_L)"
        )
        assert serialize(cells["R"].equation) == (
            "(eq (plus (times L X_R) (times X_L U_TR) (times X_R U_BR)) C_R)"
        )

    def test_trivial_zero_cells_marked_solved(self):
        spec = parse_operation(
            "operation diagshift\n"
            "  operand D : matrix(m,m) , known , diagonal\n"
            "  operand A : matrix(m,m) , known , diagonal\n"
            "  operand X : matrix(m,m) , unknown , diagonal\n"
            "  postcondition: X + D = A\n"
            "  solve: Shift\n"
        )
        (rules,) = enumerate_combinations(spec)
        grid = blocked_postcondition(spec, rules)
        cells = grid_by_position(grid)
        assert cells["TR"].status == STATUS_SOLVED
        assert cells["BL"].status == STATUS_SOLVED
        assert cells["TL"].status == STATUS_UNSOLVED
        # canonical form already isolates the unknown block
        assert serialize(cells["TL"].equation) == (
            "(eq X_TL (plus (minus D_TL) A_TL))"
        )


class TestDetectStar:
    def test_cholesky_upper_cell_yields(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        grid = blocked_postcondition(cholesky_spec, rules)
        tr = grid_by_position(grid)["TR"]
        assert tr.status == STATUS_STAR and tr.partner == "BL"
        # marking again changes nothing
        again = detect_star(grid)
        assert again == grid

    def test_no_star_in_stacked_grid(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        grid = blocked_postcondition(sylvester_spec, combos[1])
        assert all(q.status != STATUS_STAR for q in grid.all_cells())

    def test_symmetric_rank_update_star(self):
        spec = parse_operation(
            "operation symsum\n"
            "  operand A : matrix(m,m) , known , symmetric\n"
            "  operand X : matrix(m,m) , unknown\n"
            "  postcondition: X + trans(X) = A\n"
            "  solve: Split\n"
        )
        (rules,) = enumerate_combinations(spec)
        grid = blocked_postcondition(spec, rules)
        cells = grid_by_position(grid)
        assert cells["TR"].status == STATUS_STAR
        assert cells["TR"].partner == "BL"
        assert cells["BL"].status == STATUS_UNSOLVED

    def test_star_keeps_information(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        grid = blocked_postcondition(cholesky_spec, rules)
        cells = grid_by_position(grid)
        tr = cells["TR"]
        bl = cells[tr.partner]
        mirrored = Equation(trans(bl.equation.lhs), trans(bl.equation.rhs))
        assert serialize(mirrored) == serialize(tr.equation)


class TestNumericFaithfulness:
    def test_cholesky_blocking(self, cholesky_spec):
        rng = np.random.default_rng(0)
        (rules,) = enumerate_combinations(cholesky_spec)
        for _ in range(5):
            assert check_blocking_faithful(cholesky_spec, rules, rng) == 4

    def test_sylvester_all_combinations(self, sylvester_spec):
        rng = np.random.default_rng(1)
        for rules in enumerate_combinations(sylvester_spec):
            for _ in range(3):
                check_blocking_faithful(sylvester_spec, rules, rng)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_blockings(self, seed):
        rng = np.random.default_rng(1000 + seed)
        spec = random_spec(rng)
        try:
            combos = enumerate_combinations(spec)
        except Exception:
            pytest.skip("nothing partitionable")
        for rules in combos:
            check_blocking_faithful(spec, rules, rng)


class TestInverse:
    """An inverted operand is kept whole, and its blocked form is its inverse."""

    SPEC = (
        "operation invmul\n"
        "  operand A : matrix(m,m) , known\n"
        "  operand B : matrix(m,n) , known\n"
        "  operand X : matrix(m,n) , unknown\n"
        "  postcondition: X = inv(A) * B\n"
        "  solve: Invmul\n"
    )

    def test_raw_grid_and_pme(self):
        spec = parse_operation(self.SPEC)
        (rules,) = enumerate_combinations(spec)
        assert dict(rules.rules) == {
            "A": PartitionRule("A"),
            "B": PartitionRule("B", split_cols="k2"),
            "X": PartitionRule("X", split_cols="k2"),
        }
        grid = distribute(spec, rules)
        assert [serialize(q.equation) for q in grid.all_cells()] == [
            "(eq X_L (times (inv A) B_L))",
            "(eq X_R (times (inv A) B_R))",
        ]
        for seed in range(3):
            assert check_blocking_faithful(spec, rules, np.random.default_rng(seed)) == 2
        (pme,) = derive_all(spec, seed_builtins())
        assert render_pme_text(pme) == [
            "PME (combination 1):",
            "  [ X_L = Invmul(A, B_L) | X_R = Invmul(A, B_R) ]",
        ]


# ---------------------------------------------------------------------------
# the corpus: every grid that deriving conftest's corpus_run builds


def test_grid_sides_are_normal(corpus_run):
    """Canonicalization and star detection skip normalize on these trees."""
    raw, blocked = corpus_run["grids"], [s.grid for s in corpus_run["states"]]
    assert len(raw) == len(blocked) > 2000
    for grid in raw + blocked:
        for q in grid.all_cells():
            for side in (q.equation.lhs, q.equation.rhs):
                assert normalize(side) == side, serialize(q.equation)


def with_cell(grid, q):
    """``grid`` with the cell at ``q.position`` replaced by ``q``."""
    rows = tuple(tuple(q if c.position == q.position else c for c in row) for row in grid.cells)
    return grid._replace(cells=rows)


def reference_star(grid):
    """All-pairs star marking: transpose every partner, compare serializations."""
    nr, nc = grid.shape
    flat = [(i, j, grid.cells[i][j]) for i in range(nr) for j in range(nc)]
    out = grid
    starred: set[str] = set()
    for ai, (i, j, a) in enumerate(flat):
        if a.status != STATUS_UNSOLVED or a.position in starred:
            continue
        for bi_i, bi_j, b in flat[ai + 1 :]:
            if b.status != STATUS_UNSOLVED or b.position in starred:
                continue
            eq = normalize(b.equation)
            mirrored = Equation(trans(eq.lhs), trans(eq.rhs))
            if serialize(mirrored) != serialize(
                normalize(a.equation)
            ):
                continue
            star, keep = (a, b) if j > i and not bi_j > bi_i else (b, a)
            out = with_cell(out, star._replace(status=STATUS_STAR, partner=keep.position))
            starred.add(star.position)
            break
    return out


def test_detect_star_matches_all_pairs_reference(corpus_run):
    stars = 0
    for grid in (state.grid for state in corpus_run["states"]):
        unmarked = grid
        for q in grid.all_cells():
            if q.status == STATUS_STAR:
                stars += 1
                unmarked = with_cell(unmarked, q._replace(status=STATUS_UNSOLVED, partner=None))
        assert detect_star(unmarked) == reference_star(unmarked) == grid, str(grid)
    assert stars > 0


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
    full = _sampler(KIND_MATRIX, props)((m, m), rng)
    assert _structure_holds(full, props)
    edges_r = np.cumsum([0] + [_size(s)(sizes) for s in b.row_sizes])
    edges_c = np.cumsum([0] + [_size(s)(sizes) for s in b.col_sizes])
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
