"""Blocked postcondition grids, conformance, and star marking."""

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
    blocked_operands,
    blocked_postcondition,
    detect_star,
    raw_blocked_equations,
)
from pmegen.expr import (
    Equation,
    normalize,
    normalize_equation,
    serialize_equation,
    trans,
    transpose_equation,
)
from pmegen.opspec import parse_operation

from conftest import check_blocking_faithful, random_spec


def combo(rules: dict[str, PartitionRule], index: int = 1) -> RuleCombination:
    return RuleCombination(
        index=index, rules=tuple(rules.items()), group_choices=()
    )


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
        assert serialize_equation(cells["TL"].equation) == (
            "(eq (times L_TL (trans L_TL)) A_TL)"
        )
        assert serialize_equation(cells["BL"].equation) == (
            "(eq (times L_BL (trans L_TL)) A_BL)"
        )
        assert serialize_equation(cells["BR"].equation) == (
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
        assert serialize_equation(cells["T"].equation) == (
            "(eq (plus (times L_TL X_T) (times X_T U)) C_T)"
        )
        assert serialize_equation(cells["B"].equation) == (
            "(eq (plus (times L_BL X_T) (times L_BR X_B) (times X_B U)) C_B)"
        )
        assert all(q.status == STATUS_UNSOLVED for q in cells.values())

    def test_sylvester_column_split_grid(self, sylvester_spec):
        # L identity, U 2x2, C and X split by columns: (1x1)(1x2) + (1x2)(2x2)
        combos = enumerate_combinations(sylvester_spec)
        grid = blocked_postcondition(sylvester_spec, combos[0])
        cells = grid_by_position(grid)
        assert set(cells) == {"L", "R"}
        assert serialize_equation(cells["L"].equation) == (
            "(eq (plus (times L X_L) (times X_L U_TL)) C_L)"
        )
        assert serialize_equation(cells["R"].equation) == (
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
        assert serialize_equation(cells["TL"].equation) == (
            "(eq X_TL (plus (minus D_TL) A_TL))"
        )


class TestDetectStar:
    def test_cholesky_upper_cell_yields(self, cholesky_spec):
        (rules,) = enumerate_combinations(cholesky_spec)
        grid = blocked_postcondition(cholesky_spec, rules)
        tr = grid.cell("TR")
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
        tr = grid.cell("TR")
        bl = grid.cell(tr.partner)
        mirrored = transpose_equation(bl.equation)
        assert serialize_equation(mirrored) == serialize_equation(tr.equation)


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
        assert [serialize_equation(q.equation) for q in grid.all_cells()] == [
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
                assert normalize(side) == side, serialize_equation(q.equation)


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
            eq = normalize_equation(b.equation)
            mirrored = Equation(trans(eq.lhs), trans(eq.rhs))
            if serialize_equation(mirrored) != serialize_equation(
                normalize_equation(a.equation)
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
