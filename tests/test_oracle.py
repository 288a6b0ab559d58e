"""LAPACK kernels and their first-principles references, expression
evaluation, and PME checking."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from pmegen.binding import enumerate_combinations
from pmegen.engine import PME, derive_all, derive_each, derive_pme, seed_builtins
from pmegen import oracle
from pmegen.expr import (
    Equation,
    Inverse,
    ref,
    solved_by,
    times,
    trans,
    walk,
)
from pmegen.opspec import KIND_MATRIX, KIND_SCALAR, Property, equation_to_text
from pmegen.oracle import (
    OracleError,
    SingularMatrixError,
    UnboundOperandError,
    check_pme,
    _sampler,
    _size,
    cholesky,
    evaluate,
    inverse,
    relative_residual,
    sylvester,
    trsm,
)

from conftest import (
    cholesky_lower,
    gauss_jordan_inverse,
    gauss_solve,
    kron_sylvester_solution,
    load_op,
    min_symmetric_eigenvalue,
    random_spec,
    solve_transposed_lower_right,
    solve_triangular_sylvester,
)


class TestBaseSolvers:
    """The first-principles references, and the guards they share with the
    kernels."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_cholesky_reconstructs(self, n):
        rng = np.random.default_rng(n)
        base = rng.uniform(-1.0, 1.0, (n, n))
        a = base.T @ base + n * np.eye(n)
        l = cholesky_lower(a)
        assert np.array_equal(l, np.tril(l))
        assert np.all(np.diag(l) > 0)
        assert relative_residual(l @ l.T, a) <= 1e-12

    def test_cholesky_rejects_indefinite(self):
        for factor in (cholesky, cholesky_lower):
            with pytest.raises(OracleError, match="positive definite"):
                factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_sylvester_agrees_with_kronecker_system(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        l = np.tril(rng.uniform(-1, 1, (m, m)))
        np.fill_diagonal(l, rng.uniform(1, 2, m))
        u = np.triu(rng.uniform(-1, 1, (n, n)))
        np.fill_diagonal(u, rng.uniform(1, 2, n))
        c = rng.uniform(-1, 1, (m, n))
        x = solve_triangular_sylvester(l, u, c)
        assert relative_residual(l @ x + x @ u, c) <= 1e-12
        x_kron = kron_sylvester_solution(l, u, c)
        assert np.linalg.norm(x - x_kron) <= 1e-9 * max(np.linalg.norm(x_kron), 1)

    def test_transposed_triangular_solve(self):
        rng = np.random.default_rng(3)
        l = np.tril(rng.uniform(-1, 1, (4, 4)))
        np.fill_diagonal(l, 1.5)
        b = rng.uniform(-1, 1, (6, 4))
        x = solve_transposed_lower_right(l, b)
        assert relative_residual(x @ l.T, b) <= 1e-12

    def test_gauss_jordan_inverse(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (5, 5)) + 7 * np.eye(5)
        inv_a = gauss_jordan_inverse(a)
        assert relative_residual(a @ inv_a, np.eye(5)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_gauss_jordan_matches_row_loop(self, seed):
        # the row-by-row elimination the rank-1 update replaced; both form
        # the same products and differences, so results agree exactly
        def row_loop_inverse(a):
            n = a.shape[0]
            work = np.hstack([a.copy(), np.eye(n)])
            for col in range(n):
                pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
                if pivot_row != col:
                    work[[col, pivot_row]] = work[[pivot_row, col]]
                work[col] /= work[col, col]
                for row in range(n):
                    if row != col and work[row, col] != 0.0:
                        work[row] -= work[row, col] * work[col]
            return work[:, n:]

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        # structured zeros exercise the rows the loop skipped
        for b in (a, np.tril(a), np.triu(a), np.diag(np.diag(a))):
            assert np.array_equal(gauss_jordan_inverse(b), row_loop_inverse(b))

    def test_singular_matrix_raises(self):
        for invert in (inverse, gauss_jordan_inverse):
            with pytest.raises(SingularMatrixError):
                invert(np.zeros((3, 3)))

    def test_condition_limit_raises(self):
        for invert in (inverse, gauss_jordan_inverse):
            with pytest.raises(SingularMatrixError, match="condition"):
                invert(np.diag([2e6, 1e-6]))

    def test_vanishing_diagonal_sum_raises(self):
        l = np.array([[1.0, 0.0], [0.5, 2.0]])
        u = np.array([[3.0, 0.5], [0.0, -2.0]])
        message = r"diagonal sum vanished at entry \(1, 1\)"
        for solve in (sylvester, solve_triangular_sylvester):
            with pytest.raises(SingularMatrixError, match=message):
                solve(l, u, np.ones((2, 2)))

    def test_zero_triangular_diagonal_raises(self):
        l = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 1.0]])
        for solve in (trsm, solve_transposed_lower_right):
            with pytest.raises(SingularMatrixError, match="zero diagonal at column 1"):
                solve(l, np.ones((2, 3)))

    def test_gauss_solve(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
        b = rng.uniform(-1, 1, (6, 2))
        x = gauss_solve(a, b)
        assert relative_residual(a @ x, b) <= 1e-12


def _triangular(rng: np.random.Generator, n: int, lower: bool) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (n, n))
    a = np.tril(a) if lower else np.triu(a)
    np.fill_diagonal(a, rng.uniform(1.0, 2.0, n))
    return a


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want))


class TestKernels:
    """Each LAPACK kernel against its first-principles reference and
    against ``scipy.linalg``, on structured inputs of sizes 1-8."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse(self, n):
        rng = np.random.default_rng(n)
        general = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        spd = general.T @ general + n * np.eye(n)
        for a in (general, _triangular(rng, n, True), _triangular(rng, n, False), spd):
            got = inverse(a)
            assert _close(got, gauss_jordan_inverse(a))
            assert _close(got, scipy.linalg.inv(a))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cholesky(self, n):
        rng = np.random.default_rng(n)
        base = rng.uniform(-1.0, 1.0, (n, n))
        a = base.T @ base + n * np.eye(n)
        got = cholesky(a)
        assert _close(got, cholesky_lower(a))
        assert _close(got, scipy.linalg.cholesky(a, lower=True))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sylvester(self, n):
        rng = np.random.default_rng(n)
        m = int(rng.integers(1, 9))
        l, u = _triangular(rng, m, True), _triangular(rng, n, False)
        c = rng.uniform(-1.0, 1.0, (m, n))
        got = sylvester(l, u, c)
        assert _close(got, solve_triangular_sylvester(l, u, c))
        assert _close(got, scipy.linalg.solve_sylvester(l, u, c))

    def test_sylvester_rejects_nonconforming_blocks(self):
        l, u = np.eye(2), np.eye(1)
        with pytest.raises(OracleError, match="do not conform to the 2x3 right side"):
            sylvester(l, u, np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trsm(self, n):
        rng = np.random.default_rng(n)
        m = int(rng.integers(1, 9))
        l = _triangular(rng, n, True)
        b = rng.uniform(-1.0, 1.0, (m, n))
        got = trsm(l, b)
        assert _close(got, solve_transposed_lower_right(l, b))
        assert _close(got, scipy.linalg.solve_triangular(l, b.T, lower=True).T)


class TestSampling:
    def test_structures_exact(self):
        rng = np.random.default_rng(0)
        lo = _sampler(KIND_MATRIX, {Property.LOWER_TRIANGULAR})((5, 5), rng)
        assert np.array_equal(lo, np.tril(lo)) and np.all(np.abs(np.diag(lo)) >= 1)
        sym = _sampler(KIND_MATRIX, {Property.SYMMETRIC})((5, 5), rng)
        assert np.array_equal(sym, sym.T)
        spd = _sampler(KIND_MATRIX, {Property.SPD, Property.SYMMETRIC})((5, 5), rng)
        assert min_symmetric_eigenvalue(spd) > 0
        diag = _sampler(KIND_MATRIX, {Property.DIAGONAL})((4, 4), rng)
        assert np.array_equal(diag, np.diag(np.diag(diag)))

    # structure: (kind, properties, the (m, n) shapes it takes); specs give
    # structured operands square shapes, the samplers take these too
    STRUCTURES = {
        "general": (KIND_MATRIX, set(), lambda m, n: True),
        "lower": (KIND_MATRIX, {Property.LOWER_TRIANGULAR}, lambda m, n: m <= n),
        "upper": (KIND_MATRIX, {Property.UPPER_TRIANGULAR}, lambda m, n: m <= n),
        "symmetric": (KIND_MATRIX, {Property.SYMMETRIC}, lambda m, n: m == n),
        "spd": (KIND_MATRIX, {Property.SPD, Property.SYMMETRIC}, lambda m, n: True),
        "diagonal": (KIND_MATRIX, {Property.DIAGONAL}, lambda m, n: True),
        "scalar": (KIND_SCALAR, set(), lambda m, n: m == n == 1),
    }

    @staticmethod
    def reference_sample(structure, m, n, rng):
        """Each structure's draw by its plain formula, without the in-place
        steps of the samplers."""
        if structure == "scalar":
            return rng.uniform(1.0, 2.0, size=(1, 1))
        if structure == "spd":
            base = rng.uniform(-1.0, 1.0, size=(m, m))
            return base.T @ base + m * np.eye(m)
        if structure == "diagonal":
            return np.diag(rng.uniform(1.0, 2.0, size=m))
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        if structure in ("lower", "upper"):
            a = np.tril(a) if structure == "lower" else np.triu(a)
            a[np.diag_indices(m)] = rng.uniform(1.0, 2.0, size=m)
        elif structure == "symmetric":
            a = (a + a.T) / 2.0
        return a

    @pytest.mark.parametrize("structure", list(STRUCTURES))
    def test_samples_bit_identical(self, structure):
        kind, props, takes = self.STRUCTURES[structure]
        shapes = [(m, n) for m in range(1, 9) for n in range(1, 9) if takes(m, n)]
        for seed in range(4):
            for m, n in shapes:
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _sampler(kind, props)((m, n), rng)
                want = self.reference_sample(structure, m, n, ref_rng)
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_relative_residual_exact(seed):
    rng = np.random.default_rng(seed)
    for m, n in [(1, 1), (1, 6), (3, 5), (7, 2), (8, 8)]:
        lhs, rhs = rng.uniform(-1.0, 1.0, (2, m, n))
        full = rng.uniform(-1.0, 1.0, (m + 2, n + 3))
        # fresh, transposed, Fortran-ordered and sliced operands, and a zero
        # right side
        pairs = [
            (lhs, rhs),
            (lhs, np.zeros((m, n))),
            (np.zeros((m, n)), np.zeros((m, n))),
            (lhs.T, rhs.T),
            (np.asfortranarray(lhs), rhs),
            (lhs, full[1 : m + 1, 2 : n + 2]),
            (full[2:, 3:], rhs),
        ]
        for l, r in pairs:
            want = np.linalg.norm(l - r) / max(np.linalg.norm(r), 1e-30)
            assert relative_residual(l, r) == want


# size expression, symbol values, and the value or the error it evaluates to
SIZE_CASES = [
    ("m", {"m": 5}, 5),
    ("m", {"m": np.int64(5)}, 5),
    ("1", {}, 1),
    ("m-k1", {"m": 5, "k1": 2}, 3),
    ("m-1", {"m": 5}, 4),
    ("a-b-c", {"a": 5, "b": 4, "c": 2}, 3),
    ("q", {"m": 5}, (UnboundOperandError, "size symbol q is unbound")),
    ("", {}, (UnboundOperandError, "size symbol  is unbound")),
    ("m-", {"m": 5}, (UnboundOperandError, "size symbol  is unbound")),
    ("m", {"m": 0}, (OracleError, "size m evaluated to 0")),
    ("m-k1", {"m": 2, "k1": 2}, (OracleError, "size m-k1 evaluated to 0")),
    ("k1-m", {"m": 7, "k1": 1}, (OracleError, "size k1-m evaluated to -6")),
    # terms are checked left to right, then differences right to left
    ("m-q", {"m": -1}, (OracleError, "size m evaluated to -1")),
    ("q-r", {}, (UnboundOperandError, "size symbol q is unbound")),
    ("a-b-c", {"a": 5, "b": 2, "c": 2}, (OracleError, "size b-c evaluated to 0")),
    ("a-b-c", {"a": 1, "b": 4, "c": 2}, (OracleError, "size a-b-c evaluated to -1")),
    ("a-b-c", {"a": 5, "b": -4}, (OracleError, "size b evaluated to -4")),
]


@pytest.mark.parametrize("size,sizes,expected", SIZE_CASES)
def test_eval_size(size, sizes, expected):
    if isinstance(expected, int):
        value = _size(size)(sizes)
        assert value == expected and type(value) is int
    else:
        error, message = expected
        with pytest.raises(error) as exc:
            _size(size)(sizes)
        assert type(exc.value) is error and str(exc.value) == message


class TestEvaluate:
    def test_scalar_factor_solver(self):
        out = evaluate(solved_by("Gamma", [ref("a")]), {"a": np.array([[4.0]])})
        assert out.shape == (1, 1) and abs(out[0, 0] - 2.0) <= 1e-15

    def test_factor_round_trip(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(-1, 1, (5, 5))
        a = base.T @ base + 5 * np.eye(5)
        l = evaluate(solved_by("Gamma", [ref("A")]), {"A": a})
        rebuilt = evaluate(times(ref("L"), trans(ref("L"))), {"L": l})
        assert relative_residual(rebuilt, a) <= 1e-12

    def test_sylvester_operator_residual(self):
        rng = np.random.default_rng(2)
        l = np.tril(rng.uniform(-1, 1, (4, 4)))
        np.fill_diagonal(l, rng.uniform(1, 2, 4))
        u = np.triu(rng.uniform(-1, 1, (3, 3)))
        np.fill_diagonal(u, rng.uniform(1, 2, 3))
        c = rng.uniform(-1, 1, (4, 3))
        values = {"L": l, "U": u, "C": c}
        x = evaluate(solved_by("Omega", [ref("L"), ref("U"), ref("C")]), values)
        assert relative_residual(l @ x + x @ u, c) <= 1e-10

    def test_unbound_operand(self):
        with pytest.raises(UnboundOperandError):
            evaluate(ref("missing"), {})

    def test_bare_zero_needs_shape(self):
        from pmegen.expr import ZERO

        with pytest.raises(OracleError, match="zero"):
            evaluate(ZERO, {})
        out = evaluate(ZERO, {}, shape=(2, 3))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_unknown_operator(self):
        with pytest.raises(OracleError, match="base solver"):
            evaluate(solved_by("Mystery", [ref("a")]), {"a": np.eye(2)})


class TestCheckPme:
    def test_cholesky_tight_tolerance(self, cholesky_spec):
        (pme,) = derive_all(cholesky_spec, seed_builtins())
        report = check_pme(pme, cholesky_spec, trials=20, tolerance=1e-10, seed=0)
        assert report.ok and report.max_residual <= 1e-10

    def test_split_extremes_always_tried(self, sylvester_spec):
        combos = enumerate_combinations(sylvester_spec)
        pme = derive_pme(sylvester_spec, combos[1], seed_builtins())
        report = check_pme(pme, sylvester_spec, trials=5, seed=0)
        assert report.ok
        sizes0 = dict(report.trials[0].sizes)
        sizes1 = dict(report.trials[1].sizes)
        assert sizes0["k1"] == 1
        assert sizes1["k1"] == sizes1["m"] - 1

    def test_corrupted_pme_caught(self, cholesky_spec):
        (pme,) = derive_all(cholesky_spec, seed_builtins())
        # drop the subtraction of the solved block's contribution
        broken_cell = {q.position: q for q in pme.all_cells()}["BR"]
        bad_eq = Equation(
            broken_cell.equation.lhs, solved_by("Gamma", [ref("A_BR")])
        )
        cells = tuple(
            tuple(
                q if q.position != "BR" else
                type(q)(q.position, bad_eq, q.status, q.partner)
                for q in row
            )
            for row in pme.cells
        )
        bad = PME(
            operation=pme.operation,
            combination=pme.combination,
            row_sizes=pme.row_sizes,
            col_sizes=pme.col_sizes,
            cells=cells,
            order=pme.order,
        )
        report = check_pme(bad, cholesky_spec, trials=3, seed=0)
        assert not report.ok
        first_bad = next(t for t in report.trials if not t.ok)
        assert f"seed={first_bad.seed}" in report.render()

    def test_trsm_pmes_pass(self, trsm_spec):
        for pme in derive_all(trsm_spec, seed_builtins()):
            report = check_pme(pme, trsm_spec, trials=10, tolerance=1e-10, seed=0)
            assert report.ok, report.render()

    def test_repeated_inverse_evaluated_once_per_trial(self, monkeypatch):
        # fuzz seed 29, combination 7 applies inv(B_TL) and inv(B_BR) twice each
        spec = random_spec(np.random.default_rng(29))
        (pme,) = [r for r in derive_each(spec, seed_builtins(), combination=7) if r is not None]
        nodes = [n for q in pme.all_cells() for n in walk(q.equation.rhs)]
        inverses = [n for n in nodes if isinstance(n, Inverse)]
        assert len(inverses) == 4 and len(set(inverses)) == 2
        calls = []

        def counted(a):
            calls.append(a.shape)
            return inverse(a)

        monkeypatch.setattr(oracle, "inverse", counted)
        report = check_pme(pme, spec, trials=3, seed=0)
        assert report.ok and len(calls) == 2 * 3

    def test_plan_built_once_per_call(self, monkeypatch, sylvester_spec):
        pme = derive_all(sylvester_spec, seed_builtins())[1]
        counts = Counter()
        for name in ("_sampler", "_size"):
            built = getattr(oracle, name)

            def counted(*args, name=name, built=built):
                counts[name] += 1
                return built(*args)

            monkeypatch.setattr(oracle, name, counted)
        counted_by_trials = {}
        for trials in (1, 20):
            counts.clear()
            check_pme(pme, sylvester_spec, trials=trials, seed=0)
            counted_by_trials[trials] = dict(counts)
        assert counted_by_trials[1] == counted_by_trials[20]
        assert counted_by_trials[1]["_sampler"] == len(sylvester_spec.inputs())
        assert counted_by_trials[1]["_size"] > 0

    @pytest.mark.parametrize(
        "rows,error,message",
        [
            (("k1", "q"), UnboundOperandError, "size symbol q is unbound"),
            (("k1", "k1-m"), OracleError, "size k1-m evaluated to -6"),
        ],
    )
    def test_bad_cell_size_raises_in_first_trial(self, cholesky_spec, rows, error, message):
        (pme,) = derive_all(cholesky_spec, seed_builtins())
        bad = pme._replace(row_sizes=rows)
        with pytest.raises(error) as exc:
            check_pme(bad, cholesky_spec, trials=2, seed=0)
        assert str(exc.value) == message
        # sizes are evaluated by the trials, so no trial, no error
        assert check_pme(bad, cholesky_spec, trials=0).trials == ()

    def test_report_renders_deterministically(self, cholesky_spec):
        (pme,) = derive_all(cholesky_spec, seed_builtins())
        r1 = check_pme(pme, cholesky_spec, trials=4, seed=7).render()
        r2 = check_pme(pme, cholesky_spec, trials=4, seed=7).render()
        assert r1 == r2


# Residual bits and reports of ``check_pme(..., trials=6, seed=0)``.  Any
# change to the sampling order, the block edges or the solvers' arithmetic
# shows up here.  Integer keys are fuzz seeds of ``random_spec``; ``inv``
# appears in cholesky and both.  Each of these entries runs a solver or an
# inverse, and their residuals were re-recorded once when those moved to
# LAPACK kernels (seeds, sizes and verdicts stayed the same).  The two
# entries with an spd input (cholesky and seed 13) were re-recorded again
# when the sampler stopped drawing a general matrix it then discarded.
# Fuzz seed 9, combination 7 runs no solver and no inverse (sums, products
# and transposes only), so its bits pin the evaluation order itself: they
# were recorded before the trial loop was compiled, and still hold.
PINNED_CHECKS = {
    ('cholesky', 1): (
        [
            '0x1.53d7803f598ccp-55',
            '0x1.66cdd43688177p-53',
            '0x1.552ab49ad7783p-53',
            '0x1.9832b5eb03a24p-53',
            '0x1.70e4deaaa5b48p-53',
            '0x1.c0bf3a15bb93dp-54',
        ],
        "\n".join([
            'check cholesky combination 1: trials=6 tol=1.0e-08',
            '  trial seed=0 k1=1 m=7 residual=3.685e-17 ok',
            '  trial seed=1 k1=4 m=5 residual=1.556e-16 ok',
            '  trial seed=2 k1=2 m=7 residual=1.480e-16 ok',
            '  trial seed=3 k1=1 m=7 residual=1.770e-16 ok',
            '  trial seed=4 k1=6 m=7 residual=1.600e-16 ok',
            '  trial seed=5 k1=5 m=6 residual=9.731e-17 ok',
            '  max residual 1.770e-16',
            'PASS',
        ]),
    ),
    ('sylvester', 1): (
        [
            '0x1.28c91af2d18e9p-53',
            '0x1.7a2ed70265d61p-54',
            '0x1.e3480f067f7ddp-54',
            '0x1.4c71ee1a400acp-53',
            '0x1.1c9b97252dad9p-53',
            '0x1.a37f4dde1a780p-53',
        ],
        "\n".join([
            'check sylvester combination 1: trials=6 tol=1.0e-08',
            '  trial seed=0 k2=1 m=7 n=6 residual=1.287e-16 ok',
            '  trial seed=1 k2=4 m=5 n=5 residual=8.201e-17 ok',
            '  trial seed=2 k2=1 m=7 n=3 residual=1.048e-16 ok',
            '  trial seed=3 k2=1 m=7 n=2 residual=1.442e-16 ok',
            '  trial seed=4 k2=7 m=7 n=8 residual=1.234e-16 ok',
            '  trial seed=5 k2=1 m=6 n=7 residual=1.819e-16 ok',
            '  max residual 1.819e-16',
            'PASS',
        ]),
    ),
    ('sylvester', 2): (
        [
            '0x1.3253a06d4c3e5p-53',
            '0x1.544b5bd46fa99p-54',
            '0x1.2644aff163fdap-53',
            '0x1.c1e010e12cc25p-53',
            '0x1.308276c2dabc0p-53',
            '0x1.b33631bfafb75p-53',
        ],
        "\n".join([
            'check sylvester combination 2: trials=6 tol=1.0e-08',
            '  trial seed=0 k1=1 m=7 n=6 residual=1.328e-16 ok',
            '  trial seed=1 k1=4 m=5 n=5 residual=7.379e-17 ok',
            '  trial seed=2 k1=1 m=7 n=3 residual=1.276e-16 ok',
            '  trial seed=3 k1=2 m=7 n=2 residual=1.951e-16 ok',
            '  trial seed=4 k1=6 m=7 n=8 residual=1.321e-16 ok',
            '  trial seed=5 k1=1 m=6 n=7 residual=1.887e-16 ok',
            '  max residual 1.951e-16',
            'PASS',
        ]),
    ),
    ('trsm', 1): (
        [
            '0x1.302126cd59ac2p-53',
            '0x1.5347aeecf49b4p-54',
            '0x1.6cdb7c51d08b5p-54',
            '0x1.9d25096851447p-54',
            '0x1.f5fdec89d2b3fp-53',
            '0x1.29abb071e0c96p-53',
        ],
        "\n".join([
            'check trsm combination 1: trials=6 tol=1.0e-08',
            '  trial seed=0 k2=1 m=7 n=6 residual=1.319e-16 ok',
            '  trial seed=1 k2=4 m=5 n=5 residual=7.357e-17 ok',
            '  trial seed=2 k2=1 m=7 n=3 residual=7.912e-17 ok',
            '  trial seed=3 k2=1 m=7 n=2 residual=8.959e-17 ok',
            '  trial seed=4 k2=7 m=7 n=8 residual=2.177e-16 ok',
            '  trial seed=5 k2=1 m=6 n=7 residual=1.291e-16 ok',
            '  max residual 2.177e-16',
            'PASS',
        ]),
    ),
    (13, 1): (
        [
            '0x1.412f0a69cd6c2p-51',
            '0x1.4562f486fca62p-52',
            '0x1.fa70cbb59be64p-53',
            '0x1.80ab2bc7a58f3p-52',
            '0x1.273408c55be3fp-51',
            '0x1.d268253373295p-54',
        ],
        "\n".join([
            'check randop combination 1: trials=6 tol=1.0e-08',
            '  trial seed=0 k3=1 m=7 n=6 p=5 residual=5.572e-16 ok',
            '  trial seed=1 k3=4 m=5 n=5 p=7 residual=2.822e-16 ok',
            '  trial seed=2 k3=1 m=7 n=3 p=2 residual=2.196e-16 ok',
            '  trial seed=3 k3=1 m=7 n=2 p=3 residual=3.336e-16 ok',
            '  trial seed=4 k3=4 m=7 n=8 p=8 residual=5.121e-16 ok',
            '  trial seed=5 k3=5 m=6 n=7 p=2 residual=1.011e-16 ok',
            '  max residual 5.572e-16',
            'PASS',
        ]),
    ),
    (29, 1): (
        [
            '0x1.911cb8d4d37b7p-52',
            '0x1.eb74e75c03dc6p-53',
            '0x1.0b3c71aab60cap-53',
            '0x1.6305f4c5afe3bp-53',
            '0x1.38d0e2b1e4c1ep-52',
            '0x1.8c8bdb6f2e3f2p-53',
        ],
        "\n".join([
            'check randop combination 1: trials=6 tol=1.0e-08',
            '  trial seed=0 k3=1 m=7 n=6 p=5 residual=3.479e-16 ok',
            '  trial seed=1 k3=4 m=5 n=5 p=7 residual=2.131e-16 ok',
            '  trial seed=2 k3=1 m=7 n=3 p=2 residual=1.159e-16 ok',
            '  trial seed=3 k3=1 m=7 n=2 p=3 residual=1.540e-16 ok',
            '  trial seed=4 k3=4 m=7 n=8 p=8 residual=2.713e-16 ok',
            '  trial seed=5 k3=5 m=6 n=7 p=2 residual=1.720e-16 ok',
            '  max residual 3.479e-16',
            'PASS',
        ]),
    ),
    (9, 7): (
        [
            '0x1.a6296ebd2c554p-51',
            '0x1.770dd31be93dep-52',
            '0x1.d3e91998441cbp-53',
            '0x1.2d5fa02e4f6c0p-52',
            '0x1.234976d2db072p-51',
            '0x1.34aea6e5b4804p-51',
        ],
        "\n".join([
            'check randop combination 7: trials=6 tol=1.0e-08',
            '  trial seed=0 k1=1 k2=1 k3=1 n=7 p=6 residual=7.323e-16 ok',
            '  trial seed=1 k1=4 k2=4 k3=4 n=5 p=5 residual=3.253e-16 ok',
            '  trial seed=2 k1=1 k2=1 k3=1 n=7 p=3 residual=2.029e-16 ok',
            '  trial seed=3 k1=2 k2=1 k3=1 n=7 p=2 residual=2.614e-16 ok',
            '  trial seed=4 k1=6 k2=4 k3=7 n=7 p=8 residual=5.053e-16 ok',
            '  trial seed=5 k1=1 k2=5 k3=3 n=6 p=7 residual=5.355e-16 ok',
            '  max residual 7.323e-16',
            'PASS',
        ]),
    ),
}


@pytest.mark.parametrize("name,combination", list(PINNED_CHECKS))
def test_check_residuals_pinned(name, combination):
    if isinstance(name, str):
        spec = load_op(name)
    else:
        spec = random_spec(np.random.default_rng(name))
    selection = derive_each(spec, seed_builtins(), combination=combination)
    (pme,) = [r for r in selection if r is not None]
    report = check_pme(pme, spec, trials=6, seed=0)
    residuals, rendered = PINNED_CHECKS[name, combination]
    assert [t.residual.hex() for t in report.trials] == residuals
    assert report.render() == rendered


# operators of the corpus that no base solver covers yet: fuzz specs solve
# through their own operator, Delta
UNSOLVED_OPERATORS = {"Delta"}


def test_every_corpus_pme_checks(corpus_run):
    """Every PME the corpus derives passes a 3-trial check at 1e-8, or stops
    because it applies an operator of UNSOLVED_OPERATORS."""
    passed = unsupported = 0
    for spec, _, results in corpus_run["derived"]:
        for pme in results or ():
            if not isinstance(pme, PME):
                continue
            where = (
                f"{spec.name} {equation_to_text(spec.postcondition)}, "
                f"combination {pme.combination.index}"
            )
            try:
                report = check_pme(pme, spec, trials=3, tolerance=1e-8, seed=0)
            except OracleError as exc:
                operator = str(exc).removeprefix("no base solver for operator ")
                assert operator in UNSOLVED_OPERATORS, f"{where}: {exc}"
                unsupported += 1
                continue
            assert report.ok, f"{where}:\n{report.render()}"
            passed += 1
    assert passed and unsupported
