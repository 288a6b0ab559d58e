"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pmegen.binding import (
    DimensionVar,
    NoViablePartitioningsError,
    analyze,
    enumerate_combinations,
)
from pmegen.blockarith import STATUS_STAR
from pmegen.engine import (
    derive_all,
    derive_pme,
    initial_state,
    prove_spd,
    seed_builtins,
)
from pmegen.expr import (
    Equation,
    inv,
    minus,
    plus,
    ref,
    serialize,
    times,
    trans,
)
from pmegen.cli import main
from pmegen.oracle import (
    check_pme,
    evaluate,
)

from conftest import (
    OPS_DIR,
    check_blocking_faithful,
    cholesky_lower,
    cli_env,
    load_op,
    min_symmetric_eigenvalue,
    random_spec,
)

CHOLESKY_OP = os.path.join(OPS_DIR, "cholesky.op")
SYLVESTER_OP = os.path.join(OPS_DIR, "sylvester.op")
TRSM_OP = os.path.join(OPS_DIR, "trsm.op")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def run_cli(args, env_extra=None):
    env = cli_env()
    env.pop("PME_KB", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pmegen.cli", *args],
        capture_output=True,
        env=env,
    )


def run_main(args, capsysbinary):
    """``run_cli`` in this process: ``cli.main``, with its output as bytes."""
    code = main(args)
    out, err = capsysbinary.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def test_criterion_1_cholesky_end_to_end():
    with criterion(1, "cholesky derivation matches the expected grid exactly"):
        start = time.perf_counter()
        spec = load_op("cholesky")
        combos = enumerate_combinations(spec)
        assert len(combos) == 1
        pme = derive_pme(spec, combos[0], seed_builtins())
        elapsed = time.perf_counter() - start
        cells = {q.position: q for q in pme.all_cells()}
        assert serialize(cells["TL"].equation) == (
            "(eq L_TL (solved Gamma A_TL))"
        )
        assert serialize(cells["BL"].equation) == (
            "(eq L_BL (times A_BL (trans (inv L_TL))))"
        )
        assert serialize(cells["BR"].equation) == (
            "(eq L_BR (solved Gamma (plus (minus (times L_BL (trans L_BL))) A_BR)))"
        )
        tr = cells["TR"]
        assert tr.status == STATUS_STAR and tr.partner == "BL"
        assert elapsed < 1.0


def test_criterion_2_sylvester_binding_and_combinations():
    with criterion(2, "sylvester dimension groups and the three rule sets"):
        start = time.perf_counter()
        spec = load_op("sylvester")
        groups = analyze(spec).groups
        V = DimensionVar
        assert groups == (
            frozenset({V("L", "r"), V("L", "c"), V("X", "r"), V("C", "r")}),
            frozenset({V("U", "r"), V("U", "c"), V("X", "c"), V("C", "c")}),
        )
        combos = enumerate_combinations(spec)
        assert len(combos) == 3
        expected = [
            {"L": "1x1", "U": "2x2", "C": "1x2", "X": "1x2"},
            {"L": "2x2", "U": "1x1", "C": "2x1", "X": "2x1"},
            {"L": "2x2", "U": "2x2", "C": "2x2", "X": "2x2"},
        ]
        got = [
            {name: rule.shape for name, rule in combo.rules}
            for combo in combos
        ]
        assert got == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_3_sylvester_pme():
    with criterion(3, "sylvester combination 2 solves to the stacked form"):
        spec = load_op("sylvester")
        combos = enumerate_combinations(spec)
        pme = derive_pme(spec, combos[1], seed_builtins())
        cells = {q.position: q for q in pme.all_cells()}
        assert serialize(cells["T"].equation) == (
            "(eq X_T (solved Omega L_TL U C_T))"
        )
        assert serialize(cells["B"].equation) == (
            "(eq X_B (solved Omega L_BR U (plus (minus (times L_BL X_T)) C_B)))"
        )


def test_criterion_4_blocked_arithmetic_faithfulness():
    with criterion(4, "200 random blockings evaluate identically to the full form"):
        rng = np.random.default_rng(2024)
        checked_blockings = 0
        seed = 0
        while checked_blockings < 200:
            spec = random_spec(np.random.default_rng(seed))
            seed += 1
            try:
                combos = enumerate_combinations(spec)
            except NoViablePartitioningsError:
                continue
            for combo in combos:
                check_blocking_faithful(spec, combo, rng, tol=1e-12)
                checked_blockings += 1
                if checked_blockings >= 200:
                    break
        assert checked_blockings >= 200


def test_criterion_5_pme_numeric_oracle():
    with criterion(5, "cholesky and all sylvester PMEs pass 50-trial checks"):
        kb = seed_builtins()
        cholesky = load_op("cholesky")
        (chol_pme,) = derive_all(cholesky, kb)
        report = check_pme(chol_pme, cholesky, trials=50, tolerance=1e-10, seed=0)
        assert report.ok, report.render()
        sylvester = load_op("sylvester")
        sylv_pmes = derive_all(sylvester, kb)
        assert len(sylv_pmes) == 3
        for pme in sylv_pmes:
            report = check_pme(pme, sylvester, trials=50, tolerance=1e-8, seed=0)
            assert report.ok, report.render()


def test_criterion_6_combination_count_law():
    with criterion(6, "2^g - 1 combinations, all conformant, for 100 random specs"):
        rng = np.random.default_rng(6)
        produced = 0
        seed = 0
        while produced < 100:
            spec = random_spec(np.random.default_rng(10_000 + seed))
            seed += 1
            a = analyze(spec)
            g = sum(a.partitionable)
            if g == 0:
                with pytest.raises(NoViablePartitioningsError):
                    enumerate_combinations(spec)
                continue
            combos = enumerate_combinations(spec)
            assert len(combos) == 2**g - 1
            for combo in combos:
                assert not all(rule.is_identity for _, rule in combo.rules)
                # conformant: every block equation evaluates to its slice
                check_blocking_faithful(spec, combo, rng)
            produced += 1


def test_criterion_7_spd_prover():
    with criterion(7, "spd prover accepts the Schur chain and rejects noise"):
        spec = load_op("cholesky")
        (rules,) = enumerate_combinations(spec)
        state = initial_state(spec, rules)
        L_TL, L_BL = ref("L_TL"), ref("L_BL")
        A_TL, A_BL, A_BR = ref("A_TL"), ref("A_BL"), ref("A_BR")
        state.tautologies = [
            Equation(times(L_TL, trans(L_TL)), A_TL),
            Equation(L_BL, times(A_BL, trans(inv(L_TL)))),
        ]
        accepted = [
            plus(A_BR, minus(times(L_BL, trans(L_BL)))),
            A_TL,
            A_BR,
            plus(A_BR, minus(times(A_BL, inv(A_TL), trans(A_BL)))),
        ]
        for e in accepted:
            assert prove_spd(e, state), serialize(Equation(e, e))
        empty = initial_state(spec, rules)
        empty.facts = []
        empty.tautologies = []
        assert not prove_spd(times(ref("P"), ref("Q")), empty)
        # numeric soundness: 100 instantiations of every accepted expression
        for trial in range(100):
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
            for e in accepted:
                assert min_symmetric_eigenvalue(evaluate(e, values)) > 0


def test_criterion_8_pattern_learning(tmp_path, capsysbinary, monkeypatch):
    # a fresh process is not what this criterion tests, so cli.main runs here
    monkeypatch.delenv("PME_KB", raising=False)
    with criterion(8, "bootstrap, stuck without trsm, restored after learning it"):
        kb = str(tmp_path / "kb.txt")
        r = run_main(["derive", CHOLESKY_OP, "--kb", kb, "--learn"], capsysbinary)
        assert r.returncode == 0
        listing = run_main(["kb", "list", "--kb", kb], capsysbinary)
        assert b"cholesky (learned)" in listing.stdout

        r = run_main(["derive", CHOLESKY_OP, "--no-builtin", "trsm"], capsysbinary)
        assert r.returncode == 3
        assert b"unsolved BL: L_BL * trans(L_TL) = A_BL" in r.stdout

        kb2 = str(tmp_path / "kb2.txt")
        r = run_main(["derive", TRSM_OP, "--kb", kb2, "--learn"], capsysbinary)
        assert r.returncode == 0
        r = run_main(["derive", CHOLESKY_OP, "--kb", kb2, "--no-builtin", "trsm"], capsysbinary)
        assert r.returncode == 0
        assert b"L_BL = Trsm(L_TL, A_BL)" in r.stdout


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "repeated runs are byte-identical, including KB files"):
        sylv_json = tmp_path / "sylvester.json"
        first = run_cli(["derive", SYLVESTER_OP, "--format", "json"])
        assert first.returncode == 0
        sylv_json.write_bytes(first.stdout)
        commands = [
            ["derive", CHOLESKY_OP],
            ["derive", SYLVESTER_OP],
            ["derive", SYLVESTER_OP, "--format", "json"],
            ["derive", TRSM_OP, "--format", "latex"],
            ["derive", CHOLESKY_OP, "--no-builtin", "trsm"],
            ["check", SYLVESTER_OP, str(sylv_json), "--trials", "5"],
            ["kb", "list"],
        ]
        for args in commands:
            r1 = run_cli(args, {"PYTHONHASHSEED": "5"})
            r2 = run_cli(args, {"PYTHONHASHSEED": "444"})
            assert r1.returncode == r2.returncode, args
            assert r1.stdout == r2.stdout, args
        kb_a, kb_b = str(tmp_path / "a.kb"), str(tmp_path / "b.kb")
        for kb, hashseed in ((kb_a, "5"), (kb_b, "444")):
            for op in (TRSM_OP, CHOLESKY_OP):
                r = run_cli(
                    ["derive", op, "--kb", kb, "--learn"],
                    {"PYTHONHASHSEED": hashseed},
                )
                assert r.returncode == 0
        assert open(kb_a, "rb").read() == open(kb_b, "rb").read()
