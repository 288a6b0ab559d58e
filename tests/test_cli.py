"""Command-line behaviour: formats, exit codes, learning, determinism."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import pmegen

from pmegen.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NO_VIABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_STUCK,
    EXIT_USAGE,
    main,
    pme_from_json_dict,
    pme_to_json_dict,
    render_pme_latex,
    render_pme_text,
)
from pmegen import binding, blockarith, cli, engine, expr
from pmegen.engine import derive_all, seed_builtins

from conftest import OPS_DIR, bench_corpus, cli_env

CHOLESKY_OP = os.path.join(OPS_DIR, "cholesky.op")
SYLVESTER_OP = os.path.join(OPS_DIR, "sylvester.op")
TRSM_OP = os.path.join(OPS_DIR, "trsm.op")
LU_PROBE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "probes", "lu.op")


def run_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the expression node classes that no class may derive from
FINAL_NODES = (
    expr.OperandRef,
    expr.Zero,
    expr.Plus,
    expr.Times,
    expr.Minus,
    expr.Transpose,
    expr.Inverse,
    expr.SolvedBy,
    expr.Equation,
)

# a KB file that load_kb rejects, the line it names, and the message
KB_ERRORS = [
    ("pattern a\npattern b\n", 2, "record not closed with 'end'"),
    ("provenance x\n", 1, "unexpected 'provenance' outside a record"),
    ("end\n", 1, "unexpected 'end' outside a record"),
    ("pattern a\nweird x\n", 2, "unknown field 'weird'"),
    ("pattern a\n", 1, "unterminated pattern record"),
    ("pattern a\npost (eq X A)\nend\n", 3, "record missing field 'solved'"),
    ("pattern a\nsolve 9T\n", 2, "invalid solution operator '9T'"),
    ("pattern a\nslot 9Z matrix known m m\n", 2, "invalid slot name '9Z'"),
    ("pattern a\nslot plus matrix known m m\n", 2, "invalid slot name 'plus'"),
    ("pattern 9bad(x\n", 1, "invalid pattern name '9bad(x'"),
    ("pattern\n", 1, "'pattern' needs a pattern name"),
    ("pattern a\nprovenance\n", 2, "'provenance' needs a source"),
    ("pattern a\nsolve\n", 2, "'solve' needs a solution operator or '-'"),
    ("pattern a b\n", 1, "'pattern' takes one value, got 2"),
    ("pattern a\nprovenance a b c\n", 2, "'provenance' takes one value, got 3"),
    ("pattern a\nsolve - extra\n", 2, "'solve' takes one value, got 2"),
    (
        "pattern a\nslot X matrix unknown m m\npost (eq X X)\nsolved (eq X X)\nend junk\n",
        5,
        "'end' takes no value, got 1",
    ),
    (
        "pattern cholesky\nslot A matrix known m m\nslot A matrix unknown m m\n"
        "post (eq A A)\nsolved (eq A (solved Gamma A))\nend\n",
        6,
        "pattern cholesky: duplicate slot names",
    ),
]

# an equation in prefix form that the prefix reader rejects, and the message
PREFIX_ERRORS = [
    ("(eq (trans L)", "unexpected end of prefix form"),
    ("(eq X ))", "unexpected ')' in prefix form"),
    ("(eq X (foo A))", "unknown prefix head: 'foo'"),
    ("(eq X (solved (plus A B)))", "solved needs an operator name"),
    ("(eq X (trans A", "missing ')' in prefix form"),
    ("(eq X (trans A B))", "trans takes exactly one argument"),
    ("(eq X A B)", "malformed '(eq ...)' form"),
    ("(eq X (plus (plus A B) C))", "Plus may not contain a direct Plus child"),
    ("(eq X (times (times A B) C))", "Times may not contain a direct Times child"),
    ("(eq X (solved 9F A))", "invalid operator name: '9F'"),
    ("(eq X (solved F))", "SolvedBy needs at least one argument"),
    ("(eq X (plus A))", "Plus needs at least two terms"),
    ("(eq X (times A))", "Times needs at least two factors"),
    ("(eq X 9bad)", "invalid operand name: '9bad'"),
    ("(eq X (trans plus))", "invalid operand name: 'plus'"),
    # only the root may be an equation
    ("(eq X (eq A B))", "unknown prefix head: 'eq'"),
]


class TestDerive:
    def test_cholesky_text_output(self, capsys):
        code, out, _ = run_main(["derive", CHOLESKY_OP], capsys)
        assert code == EXIT_OK
        assert out == (
            "operation cholesky\n"
            "combinations: 1\n"
            "\n"
            "combination 1:\n"
            "  L: 2x2 (rows k1, cols k1)\n"
            "  A: 2x2 (rows k1, cols k1)\n"
            "PME (combination 1):\n"
            "  [ L_TL = Gamma(A_TL)             | * ]\n"
            "  [ L_BL = A_BL * trans(inv(L_TL)) | L_BR = Gamma(A_BR - L_BL * trans(L_BL)) ]\n"
        )

    def test_sylvester_three_combinations(self, capsys):
        code, out, _ = run_main(["derive", SYLVESTER_OP], capsys)
        assert code == EXIT_OK
        assert out.count("PME (combination") == 3
        assert "X_T = Omega(L_TL, U, C_T)" in out
        assert "X_B = Omega(L_BR, U, C_B - L_BL * X_T)" in out

    def test_combination_filter(self, capsys):
        code, out, _ = run_main(
            ["derive", SYLVESTER_OP, "--combination", "2"], capsys
        )
        assert code == EXIT_OK
        assert out.count("PME (combination") == 1
        assert "combination 2:" in out

    def test_combination_filter_out_of_range(self, capsys):
        code, _, err = run_main(
            ["derive", SYLVESTER_OP, "--combination", "9"], capsys
        )
        assert code == EXIT_USAGE and "out of range" in err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.op"
        bad.write_text("operation oops\n  operand ! : matrix(m,m) , known\n")
        code, _, err = run_main(["derive", str(bad)], capsys)
        assert code == EXIT_PARSE and "line 2" in err

    def test_operation_without_known_operand_exit(self, tmp_path, capsys):
        # its solved form would apply the operator to no argument
        op = tmp_path / "square.op"
        op.write_text(
            "operation square\n"
            "  operand X : matrix(m,m) , unknown\n"
            "  postcondition: X * X = X\n"
            "  solve: F\n"
        )
        code, out, err = run_main(["derive", str(op)], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: operation square: patterns need a known operand\n"

    def test_no_viable_partitionings_exit(self, tmp_path, capsys):
        op = tmp_path / "scalar.op"
        op.write_text(
            "operation scalarmul\n"
            "  operand x : scalar , known\n"
            "  operand y : scalar , unknown\n"
            "  operand z : scalar , known\n"
            "  postcondition: x * y = z\n"
            "  solve: Div\n"
        )
        code, _, err = run_main(["derive", str(op)], capsys)
        assert code == EXIT_NO_VIABLE and "no viable" in err

    def test_stuck_exit_names_equation(self, capsys):
        code, out, _ = run_main(
            ["derive", CHOLESKY_OP, "--no-builtin", "trsm"], capsys
        )
        assert code == EXIT_STUCK
        assert "combination 1: stuck" in out
        assert "unsolved BL: L_BL * trans(L_TL) = A_BL" in out

    def test_stuck_with_empty_kb_and_ops_dir(self, tmp_path, capsys):
        empty_kb = str(tmp_path / "empty.kb")
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        code, out, _ = run_main(
            [
                "derive", CHOLESKY_OP,
                "--kb", empty_kb,
                "--ops-dir", str(empty_dir),
                "--no-builtin", "trsm",
            ],
            capsys,
        )
        assert code == EXIT_STUCK
        assert "unsolved BL" in out

    def test_ops_dir_supplies_missing_pattern(self, tmp_path, capsys):
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        (ops_dir / "Trsm.op").write_text(open(TRSM_OP).read())
        code, out, _ = run_main(
            ["derive", CHOLESKY_OP, "--ops-dir", str(ops_dir), "--no-builtin", "trsm"],
            capsys,
        )
        assert code == EXIT_OK
        assert "L_BL = Trsm(L_TL, A_BL)" in out

    def test_ops_dir_skips_operation_without_pattern(self, tmp_path, capsys):
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        (ops_dir / "trsm.op").write_text(open(TRSM_OP).read())
        args = ["derive", CHOLESKY_OP, "--ops-dir", str(ops_dir), "--no-builtin", "trsm"]
        expected = run_main(args, capsys)
        # two unknowns: no pattern, so nested derivation passes it over
        (ops_dir / "lu.op").write_text(
            "operation lu\n"
            "  operand L : matrix(m,m) , unknown , lower_triangular\n"
            "  operand U : matrix(m,m) , unknown , upper_triangular\n"
            "  operand A : matrix(m,m) , known\n"
            "  postcondition: L * U = A\n"
            "  solve: LU\n"
        )
        assert run_main(args, capsys) == expected
        assert expected[0] == EXIT_OK

    def test_ops_dir_skips_operation_past_combination_bound(self, tmp_path, capsys):
        # fuzz seed 258: combination 30 gets stuck, and need.op is its TL
        # cell with a fresh size symbol per block dimension, 9 groups in all
        parent = tmp_path / "randop.op"
        parent.write_text(
            "operation randop\n"
            "  operand A : matrix(n,p) , known\n"
            "  operand B : matrix(p,p) , known\n"
            "  operand C : matrix(p,n) , unknown\n"
            "  operand D : matrix(n,m) , known\n"
            "  operand E : matrix(n,n) , known\n"
            "  operand F : matrix(p,m) , known\n"
            "  operand G : matrix(m,n) , known\n"
            "  operand H : matrix(n,n) , known , lower_triangular\n"
            "  postcondition: A * B * C - A * F * G - D * trans(D) * E = H\n"
            "  solve: Delta\n"
        )
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        args = ["derive", str(parent), "--combination", "30", "--ops-dir", str(ops_dir)]
        expected = run_main(args, capsys)
        blocks = {
            "A1": "a,b", "A2": "a,c", "B1": "b,d", "B2": "c,d", "F1": "b,e",
            "F2": "c,e", "F3": "b,f", "F4": "c,f", "G1": "e,a", "G2": "f,a",
            "D1": "a,g", "D2": "a,h", "D3": "i,g", "D4": "i,h", "E1": "i,a", "E2": "a,a",
        }
        (ops_dir / "need.op").write_text(
            "operation need\n"
            + "".join(f"  operand {name} : matrix({dims}) , known\n" for name, dims in blocks.items())
            + "  operand C : matrix(d,a) , unknown\n"
            "  operand H : matrix(a,a) , known , lower_triangular\n"
            "  postcondition: (A1 * B1 + A2 * B2) * C = (A1 * F1 + A2 * F2) * G1"
            " + (A1 * F3 + A2 * F4) * G2 + (D1 * trans(D3) + D2 * trans(D4)) * E1"
            " + (D1 * trans(D1) + D2 * trans(D2)) * E2 + H\n"
            "  solve: Need\n"
        )
        assert main(["derive", str(ops_dir / "need.op")]) == 1
        assert "511 combinations exceed the bound of 255" in capsys.readouterr().err
        assert run_main(args, capsys) == expected
        assert expected[0] == EXIT_STUCK

    @pytest.mark.parametrize("name", ["nosuch", "trs"])
    def test_no_builtin_matching_nothing_is_usage_error(self, name, capsys):
        # "trs" is a prefix of the trsm names, but names no family
        code, out, err = run_main(["derive", CHOLESKY_OP, "--no-builtin", name], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: --no-builtin {name}: no such builtin or family\n"

    def test_missing_ops_dir_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nosuchdir")
        with pytest.raises(SystemExit) as exc:
            main(["derive", CHOLESKY_OP, "--ops-dir", missing])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert captured.out == ""
        assert errors == [f"error: argument --ops-dir: not a directory: {missing!r}"]

    def test_latex_format(self, capsys):
        code, out, _ = run_main(
            ["derive", CHOLESKY_OP, "--format", "latex"], capsys
        )
        assert code == EXIT_OK
        assert r"\Gamma(A_{TL})" in out
        assert r"L_{TL}^{-T}" in out
        assert r"\star" in out
        assert r"\begin{array}" in out

    def test_latex_of_unpartitioned_operand(self, capsys):
        # combination 2 keeps L whole, so its plain name is printed
        code, out, _ = run_main(["derive", TRSM_OP, "--format", "latex"], capsys)
        assert code == EXIT_OK
        rows = out.split("PME (combination 2):\n")[1].split("\n\n")[0].splitlines()
        assert rows[1:3] == [
            r"X_{T} = \mathrm{Trsm}(L, B_{T}) \\ \hline",
            r"X_{B} = \mathrm{Trsm}(L, B_{B})",
        ]

    def test_multiple_unknowns_exit_without_traceback(self, tmp_path):
        op = tmp_path / "lu.op"
        op.write_text(
            "operation lu\n"
            "  operand L : matrix(m,m) , unknown , lower_triangular\n"
            "  operand U : matrix(m,m) , unknown , upper_triangular\n"
            "  operand A : matrix(m,m) , known\n"
            "  postcondition: L * U = A\n"
            "  solve: LU\n"
        )
        r = _run_subprocess(["derive", str(op)])
        assert r.returncode == EXIT_PARSE
        assert b"Traceback" not in r.stderr
        assert r.stderr.decode() == (
            "error: operation lu: patterns need exactly one unknown operand\n"
        )


    def test_stuck_json_derive(self, capsys):
        lyapunov = os.path.join(os.path.dirname(LU_PROBE), "lyapunov.op")
        code, out, err = run_main(["derive", lyapunov, "--format", "json"], capsys)
        assert code == EXIT_STUCK
        assert json.loads(out) == {"operation": "lyapunov", "pmes": []}
        assert err.startswith("combination 1: stuck\n  unsolved BL: ")
        assert "PME" not in err and "{" not in err


class TestLearnAndKb:
    def test_learn_persists_pattern(self, tmp_path, capsys):
        kb = str(tmp_path / "kb.txt")
        code, _, _ = run_main(["derive", CHOLESKY_OP, "--kb", kb, "--learn"], capsys)
        assert code == EXIT_OK and os.path.exists(kb)
        code, out, _ = run_main(["kb", "list", "--kb", kb], capsys)
        assert code == EXIT_OK
        assert "cholesky (learned)" in out
        assert "assign (builtin)" in out

    def test_learn_requires_kb_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PME_KB", raising=False)
        code, _, err = run_main(["derive", CHOLESKY_OP, "--learn"], capsys)
        assert code == EXIT_USAGE and "PME_KB" in err

    def test_env_var_default(self, tmp_path, capsys, monkeypatch):
        kb = str(tmp_path / "envkb.txt")
        monkeypatch.setenv("PME_KB", kb)
        code, _, _ = run_main(["derive", CHOLESKY_OP, "--learn"], capsys)
        assert code == EXIT_OK and os.path.exists(kb)
        code, out, _ = run_main(["kb", "list"], capsys)
        assert "cholesky (learned)" in out

    def test_concurrent_learning_keeps_every_pattern(self, tmp_path, capsys):
        # four processes, each learning its own copy of trsm into one KB at
        # about the same moment: without a lock, writers overwrite each
        # other.  Padding the KB with learned records widens the window
        # between reading and replacing it.
        kb = str(tmp_path / "kb.txt")
        template = open(TRSM_OP).read()
        code, _, _ = run_main(["derive", TRSM_OP, "--kb", kb, "--learn"], capsys)
        assert code == EXIT_OK
        header, record = open(kb).read().split("\n", 1)
        pads = [f"pad{i}" for i in range(300)]
        with open(kb, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(record.replace("pattern trsm", f"pattern {p}") for p in pads)
        names = [f"trsm{i}" for i in range(4)]
        procs = []
        for name in names:
            op = tmp_path / f"{name}.op"
            op.write_text(
                template.replace("operation trsm", f"operation {name}").replace(
                    "solve: Trsm", f"solve: {name.capitalize()}"
                )
            )
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "pmegen.cli", "derive", str(op),
                     "--kb", kb, "--learn"],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    env=cli_env(),
                )
            )
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, err.decode()
        code, out, _ = run_main(["kb", "list", "--kb", kb], capsys)
        assert code == EXIT_OK
        learned = sorted(l for l in out.splitlines() if l.endswith("(learned)"))
        assert learned == sorted(f"{name} (learned)" for name in pads + names)

    def test_kb_show(self, tmp_path, capsys):
        kb = str(tmp_path / "kb.txt")
        run_main(["derive", CHOLESKY_OP, "--kb", kb, "--learn"], capsys)
        code, out, _ = run_main(["kb", "show", "cholesky", "--kb", kb], capsys)
        assert code == EXIT_OK
        assert "lower_triangular" in out
        assert "spd" in out
        assert "postcondition: L * trans(L) = A" in out
        assert "solved: L = Gamma(A)" in out

    def test_kb_show_unknown(self, capsys):
        code, _, err = run_main(["kb", "show", "nothing"], capsys)
        assert code == EXIT_PARSE and "no pattern" in err

    def test_kb_show_needs_name(self, capsys):
        code, out, err = run_main(["kb", "show"], capsys)
        assert (code, out, err) == (EXIT_USAGE, "", "error: kb show needs a pattern name\n")

    def test_fresh_kb_lists_builtins_only(self, capsys):
        code, out, _ = run_main(["kb", "list"], capsys)
        assert code == EXIT_OK
        assert "(learned)" not in out
        assert out.splitlines()[0] == "assign (builtin)"

    def test_relearning_after_trsm(self, tmp_path, capsys):
        kb = str(tmp_path / "kb.txt")
        code, _, _ = run_main(["derive", TRSM_OP, "--kb", kb, "--learn"], capsys)
        assert code == EXIT_OK
        code, out, _ = run_main(
            ["derive", CHOLESKY_OP, "--kb", kb, "--no-builtin", "trsm"], capsys
        )
        assert code == EXIT_OK
        assert "L_BL = Trsm(L_TL, A_BL)" in out

    def test_edited_solved_form_is_rejected(self, tmp_path, capsys):
        # a solved form that assigns a known slot used to derive the PME
        # cell ``A_BL = Trsm(L_TL, L_BL)`` with exit 0, which ``check``
        # then failed on the unbound L_BL
        kb = tmp_path / "kb.txt"
        code, _, _ = run_main(["derive", TRSM_OP, "--kb", str(kb), "--learn"], capsys)
        assert code == EXIT_OK
        text = kb.read_text()
        assert "solved (eq X (solved Trsm L B))\nend\n" in text
        kb.write_text(text.replace("(eq X (solved Trsm L B))", "(eq B (solved Trsm L X))"))
        code, out, err = run_main(
            ["derive", CHOLESKY_OP, "--kb", str(kb), "--no-builtin", "trsm"], capsys
        )
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {kb}:10: pattern trsm: solved form must assign the unknown slot X\n"


class TestCheck:
    def test_json_round_trip_and_check(self, tmp_path, capsys):
        code, out, _ = run_main(
            ["derive", CHOLESKY_OP, "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        pme_file = tmp_path / "cholesky.json"
        pme_file.write_text(out)
        code, out2, _ = run_main(
            ["check", CHOLESKY_OP, str(pme_file), "--trials", "5"], capsys
        )
        assert code == EXIT_OK
        assert "PASS" in out2
        # renderings regenerate identically from the json form
        from pmegen.opspec import parse_operation

        (pme,) = derive_all(
            parse_operation(open(CHOLESKY_OP).read()), seed_builtins()
        )
        loaded = pme_from_json_dict(doc["pmes"][0])
        assert render_pme_text(loaded) == render_pme_text(pme)
        assert render_pme_latex(loaded) == render_pme_latex(pme)
        assert pme_to_json_dict(loaded) == pme_to_json_dict(pme)

    def test_corrupted_pme_fails_with_seed(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        cell = next(
            c for c in doc["pmes"][0]["cells"] if c["position"] == "BR"
        )
        cell["equation"] = "(eq L_BR (solved Gamma A_BR))"
        pme_file = tmp_path / "bad.json"
        pme_file.write_text(json.dumps(doc))
        code, out2, _ = run_main(
            ["check", CHOLESKY_OP, str(pme_file), "--trials", "3"], capsys
        )
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out2 and "seed=" in out2

    def test_unsupported_operator_exits_without_traceback(self, tmp_path, capsys):
        op = tmp_path / "trmm.op"
        op.write_text(
            "operation trmm\n"
            "  operand L : matrix(m,m) , known , lower_triangular\n"
            "  operand B : matrix(m,n) , known\n"
            "  operand X : matrix(m,n) , unknown\n"
            "  postcondition: X = L * B\n"
            "  solve: Trmm\n"
        )
        code, out, _ = run_main(["derive", str(op), "--format", "json"], capsys)
        assert code == EXIT_OK
        pme_file = tmp_path / "trmm.json"
        pme_file.write_text(out)
        r = _run_subprocess(["check", str(op), str(pme_file), "--trials", "2"])
        assert r.returncode == EXIT_CHECK_FAILED
        assert b"Traceback" not in r.stderr
        assert r.stderr.decode() == "error: no base solver for operator Trmm\n"

    def test_zero_trials_warns(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "c.json"
        pme_file.write_text(out)
        code, out2, _ = run_main(
            ["check", CHOLESKY_OP, str(pme_file), "--trials", "0"], capsys
        )
        assert code == EXIT_OK and "warning" in out2

    @pytest.mark.parametrize(
        "option",
        [
            ["--trials", "-1"],
            ["--trials", "-3"],
            ["--tolerance", "nan"],
            ["--tolerance", "-1"],
            ["--tolerance=-1e-3"],
            ["--tolerance", "-1e-3"],
            ["--tolerance", "-inf"],
            ["--seed", "-1"],
        ],
        ids=lambda o: "".join(o),
    )
    def test_bad_check_option_is_usage_error(self, option, capsys):
        # the files are never opened: options are checked first
        with pytest.raises(SystemExit) as exc:
            main(["check", CHOLESKY_OP, "missing.json", *option])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if l.startswith("error: ")]
        assert len(errors) == 1 and "must not be negative or nan" in errors[0]

    def test_trials_not_an_int(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", CHOLESKY_OP, "missing.json", "--trials", "abc"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and out == ""
        assert err.endswith("\nerror: argument --trials: invalid int value: 'abc'\n")

    @pytest.mark.parametrize(
        "content",
        ["[]", '{"pmes": [1]}', '{"pmes": [{"combination": 3}]}'],
        ids=["list", "int_record", "int_combination"],
    )
    def test_wrongly_shaped_pme_json_is_read_error(self, content, tmp_path, capsys):
        pme_file = tmp_path / "shape.json"
        pme_file.write_text(content)
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file)], capsys)
        assert code == EXIT_PARSE and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {pme_file}: ")

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[]", "a PME document must be an object"),
            ("3", "a PME document must be an object"),
            ('{"pmes": 3}', "'pmes' must be a list of objects"),
            ('{"pmes": [1]}', "'pmes' must be a list of objects"),
            ("{}", "missing field 'combination'"),
            ('{"pmes": [{"combination": {"index": 1}}]}', "missing field 'rules'"),
            ('{"pmes": [{"combination": 3}]}', "'combination' must be an object"),
            ('{"pmes": [{"combination": {"rules": 5}}]}', "'rules' must be a list of objects"),
        ],
        ids=[
            "list",
            "number",
            "int_pmes",
            "int_record",
            "no_combination",
            "no_rules",
            "int_combination",
            "int_rules",
        ],
    )
    def test_malformed_pme_document_named(self, content, message, tmp_path, capsys):
        pme_file = tmp_path / "shape.json"
        pme_file.write_text(content)
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file)], capsys)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: cannot read {pme_file}: {message}\n")

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"shape": "1x1"}, "1x1 rule for L: split_rows mismatch"),
            ({"shape": "3x3"}, "unknown shape '3x3' for L"),
            ({"split_cols": None}, "2x2 rule for L: split_cols mismatch"),
        ],
        ids=["1x1_with_splits", "unknown_shape", "2x2_without_split_cols"],
    )
    def test_rule_shape_disagreeing_with_splits_is_read_error(
        self, edit, message, tmp_path, capsys
    ):
        # rules come from outside the binding only in a PME document
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        (rule,) = [r for r in doc["pmes"][0]["combination"]["rules"] if r["operand"] == "L"]
        rule.update(edit)
        pme_file = tmp_path / "rule.json"
        pme_file.write_text(json.dumps(doc))
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file)], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: cannot read {pme_file}: {message}\n"

    def test_pme_of_other_operation_rejected(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "s.json"
        pme_file.write_text(out)
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file)], capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: PME of operation sylvester given for operation cholesky\n"

        from pmegen.opspec import parse_operation
        from pmegen.oracle import check_pme

        spec = parse_operation(open(CHOLESKY_OP).read())
        pme = pme_from_json_dict(json.loads(pme_file.read_text())["pmes"][0])
        with pytest.raises(ValueError, match="operation sylvester given for operation cholesky"):
            check_pme(pme, spec)

    def test_zero_trials_still_rejects_pme_of_other_operation(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "s.json"
        pme_file.write_text(out)
        args = ["check", CHOLESKY_OP, str(pme_file), "--trials", "0"]
        code, out, err = run_main(args, capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: PME of operation sylvester given for operation cholesky\n"

    def test_pme_of_other_operation_after_own_rejected_before_any_trial(
        self, tmp_path, capsys
    ):
        docs = []
        for op in (CHOLESKY_OP, SYLVESTER_OP):
            code, out, _ = run_main(["derive", op, "--format", "json"], capsys)
            assert code == EXIT_OK
            docs.append(json.loads(out)["pmes"][0])
        pme_file = tmp_path / "mixed.json"
        pme_file.write_text(json.dumps({"operation": "cholesky", "pmes": docs}))
        args = ["check", CHOLESKY_OP, str(pme_file), "--trials", "2"]
        code, out, err = run_main(args, capsys)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: PME of operation sylvester given for operation cholesky\n"

    def _sylvester_doc(self, capsys) -> dict:
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--format", "json"], capsys)
        assert code == EXIT_OK
        return json.loads(out)

    def _check_rejects(self, doc, tmp_path, capsys) -> str:
        pme_file = tmp_path / "mutated.json"
        pme_file.write_text(json.dumps(doc))
        code, out, err = run_main(["check", SYLVESTER_OP, str(pme_file), "--trials", "2"], capsys)
        assert code == EXIT_PARSE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    def test_combination_missing_an_operand_rejected(self, tmp_path, capsys):
        doc = self._sylvester_doc(capsys)
        combo = doc["pmes"][0]["combination"]
        combo["rules"] = [r for r in combo["rules"] if r["operand"] != "X"]
        err = self._check_rejects(doc, tmp_path, capsys)
        assert err == "error: PME combination 1 is not one that operation sylvester enumerates\n"

    def test_order_naming_no_cell_rejected(self, tmp_path, capsys):
        doc = self._sylvester_doc(capsys)
        doc["pmes"][0]["order"].insert(0, "ZZ")
        err = self._check_rejects(doc, tmp_path, capsys)
        assert "order ['ZZ', 'L', 'R'] must list distinct solved positions" in err

    def test_size_that_is_no_string_rejected(self, tmp_path, capsys):
        doc = self._sylvester_doc(capsys)
        doc["pmes"][0]["col_sizes"][0] = 1.5
        err = self._check_rejects(doc, tmp_path, capsys)
        assert "block sizes ['m'] x [1.5, 'n-k2'] are not its blocking's" in err

    def _cholesky_with_br(self, equation, tmp_path, capsys) -> str:
        """A cholesky PME document whose BR cell holds ``equation``."""
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        next(c for c in doc["pmes"][0]["cells"] if c["position"] == "BR")["equation"] = equation
        pme_file = tmp_path / "edited.json"
        pme_file.write_text(json.dumps(doc))
        return str(pme_file)

    def test_unknown_cell_status_rejected(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        next(c for c in doc["pmes"][0]["cells"] if c["position"] == "TR")["status"] = "bogus"
        pme_file = tmp_path / "edited.json"
        pme_file.write_text(json.dumps(doc))
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file), "--trials", "2"], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: cannot read {pme_file}: unknown cell status 'bogus'\n"

    def test_cell_not_assigning_a_block_rejected(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        cell = next(c for c in doc["pmes"][0]["cells"] if c["position"] == "TL")
        cell["equation"] = "(eq (trans L_TL) (solved Gamma A_TL))"
        pme_file = tmp_path / "edited.json"
        pme_file.write_text(json.dumps(doc))
        code, out, err = run_main(["check", CHOLESKY_OP, str(pme_file)], capsys)
        assert (code, err) == (EXIT_CHECK_FAILED, "error: cell TL does not assign a single block\n")

    @pytest.mark.parametrize("trials", ["2", "0"])
    def test_cell_naming_no_block_rejected(self, trials, tmp_path, capsys):
        equation = "(eq L_BR (solved Gamma (plus (minus (times L_BL (trans L_BL))) Z_BR)))"
        path = self._cholesky_with_br(equation, tmp_path, capsys)
        code, out, err = run_main(["check", CHOLESKY_OP, path, "--trials", trials], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            "error: PME combination 1: cell BR names Z_BR, "
            "which is not a block of its blocking\n"
        )

    def test_solver_given_wrong_number_of_arguments(self, tmp_path, capsys):
        path = self._cholesky_with_br("(eq L_BR (solved Gamma A_BR A_TL))", tmp_path, capsys)
        code, out, err = run_main(["check", CHOLESKY_OP, path, "--trials", "2"], capsys)
        assert (code, out) == (EXIT_CHECK_FAILED, "")
        assert err == (
            "error: cell BR applies operator Gamma to 2 arguments, but its solver takes 1\n"
        )

    @pytest.mark.parametrize("text, message", PREFIX_ERRORS, ids=[m for _, m in PREFIX_ERRORS])
    def test_prefix_error_in_cell(self, text, message, tmp_path, capsys):
        path = self._cholesky_with_br(text, tmp_path, capsys)
        code, out, err = run_main(["check", CHOLESKY_OP, path], capsys)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: cannot read {path}: {message}\n")

    def test_repeated_cell_rejected(self, tmp_path, capsys):
        doc = self._sylvester_doc(capsys)
        doc["pmes"][0]["cells"].append(doc["pmes"][0]["cells"][0])
        err = self._check_rejects(doc, tmp_path, capsys)
        message = "cells must hold one cell per position of the grid"
        assert err == f"error: cannot read {tmp_path / 'mutated.json'}: {message}\n"

    def test_cell_at_no_position_of_the_grid_rejected(self, tmp_path, capsys):
        doc = self._sylvester_doc(capsys)
        doc["pmes"][0]["cells"][0]["position"] = "ZZ"
        err = self._check_rejects(doc, tmp_path, capsys)
        message = "cells must hold one cell per position of the grid"
        assert err == f"error: cannot read {tmp_path / 'mutated.json'}: {message}\n"

    def test_cell_of_wrong_shape_fails_in_trial(self, tmp_path, capsys):
        # a product of the wrong shape passes every check before the trials
        path = self._cholesky_with_br("(eq L_BR (times A_BL A_TL A_TL))", tmp_path, capsys)
        code, out, err = run_main(["check", CHOLESKY_OP, path], capsys)
        message = "could not broadcast input array from shape (1,4) into shape (1,1)"
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_operator_without_solver_passes_zero_trials(self, tmp_path, capsys):
        # only an operator with a base solver has an arity to check
        path = self._cholesky_with_br("(eq L_BR (solved Trmm A_BR A_TL))", tmp_path, capsys)
        code, out, err = run_main(["check", CHOLESKY_OP, path, "--trials", "0"], capsys)
        assert (code, out, err) == (EXIT_OK, "warning: trials=0, nothing checked\n", "")
        code, out, err = run_main(["check", CHOLESKY_OP, path, "--trials", "1"], capsys)
        assert (code, err) == (EXIT_CHECK_FAILED, "error: no base solver for operator Trmm\n")

    def test_mutated_documents_exit_without_traceback(self, tmp_path, capsys):
        rng = random.Random(2026)
        docs = {}
        for op in (CHOLESKY_OP, SYLVESTER_OP, TRSM_OP):
            code, out, _ = run_main(["derive", op, "--format", "json"], capsys)
            docs[op] = json.loads(out)
        pme_file = tmp_path / "mutated.json"
        codes = []
        for _ in range(300):
            op = rng.choice(sorted(docs))
            pme_file.write_text(json.dumps(_mutated(docs[op], rng)))
            code, out, err = run_main(["check", op, str(pme_file), "--trials", "1"], capsys)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_CHECK_FAILED)
            lines = err.splitlines()
            # a read or layout error, or an impossible check, is one line;
            # a failed trial is reported on stdout
            if code == EXIT_OK:
                assert lines == []
            elif code == EXIT_PARSE:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            else:
                assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
            codes.append(code)
        assert codes.count(EXIT_PARSE) > 150 and codes.count(EXIT_OK) > 20

    def test_check_pme_rejects_negative_trials(self):
        from pmegen.opspec import parse_operation
        from pmegen.oracle import check_pme

        spec = parse_operation(open(CHOLESKY_OP).read())
        (pme,) = derive_all(spec, seed_builtins())
        with pytest.raises(ValueError, match="trials must not be negative"):
            check_pme(pme, spec, trials=-1)
        with pytest.raises(ValueError, match="seed must not be negative, got -1"):
            check_pme(pme, spec, seed=-1)

    def test_same_seed_reproduces_report(self, tmp_path, capsys):
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "s.json"
        pme_file.write_text(out)
        args = ["check", SYLVESTER_OP, str(pme_file), "--trials", "4", "--seed", "3"]
        code1, out1, _ = run_main(args, capsys)
        code2, out2, _ = run_main(args, capsys)
        assert (code1, out1) == (code2, out2)


def _mutated(doc: dict, rng: random.Random) -> dict:
    """A copy of a PME document with one value deleted, replaced, inserted
    or swapped, anywhere in it."""
    doc = copy.deepcopy(doc)

    def paths(x, prefix=()):
        if prefix:
            yield prefix
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
        for k, v in items:
            yield from paths(v, prefix + (k,))

    def leaves(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            return [leaf for v in x for leaf in leaves(v)]
        return [x]

    pool = leaves(doc) + [1.5, 0, -1, None, "", "ZZ", [], {}, True, ["k1"]]
    path = rng.choice(list(paths(doc)))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    kind = rng.randrange(4)
    if kind == 0:
        del parent[key]
    elif kind == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(rng.choice(pool + [parent[key]])))
    elif kind == 3 and isinstance(parent, list):
        j = rng.randrange(len(parent))
        parent[key], parent[j] = parent[j], parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(pool))
    return doc


def _run_subprocess(args, env_extra=None):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pmegen.cli", *args],
        capture_output=True,
        env=env,
        cwd=os.path.dirname(OPS_DIR),
    )


def _zero_side(tmp_path):
    op = tmp_path / "zero.op"
    op.write_text(
        "operation zero\n"
        "  operand A : matrix(m,m) , known\n"
        "  operand X : matrix(m,m) , unknown\n"
        "  postcondition: X * A = A - A\n"
        "  solve: Z\n"
    )
    return ["derive", str(op)]


def _malformed_ops_file(tmp_path):
    ops_dir = tmp_path / "ops"
    ops_dir.mkdir()
    (ops_dir / "bad.op").write_text("operation oops\n  operand ! : matrix(m,m) , known\n")
    return ["derive", CHOLESKY_OP, "--no-builtin", "trsm", "--ops-dir", str(ops_dir)]


def _kb_is_directory(tmp_path):
    return ["derive", CHOLESKY_OP, "--kb", str(tmp_path)]


def _undecodable_op(tmp_path):
    op = tmp_path / "latin.op"
    op.write_bytes(b"operation caf\xe9\n")
    return ["derive", str(op)]


def _undecodable_kb(tmp_path):
    kb = tmp_path / "latin.kb"
    kb.write_bytes(b"# pattern knowledge base\npattern caf\xe9\n")
    return ["kb", "list", "--kb", str(kb)]


def _learn_into_missing_directory(tmp_path):
    return ["derive", CHOLESKY_OP, "--kb", str(tmp_path / "missing" / "kb.txt"), "--learn"]


def _cholesky_without_trsm(tmp_path):
    return ["derive", CHOLESKY_OP, "--no-builtin", "trsm"]


def _chol_down(tmp_path):
    # each of its three combinations tries a nested derivation before it
    # gets stuck
    op = tmp_path / "chol_down.op"
    op.write_text(
        "operation chol_down\n"
        "  operand L : matrix(m,m) , unknown , lower_triangular\n"
        "  operand A : matrix(m,m) , known , spd\n"
        "  operand B : matrix(m,m) , known\n"
        "  postcondition: L * trans(L) = A - B * trans(B)\n"
        "  solve: Gamma\n"
    )
    return ["derive", str(op)]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "make_args",
        [
            _zero_side,
            _malformed_ops_file,
            _kb_is_directory,
            _undecodable_op,
            _undecodable_kb,
            _learn_into_missing_directory,
        ],
    )
    def test_input_error_exits_without_traceback(self, tmp_path, make_args):
        r = _run_subprocess(make_args(tmp_path))
        assert r.returncode == EXIT_PARSE
        assert b"Traceback" not in r.stderr
        lines = r.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_learn_into_missing_directory_names_kb_path(self, tmp_path):
        r = _run_subprocess(_learn_into_missing_directory(tmp_path))
        assert r.returncode == EXIT_PARSE
        err = r.stderr.decode()
        assert "kb.txt" in err and ".kb-" not in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"operation oops\n  operand ! : matrix(m,m) , known\n",
             "line 2, column 11: unexpected character '!'"),
            (b"operation caf\xe9\n",
             "'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte"),
        ],
    )
    def test_malformed_ops_file_named(self, content, message, tmp_path, capsys):
        args = _malformed_ops_file(tmp_path)
        bad = os.path.join(args[-1], "bad.op")
        with open(bad, "wb") as fh:
            fh.write(content)
        code, _, err = run_main(args, capsys)
        assert code == EXIT_PARSE
        assert err == f"error: {bad}: {message}\n"


class TestKbErrorsExact:
    """Each error of a knowledge-base file, with its line and exact message."""

    @pytest.mark.parametrize("content, line, message", KB_ERRORS, ids=[m for *_, m in KB_ERRORS])
    def test_kb_error_message_exact(self, content, line, message, tmp_path, capsys):
        kb = tmp_path / "bad.kb"
        kb.write_text(content)
        code, out, err = run_main(["kb", "list", "--kb", str(kb)], capsys)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {kb}:{line}: {message}\n")

    @pytest.mark.parametrize("text, message", PREFIX_ERRORS, ids=[m for _, m in PREFIX_ERRORS])
    def test_prefix_error_in_kb_post(self, text, message, tmp_path, capsys):
        kb = tmp_path / "bad.kb"
        kb.write_text(f"pattern p\npost {text}\n")
        code, out, err = run_main(["kb", "list", "--kb", str(kb)], capsys)
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {kb}:2: {message}\n")


class TestOneDerivation:
    def test_spec_analyzed_once(self, monkeypatch, capsys):
        calls = []

        def counted(spec):
            calls.append(spec.name)
            return real(spec)

        real = binding.analyze
        for module in (binding, engine):
            monkeypatch.setattr(module, "analyze", counted)
        code, out, _ = run_main(["derive", SYLVESTER_OP], capsys)
        assert code == EXIT_OK and out.count("PME (combination") == 3
        assert calls == ["sylvester"]

    def test_check_analyzes_and_blocks_once(self, tmp_path, monkeypatch, capsys):
        # one analysis of the spec, and one blocking per distinct operand
        # and rule of the document's combinations
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "s.json"
        pme_file.write_text(out)
        analyzed, blocked = [], []

        def counted_analyze(spec):
            analyzed.append(spec.name)
            return real_analyze(spec)

        def counted_apply_rule(decl, rule):
            blocked.append((decl.name, rule))
            return real_apply_rule(decl, rule)

        real_analyze, real_apply_rule = binding.analyze, blockarith.apply_rule
        for module in (binding, blockarith, cli, engine):
            monkeypatch.setattr(module, "analyze", counted_analyze, raising=False)
        monkeypatch.setattr(blockarith, "apply_rule", counted_apply_rule)
        code, out, _ = run_main(["check", SYLVESTER_OP, str(pme_file), "--trials", "2"], capsys)
        assert code == EXIT_OK and out.count("PASS") == 3
        assert analyzed == ["sylvester"]
        assert len(blocked) == len(set(blocked)) == 10

    @pytest.mark.parametrize(
        "make_args, expected",
        [(_cholesky_without_trsm, EXIT_OK), (_chol_down, EXIT_STUCK)],
    )
    def test_ops_dir_parsed_once(self, make_args, expected, tmp_path, monkeypatch, capsys):
        # each file is parsed once and turned into a candidate pattern once,
        # however many combinations try a nested derivation
        parsed: list[str] = []
        patterned: list[str] = []

        def counted(text):
            spec = real(text)
            parsed.append(spec.name)
            return spec

        def counted_pattern(spec, provenance):
            if provenance != "self":
                patterned.append(spec.name)
            return real_pattern(spec, provenance)

        real, real_pattern = engine.parse_operation, engine.pattern_from_spec
        monkeypatch.setattr(engine, "parse_operation", counted)
        monkeypatch.setattr(engine, "pattern_from_spec", counted_pattern)
        code, _, _ = run_main([*make_args(tmp_path), "--ops-dir", OPS_DIR], capsys)
        assert code == expected
        names = sorted(f[: -len(".op")] for f in os.listdir(OPS_DIR) if f.endswith(".op"))
        assert sorted(parsed) == names
        assert sorted(patterned) == names


    def test_combination_out_of_range_before_deriving(self, capsys):
        # lu cannot derive, so the range error must come before any attempt
        code, out, err = run_main(["derive", LU_PROBE, "--combination", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == "" and err == "error: combination 2 out of range 1..1\n"

    def test_selected_combination_derived_alone(self, monkeypatch, capsys):
        derived = []

        def counted(spec, rules, *args):
            derived.append(rules.index)
            return real(spec, rules, *args)

        real = engine._derive_pme
        monkeypatch.setattr(engine, "_derive_pme", counted)
        code, out, _ = run_main(["derive", SYLVESTER_OP, "--combination", "2"], capsys)
        assert code == EXIT_OK
        assert "combinations: 3 (selected: 2)" in out
        assert out.count("PME (combination 2)") == 1
        assert derived == [2]


class TestImports:
    @pytest.mark.parametrize(
        "args", [["derive", CHOLESKY_OP], ["kb", "list"]]
    )
    def test_numpy_not_loaded(self, args):
        # only ``check`` evaluates numbers, so only it may load numpy
        code = (
            "import sys\n"
            "from pmegen.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=cli_env()
        )
        assert r.returncode == 0, r.stderr.decode()

    @pytest.mark.parametrize(
        "args", [["derive", CHOLESKY_OP], ["kb", "list"]]
    )
    def test_json_not_loaded(self, args):
        # only the JSON reader and writer of the CLI import json
        code = (
            "import sys\n"
            "from pmegen.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "assert 'json' not in sys.modules, 'json loaded'\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=cli_env()
        )
        assert r.returncode == 0, r.stderr.decode()

    def test_only_expression_nodes_equation_and_state_are_dataclasses(self):
        # every other record is a NamedTuple: ``@dataclass`` writes and
        # compiles methods on every import, which each CLI run pays.  The
        # benchmark walks expression nodes through ``dataclasses.fields``.
        # True marks a class decorated itself, False one that inherits.
        found = {}
        for info in pkgutil.iter_modules(pmegen.__path__):
            module = importlib.import_module(f"pmegen.{info.name}")
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                ):
                    found[f"{info.name}.{obj.__qualname__}"] = "__dataclass_fields__" in vars(obj)
        assert found == {
            "expr.OperandRef": True,
            "expr.Zero": True,
            "expr.Plus": True,
            "expr.Times": True,
            "expr._Unary": True,
            "expr.Minus": False,
            "expr.Transpose": False,
            "expr.Inverse": False,
            "expr.SolvedBy": True,
            "expr.Equation": True,
            "engine.DerivationState": True,
        }

    def test_every_imported_name_is_used(self):
        # a name a module imports but never reads costs each import and
        # hides which module really depends on which
        unused = []
        for path in sorted(pathlib.Path(pmegen.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        imported[bound] = node.lineno
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert unused == []

    def test_every_public_name_has_a_production_caller(self):
        # code that only tests call is removed, so each public function, and
        # each public method of a public class, is named somewhere in the
        # package or the benchmark outside its own definition
        exempt = {
            # it hides ``_compile``'s reuse and zero-shape protocol, and the
            # tests use it as the numeric evaluator
            "oracle.evaluate",
        }
        sources = sorted(pathlib.Path(pmegen.__file__).parent.glob("*.py"))
        bench = pathlib.Path(__file__).parent.parent / "bench"
        paths = sources + sorted(bench.glob("*.py"))
        trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}

        functions = (ast.FunctionDef, ast.AsyncFunctionDef)

        def local_names(fn):
            # parameters, and every name the body assigns: assignment, loop,
            # ``with`` and comprehension targets, and ``except ... as`` names
            found = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            for n in ast.walk(fn):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    found.add(n.id)
                elif isinstance(n, ast.ExceptHandler) and n.name:
                    found.add(n.name)
            return found

        def names(node, bound=frozenset()):
            # a bare name counts only where no enclosing function binds it,
            # so a local variable does not look like a call of a method
            if isinstance(node, functions):
                bound = bound | local_names(node)
            if isinstance(node, ast.Name):
                if node.id not in bound:
                    yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1]
            for child in ast.iter_child_nodes(node):
                yield from names(child, bound)

        referenced = Counter(name for tree in trees.values() for name in names(tree))
        uncalled = []
        for path in sources:
            for node in trees[path].body:
                defs = [(node.name, node)] if isinstance(node, functions) else []
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    methods = [f for f in node.body if isinstance(f, functions)]
                    defs = [(f"{node.name}.{f.name}", f) for f in methods]
                for qualname, fn in defs:
                    public = not fn.name.startswith("_")
                    outside = referenced[fn.name] - sum(n == fn.name for n in names(fn))
                    if public and outside == 0 and f"{path.stem}.{qualname}" not in exempt:
                        uncalled.append(f"{path.stem}.{qualname}")
        assert uncalled == []

    def test_no_source_line_past_100_columns(self):
        # the line count of the source is a reported metric, so lines are
        # not joined past the width the code is written to
        long = [
            f"{path.name}:{n}"
            for path in sorted(pathlib.Path(pmegen.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100
        ]
        assert long == []

    def test_no_isinstance_test_of_a_final_node_class(self):
        # walkers compare a node's exact class; an ``isinstance`` test of a
        # final node class would walk the class hierarchy for nothing.  A
        # class is named directly, as a module attribute, or through a
        # module-level tuple; base classes and other records stay allowed
        final = {cls.__name__: cls for cls in FINAL_NODES}

        def names_final(node, module):
            if isinstance(node, ast.Tuple):
                return any(names_final(e, module) for e in node.elts)
            if isinstance(node, ast.Attribute):
                return node.attr in final
            value = vars(module).get(node.id) if isinstance(node, ast.Name) else None
            return any(v in FINAL_NODES for v in (value if isinstance(value, tuple) else (value,)))

        found = []
        for path in sorted(pathlib.Path(pmegen.__file__).parent.glob("*.py")):
            module = pmegen if path.stem == "__init__" else importlib.import_module(
                f"pmegen.{path.stem}"
            )
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and names_final(node.args[1], module)
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_node_classes_are_final(self):
        # exact-type dispatch equals ``isinstance`` only while no class
        # derives from a node class, in the package, the tests or the bench
        for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
            importlib.import_module(path.stem)
        bench_corpus()
        assert {cls.__name__: cls.__subclasses__() for cls in FINAL_NODES} == {
            cls.__name__: [] for cls in FINAL_NODES
        }
        assert all(cls.__final__ for cls in FINAL_NODES)

    def test_every_test_module_names_a_source_module(self):
        # a test module is named for the module it exercises, so a module
        # folded into others leaves no test file named after it
        source = pathlib.Path(pmegen.__file__).parent
        orphans = [
            path.name
            for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
            if path.name != "test_acceptance.py"
            and not (source / f"{path.stem[len('test_'):]}.py").is_file()
        ]
        assert orphans == []


def _deep_op(post: str) -> str:
    return (
        "operation deep\n"
        "  operand A : matrix(m,m) , known\n"
        "  operand X : matrix(m,m) , unknown\n"
        f"  postcondition: {post}\n"
        "  solve: S\n"
    )


def _nested(opening: str, levels: int) -> str:
    closing = ")" * opening.count("(")
    return "X = " + opening * levels + "A" + closing * levels


def _deep_kb(template: str) -> str:
    return (
        "pattern deep\nprovenance learned-from:deep\nsolve S\n"
        "slot A matrix known m m\nslot X matrix unknown m m\n"
        f"post (eq X {template})\nsolved (eq X (solved S A))\nend\n"
    )


def _prefix_chain(levels: int) -> str:
    # normalized, 3 * levels + 1 nodes deep: the inverse of a sum that
    # holds the negation of the next level
    e = "(inv A)"
    for _ in range(levels):
        e = f"(inv (plus (minus {e}) A))"
    return e


def _chain_op(k: int) -> str:
    """``X = A1 * ... * Ak`` over sizes ``m0 .. mk``: k + 1 dimension groups."""
    operands = "".join(f"  operand A{i} : matrix(m{i - 1},m{i}) , known\n" for i in range(1, k + 1))
    product = " * ".join(f"A{i}" for i in range(1, k + 1))
    return (
        f"operation chain\n{operands}  operand X : matrix(m0,m{k}) , unknown\n"
        f"  postcondition: X = {product}\n  solve: Chain\n"
    )


class TestBounds:
    """Nesting and size bounds: each reader stops with one error line."""

    def _error(self, args, capsys, contains):
        code, _, err = run_main(args, capsys)
        assert code == EXIT_PARSE
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and contains in lines[0]

    @pytest.mark.parametrize(
        "post, column",
        [
            (_nested("(", 3000), 86),
            (_nested("trans(", 3000), 406),
            ("X = " + "- " * 5000 + "A", 150),
            (_nested("(", 65), 86),
            (_nested("inv(", 65), 278),
        ],
        ids=["parens-3000", "trans-3000", "minus-5000", "parens-65", "inv-65"],
    )
    def test_deep_postcondition(self, post, column, tmp_path, capsys):
        op = tmp_path / "deep.op"
        op.write_text(_deep_op(post))
        message = f"line 4, column {column}: expression nested deeper than 64 levels"
        self._error(["derive", str(op)], capsys, message)
        ops_dir = tmp_path / "ops"
        ops_dir.mkdir()
        op.rename(ops_dir / "deep.op")
        args = ["derive", CHOLESKY_OP, "--no-builtin", "trsm", "--ops-dir", str(ops_dir)]
        self._error(args, capsys, f"deep.op: {message}")

    @pytest.mark.parametrize(
        "post",
        [_nested("(", 64), _nested("trans(", 64), "X = " + "- " * 64 + "A"],
        ids=["parens", "trans", "minus"],
    )
    def test_postcondition_at_nesting_bound_derives(self, post, tmp_path, capsys):
        op = tmp_path / "deep.op"
        op.write_text(_deep_op(post))
        code, out, _ = run_main(["derive", str(op)], capsys)
        assert code == EXIT_OK and "PME (combination 1)" in out

    @pytest.mark.parametrize("command", [["kb", "list"], ["derive", CHOLESKY_OP]])
    @pytest.mark.parametrize(
        "template",
        ["(trans " * 3000 + "A" + ")" * 3000, "(trans " * 257 + "A" + ")" * 257],
        ids=["3000", "257"],
    )
    def test_deep_kb_template(self, command, template, tmp_path, capsys):
        kb = tmp_path / "deep.kb"
        kb.write_text(_deep_kb(template))
        message = f"{kb}:6: prefix form nested deeper than 256 levels"
        self._error([*command, "--kb", str(kb)], capsys, message)

    def test_kb_template_at_nesting_bound_reads(self, tmp_path, capsys):
        kb = tmp_path / "deep.kb"
        kb.write_text(_deep_kb(_prefix_chain(85)))
        code, out, _ = run_main(["kb", "list", "--kb", str(kb)], capsys)
        assert code == EXIT_OK and out.endswith("deep (learned)\n")
        code, out, _ = run_main(["derive", CHOLESKY_OP, "--kb", str(kb)], capsys)
        assert code == EXIT_OK and "PME (combination 1)" in out

    @pytest.mark.parametrize("chain, code", [(254, EXIT_OK), (255, EXIT_PARSE), (3000, EXIT_PARSE)])
    def test_pme_document_nesting(self, chain, code, tmp_path, capsys):
        # the solved cell's input, nested in ``solved`` and ``plus``; an even
        # chain of transposes and the extra terms leave its value B_L
        _, out, _ = run_main(["derive", TRSM_OP, "--format", "json"], capsys)
        doc = json.loads(out)
        deep = "(trans " * chain + "B_L" + ")" * chain
        doc["pmes"][0]["cells"][0]["equation"] = (
            f"(eq X_L (solved Trsm L_TL (plus {deep} (minus B_L) B_L)))"
        )
        pme_file = tmp_path / "deep.json"
        pme_file.write_text(json.dumps(doc))
        args = ["check", TRSM_OP, str(pme_file), "--trials", "2"]
        if code == EXIT_OK:
            got, out, _ = run_main(args, capsys)
            assert got == EXIT_OK and out.count("PASS") == len(doc["pmes"])
        else:
            self._error(args, capsys, "prefix form nested deeper than 256 levels")

    @pytest.mark.parametrize(
        "post, message",
        [
            ("X = " + " * ".join(["A"] * 13), "product weight 13, at most 12"),
            ("X = " + " * ".join(["A"] * 40), "product weight 40, at most 12"),
            ("X = " + " + ".join(["A"] * 64), "operand occurrences 65, at most 64"),
            ("X = " + " + ".join(["A"] * 1000), "operand occurrences 1001, at most 64"),
        ],
        ids=["product-13", "product-40", "sum-65", "sum-1001"],
    )
    def test_postcondition_past_size_bound(self, post, message, tmp_path, capsys):
        op = tmp_path / "big.op"
        op.write_text(_deep_op(post))
        message = f"line 4, column 1: postcondition too large: {message}"
        self._error(["derive", str(op)], capsys, message)

    @pytest.mark.parametrize(
        "post",
        ["X = " + " * ".join(["A"] * 12), "X = " + " + ".join(["A"] * 63)],
        ids=["product-12", "sum-64"],
    )
    def test_postcondition_at_size_bound_derives(self, post, tmp_path, capsys):
        op = tmp_path / "big.op"
        op.write_text(_deep_op(post))
        code, out, _ = run_main(["derive", str(op)], capsys)
        assert code == EXIT_OK and "PME (combination 1)" in out

    def test_chain_at_combination_bound_derives(self, tmp_path, capsys):
        op = tmp_path / "chain.op"
        op.write_text(_chain_op(7))
        code, out, _ = run_main(["derive", str(op)], capsys)
        assert code == EXIT_OK and "combinations: 255\n" in out
        assert out.count("PME (combination") == 255

    def test_chain_past_combination_bound(self, tmp_path, capsys):
        op = tmp_path / "chain.op"
        op.write_text(_chain_op(8))
        _, doc, _ = run_main(["derive", TRSM_OP, "--format", "json"], capsys)
        pme_file = tmp_path / "doc.json"
        pme_file.write_text(doc)
        message = (
            "error: operation chain: 511 combinations exceed the bound of 255 "
            "(9 partitionable dimension groups, at most 8)\n"
        )
        for args in (["derive", str(op)], ["check", str(op), str(pme_file)]):
            start = time.perf_counter()
            code, out, err = run_main(args, capsys)
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (EXIT_PARSE, "", message)
