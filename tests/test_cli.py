"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlvertex
import hlvertex.cli as cli
from hlvertex.cli import main
from hlvertex.rewrite import relation_instance


def source_env() -> dict:
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(hlvertex.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKostkaCommand:
    def test_both_engines_print_once(self, capsys):
        code, out, _ = run(capsys, "kostka", "--lambda", "2,0",
                           "--gamma", "1;1", "--eta", "1,1", "--method", "both")
        assert code == 0
        assert out == "q\n"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "kostka", "--lambda", "2,0",
                           "--gamma", "1;1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"lambda": [2, 0], "gamma": [[1], [1]],
                        "eta": [1, 1], "K": {"1": 1}}

    def test_eta_mismatch_is_parse_error(self, capsys):
        code, _, err = run(capsys, "kostka", "--lambda", "2,0",
                           "--gamma", "1;1", "--eta", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("method", ["kostant", "vertex", "both"])
    def test_empty_block_exits_2(self, capsys, method):
        for lam, gamma, name in (("1", "1;", "block 2"), ("", "", "block 1")):
            code, out, err = run(capsys, "kostka", "--lambda", lam,
                                 "--gamma", gamma, "--method", method)
            assert code == 2 and out == ""
            assert f"error: {name} of " in err and "is empty" in err

    def test_empty_eta_is_not_the_default(self, capsys):
        code, out, err = run(capsys, "kostka", "--lambda", "2,0",
                             "--gamma", "1;1", "--eta", "")
        assert code == 2 and out == ""
        assert "eta () does not match gamma block sizes" in err

    def test_zero_value(self, capsys):
        code, out, _ = run(capsys, "kostka", "--lambda", "1,1",
                           "--gamma", "2;0")
        assert code == 0
        assert out == "0\n"

    @staticmethod
    def singleton(n):
        return ("kostka", "--lambda", ",".join([str(n)] + ["0"] * (n - 1)),
                "--gamma", ";".join(["1"] * n))

    @pytest.mark.parametrize("method", ["kostant", "both"])
    def test_kostant_walk_past_budget_exits_2(self, capsys, method):
        code, out, err = run(capsys, *self.singleton(12), "--method", method)
        assert code == 2 and out == ""
        assert "rank 12 passes 100000 nodes" in err and "--method vertex" in err

    def test_kostant_walk_within_budget(self, capsys):
        code, out, _ = run(capsys, *self.singleton(11), "--method", "kostant")
        assert (code, out) == (0, "q^55\n")

    @pytest.mark.parametrize("method", ["kostant", "both"])
    def test_kostant_walk_cuts_a_wide_block(self, capsys, method):
        code, out, _ = run(capsys, "kostka", "--lambda", ",".join(["1000"] + ["0"] * 9),
                           "--gamma", ",".join(["100"] * 10), "--method", method)
        assert (code, out) == (0, "0\n")


class TestWordCommands:
    def test_straighten_zero(self, capsys):
        code, out, _ = run(capsys, "straighten", "--weight", "1,2")
        assert code == 0 and out == "0\n"

    def test_straighten_sign(self, capsys):
        code, out, _ = run(capsys, "straighten", "--weight", "0,2")
        assert code == 0 and out == "-H[1,1]\n"
        code, out, _ = run(capsys, "straighten", "--weight", "0,2", "--json")
        assert json.loads(out) == {"sign": -1, "weight": [1, 1]}

    def test_rewrite_worked_example(self, capsys):
        code, out, _ = run(capsys, "rewrite", "--word", "H[2,2]H[4,1]")
        assert code == 0
        assert out.strip() == ("(q^2-q)*H[3,3]H[3,0] + q^2*H[4,2]H[2,1] "
                               "- q^3*H[4,3]H[1,1] + (-q^3+q^2)*H[4,3]H[2,0] "
                               "+ (q^4-q^3)*H[4,4]H[1,0]")

    def test_shift_worked_example(self, capsys):
        code, out, _ = run(capsys, "shift", "--word", "H[5,3]H[2]")
        assert code == 0
        assert out.strip() == ("H[5]H[3,2] + q*H[5]H[4,1] + q^2*H[5]H[5,0] "
                               "- q*H[6]H[2,2] - q^2*H[6]H[3,1] - q^3*H[6]H[4,0]")

    def test_swap(self, capsys):
        code, out, _ = run(capsys, "swap", "--word", "H[1]H[1,1]")
        assert code == 0 and out.strip() == "H[1,1]H[1]"

    def test_swap_past_kernel_limit_exits_2(self, capsys):
        # factor lengths 10 and 5 need the 5 x 5 dual Cauchy kernel
        code, out, err = run(capsys, "swap", "--word",
                             "H[1,1,1,1,1,1,1,1,1,1]H[1,1,1,1,1]")
        assert code == 2 and out == ""
        assert "5 x 5 dual Cauchy kernel" in err

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--word", "H[1]", "--on-schur", "1")
        assert code == 0 and out.strip() == "s[1,1] + q*s[2]"
        code, out, _ = run(capsys, "eval", "--word", "H[2,1]")
        assert code == 0 and out.strip() == "s[2,1]"

    def test_eval_json_schema(self, capsys):
        code, out, _ = run(capsys, "eval", "--word", "H[1]",
                           "--on-schur", "1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "basis": "schur",
            "terms": [
                {"index": [1, 1], "coeff": {"num": {"0": 1}, "den": {"0": 1}}},
                {"index": [2], "coeff": {"num": {"1": 1}, "den": {"0": 1}}},
            ]}


class TestTableCommand:
    def test_table_text(self, capsys):
        code, out, _ = run(capsys, "table", "--eta", "1,1", "--max-degree", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["lambda", "gamma", "K"]
        assert len(lines) == 5

    def test_table_text_has_no_trailing_spaces(self, capsys):
        code, out, _ = run(capsys, "table", "--eta", "2,2", "--max-degree", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) > 1
        assert not [line for line in lines if line.endswith(" ")]

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "table", "--eta", "1,1",
                           "--max-degree", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["eta"] == [1, 1]
        assert len(data["rows"]) == 4

    @pytest.mark.parametrize("method", ["kostant", "vertex", "both"])
    def test_cache_dir_is_neither_read_nor_written(self, capsys, tmp_path,
                                                  monkeypatch, method):
        args = ("table", "--eta", "1,1", "--max-degree", "2",
                "--method", method, "--json")
        monkeypatch.delenv("HLVERTEX_CACHE_DIR", raising=False)
        expected = run(capsys, *args)
        # a forged entry in the signed format that earlier versions read
        rows = [{"lambda": r["lambda"], "gamma": r["gamma"], "K": {"5": 3}}
                for r in json.loads(expected[1])["rows"]]
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        key = f"table:eta=1,1:d=2:m={method}:v2"
        entry = tmp_path / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
        entry.write_text(json.dumps({"key": key, "rows": rows,
                                     "sha256": hashlib.sha256(text.encode()).hexdigest()}))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setenv("HLVERTEX_CACHE_DIR", str(tmp_path))
        assert run(capsys, *args) == expected
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_table_rejects_nonpositive_eta(self, capsys):
        for eta in ("0", "2,0", "1,-1"):
            code, out, err = run(capsys, "table", "--eta", eta, "--max-degree", "3")
            assert code == 2 and out == ""
            assert "eta parts must be positive" in err

    def test_table_rejects_degree_below_one(self, capsys):
        for degree in ("-3", "0"):
            code, out, err = run(capsys, "table", "--eta", "2", "--max-degree", degree)
            assert code == 2 and out == ""
            assert "--max-degree must be at least 1" in err


class TestCheckCommand:
    def test_identity_cases_are_not_empty(self):
        # only same-width with k == n is lhs - rhs == 0 as a formal sum
        assert len(cli._IDENTITY_CASES) == 24
        for kind, params in cli._IDENTITY_CASES:
            rel = relation_instance(kind, **params)
            assert rel.is_zero() == (kind == "same-width" and params["k"] == params["n"])

    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "identities",
                           "--max-degree", "3")
        assert code == 0
        assert "suite identities:" in out
        passed, total = out.split(":")[1].split()[0].split("/")
        assert passed == total

    def test_all_suites_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "all",
                           "--max-degree", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert set(data["suites"]) == {"identities", "colskew", "jing",
                                       "engines", "core"}

    def test_failing_check_is_reported(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "broken", lambda max_degree: [("x", False)])
        code, out, _ = run(capsys, "check", "--suite", "broken")
        assert code == 1
        assert out == "suite broken: 0/1 passed\n  FAIL x\n"
        code, out, _ = run(capsys, "check", "--suite", "broken", "--json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "suites": {"broken": {
            "passed": 0, "total": 1, "failures": ["x"]}}}

    def test_negative_degree_exits_2(self, capsys):
        for suite in ("identities", "engines", "all"):
            code, out, err = run(capsys, "check", "--suite", suite,
                                 "--max-degree", "-1")
            assert code == 2 and out == ""
            assert "--max-degree must be nonnegative" in err

    def test_suite_that_evaluates_nothing_fails(self, capsys):
        # colskew keys start at degree 1, so degree 0 leaves it nothing to check
        code, out, _ = run(capsys, "check", "--suite", "colskew",
                           "--max-degree", "0", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["suites"]["colskew"] == {
            "passed": 0, "total": 0, "failures": ["no checks evaluated"]}


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "table", "--eta", "2,1", "--max-degree", "3",
                         "--json")
        _, out2, _ = run(capsys, "table", "--eta", "2,1", "--max-degree", "3",
                         "--json")
        assert out1 == out2

    def test_bad_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "straighten", "--weight", "1,x")
        assert code == 2
        assert "entry 1" in err

    def test_bad_word_exits_2(self, capsys):
        code, _, err = run(capsys, "rewrite", "--word", "H[1]H[2]H[3]")
        assert code == 2

    def test_empty_word_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--word", "")
        assert code == 2 and out == ""
        assert err == "error: no operator blocks in ''\n"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        # the reader is gone before the first byte is written, as in
        # `hlvertex table ... | head -c 50` when head exits first; buffered,
        # this short output is still pending when the interpreter exits
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "hlvertex.cli", "table", "--eta", "2,2",
             "--max-degree", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""


class TestImportSet:
    def test_cli_import_leaves_rare_modules_unloaded(self):
        # logging and fractions (which pulls in decimal) serve only the
        # negative-coefficient warning and exact evaluation at a value of q,
        # so a cold CLI start does not pay for them; both still work
        code = (
            "import sys, hlvertex.cli\n"
            "loaded = {'logging', 'fractions', 'decimal'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
            "from fractions import Fraction\n"
            "from hlvertex import QPoly, QRat, schur, specialize_q\n"
            "assert type(QPoly({0: 1, 1: 1}).evaluate(2)) is Fraction\n"
            "f = schur((1,)).scale(QRat(1, QPoly({0: 1, 1: -1})))\n"
            "assert specialize_q(f, 2) == {(1,): Fraction(-1)}\n"
            "assert all(type(v) is Fraction for v in specialize_q(f, 2).values())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=source_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
