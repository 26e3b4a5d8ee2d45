"""Command-line interface: outputs, determinism, exit codes."""

import hashlib
import json

import pytest

from hlvertex.cli import main


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

    def test_zero_value(self, capsys):
        code, out, _ = run(capsys, "kostka", "--lambda", "1,1",
                           "--gamma", "2;0")
        assert code == 0
        assert out == "0\n"


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

    def test_table_json_and_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HLVERTEX_CACHE_DIR", str(tmp_path))
        code, out1, _ = run(capsys, "table", "--eta", "1,1",
                            "--max-degree", "2", "--json")
        assert code == 0
        assert list(tmp_path.iterdir())
        code, out2, _ = run(capsys, "table", "--eta", "1,1",
                            "--max-degree", "2", "--json")
        assert code == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["eta"] == [1, 1]
        assert len(data["rows"]) == 4

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


def write_signed(entry, stored):
    """Write an edited cache entry together with a digest that matches its
    edited rows, so that only the Kostant recheck can catch the edit."""
    rows = json.dumps(stored["rows"], sort_keys=True, separators=(",", ":"))
    stored["sha256"] = hashlib.sha256(rows.encode()).hexdigest()
    entry.write_text(json.dumps(stored), encoding="utf-8")


class TestTableCache:
    ARGS = ("table", "--eta", "2,1", "--max-degree", "3", "--json")

    def _entry(self, capsys, tmp_path, monkeypatch, args=ARGS):
        monkeypatch.setenv("HLVERTEX_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, *args)
        assert code == 0
        (entry,) = tmp_path.iterdir()
        return out, entry

    def test_truncated_entry_is_a_miss(self, capsys, tmp_path, monkeypatch, caplog):
        fresh, entry = self._entry(capsys, tmp_path, monkeypatch)
        text = entry.read_text(encoding="utf-8")
        entry.write_text(text[:len(text) // 2], encoding="utf-8")
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0 and out == fresh
        assert "ignoring unreadable cache entry" in caplog.text
        assert entry.read_text(encoding="utf-8") == text
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]

    def test_edited_entry_is_not_served_under_both(self, capsys, tmp_path,
                                                    monkeypatch, caplog):
        fresh, entry = self._entry(capsys, tmp_path, monkeypatch)
        stored = json.loads(entry.read_text(encoding="utf-8"))
        stored["rows"][0]["K"] = {"7": 1}
        write_signed(entry, stored)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0 and out == fresh
        assert "disagrees with the Kostant engine" in caplog.text
        del stored["rows"][0]
        write_signed(entry, stored)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0 and out == fresh
        # equal as numbers but not as text: nothing read from disk is printed
        stored = json.loads(entry.read_text(encoding="utf-8"))
        stored["rows"][0]["lambda"] = [float(x) for x in stored["rows"][0]["lambda"]]
        write_signed(entry, stored)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0 and out == fresh

    @pytest.mark.parametrize("method", ["kostant", "vertex", "both"])
    def test_entry_not_matching_its_digest_is_a_miss(self, capsys, tmp_path,
                                                      monkeypatch, caplog, method):
        args = ("table", "--eta", "1,1", "--max-degree", "2", "--method", method)
        fresh, entry = self._entry(capsys, tmp_path, monkeypatch, args)
        text = entry.read_text(encoding="utf-8")
        stored = json.loads(text)
        (row,) = [r for r in stored["rows"] if r["K"] == {"1": 1}]
        row["K"] = {"5": 3}
        entry.write_text(json.dumps(stored), encoding="utf-8")
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == fresh
        assert "3*q^5" not in out
        assert "rows do not match the stored digest" in caplog.text
        assert entry.read_text(encoding="utf-8") == text


class TestCheckCommand:
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

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
