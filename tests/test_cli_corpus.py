"""Golden CLI corpus: the stdout and exit code of every recorded command
must stay byte-identical.

`tests/data/cli_corpus.json` lists each command's argv, exit code and
stdout.  A change that alters output on purpose re-records it with

    PYTHONPATH=src python tests/test_cli_corpus.py

and the diff of the JSON file shows every byte that moved.
"""

import contextlib
import io
import json
import pathlib

import pytest

from hlvertex.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"

COMMANDS = [
    # kostka
    ["kostka", "--lambda", "2,0", "--gamma", "1;1"],
    ["kostka", "--lambda", "2,0", "--gamma", "1;1", "--json"],
    ["kostka", "--lambda", "2,0", "--gamma", "1;1", "--eta", "1,1", "--method", "both"],
    ["kostka", "--lambda", "2,2,0,0", "--gamma", "1,1;1,1", "--method", "kostant"],
    ["kostka", "--lambda", "2,1,0", "--gamma", "1;1;1", "--method", "vertex", "--json"],
    ["kostka", "--lambda", "1,1", "--gamma", "2;0"],
    ["kostka", "--lambda", "2,0", "--gamma", "1;1", "--eta", "2"],
    ["kostka", "--lambda", "1", "--gamma", "1;"],
    ["kostka", "--lambda", "x", "--gamma", "1"],
    # table
    ["table", "--eta", "1,1", "--max-degree", "2"],
    ["table", "--eta", "2,2", "--max-degree", "4"],
    ["table", "--eta", "2,1", "--max-degree", "3", "--json"],
    ["table", "--eta", "1,1,1", "--max-degree", "3", "--method", "kostant"],
    ["table", "--eta", "3", "--max-degree", "3", "--method", "vertex", "--json"],
    ["table", "--eta", "0", "--max-degree", "3"],
    ["table", "--eta", "2", "--max-degree", "0"],
    ["table", "--eta", "2,2"],
    # straighten
    ["straighten", "--weight", "1,2"],
    ["straighten", "--weight", "0,2"],
    ["straighten", "--weight", "0,2", "--json"],
    ["straighten", "--weight", "3,1,-2", "--json"],
    ["straighten", "--weight", "1,x"],
    # rewrite, swap, shift
    ["rewrite", "--word", "H[2,2]H[4,1]"],
    ["rewrite", "--word", "H[2,2]H[4,1]", "--json"],
    ["rewrite", "--word", "H[1,0]H[2,1]"],
    ["rewrite", "--word", "H[1]H[2]H[3]"],
    ["swap", "--word", "H[1]H[1,1]"],
    ["swap", "--word", "H[2]H[1,1]", "--json"],
    ["shift", "--word", "H[5,3]H[2]"],
    ["shift", "--word", "H[5,3]H[2]", "--direction", "left", "--json"],
    ["shift", "--word", "H[2]H[3,1]"],
    # eval
    ["eval", "--word", "H[1]", "--on-schur", "1"],
    ["eval", "--word", "H[2,1]"],
    ["eval", "--word", "H[1]", "--on-schur", "1", "--json"],
    ["eval", "--word", "H[2,2,2]H[1]", "--on-schur", "2,1"],
    ["eval", "--word", "H[1,x]"],
    # check
    ["check", "--suite", "identities", "--max-degree", "2"],
    ["check", "--suite", "colskew", "--max-degree", "2", "--json"],
    ["check", "--suite", "jing", "--max-degree", "2"],
    ["check", "--suite", "engines", "--max-degree", "2", "--json"],
    ["check", "--suite", "core", "--max-degree", "2"],
    ["check", "--suite", "all", "--max-degree", "2", "--json"],
    ["check", "--suite", "colskew", "--max-degree", "0"],
    ["check", "--suite", "all", "--max-degree", "-1"],
    # argparse errors
    ["frobnicate"],
]


def run_command(argv):
    """Exit code and stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def record():
    entries = []
    for argv in COMMANDS:
        code, stdout = run_command(argv)
        entries.append({"argv": argv, "code": code, "stdout": stdout})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_command(corpus):
    assert [e["argv"] for e in corpus] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_output_matches_corpus(corpus, index, monkeypatch):
    monkeypatch.delenv("HLVERTEX_CACHE_DIR", raising=False)
    entry = corpus[index]
    assert run_command(entry["argv"]) == (entry["code"], entry["stdout"])


if __name__ == "__main__":
    record()
