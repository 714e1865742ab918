"""Recorded CLI calls: every subcommand, its ``--help``, text and JSON
output, constructions with ``--as``/``--verify``, and input errors, with
their exact stdout, stderr and exit code.

Re-record after a deliberate output change with
``PYTHONPATH=src python tests/test_cli_golden.py``, and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from homkit.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_golden.json"
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []

# ``{doc}`` is ``data/cli_golden.hla`` and ``{data}`` the data directory.
COMMANDS = [
    ["--help"],
    *([name, "--help"] for name in ("check", "check-rep", "solve-rbo", "semidirect",
                                     "matched-sum", "twist", "deform", "induce")),
    [],
    ["nosuch", "{doc}"],
    ["check", "{doc}"],
    ["check", "{doc}", "A2leib", "--format", "xml"],
    ["check", "{doc}", "A2leib"],
    ["check", "{doc}", "A2assoc"],
    ["check", "{doc}", "A2poisson", "--format", "json"],
    ["check", "{doc}", "reg"],
    ["check", "{doc}", "reg", "--format", "json"],
    ["check", "{doc}", "nope"],
    ["check", "{doc}", "beta"],
    ["check", "{data}/missing.hla", "A2leib"],
    ["check-rep", "{doc}", "A2leib", "reg"],
    ["check-rep", "{doc}", "A2leib", "reg", "--format", "json"],
    ["check-rep", "{doc}", "Abelian", "back"],
    ["check-rep", "{doc}", "A2assoc", "reg"],
    ["check-rep", "{doc}", "nope", "reg"],
    ["check-rep", "{doc}", "A2leib", "nope"],
    ["check-rep", "{doc}", "A2leib", "skew"],
    ["check-rep", "{doc}", "A2leib", "skew", "--format", "json"],
    ["check", "{doc}", "skew"],
    ["solve-rbo", "{doc}", "A2assoc"],
    ["solve-rbo", "{doc}", "A2leib"],
    ["solve-rbo", "{doc}", "A2poisson"],
    ["solve-rbo", "{doc}", "A2leib", "--rep", "reg"],
    ["solve-rbo", "{doc}", "A2leib", "--format", "json"],
    ["solve-rbo", "{doc}", "A2assoc", "--format", "json"],
    ["solve-rbo", "{doc}", "Lsigns"],
    ["solve-rbo", "{doc}", "Lsigns", "--format", "json"],
    ["solve-rbo", "{doc}", "Lrep", "--rep", "LrepR"],
    ["solve-rbo", "{doc}", "Lrep", "--rep", "LrepR", "--format", "json"],
    ["solve-rbo", "{doc}", "Astuck"],
    ["solve-rbo", "{doc}", "Astuck", "--format", "json"],
    ["solve-rbo", "{doc}", "A2assoc", "--rep", "reg"],
    ["solve-rbo", "{doc}", "beta"],
    ["semidirect", "{doc}", "A2leib", "reg"],
    ["semidirect", "{doc}", "A2leib", "reg", "--verify", "--as", "sd"],
    ["semidirect", "{doc}", "A2leib", "reg", "--verify", "--format", "json"],
    ["semidirect", "{doc}", "A2assoc", "reg"],
    ["semidirect", "{doc}", "A2leib", "reg", "--as", "a-b", "--format", "json"],
    ["matched-sum", "{doc}", "A2leib", "Abelian", "reg", "back", "--verify"],
    ["matched-sum", "{doc}", "A2leib", "Abelian", "reg", "back", "--format", "json"],
    ["matched-sum", "{doc}", "A2leib", "Abelian", "back", "reg"],
    ["matched-sum", "{doc}", "A2leib", "A2leib", "reg", "reg"],
    ["twist", "{doc}", "A2leib", "--by", "beta"],
    ["twist", "{doc}", "A2leib", "--by", "beta", "--verify", "--as", "tw"],
    ["twist", "{doc}", "A2leib", "--by", "beta", "--verify", "--format", "json"],
    ["twist", "{doc}", "A2assoc", "--by", "beta", "--verify"],
    ["twist", "{doc}", "A2assoc", "--by", "idmap", "--verify"],
    ["twist", "{doc}", "A2assoc", "--by", "idmap", "--verify", "--format", "json"],
    ["twist", "{doc}", "A2leib"],
    ["twist", "{doc}", "A2leib", "--by", "nope"],
    ["twist", "{doc}", "A2leib", "--by", "badmap"],
    ["twist", "{doc}", "A2leib", "--by", "beta", "--verify", "--as", "no good"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "idmap", "--verify"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "idmap", "--format", "json"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "T"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "beta"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "notrbo"],
    ["deform", "{doc}", "A2leib", "--nijenhuis", "nope"],
    ["induce", "{doc}", "A2leib", "--t", "T", "--verify", "--as", "induced"],
    ["induce", "{doc}", "A2leib", "--t", "T", "--rep", "reg", "--format", "json"],
    ["induce", "{doc}", "A2leib", "--t", "T", "--rep", "back"],
    ["induce", "{doc}", "A2leib", "--t", "notrbo"],
    ["induce", "{doc}", "A2leib", "--t", "nope"],
]


def call(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process call, with the data
    directory written back as ``{data}``."""
    args = [a.replace("{doc}", str(DATA / "cli_golden.hla")).replace("{data}", str(DATA))
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as e:  # argparse: --help or a bad command line
            code = e.code
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue().replace(str(DATA), "{data}"),
            "stderr": err.getvalue().replace(str(DATA), "{data}")}


def test_the_recording_covers_every_command():
    assert [entry["argv"] for entry in RECORDED] == COMMANDS


@pytest.mark.parametrize("entry", RECORDED,
                         ids=lambda entry: " ".join(entry["argv"]) or "(none)")
def test_output_matches_the_recording(entry, monkeypatch):
    # argparse wraps help text to the width it reads from COLUMNS; at 120 no
    # usage line wraps, so the text is the same on Python 3.10 to 3.13.
    monkeypatch.setenv("COLUMNS", "120")
    assert call(entry["argv"]) == entry


if __name__ == "__main__":
    os.environ["COLUMNS"] = "120"
    GOLDEN.write_text(json.dumps([call(argv) for argv in COMMANDS], indent=1) + "\n")
