"""Frozen CLI outputs: every subcommand's stdout and exit code, byte for byte.

``cli_golden/cases.json`` lists argv vectors over the input files beside it
(file names are relative to that directory), each with the exact stdout
text and exit code the CLI gave when the corpus was recorded.  Stderr is
not pinned: error messages may be reworded, the contract is stdout and the
exit code.  The expected outputs are data, never regenerated to make a
change pass.
"""

import json
from pathlib import Path

import pytest

from assoform.cli import main

CORPUS = Path(__file__).parent / "cli_golden"
CASES = json.loads((CORPUS / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(CORPUS)
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert out.encode("utf-8") == case["stdout"].encode("utf-8")
    assert code == case["exit"]


SUBCOMMANDS = {"assoc", "perp", "hilbert", "regseq", "koszul-check", "decompose",
               "degenerate", "stability", "binary-stability", "mather-yau", "audit"}


def test_corpus_covers_every_subcommand():
    commands = {c["argv"][1] if c["argv"][0] == "--json" else c["argv"][0]
                for c in CASES}
    assert commands == SUBCOMMANDS
    assert all(any(c["argv"][:2] == ["--json", name] for c in CASES)
               for name in SUBCOMMANDS)
