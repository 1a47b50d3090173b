"""Golden CLI runs under the benchmark tracer print what they print without it.

``perfbench/tracing.py`` wraps library functions at every import site and
reads their arguments and results (``rank`` and ``rref`` take a matrix with
``rows`` and ``cols``), so a changed signature would only break a traced
benchmark run.  The golden ``assoc``, ``perp``, ``hilbert`` and
``koszul-check`` cases run here in a fresh interpreter with the tracer
installed, and their stdout must be byte-identical to the corpus.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "cli_golden"
COMMANDS = {"assoc", "perp", "hilbert", "koszul-check"}

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import assoform.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
from assoform.cli import main
mismatches = []
for case in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(case["argv"]))
    if out.getvalue() != case["stdout"] or code != case["exit"]:
        mismatches.append(case["argv"])
print(json.dumps({"mismatches": mismatches, "spans": len(tracer.spans)}))
"""


def test_traced_golden_runs_are_byte_identical():
    if not (ROOT / "perfbench" / "tracing.py").exists():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    cases = [c for c in json.loads((CORPUS / "cases.json").read_text(encoding="utf-8"))
             if c["argv"][c["argv"][0] == "--json"] in COMMANDS]
    assert {c["argv"][c["argv"][0] == "--json"] for c in cases} == COMMANDS
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        input=json.dumps(cases), capture_output=True, text=True, cwd=CORPUS, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["mismatches"] == []
    assert report["spans"] > len(cases)
