"""Fuzzing the parser and the CLI: every input ends in time with a contract exit code.

Short system files are sums of products of wrapped, powered atoms, or runs
of raw tokens; the alphabet includes deep parentheses, runs of unary
minus, large exponents of sums and constants, and stray characters.
Each example runs ``main`` in-process under a real-time alarm, so a hang
fails the example instead of stalling the suite.  An exception escaping
``main`` would print a traceback from the installed script; here it fails
the example directly.
"""

import contextlib
import io
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from assoform.cli import main

NOISE = ["x1", "x2", "x3", "3", "0", "1/0", "+", "-", "*", "^", "^2", "(", ")",
         "(" * 60, ")" * 60, "$", "\t", " "]
ATOMS = ["x1", "x2", "3", "12", "(1/2)", "7/3", "(x1+x2)", "(x1-2*x2)", "(3^25)"]
EXPONENTS = ["", "", "", "^2", "^3", "^13", "^25", "^40", "^201", "^3000"]
# mostly within parsing.MAX_NESTING = 100, sometimes past it
WRAPS = [("", "")] * 4 + [("-", ""), ("-" * 60, ""), ("(" * 60, ")" * 60),
                          ("(" * 120, ")" * 120)]

COMMANDS = ["assoc", "regseq", "hilbert", "koszul-check", "decompose", "stability",
            "audit", "perp", "binary-stability", "mather-yau"]

LIMIT_S = 20

factors = st.builds(lambda wrap, atom, exp: wrap[0] + atom + exp + wrap[1],
                    st.sampled_from(WRAPS), st.sampled_from(ATOMS),
                    st.sampled_from(EXPONENTS))
terms = st.lists(factors, min_size=1, max_size=4).map("*".join)
lines = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map(" + ".join),
    st.lists(st.sampled_from(NOISE + ATOMS + EXPONENTS), max_size=12).map("".join))
files = st.lists(lines, min_size=1, max_size=3).map(
    lambda body: "vars: x1 x2\n" + "\n".join(body) + "\n")


class _Overtime(Exception):
    pass


def _alarm(signum, frame):
    raise _Overtime(f"example ran past {LIMIT_S} s")


@pytest.fixture
def alarm():
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs a real-time interval timer")
    previous = signal.signal(signal.SIGALRM, _alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=files, command=st.sampled_from(COMMANDS))
def test_every_input_ends_with_a_contract_exit_code(tmp_path, alarm, text, command):
    path = tmp_path / "f.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json", command, str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or out.getvalue() == ""
    assert time.perf_counter() - start < LIMIT_S
