"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import random_form, random_regular_sequence
from hypothesis import given, settings
from hypothesis import strategies as st

import assoform
from assoform import cli
from assoform.cli import main
from assoform.inverse_system import associated_form, perp_piece
from assoform.parsing import MAX_NESTING
from assoform.poly import Polynomial, Space


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SQUARES = "vars: x1 x2\nx1^2\nx2^2\n"


def test_assoc_golden(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "assoc", path)
    assert code == 0
    assert out.strip() == "(1/2)*z1*z2"


def test_assoc_json_schema(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "--json", "assoc", path)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "nvars", "d", "nu", "result"}
    assert report["command"] == "assoc"
    assert report["nvars"] == 2 and report["d"] == 2 and report["nu"] == 2
    assert report["result"]["form"] == "(1/2)*z1*z2"


def test_regseq_failure_exit_code(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1^2\nx1*x2\n")
    code, out, _ = run(capsys, "regseq", path)
    assert code == 2
    assert "common zero" in out


def test_regseq_success(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "regseq", path)
    assert code == 0
    assert "REGULAR" in out


def test_parse_error_exit_code(write, capsys):
    path = write("f.txt", "vars: x1\nx2\n")
    code, _, err = run(capsys, "assoc", path)
    assert code == 1
    assert "line 2" in err


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_bytes(b"vars: x1 x2\nx1^2\nx2^2 \xff\n")
    code, out, err = run(capsys, "--json", "regseq", str(path))
    assert code == 1
    assert out == ""
    assert "parse error" in err and "UTF-8" in err and "line 3, column 6" in err


def test_crlf_input_reads_like_lf(tmp_path, write, capsys):
    path = tmp_path / "crlf.txt"
    path.write_bytes(SQUARES.replace("\n", "\r\n").encode())
    code, out, _ = run(capsys, "--json", "assoc", str(path))
    assert code == 0
    assert out == run(capsys, "--json", "assoc", write("lf.txt", SQUARES))[1]


def test_missing_file(capsys):
    code, _, err = run(capsys, "assoc", "/nonexistent/file.txt")
    assert code == 1
    assert err


def test_usage_error_exit_code(write, capsys):
    path = write("f.txt", SQUARES)
    code, _, _ = run(capsys, "degenerate", path)  # --split missing
    assert code == 1
    code, _, _ = run(capsys, "no-such-command", path)
    assert code == 1


def test_hilbert(write, capsys):
    path = write("f.txt", "vars: x1 x2 x3\nx1^2\nx2^2\nx3^2\n")
    code, out, _ = run(capsys, "hilbert", path)
    assert code == 0
    assert out.strip() == "1 3 3 1 0"


def test_perp(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1*x2\n")
    code, out, _ = run(capsys, "--json", "perp", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["dims"] == [0, 0, 2, 4]
    assert report["result"]["quotient_hilbert"] == [1, 2, 1, 0]


def _perp_report(f, *options):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_text(f"vars: {' '.join(f.default_names())}\n{f.render()}\n",
                        encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", "perp", str(path), *options])
    assert code == 0
    return json.loads(out.getvalue())["result"]


@st.composite
def perp_inputs(draw):
    """Associated (Gorenstein) forms, or random dual forms; rational coefficients."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    n, d = draw(st.sampled_from([(1, 4), (2, 2), (2, 3), (2, 4), (3, 2)]))
    if draw(st.booleans()):
        f = associated_form(random_regular_sequence(rng, n, d)).form
    else:
        f = random_form(rng, n, n * (d - 1) + draw(st.integers(-1, 1)), Space.DUAL)
        if draw(st.booleans()):  # sparse: keep a few terms
            f = Polynomial(n, Space.DUAL, dict(list(f.terms.items())[:draw(st.integers(1, 3))]))
    scale = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    cap = draw(st.none() | st.integers(0, f.degree() + 2))
    return f * scale, cap


@settings(max_examples=60, deadline=None)
@given(perp_inputs())
def test_perp_dims_are_the_perp_pieces(case):
    f, cap = case
    report = _perp_report(f, *(() if cap is None else ("--degree-cap", str(cap))))
    top = f.degree() + 1 if cap is None else min(cap, f.degree() + 1)
    assert report["dims"] == [perp_piece(f, k).rows for k in range(top + 1)]


def test_perp_rank_short_mod_p():
    # only z2^4 survives mod p, but the catalecticants have full rank over Q
    f = Polynomial(2, Space.DUAL, {(4, 0): 1073741789, (0, 4): 1, (2, 2): 1073741789})
    assert _perp_report(f)["dims"] == [0, 0, 0, 2, 4, 6]


def test_koszul_check(write, capsys):
    good = write("good.txt", SQUARES)
    code, out, _ = run(capsys, "koszul-check", good)
    assert code == 0 and "yes" in out
    bad = write("bad.txt", "vars: x1 x2\nx1^2\nx1*x2\n")
    code, out, _ = run(capsys, "koszul-check", bad)
    assert code == 2 and "NO" in out


def test_decompose(write, capsys):
    path = write("f.txt", "vars: x1 x2 x3\nx1^2\nx2^2\nx3^2\n")
    code, out, _ = run(capsys, "--json", "decompose", path, "--split", "1")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["certificate"]["split"] == 1
    assert report["result"]["certificate"]["generators"] == ["x2^2", "x3^2"]

    hidden = write("g.txt", "vars: x1 x2\nx1^2 - x2^2\nx1*x2\n")
    code, out, _ = run(capsys, "--json", "decompose", hidden)
    assert code == 0
    assert json.loads(out)["result"]["certificate"] is None


def test_degenerate(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1^2 + x1*x2\nx2^2\n")
    code, out, _ = run(capsys, "degenerate", path, "--split", "1")
    assert code == 0
    assert out.splitlines() == ["x1^2", "x2^2"]


def test_a_zeroth_power_of_a_sum_is_one(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1^2*(x1+x2)^0\nx2^2\n")
    code, out, err = run(capsys, "assoc", path)
    assert (code, err) == (0, "")
    assert out.strip() == "(1/2)*z1*z2"


def test_stability_command(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "--json", "stability", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["torus_destabilizer"] is None
    assert report["result"]["binary"]["verdict"] == "PolystableNotStable"


def test_binary_stability_command(write, capsys):
    path = write("f.txt", "vars: z1 z2\nz1^3*z2\n")
    code, out, _ = run(capsys, "--json", "binary-stability", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "Unstable"
    assert report["result"]["witness"] == {"type": "one_ps", "weights": [1, -1]}


def test_mather_yau_equal(write, capsys):
    f = write("F.txt", "vars: x1 x2\nx1^4 + x2^4\n")
    g = write("G.txt", "vars: x1 x2\n(x1 + 2*x2)^4 + x2^4\n")
    code, out, _ = run(capsys, "mather-yau", f, g)
    assert code == 0
    assert out.strip() == "EQUAL"


def test_mather_yau_different(write, capsys):
    f = write("F.txt", "vars: x1 x2\nx1^4 + x2^4\n")
    h = write("H.txt", "vars: x1 x2\nx1^4 + x1*x2^3\n")
    code, out, _ = run(capsys, "mather-yau", f, h)
    assert code == 0
    assert out.strip() == "DIFFERENT"


def test_mather_yau_singular_exit(write, capsys):
    f = write("F.txt", "vars: x1 x2\nx1^4\n")
    code, _, err = run(capsys, "mather-yau", f)
    assert code == 2
    assert "singular" in err.lower() or "regular" in err.lower() \
        or "vanishes" in err.lower()


def test_audit_reports_are_reproducible(write, capsys):
    path = write("f.txt", SQUARES)
    code1, out1, _ = run(capsys, "--json", "audit", path, "--trials", "5",
                         "--seed", "11")
    code2, out2, _ = run(capsys, "--json", "audit", path, "--trials", "5",
                         "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    report = json.loads(out1)
    assert set(report) == {"command", "nvars", "d", "nu", "result", "seed"}
    assert report["seed"] == 11
    assert report["result"]["all_mins_nonpositive"] is True
    assert len(report["result"]["samples"]) == 5


@pytest.mark.parametrize("trials", ["-5", "-1", "two"])
def test_audit_bad_trials_is_usage_error(write, capsys, trials):
    path = write("f.txt", SQUARES)
    code, out, err = run(capsys, "audit", path, "--trials", trials)
    assert code == 1
    assert out == ""
    assert "--trials" in err


def test_audit_zero_trials(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "--json", "audit", path, "--trials", "0")
    assert code == 0
    assert json.loads(out)["result"]["samples"] == []


def test_inhomogeneous_input_is_precondition_failure(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1^2 + x1\nx2^2\n")
    code, _, err = run(capsys, "assoc", path)
    assert code == 2
    assert "homogeneous" in err


def test_audit_one_variable_is_precondition_failure(write):
    # a separate process, so that a hang fails the test instead of the suite
    path = write("f.txt", "vars: x1\nx1^3\n")
    src = str(Path(assoform.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "assoform.cli", "audit", path],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "2 variables" in proc.stderr


@pytest.mark.parametrize("line", [
    "(" * 3000 + "x1" + ")" * 3000 + "^2",
    "-" * 3000 + "x1^2",
])
def test_deep_nesting_is_parse_error(write, capsys, line):
    path = write("f.txt", f"vars: x1 x2\n{line}\nx2^2\n")
    code, out, err = run(capsys, "regseq", path)
    assert code == 1
    assert out == ""
    assert f"line 2, column {MAX_NESTING + 1}" in err and "nested" in err


def test_nesting_at_the_limit_parses(write, capsys):
    depth = MAX_NESTING
    path = write("f.txt", "vars: x1 x2\n" + "(" * depth + "x1" + ")" * depth
                 + "^2\n" + "-" * depth + "x2^2\n")
    code, out, _ = run(capsys, "regseq", path)
    assert code == 0 and "REGULAR" in out


@pytest.mark.parametrize("argv", [
    ["assoc", "--degree-cap", "3"],
    ["regseq", "--degree-cap", "3"],
    ["hilbert", "--degree-cap", "-1"],
    ["koszul-check", "--degree-cap", "x"],
])
def test_degree_cap_usage_errors(write, capsys, argv):
    path = write("f.txt", SQUARES)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 1
    assert out == ""
    assert "--degree-cap" in err


def test_degree_cap_bounds_the_degrees(write, capsys):
    path = write("f.txt", SQUARES)
    code, out, _ = run(capsys, "hilbert", path, "--degree-cap", "1")
    assert code == 0 and out.strip() == "1 2"
    code, out, _ = run(capsys, "--json", "koszul-check", path, "--degree-cap", "0")
    assert code == 0 and json.loads(out)["result"]["k_max"] == 0


@pytest.mark.parametrize("command", [
    "assoc", "hilbert", "regseq", "koszul-check", "decompose", "stability", "audit",
    "degenerate --split 1",
])
def test_socle_degree_above_the_cap_is_rejected(write, capsys, command):
    # n(d-1) = 2*13 = 26 > DEGREE_CAP: every system command refuses it up front
    path = write("f.txt", "vars: x1 x2\nx1^14\nx2^14\n")
    name, *extra = command.split()
    code, out, err = run(capsys, "--json", name, path, *extra)
    assert code == 2
    assert out == ""
    assert "socle degree 2*(14-1) = 26 exceeds" in err


def _cli_process(*argv, timeout=30):
    src = str(Path(assoform.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "assoform.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("line, col, what", [
    ("(x1 + x2)^3000", 10, "degree 3000"),
    ("(((((3^25)^25)^25)^25)^25)^25*x1^2", 15, "coefficient bits"),
    ("*".join(["(x1+x2)^20"] * 12), 110, "degree 220"),
    ("(x1+x2+x3)^60", 11, "term products"),
])
def test_oversized_products_are_parse_errors(write, line, col, what):
    # in a separate process with a timeout: before the bounds these expanded for minutes
    path = write("f.txt", f"vars: x1 x2 x3\n{line}\nx2^2\nx3^2\n")
    proc = _cli_process("--json", "regseq", path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"line 2, column {col}" in proc.stderr and what in proc.stderr


def test_koszul_check_on_many_linear_forms_finishes(write):
    # in a separate process with a timeout: building every d_j took 18 s and 0.8 GB
    lines = "".join(f"x1 + {i}*x2\n" for i in range(1, 25))
    proc = _cli_process("koszul-check", write("f.txt", f"vars: x1 x2\n{lines}"), timeout=10)
    assert proc.returncode == 2
    assert "up to graded degree 1: NO" in proc.stdout


def test_memory_error_is_a_precondition_failure(write, capsys, monkeypatch):
    def exhausted(_ideal):
        raise MemoryError

    monkeypatch.setattr(cli, "is_regular_sequence", exhausted)
    code, out, err = run(capsys, "regseq", write("f.txt", SQUARES))
    assert code == 2
    assert out == ""
    assert err == "assoform: regseq: out of memory; the input is too large\n"


def test_perp_refuses_a_form_above_the_degree_cap(write):
    # in a separate process with a timeout: unbounded, this ran past 20 s
    line = "(x1+2*x2)^100*(3*x1-x2)^99 + x2^199"
    path = write("f.txt", f"vars: x1 x2\n{line}\n")
    proc = _cli_process("--json", "perp", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "form degree 199 exceeds the supported bound 24" in proc.stderr
    proc = _cli_process("--json", "binary-stability", path)
    assert proc.returncode == 0


def test_perp_at_the_degree_cap_runs(write, capsys):
    path = write("f.txt", "vars: x1 x2\nx1^24 + x2^24\n")
    code, out, _ = run(capsys, "--json", "perp", path)
    assert code == 0
    assert json.loads(out)["result"]["quotient_hilbert"] == [1] + [2] * 23 + [1, 0]


@pytest.mark.parametrize("argv, key, expected", [
    (["hilbert", "--degree-cap", "40"], "values", [1, 3, 3, 1, 0]),
    (["koszul-check", "--degree-cap", "60"], "k_max", 5),
])
def test_degree_cap_never_raises_the_top_degree(write, argv, key, expected):
    # x1^2, x2^2, x3^2 (nu = 3): the cap is lowered to the default top degree,
    # nu + 1 for hilbert and nu + d for koszul-check; in a separate process
    # with a timeout, as uncapped these ran past 30 s
    path = write("f.txt", "vars: x1 x2 x3\nx1^2\nx2^2\nx3^2\n")
    proc = _cli_process("--json", argv[0], path, *argv[1:])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"][key] == expected


def test_main_builds_no_parser_per_call(write, capsys, monkeypatch):
    path = write("f.txt", SQUARES)
    built = []
    real = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    assert [run(capsys, *argv)[0] for argv in (["assoc", path], ["regseq", path],
                                               ["--json", "hilbert", path])] == [0, 0, 0]
    assert built == []
