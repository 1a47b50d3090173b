"""Tests for the input grammar and the render/parse round trip."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import from_monomial, random_form, reference_parse_polynomial
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assoform
from assoform.parsing import (MAX_COEFF_BITS, MAX_DEGREE, MAX_NESTING, MAX_TERM_PRODUCTS,
                              ParseError, parse_polynomial, parse_system)
from assoform.poly import Polynomial, Space, monomials_of_degree


def test_parse_basic_system():
    system = parse_system("vars: x1 x2\nx1^2 + x2^2\n")
    assert system.nvars == 2
    assert system.names == ("x1", "x2")
    assert system.polynomials == (
        Polynomial(2, Space.PRIMAL, {(2, 0): 1, (0, 2): 1}),)


def test_parse_rational_coefficient():
    system = parse_system("vars: x1\n(1/2)*x1^3\n")
    assert system.polynomials[0] == Polynomial(1, Space.PRIMAL,
                                               {(3,): Fraction(1, 2)})


def test_parse_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_system("vars: x1\nx2\n")
    assert err.value.line == 2 and err.value.col == 1
    assert "undeclared variable" in str(err.value)


def test_parse_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("vars: x1\nx1 + $\n")
    assert err.value.line == 2 and err.value.col == 6
    assert "unexpected character" in str(err.value)


def test_parse_non_integer_exponent():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1^(1/2)", ("x1",))
    assert "exponent must be a non-negative integer" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x1^-2", ("x1",))


def test_parse_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x1", ("x1",))
    with pytest.raises(ParseError):
        parse_polynomial("x1 x2", ("x1", "x2"))


def test_parse_stray_division():
    with pytest.raises(ParseError):
        parse_polynomial("x1/2", ("x1",))
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ("x1",))


def test_parse_unary_minus_and_parens():
    poly = parse_polynomial("-(x1 - 2)^2", ("x1",))
    assert poly == Polynomial(1, Space.PRIMAL,
                              {(2,): -1, (1,): 4, (0,): -4})


def test_parse_header_validation():
    with pytest.raises(ParseError):
        parse_system("x1^2\n")
    with pytest.raises(ParseError):
        parse_system("vars:\nx1\n")
    with pytest.raises(ParseError):
        parse_system("vars: x1 x1\nx1\n")
    with pytest.raises(ParseError):
        parse_system("vars: x1\n\n")  # no polynomials


@pytest.mark.parametrize("text", ["vars: x1\x0bx2\nx1 + x2",           # \v in the header
                                  "vars: x1 x2\nx1 +\x0c x2",           # \f in a polynomial
                                  "vars: x1\u2028x2\r\nx1 +\x85 x2\r"])
def test_lines_end_only_at_newlines(text):
    # str.splitlines would break these lines at \v, \f, \u2028 and \x85
    system = parse_system(text)
    assert system.names == ("x1", "x2")
    assert system.polynomials == (Polynomial(2, Space.PRIMAL, {(1, 0): 1, (0, 1): 1}),)


@pytest.mark.parametrize("text, line", [("vars: x1\n", 2), ("vars: x1", 2),
                                        ("vars: x1\n\n", 3), ("vars: x1\r\n\r\n", 3)])
def test_a_final_newline_starts_no_line(text, line):
    with pytest.raises(ParseError, match="no polynomials given") as err:
        parse_system(text)
    assert err.value.line == line


def test_parse_whitespace_insignificant():
    a = parse_polynomial("x1^2+2*x1*x2", ("x1", "x2"))
    b = parse_polynomial("  x1 ^ 2 + 2 * x1 * x2 ", ("x1", "x2"))
    assert a == b


def test_roundtrip_randomized():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 3)
        space = rng.choice([Space.PRIMAL, Space.DUAL])
        poly = Polynomial(n, space, {})
        for _ in range(rng.randint(1, 5)):
            poly = poly + random_form(rng, n, rng.randint(0, 4), space=space) * \
                Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        names = tuple(poly.default_names())
        reparsed = parse_polynomial(poly.render(), names).retag(space)
        assert reparsed == poly


def test_roundtrip_fixed_renders():
    cases = ["0", "-x1^2 + x2", "(1/2)*x1*x2 - 3", "x1^4 - 4/3"]
    for text in cases:
        poly = parse_polynomial(text, ("x1", "x2"))
        assert parse_polynomial(poly.render(["x1", "x2"]), ("x1", "x2")) == poly


def test_products_up_to_the_bounds_parse():
    names = ("x1", "x2", "x3")
    f = parse_polynomial("*".join(["(x1+x2)^20"] * (MAX_DEGREE // 20)), names)
    assert f.degree() == MAX_DEGREE
    assert f.coeff((100, 100, 0)) == math.comb(200, 100)
    assert parse_polynomial("((3^25)^25)*x1", names).coeff((1, 0, 0)) == 3 ** 625
    assert len(parse_polynomial("(x1+x2+x3)^55", names).terms) == math.comb(57, 2)
    assert MAX_TERM_PRODUCTS >= 3 * math.comb(57, 3) and MAX_COEFF_BITS >= 1000


@pytest.mark.parametrize("text, col, what", [
    ("x1^201", 3, "degree 201"),
    ("x1^100*x1^101", 7, "degree 201"),
    ("(2^5000)*x1", 3, "coefficient bits"),
    ("(1/3)^5000", 6, "coefficient bits"),
    ("(x1+x2+x3)^60", 11, "term products"),
    ("1" + "0" * 5000, 1, "too long"),
])
def test_size_bounds_name_the_operator(text, col, what):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ("x1", "x2", "x3"), line=4)
    assert (err.value.line, err.value.col) == (4, col)
    assert what in str(err.value)


def test_a_long_sum_is_built_once(monkeypatch):
    # every degree-30 monomial in 3 variables: 496 terms on one line; adding
    # term by term would copy the partial sum, about 270 entries per term
    monos = monomials_of_degree(3, 30)
    text = " + ".join("*".join(f"x{i + 1}^{e}" for i, e in enumerate(m) if e)
                      for m in monos)
    entries = []
    real = Polynomial.__init__

    def spy(self, nvars, space, terms=None):
        entries.append(len(terms or {}))
        real(self, nvars, space, terms)

    monkeypatch.setattr(Polynomial, "__init__", spy)
    f = parse_polynomial(text, ("x1", "x2", "x3"))
    assert f.terms == dict.fromkeys(monos, 1)
    assert sum(entries) < 40 * len(monos)


def test_zeroth_powers_are_one():
    names = ("x1", "x2")
    one = Polynomial.constant(2, Space.PRIMAL, 1)
    for text in ("(x1+x2)^0", "x1^0", "(x1-x1)^0", "(1/2)^0"):
        assert parse_polynomial(text, names) == one


def test_a_power_of_a_monomial_multiplies_nothing(monkeypatch):
    # a power of a monomial is never built by repeated multiplication: a
    # folded term adds exponents, and the general path raises a monomial
    # directly
    calls, powers = [], []
    real_mul, real_pow = Polynomial.__mul__, Polynomial.__pow__

    def mul(self, other):
        calls.append(other)
        return real_mul(self, other)

    def power(self, e):
        powers.append(e)
        return real_pow(self, e)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(Polynomial, "__pow__", power)
    names = ("x1", "x2")
    assert parse_polynomial("x1^13*x2^7", names) == from_monomial(2, Space.PRIMAL, (13, 7))
    assert (calls, powers) == ([], [])
    assert parse_polynomial("(2*x1)^13", names) == from_monomial(2, Space.PRIMAL, (13, 0),
                                                                 2 ** 13)
    assert (calls, powers) == ([], [13])


def test_a_folded_term_builds_one_polynomial(monkeypatch):
    # a rational (4,3) line, (a/b)*x1^2*x2 per term: one Polynomial per term
    # and one for the sum, with no Polynomial per atom and no product per '*'
    rng = random.Random(23)
    monos = monomials_of_degree(4, 3)
    terms = ["(%d/%d)*%s" % (rng.randint(1, 10 ** 12), rng.randint(2, 10 ** 12),
                             "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                                      for i, e in enumerate(m) if e))
             for m in monos]
    text = "-" + "".join(t + rng.choice([" + ", " - "]) for t in terms[:-1]) + terms[-1]
    names = ("x1", "x2", "x3", "x4")
    built = []
    real = Polynomial.__init__

    def spy(self, nvars, space, terms=None):
        built.append(len(terms or {}))
        real(self, nvars, space, terms)

    expected = reference_parse_polynomial(text, names)
    monkeypatch.setattr(Polynomial, "__init__", spy)
    assert parse_polynomial(text, names) == expected
    assert len(expected.terms) == len(monos)
    assert len(built) <= len(monos) + 1


def _literal():
    # integers up to a few bits past half of MAX_COEFF_BITS, zero among them,
    # and one with more decimal digits than int() reads
    big = st.integers(0, MAX_COEFF_BITS // 2 + 40).map(lambda k: str(2 ** k - 1))
    return st.one_of(st.integers(0, 12).map(str), big, st.just("1" + "0" * 4400))


@st.composite
def _factor(draw):
    kind = draw(st.sampled_from(["num", "num", "rat", "var", "var", "power", "power", "other"]))
    if kind == "num":
        text = draw(_literal())
    elif kind == "rat":
        text = f"{draw(_literal())}/{draw(_literal())}"
    elif kind == "var":
        text = draw(st.sampled_from(["x1", "x2", "x3", "x4"]))
    elif kind == "power":
        e = draw(st.one_of(st.integers(0, 3), st.integers(MAX_DEGREE // 2 - 2, MAX_DEGREE + 2)))
        text = f"{draw(st.sampled_from(['x1', 'x2', 'x3']))}^{e}"
    else:
        text = draw(st.sampled_from(["(x1+x2)", "2^3", "(1/2)^2", "(x2)^2", "x1^x2", "1/x1",
                                     "(x1", "x1^", "", "(2*x3)", "x1^2^2", "0000000201"]))
    if draw(st.booleans()):
        text = f"({text})"
    return "-" * draw(st.integers(0, 2)) + text


@settings(max_examples=400, deadline=None)
@given(factors=st.lists(_factor(), min_size=1, max_size=7),
       joins=st.lists(st.sampled_from(["*"] * 6 + [" + ", " - "]), min_size=6, max_size=6),
       depth=st.sampled_from([0, 0, 0, 1, MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING]),
       line=st.integers(1, 9))
@example(factors=[str(2 ** 4999), str(2 ** 5000), "x1"], joins=["*"] * 6, depth=0, line=1)
@example(factors=[f"(1/{2 ** 4998})", f"{2 ** 4999}/3", "x2"], joins=["*"] * 6, depth=0,
         line=1)
@example(factors=["x1^150", "x2^50", "x3"], joins=["*"] * 6, depth=0, line=1)
@example(factors=["x1", "-2"], joins=["*"] * 6, depth=MAX_NESTING - 1, line=1)
def test_a_folded_product_matches_the_factor_by_factor_parse(factors, joins, depth, line):
    # the same polynomial as the general path, or the same error at the
    # same line and column, also for a product nested up to MAX_NESTING
    text = factors[0] + "".join(j + f for j, f in zip(joins, factors[1:]))
    text = "(" * depth + text + ")" * depth
    names = ("x1", "x2", "x3")
    try:
        expected = reference_parse_polynomial(text, names, line)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_polynomial(text, names, line)
        assert str(got.value) == str(err)
        assert (got.value.line, got.value.col) == (err.line, err.col)
    else:
        assert parse_polynomial(text, names, line) == expected


def test_a_huge_power_of_zero_is_zero():
    # a separate process, so that a power computed term by term fails the
    # test instead of hanging the suite
    src = str(Path(assoform.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("from assoform.parsing import parse_polynomial\n"
            "print(parse_polynomial('(x1-x1)^1000000000', ('x1',)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0\n")
