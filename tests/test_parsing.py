"""Tests for the input grammar and the render/parse round trip."""

import math
import random
from fractions import Fraction

import pytest
from helpers import random_form

from assoform.parsing import (MAX_COEFF_BITS, MAX_DEGREE, MAX_TERM_PRODUCTS,
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
        reparsed = parse_polynomial(poly.render(), names, space=space)
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
