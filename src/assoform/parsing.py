"""Parser for the CLI input language.

A system file is a header line ``vars: x1 x2 ... xn`` followed by one
polynomial per non-blank line.  Expressions use integer and rational
literals, declared variable names, ``+ - * ^`` and parentheses; implicit
multiplication is not allowed and whitespace is insignificant within a
line.  Lines end at \\n, \\r\\n or \\r, as in text-mode reading; other line
breaks (\\f, \\v, \\u2028, ...) are whitespace.  All errors carry a line and
column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .poly import ZERO, Polynomial, Space


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class InputSystem:
    nvars: int
    names: tuple[str, ...]
    polynomials: tuple[Polynomial, ...]


# finditer skips whitespace, which no alternative matches; 'bad' is any other character
_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
                       r"|(?P<bad>\S)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Deepest nesting of '(' and unary '-' in one expression; the recursive
# descent stays far below the interpreter's recursion limit.
MAX_NESTING = 100

# Bounds on one '*' or '^', checked from its operands before it is
# computed: the degree of the result, the size of its coefficients in bits
# (common denominator plus largest numerator over it) and the number of
# term-by-term products it costs.  Desk-scale inputs stay far below them;
# past them a line such as (x1 + x2)^3000 would expand for minutes.
MAX_DEGREE = 200
MAX_COEFF_BITS = 10_000
MAX_TERM_PRODUCTS = 100_000


class _Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = [_Token(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    bad = next((tok for tok in tokens if tok.kind == "bad"), None)
    if bad:
        raise ParseError(f"unexpected character {bad.text!r}", line, bad.col)
    return tokens + [_Token("end", "", len(text) + 1)]


def _int(tok: _Token, line: int) -> int:
    try:
        return int(tok.text)
    except ValueError:  # past the interpreter's limit on decimal digits
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         line, tok.col) from None


def _size(f: Polynomial) -> tuple[int, int]:
    """Degree and coefficient bits of f (0, 0 for zero).

    The bits are those of the common denominator L plus those of the
    largest |c * L|; both parts only add up under products.
    """
    if not f.terms:
        return 0, 0
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    top = max(abs(c.numerator) * (den // c.denominator) for c in f.terms.values())
    return f.degree(), den.bit_length() + top.bit_length()


class _ExprParser:
    """Recursive descent over one polynomial line.

    Each factor is read once, as a Polynomial or as a term (num, den,
    exponents, degree): num/den * x^exponents, num and den unreduced.
    """

    def __init__(self, tokens: list[_Token], names: tuple[str, ...], line: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = n = len(names)
        self.units = {name: (1, 1, (0,) * i + (1,) + (0,) * (n - 1 - i), 1)
                      for i, name in enumerate(names)}
        self.line = line
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, self.line, tok.col)

    def nested(self, parse, tok: _Token):
        """Run parse one nesting level deeper; tok opened the level."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def check(self, tok: _Token, degree: int, bits: int = 0, products: int = 0):
        """Fail at operator tok if its result would pass one of the size bounds."""
        for what, value, limit in (("degree", degree, MAX_DEGREE),
                                   ("coefficient bits", bits, MAX_COEFF_BITS),
                                   ("term products", products, MAX_TERM_PRODUCTS)):
            if value > limit:
                self.fail(f"{tok.text!r} would give {what} {value}, above the bound {limit}",
                          tok)

    def product(self, a: Polynomial, b: Polynomial, tok: _Token) -> Polynomial:
        # a coefficient of a*b sums at most min(|a|, |b|) products
        (da, ba), (db, bb) = _size(a), _size(b)
        na, nb = len(a.terms), len(b.terms)
        self.check(tok, da + db, ba + bb + (min(na, nb) - 1).bit_length(), na * nb)
        return a * b

    def power(self, base: Polynomial, e: int, tok: _Token) -> Polynomial:
        # base^k has at most C(m+k-1, k) terms, each coefficient a sum of
        # products of k coefficients of base, so the e - 1 multiplications by
        # base in base ** e cost at most m * C(m+e-1, e-1) term products (a
        # monomial or zero base is raised directly; e is bounded first)
        m = len(base.terms)
        degree, bits = _size(base)
        self.check(tok, e * degree)
        self.check(tok, 0, e * (bits + max(m - 1, 0).bit_length()),
                   m * math.comb(m + e - 1, e - 1) if e else 0)
        return base ** e

    @staticmethod
    def pairs(value):
        """The (monomial, coefficient) pairs of a term or a Polynomial."""
        if type(value) is tuple:
            num, den, mono, _ = value
            return ((mono, Fraction(num, den)),)
        return value.terms.items()

    def polynomial(self, value) -> Polynomial:
        """value as a Polynomial; a term becomes one of a single term."""
        if type(value) is tuple:
            return Polynomial(self.nvars, Space.PRIMAL, dict(self.pairs(value)))
        return value

    def parse(self) -> Polynomial:
        result = self.polynomial(self.expr())
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}", tok)
        return result

    def expr(self):
        first = self.term()
        if self.peek().text not in ("+", "-"):
            return first  # a lone term stays a term, also inside '(' ... ')'
        # one dict for the whole sum: each '+' would copy the partial sum
        total = dict(self.pairs(first))
        while self.peek().text in ("+", "-"):
            plus = self.advance().text == "+"
            for m, c in self.pairs(self.term()):
                total[m] = total.get(m, ZERO) + c if plus else total.get(m, ZERO) - c
        return Polynomial(self.nvars, Space.PRIMAL, total)

    def term(self):
        """A product; its factors fold into one term while both are terms."""
        total = self.factor()
        while self.peek().text == "*":
            tok = self.advance()
            right = self.factor()
            if type(total) is tuple and type(right) is tuple:
                (num, den, mono, degree), (rnum, rden, rmono, rdegree) = total, right
                # bounds on what product() checks, so a fold never skips its error
                if (degree + rdegree <= MAX_DEGREE
                        and num.bit_length() + den.bit_length() + rnum.bit_length()
                        + rden.bit_length() <= MAX_COEFF_BITS):
                    total = (num * rnum, den * rden, tuple(map(add, mono, rmono)),
                             degree + rdegree)
                    continue
            total = self.product(self.polynomial(total), self.polynomial(right), tok)
        return total

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            value = self.nested(self.factor, tok)
            if type(value) is tuple:
                num, den, mono, degree = value
                return -num, den, mono, degree
            return -value
        base = self.atom()
        if self.peek().text != "^":
            return base
        tok, etok = self.advance(), self.advance()
        if etok.kind != "num":
            self.fail("exponent must be a non-negative integer", etok)
        e = _int(etok, self.line)
        if type(base) is tuple and base[0] == base[1] and base[3] == 1:
            # a variable: power() checks the degree e first, and within that bound
            # its bits (2e) and term products (e) are within theirs
            if e > MAX_DEGREE:
                self.check(tok, e)
            return 1, 1, tuple([e * x for x in base[2]]), e
        return self.power(self.polynomial(base), e, tok)

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":  # 'num' or 'num/num'
            num, den = _int(tok, self.line), 1
            if self.peek().text == "/":
                self.advance()
                dtok = self.advance()
                if dtok.kind != "num":
                    self.fail("expected an integer denominator", dtok)
                den = _int(dtok, self.line)
                if den == 0:
                    self.fail("division by zero in rational literal", dtok)
            return num, den, (0,) * self.nvars, 0
        if tok.kind == "ident":
            unit = self.units.get(tok.text)
            if unit is None:
                self.fail(f"undeclared variable {tok.text!r}", tok)
            return unit
        if tok.text == "(":
            inner = self.nested(self.expr, tok)
            closing = self.advance()
            if closing.text != ")":
                self.fail("expected ')'", closing)
            return inner
        if tok.kind == "end":
            self.fail("unexpected end of line", tok)
        self.fail(f"unexpected token {tok.text!r}", tok)


def parse_polynomial(text: str, names: tuple[str, ...], line: int = 1) -> Polynomial:
    """Parse a single expression line against declared variable names, as a primal form."""
    return _ExprParser(_tokenize(text, line), names, line).parse()


def split_lines(text: str) -> list[str]:
    """text cut where its lines end; the last piece is what follows the last line end."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_system(text: str) -> InputSystem:
    """Parse a full input file: header plus one polynomial per line."""
    lines = split_lines(text)
    if not lines[-1]:  # a final newline ends the last line, it starts none
        lines.pop()
    header_no = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    if header_no is None:
        raise ParseError("empty input; expected a 'vars:' header", 1, 1)
    header = lines[header_no].strip()
    if not header.startswith("vars:"):
        raise ParseError("expected header of the form 'vars: x1 x2 ...'",
                         header_no + 1, 1)
    names = tuple(header[len("vars:"):].split())
    if not names:
        raise ParseError("no variables declared", header_no + 1, len(header) + 1)
    for name in names:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid variable name {name!r}", header_no + 1, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable names", header_no + 1, 1)

    polys = tuple(parse_polynomial(lines[i], names, line=i + 1)
                  for i in range(header_no + 1, len(lines)) if lines[i].strip())
    if not polys:
        raise ParseError("no polynomials given", len(lines) + 1, 1)
    return InputSystem(len(names), names, polys)
