"""Parser for the CLI input language.

A system file is a header line ``vars: x1 x2 ... xn`` followed by one
polynomial per non-blank line.  Expressions use integer and rational
literals, declared variable names, ``+ - * ^`` and parentheses; implicit
multiplication is not allowed and whitespace is insignificant within a
line.  All errors carry a line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

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


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()]))")
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


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


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
    if len(f.terms) == 1:  # the common case, kept cheap
        ((mono, c),) = f.terms.items()
        return sum(mono), c.numerator.bit_length() + c.denominator.bit_length()
    if not f.terms:
        return 0, 0
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    top = max(abs(c.numerator) * (den // c.denominator) for c in f.terms.values())
    return f.degree(), den.bit_length() + top.bit_length()


class _ExprParser:
    """Recursive descent over one polynomial line."""

    def __init__(self, tokens: list[_Token], names: tuple[str, ...], line: int,
                 space: Space):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.line = line
        self.space = space
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok.col)

    def nested(self, parse, tok: _Token) -> Polynomial:
        """Run parse one nesting level deeper; tok opened the level."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def check(self, tok: _Token, degree: int, bits: int = 0, products: int = 0):
        """Fail at operator tok if its result would pass one of the size bounds."""
        if degree <= MAX_DEGREE and bits <= MAX_COEFF_BITS and products <= MAX_TERM_PRODUCTS:
            return
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
        m = len(base.terms)
        degree, bits = _size(base)
        if m <= 1:  # a monomial or zero: binary powering, log e tiny products
            self.check(tok, e * degree, e * bits)
            return base ** e
        # base^k has at most C(m+k-1, k) terms, each coefficient a sum of
        # products of k coefficients of base, so e multiplications by base
        # cost at most m * C(m+e-1, e-1) term products (e is bounded first)
        self.check(tok, e * degree)
        self.check(tok, 0, e * (bits + (m - 1).bit_length()),
                   m * math.comb(m + e - 1, e - 1))
        result = Polynomial.constant(base.nvars, base.space, 1)
        for _ in range(e):
            result = result * base
        return result

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}")
        return result

    def expr(self) -> Polynomial:
        first = self.term()
        # one dict for the whole sum: each '+' would copy the partial sum
        total = dict(first.terms)
        while self.peek().kind == "op" and self.peek().text in "+-":
            sign = 1 if self.advance().text == "+" else -1
            for m, c in self.term().terms.items():
                total[m] = total.get(m, ZERO) + sign * c
        return Polynomial(first.nvars, first.space, total)

    def term(self) -> Polynomial:
        total = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            tok = self.advance()
            total = self.product(total, self.factor(), tok)
        return total

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.nested(self.factor, tok)
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.advance()
            etok = self.peek()
            if etok.kind != "num":
                self.fail("exponent must be a non-negative integer", etok)
            self.advance()
            return self.power(base, _int(etok, self.line), tok)
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        n = len(self.names)
        if tok.kind == "num":
            value = Fraction(_int(tok, self.line))
            if self.peek().kind == "op" and self.peek().text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "num":
                    self.fail("expected an integer denominator", dtok)
                self.advance()
                den = _int(dtok, self.line)
                if den == 0:
                    self.fail("division by zero in rational literal", dtok)
                value /= den
            return Polynomial.constant(n, self.space, value)
        if tok.kind == "ident":
            idx = self.index.get(tok.text)
            if idx is None:
                raise ParseError(f"undeclared variable {tok.text!r}", self.line, tok.col)
            return Polynomial.variable(n, idx, self.space)
        if tok.kind == "op" and tok.text == "(":
            inner = self.nested(self.expr, tok)
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("expected ')'", closing)
            self.advance()
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of line", self.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.col)


def parse_polynomial(text: str, names: tuple[str, ...], line: int = 1,
                     space: Space = Space.PRIMAL) -> Polynomial:
    """Parse a single expression line against declared variable names."""
    return _ExprParser(_tokenize(text, line), names, line, space).parse()


def parse_system(text: str) -> InputSystem:
    """Parse a full input file: header plus one polynomial per line."""
    lines = text.splitlines()
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

    polys = []
    for i in range(header_no + 1, len(lines)):
        if lines[i].strip():
            polys.append(parse_polynomial(lines[i], names, line=i + 1))
    if not polys:
        raise ParseError("no polynomials given", len(lines) + 1, 1)
    return InputSystem(len(names), names, tuple(polys))
