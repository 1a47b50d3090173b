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
# Most one-parameter subgroups an audit samples (each is a line of its report).
MAX_TRIALS = 10_000


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
    """Recursive descent over one polynomial line."""

    def __init__(self, tokens: list[_Token], names: tuple[str, ...], line: int):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
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

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}", tok)
        return result

    def expr(self) -> Polynomial:
        first = self.term()
        # one dict for the whole sum: each '+' would copy the partial sum
        total = dict(first.terms)
        while self.peek().text in ("+", "-"):
            plus = self.advance().text == "+"
            for m, c in self.term().terms.items():
                total[m] = total.get(m, ZERO) + c if plus else total.get(m, ZERO) - c
        return Polynomial(first.nvars, first.space, total)

    def term(self) -> Polynomial:
        """A product, its leading run of simple factors folded into one term.

        The run's '*'s pass product()'s checks, which the summed degree and the
        unreduced num/den bound; the general path parses the rest as before.
        """
        num = den = 1
        start = pos = self.pos
        degree, exps = 0, [0] * len(self.names)
        found = self.simple(self.depth)
        while found:
            fnum, fden, var, e = found
            if (degree + e > MAX_DEGREE or num.bit_length() + den.bit_length()
                    + fnum.bit_length() + fden.bit_length() > MAX_COEFF_BITS):
                break
            num, den, degree, pos = num * fnum, den * fden, degree + e, self.pos
            if e:
                exps[var] += e
            found = self.advance().text == "*" and self.simple(self.depth)
        self.pos = pos
        total = (self.factor() if pos == start else
                 Polynomial(len(self.names), Space.PRIMAL, {tuple(exps): Fraction(num, den)}))
        while self.peek().text == "*":
            tok = self.advance()
            total = self.product(total, self.factor(), tok)
        return total

    def simple(self, depth: int) -> tuple[int, int, int, int] | None:
        """(num, den, var, e) if the factor at the cursor, depth levels deep, is
        num/den * x_var^e: a literal or variable^literal under '-' and '('; else None."""
        tok = self.advance()
        if tok.text in ("-", "("):
            inner = depth < MAX_NESTING and self.simple(depth + 1)
            if not inner or tok.text == "(" and (self.advance().text != ")"
                                                 or self.peek().text == "^"):
                return None
            num, den, var, e = inner
            return -num if tok.text == "-" else num, den, var, e
        if tok.kind == "num":
            num, den = self.literal(tok)
            return None if self.peek().text == "^" else (num, den, 0, 0)
        var = self.index.get(tok.text)
        if var is None or self.peek().text != "^":
            return None if var is None else (1, 1, var, 1)
        self.advance()
        return 1, 1, var, self.exponent()

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            return -self.nested(self.factor, tok)
        base = self.atom()
        if self.peek().text == "^":
            tok = self.advance()
            return self.power(base, self.exponent(), tok)
        return base

    def exponent(self) -> int:
        etok = self.advance()
        if etok.kind != "num":
            self.fail("exponent must be a non-negative integer", etok)
        return _int(etok, self.line)

    def literal(self, tok: _Token) -> tuple[int, int]:
        """Numerator and denominator of the literal tok starts, 'num' or 'num/num'."""
        num = _int(tok, self.line)
        if self.peek().text != "/":
            return num, 1
        self.advance()
        dtok = self.advance()
        if dtok.kind != "num":
            self.fail("expected an integer denominator", dtok)
        den = _int(dtok, self.line)
        if den == 0:
            self.fail("division by zero in rational literal", dtok)
        return num, den

    def atom(self) -> Polynomial:
        tok = self.advance()
        n = len(self.names)
        if tok.kind == "num":
            return Polynomial.constant(n, Space.PRIMAL, Fraction(*self.literal(tok)))
        if tok.kind == "ident":
            idx = self.index.get(tok.text)
            if idx is None:
                raise ParseError(f"undeclared variable {tok.text!r}", self.line, tok.col)
            return Polynomial.variable(n, idx, Space.PRIMAL)
        if tok.text == "(":
            inner = self.nested(self.expr, tok)
            closing = self.advance()
            if closing.text != ")":
                self.fail("expected ')'", closing)
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of line", self.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.col)


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
