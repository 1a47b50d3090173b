"""Parser for the CLI input language.

A system file is a header line ``vars: x1 x2 ... xn`` followed by one
polynomial per non-blank line.  Expressions use integer and rational
literals, declared variable names, ``+ - * ^`` and parentheses; implicit
multiplication is not allowed and whitespace is insignificant within a
line.  Lines end at \\n, \\r\\n or \\r, as in text-mode reading; other line
breaks (\\f, \\v, \\u2028, ...) are whitespace.  One regular-expression pass
cuts a line into tokens; the line is scanned again only to place an error's
column.  All errors carry a line and column.  The CLI skips a leading UTF-8
byte-order mark when it decodes a file; any other U+FEFF is an unexpected
character.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .poly import Polynomial, Space


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


# a token is a number, a name or an operator; whitespace (re's \s, str.isspace)
# separates tokens, and _BAD_RE finds the first character that is neither
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]")
_BAD_RE = re.compile(r"[^\s\dA-Za-z_+*/^()-]")
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


def _tokenize(text: str, line: int) -> list[str]:
    """The tokens of text, then "" for its end."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", line, bad.start() + 1)
    return _TOKEN_RE.findall(text) + [""]


def _column(text: str, i: int) -> int:
    """The column of token i of text; that of the end is one past the line."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return (starts[i] if i < len(starts) else len(text)) + 1


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
    Tokens are passed by index; an error finds its column from the index.
    """

    def __init__(self, text: str, tokens: list[str], names: tuple[str, ...], line: int):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.nvars = n = len(names)
        self.units = {name: (1, 1, (0,) * i + (1,) + (0,) * (n - 1 - i), 1)
                      for i, name in enumerate(names)}
        self.line = line
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> int:
        self.pos += 1
        return self.pos - 1

    def fail(self, message: str, i: int):
        raise ParseError(message, self.line, _column(self.text, i))

    def nested(self, parse, i: int):
        """Run parse one nesting level deeper; token i opened the level."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", i)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def check(self, i: int, degree: int, bits: int = 0, products: int = 0):
        """Fail at operator i if its result would pass one of the size bounds."""
        for what, value, limit in (("degree", degree, MAX_DEGREE),
                                   ("coefficient bits", bits, MAX_COEFF_BITS),
                                   ("term products", products, MAX_TERM_PRODUCTS)):
            if value > limit:
                self.fail(f"{self.tokens[i]!r} would give {what} {value}, above the bound "
                          f"{limit}", i)

    def product(self, a: Polynomial, b: Polynomial, i: int) -> Polynomial:
        # a coefficient of a*b sums at most min(|a|, |b|) products
        (da, ba), (db, bb) = _size(a), _size(b)
        na, nb = len(a.terms), len(b.terms)
        self.check(i, da + db, ba + bb + (min(na, nb) - 1).bit_length(), na * nb)
        return a * b

    def power(self, base: Polynomial, e: int, i: int) -> Polynomial:
        # base^k has at most C(m+k-1, k) terms, each coefficient a sum of
        # products of k coefficients of base, so the e - 1 multiplications by
        # base in base ** e cost at most m * C(m+e-1, e-1) term products (a
        # monomial or zero base is raised directly; e is bounded first)
        m = len(base.terms)
        degree, bits = _size(base)
        self.check(i, e * degree)
        self.check(i, 0, e * (bits + max(m - 1, 0).bit_length()),
                   m * math.comb(m + e - 1, e - 1) if e else 0)
        return base ** e

    def integer(self, i: int, message: str) -> int:
        """The value of number token i; message is the error for any other token."""
        tok = self.tokens[i]
        if not tok.isdecimal():
            self.fail(message, i)
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on decimal digits
            self.fail(f"integer literal of {len(tok)} digits is too long", i)

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
        if self.peek():
            self.fail(f"unexpected token {self.peek()!r}", self.pos)
        return result

    def expr(self):
        first = self.term()
        if self.peek() not in ("+", "-"):
            return first  # a lone term stays a term, also inside '(' ... ')'
        # one dict for the whole sum: each '+' would copy the partial sum
        total = dict(self.pairs(first))
        while self.peek() in ("+", "-"):
            plus = self.tokens[self.advance()] == "+"
            for m, c in self.pairs(self.term()):
                if not plus:
                    c = -c
                total[m] = total[m] + c if m in total else c
        return Polynomial(self.nvars, Space.PRIMAL, total)

    def term(self):
        """A product; its factors fold into one term while both are terms."""
        total = self.factor()
        while self.peek() == "*":
            i = self.advance()
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
            total = self.product(self.polynomial(total), self.polynomial(right), i)
        return total

    def factor(self):
        if self.peek() == "-":
            value = self.nested(self.factor, self.advance())
            if type(value) is tuple:
                num, den, mono, degree = value
                return -num, den, mono, degree
            return -value
        base = self.atom()
        if self.peek() != "^":
            return base
        i = self.advance()
        e = self.integer(self.advance(), "exponent must be a non-negative integer")
        if type(base) is tuple and base[0] == base[1] and base[3] == 1:
            # a variable: power() checks the degree e first, and within that bound
            # its bits (2e) and term products (e) are within theirs
            if e > MAX_DEGREE:
                self.check(i, e)
            return 1, 1, tuple([e * x for x in base[2]]), e
        return self.power(self.polynomial(base), e, i)

    def atom(self):
        i = self.advance()
        tok = self.tokens[i]
        if tok.isdecimal():  # 'num' or 'num/num'
            num, den = self.integer(i, ""), 1
            if self.peek() == "/":
                self.advance()
                j = self.advance()
                den = self.integer(j, "expected an integer denominator")
                if den == 0:
                    self.fail("division by zero in rational literal", j)
            return num, den, (0,) * self.nvars, 0
        if tok == "(":
            inner = self.nested(self.expr, i)
            j = self.advance()
            if self.tokens[j] != ")":
                self.fail("expected ')'", j)
            return inner
        unit = self.units.get(tok)
        if unit is not None:
            return unit
        if _NAME_RE.match(tok):
            self.fail(f"undeclared variable {tok!r}", i)
        self.fail(f"unexpected token {tok!r}" if tok else "unexpected end of line", i)


def parse_polynomial(text: str, names: tuple[str, ...], line: int = 1) -> Polynomial:
    """Parse a single expression line against declared variable names, as a primal form."""
    return _ExprParser(text, _tokenize(text, line), names, line).parse()


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
