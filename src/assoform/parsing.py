"""Parser for the CLI input language.

A system file is a header line ``vars: x1 x2 ... xn`` followed by one
polynomial per non-blank line.  Expressions use integer and rational
literals, declared variable names, ``+ - * ^`` and parentheses; implicit
multiplication is not allowed and whitespace is insignificant within a
line.  All errors carry a line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^()]))")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Deepest nesting of '(' and unary '-' in one expression; the recursive
# descent stays far below the interpreter's recursion limit.
MAX_NESTING = 100


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

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}")
        return result

    def expr(self) -> Polynomial:
        total = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self) -> Polynomial:
        total = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            total = total * self.factor()
        return total

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.nested(self.factor, tok)
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "num":
                self.fail("exponent must be a non-negative integer", etok)
            self.advance()
            return base ** int(etok.text)
        return base

    def atom(self) -> Polynomial:
        tok = self.advance()
        n = len(self.names)
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            if self.peek().kind == "op" and self.peek().text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "num":
                    self.fail("expected an integer denominator", dtok)
                self.advance()
                if int(dtok.text) == 0:
                    self.fail("division by zero in rational literal", dtok)
                value /= int(dtok.text)
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
