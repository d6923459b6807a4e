"""Slow reference series parser kept as a differential oracle.

This is the token-cursor form of `psrewrite.textio.parse_series`: an
eager tokeniser that matches one token at a time, a cursor object with
`peek`/`next`/`take_int`, and a separate monomial parser.  It builds the
same series and raises the same `ParseError` (message, line and column)
as the engine's one-pass scanner, so the two can be compared on arbitrary
text.
"""

import re
from fractions import Fraction
from typing import Optional

from psrewrite import Monomial, ParseError, TruncatedSeries
from psrewrite.textio import _int

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([O+\-*/^()]))")


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    """(kind, value, column) triples; kinds: int, var, punct."""
    text = text.rstrip()
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        col = m.start(m.lastindex) + 1
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), col))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), col))
        else:
            tokens.append(("punct", m.group(3), col))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, line, length):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.end_column = length + 1

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line, self.end_column)
        if expect is not None and tok[1] != expect:
            raise ParseError(f"expected {expect!r}, found {tok[1]!r}", self.line, tok[2])
        self.pos += 1
        return tok

    def take_int(self) -> tuple[int, int]:
        tok = self.peek()
        if tok is None or tok[0] != "int":
            col = self.end_column if tok is None else tok[2]
            raise ParseError("expected a number", self.line, col)
        self.pos += 1
        return _int(tok[1], self.line, tok[2]), tok[2]


def _parse_monomial(cur: _Cursor, n: int) -> Monomial:
    exps = [0] * n
    while True:
        kind, value, col = cur.next()
        if kind != "var":
            raise ParseError(f"expected a variable, found {value!r}", cur.line, col)
        k = _int(value[1:], cur.line, col + 1)
        if not 1 <= k <= n:
            raise ParseError(f"unknown variable {value} (have x1..x{n})", cur.line, col)
        power = 1
        tok = cur.peek()
        if tok is not None and tok[1] == "^":
            cur.next()
            power, _ = cur.take_int()
        exps[k - 1] += power
        tok = cur.peek()
        if tok is not None and tok[1] == "*" and cur.pos + 1 < len(cur.tokens) \
                and cur.tokens[cur.pos + 1][0] == "var":
            cur.next()
            continue
        return Monomial(tuple(exps))


def parse_series(text: str, n: int, line: int = 1) -> TruncatedSeries:
    """Parse one series over variables x1..xn, as the engine's parser does."""
    cur = _Cursor(_tokenize(text, line), line, len(text))
    if cur.peek() is None:
        raise ParseError("empty series", line, 1)
    terms: dict[Monomial, Fraction] = {}
    precision: Optional[int] = None

    first = True
    while True:
        tok = cur.peek()
        if tok is None:
            break
        if precision is not None:
            raise ParseError("O(...) must be the last addend", cur.line, tok[2])
        sign = 1
        if not first:
            _, value, col = cur.next()
            if value == "-":
                sign = -1
            elif value != "+":
                raise ParseError(f"expected '+' or '-', found {value!r}", cur.line, col)
            tok = cur.peek()
        elif tok[1] in "+-":
            cur.next()
            sign = -1 if tok[1] == "-" else 1
            tok = cur.peek()
        first = False
        if tok is None:
            raise ParseError("dangling sign", cur.line, cur.end_column)

        if tok[1] == "O":
            if sign < 0:
                raise ParseError("O(...) cannot be subtracted", cur.line, tok[2])
            cur.next()
            cur.next("(")
            precision, _ = cur.take_int()
            cur.next(")")
            continue

        coeff = Fraction(sign)
        monomial = None
        if tok[0] == "int":
            num, _ = cur.take_int()
            coeff *= num
            nxt = cur.peek()
            if nxt is not None and nxt[1] == "/":
                cur.next()
                den, col = cur.take_int()
                if den == 0:
                    raise ParseError("zero denominator", cur.line, col)
                coeff /= den
                nxt = cur.peek()
            if nxt is not None and nxt[1] == "*":
                cur.next()
                monomial = _parse_monomial(cur, n)
        elif tok[0] == "var":
            monomial = _parse_monomial(cur, n)
        else:
            raise ParseError(f"expected a term, found {tok[1]!r}", cur.line, tok[2])
        if monomial is None:
            monomial = Monomial((0,) * n)
        terms[monomial] = terms.get(monomial, 0) + coeff

    return TruncatedSeries(n, terms, precision)
