"""Text formats: the series grammar, rule files, finite-system files.

Series grammar (one series per line in rule files):

    series  := [sign] addend (sign addend)*
    addend  := term | 'O' '(' nat ')'
    term    := coeff ['*' monomial] | monomial
    coeff   := nat ['/' nat]
    monomial:= factor ('*' factor)*
    factor  := var ['^' nat]          var = x1 .. xn

At most one O(p) addend is allowed and it must come last; it sets the
precision, and its absence means the polynomial is exact.  Formatting is
canonical (terms ascending for deglex, unit coefficients dropped), and
parse(format(f)) == f.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .ars import BACKWARD, FORWARD, Conversion, FiniteARS
from .errors import ParseError
from .monomials import Monomial
from .rewrite import ReductionTrace, RuleSet
from .series import TruncatedSeries

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([O+\-*/^()]))")
_SIZE = re.compile(r"\s*n\s*=\s*(\d+)\s*")
_EDGE = re.compile(r"\s*(\d+)\s*->\s*(\d+)\s*")
# The longest start of a line that could begin a size or an edge line: a
# bad line's error column is just past it.
_SIZE_PREFIX = re.compile(r"\s*(?:n\s*(?:=\s*(?:\d+\s*)?)?)?")
_EDGE_PREFIX = re.compile(r"\s*(?:\d+\s*(?:->\s*(?:\d+\s*)?)?)?")
_WORD = re.compile(r"\S+")


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


def _int(digits: str, line: int, column: int) -> int:
    """The decimal literal as an int.  A literal past Python's limit on
    int conversion (4,300 digits by default) is a parse error at it."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number with {len(digits)} digits is too long",
                         line, column) from None


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
    """Parse one series in the grammar above over variables x1..xn."""
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
            monomial = Monomial.one(n)
        terms[monomial] = terms.get(monomial, 0) + coeff

    return TruncatedSeries(n, terms, precision)


def format_series(f: TruncatedSeries) -> str:
    if f.known_zero():
        return "0" if f.precision is None else f"O({f.precision})"
    parts = []
    for k, (m, c) in enumerate(f.sorted_terms()):
        mag = -c if c < 0 else c
        if m.is_one():
            body = str(mag)
        elif mag == 1:
            body = str(m)
        else:
            body = f"{mag}*{m}"
        if k == 0:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"{' - ' if c < 0 else ' + '}{body}")
    out = "".join(parts)
    if f.precision is not None:
        out += f" + O({f.precision})"
    return out


def parse_rules(text: str, n: int) -> RuleSet:
    """One series per non-blank line; position among non-blank lines fixes
    the 1-based rule index."""
    bodies = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        body = parse_series(raw, n, line=lineno)
        if body.known_zero():
            raise ParseError("a rule needs a known nonzero term", lineno, 1)
        bodies.append(body)
    return RuleSet.from_series(bodies, n)


def format_trace(trace: ReductionTrace) -> list[str]:
    """Line-oriented step records for diffing."""
    return [
        f"step {k}: M={s.monomial} rule={s.rule_index} m={s.quotient} c={s.coeff}"
        for k, s in enumerate(trace.steps, start=1)
    ]


# -- finite-system text formats ----------------------------------------------

def parse_ars_system(text: str) -> FiniteARS:
    """First non-blank line `n=<size>`, then one `a -> b` edge per line."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty system", 1, 1)
    lineno, head = lines[0]
    m = _SIZE.fullmatch(head)
    if m is None:
        raise ParseError("expected n=<size>", lineno, _SIZE_PREFIX.match(head).end() + 1)
    size = _int(m.group(1), lineno, m.start(1) + 1)
    edges = []
    for lineno, ln in lines[1:]:
        m = _EDGE.fullmatch(ln)
        if m is None:
            raise ParseError("expected <a> -> <b>", lineno, _EDGE_PREFIX.match(ln).end() + 1)
        a = _int(m.group(1), lineno, m.start(1) + 1)
        b = _int(m.group(2), lineno, m.start(2) + 1)
        if not (0 <= a < size and 0 <= b < size):
            column = m.start(1) + 1 if a >= size else m.start(2) + 1
            raise ParseError(f"edge {a} -> {b} outside 0..{size - 1}", lineno, column)
        edges.append((a, b))
    return FiniteARS.build(size, edges)


def parse_conversion(text: str) -> Conversion:
    """Alternating element / arrow tokens: `0 <- 1 -> 2`."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty conversion", 1, 1)

    def column(k: int) -> int:
        """Token k's column, or the one past the text; found only for errors."""
        starts = [m.start() + 1 for m in _WORD.finditer(text)]
        return starts[k] if k < len(starts) else len(text) + 1

    def element(k: int, message: str) -> int:
        token = tokens[k] if k < len(tokens) else ""
        if not token.isdecimal():
            raise ParseError(message, 1, column(k))
        try:
            return int(token)
        except ValueError:   # past the digit limit: the parse error at the token
            return _int(token, 1, column(k))

    start = element(0, f"expected an element, found {tokens[0]!r}")
    steps = []
    for k in range(1, len(tokens), 2):
        if tokens[k] not in ("->", "<-"):
            raise ParseError(f"expected '->' or '<-', found {tokens[k]!r}", 1, column(k))
        steps.append((element(k + 1, "arrow must be followed by an element"),
                      FORWARD if tokens[k] == "->" else BACKWARD))
    return Conversion(start, tuple(steps))


def format_conversion(conv: Conversion) -> str:
    parts = [str(conv.start)]
    for e, d in conv.steps:
        parts.append("->" if d == FORWARD else "<-")
        parts.append(str(e))
    return " ".join(parts)
