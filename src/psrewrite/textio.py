"""Text formats: the series grammar, rule files, finite-system files.

Series grammar (one series per line in rule files):

    series  := [sign] addend (sign addend)*
    addend  := term | 'O' '(' nat ')'
    term    := coeff ['*' monomial] | monomial
    coeff   := nat ['/' nat]
    monomial:= factor ('*' factor)*
    factor  := var ['^' nat]          var = x1 .. xn

At most one O(p) addend is allowed and it must come last; it sets the
precision, and its absence means the polynomial is exact.  Lexical rules,
as the scanner `_TOKEN` defines them:

- whitespace may separate any two tokens;
- nat is a run of decimal digits (Unicode ones too, as `int` reads them),
  and var is `x` and digits read as a number, so `x01` is `x1`;
- a character that starts no token is reported before any grammar error.

Formatting is canonical (terms ascending for deglex, unit coefficients
dropped), and parse(format(f)) == f; a coefficient past Python's
int-to-str limit raises a `RewritingError` that names its term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .ars import BACKWARD, FORWARD, Conversion, FiniteARS
from .errors import ParseError, RewritingError
from .monomials import Monomial, deglex_key, require_int
from .rewrite import ReductionTrace, RuleSet
from .series import TruncatedSeries

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>x\d+)|(?P<punct>[O+\-*/^()])|(?P<bad>\S)")
_SIZE = re.compile(r"\s*n\s*=\s*(\d+)\s*")
_EDGE = re.compile(r"\s*(\d+)\s*->\s*(\d+)\s*")
# The longest start of a line that could begin a size or an edge line: a
# bad line's error column is just past it.
_SIZE_PREFIX = re.compile(r"\s*(?:n\s*(?:=\s*(?:\d+\s*)?)?)?")
_EDGE_PREFIX = re.compile(r"\s*(?:\d+\s*(?:->\s*(?:\d+\s*)?)?)?")
_WORD = re.compile(r"\S+")


def _int(digits: str, line: int, column: int) -> int:
    """The decimal literal as an int.  A literal past Python's limit on
    int conversion (4,300 digits by default) is a parse error at it."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number with {len(digits)} digits is too long",
                         line, column) from None


def _number(tokens: list, i: int, line: int) -> int:
    kind, value, col = tokens[i]
    if kind != "int":
        raise ParseError("expected a number", line, col)
    return _int(value, line, col)


def _expect(tokens: list, i: int, punct: str, line: int) -> None:
    kind, value, col = tokens[i]
    if value != punct:
        raise ParseError("unexpected end of input" if kind == "end" else
                         f"expected {punct!r}, found {value!r}", line, col)


def parse_series(text: str, n: int, line: int = 1) -> TruncatedSeries:
    """Parse one series in the grammar above over variables x1..xn."""
    require_int(n, "variable count", 1)
    tokens = [(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN.finditer(text)]
    for kind, value, col in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, col)
    if not tokens:
        raise ParseError("empty series", line, 1)
    tokens.append(("end", "", len(text) + 1))
    terms: dict[Monomial, Fraction] = {}
    precision: Optional[int] = None
    i = 0
    while tokens[i][0] != "end":
        kind, value, col = tokens[i]
        if precision is not None:
            raise ParseError("O(...) must be the last addend", line, col)
        sign = -1 if value == "-" else 1
        if value in ("+", "-"):
            i += 1
            kind, value, col = tokens[i]
            if kind == "end":
                raise ParseError("dangling sign", line, col)
        elif i:
            raise ParseError(f"expected '+' or '-', found {value!r}", line, col)

        if value == "O":
            if sign < 0:
                raise ParseError("O(...) cannot be subtracted", line, col)
            _expect(tokens, i + 1, "(", line)
            precision = _number(tokens, i + 2, line)
            _expect(tokens, i + 3, ")", line)
            i += 4
            continue

        num, den, exps = sign, 1, [0] * n
        monomial = kind == "var"
        if kind == "int":
            num *= _number(tokens, i, line)
            i += 1
            if tokens[i][1] == "/":
                den = _number(tokens, i + 1, line)
                if den == 0:
                    raise ParseError("zero denominator", line, tokens[i + 1][2])
                i += 2
            if tokens[i][1] == "*":
                i, monomial = i + 1, True
        elif not monomial:
            raise ParseError(f"expected a term, found {value!r}", line, col)
        while monomial:   # factor ('*' factor)*, from tokens[i]
            kind, value, col = tokens[i]
            if kind != "var":
                raise ParseError("unexpected end of input" if kind == "end" else
                                 f"expected a variable, found {value!r}", line, col)
            k = _int(value[1:], line, col + 1)
            if not 1 <= k <= n:
                raise ParseError(f"unknown variable {value} (have x1..x{n})", line, col)
            if tokens[i + 1][1] == "^":
                exps[k - 1] += _number(tokens, i + 2, line)
                i += 3
            else:
                exps[k - 1] += 1
                i += 1
            monomial = tokens[i][1] == "*" and tokens[i + 1][0] == "var"
            if monomial:
                i += 1
        m = Monomial._trusted(tuple(exps))
        terms[m] = terms.get(m, 0) + Fraction(num, den)

    return TruncatedSeries(n, terms, precision)


def _coefficient(c: Fraction, m: Monomial, step: Optional[int] = None) -> str:
    """str(c) for the coefficient of m (in a trace, of step `step`); one
    past Python's int-to-str limit is an error that names its term."""
    try:
        return str(c)
    except ValueError:
        where = "" if step is None else f" in step {step}"
        raise RewritingError(f"the coefficient of {m}{where} is past Python's "
                             "int-to-str limit") from None


def format_series(f: TruncatedSeries) -> str:
    if f.known_zero():
        return "0" if f.precision is None else f"O({f.precision})"
    parts = []
    for k, (m, c) in enumerate(sorted(f.items(), key=lambda t: deglex_key(t[0]))):
        mag = -c if c < 0 else c
        if not m.degree:
            body = _coefficient(mag, m)
        elif mag == 1:
            body = str(m)
        else:
            body = f"{_coefficient(mag, m)}*{m}"
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
    return RuleSet(bodies, n)


def format_trace(trace: ReductionTrace) -> list[str]:
    """Line-oriented step records for diffing."""
    return [
        f"step {k}: M={s.monomial} rule={s.rule_index} m={s.quotient} "
        f"c={_coefficient(s.coeff, s.quotient, k)}"
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
    return FiniteARS(size, edges)


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
