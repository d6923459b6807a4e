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
dropped), and parse(format(f)) == f; a coefficient or an exponent past
Python's int-to-str limit raises a `RewritingError` that names its term
or variable.  Both work on the stored form of `TruncatedSeries`, with no
`Fraction`.
"""

from __future__ import annotations

import re
from typing import Optional

from .ars import BACKWARD, FORWARD, Conversion, FiniteARS
from .errors import ParseError, RewritingError
from .monomials import require_int, require_type
from .rewrite import ReductionTrace, RuleSet
from .series import _Q, TruncatedSeries, _add, _div

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


def _column(text: str, k: int, scanner: re.Pattern = _TOKEN) -> int:
    """Token k's column in text, or the one past the text; found only for errors."""
    return [*(m.start() + 1 for m in scanner.finditer(text)), len(text) + 1][k]


def _number(text: str, tokens: list, i: int, line: int, field: int = 0) -> int:
    """Token i's digits as an int: field 0 reads a number, 1 a variable's index."""
    digits = tokens[i][field][field:]
    if not digits:
        raise ParseError("expected a number", line, _column(text, i))
    try:
        return int(digits)
    except ValueError:   # past the digit limit: the parse error at the digits
        return _int(digits, line, _column(text, i) + field)


def _unexpected(text: str, tokens: list, i: int, line: int, expected: str) -> ParseError:
    value = "".join(tokens[i])   # the one nonempty group of a token, "" at the end
    return ParseError(f"expected {expected}, found {value!r}" if value else
                      "unexpected end of input", line, _column(text, i))


def parse_series(text: str, n: int, line: int = 1) -> TruncatedSeries:
    """Parse one series in the grammar above over variables x1..xn."""
    require_type(text, str, "text")
    require_int(n, "variable count", 1)
    tokens = _TOKEN.findall(text)
    for token in tokens:
        if token[3]:   # the first bad token, so the first equal to it
            raise ParseError(f"unexpected character {token[3]!r}", line,
                             _column(text, tokens.index(token)))
    if not tokens:
        raise ParseError("empty series", line, 1)
    end = len(tokens)
    tokens.append(("", "", "", ""))   # the end: its (int, var, punct, bad) groups are empty
    terms: dict[tuple[int, ...], _Q] = {}   # the stored form of `TruncatedSeries`
    precision: Optional[int] = None
    i = 0
    while i < end:
        if precision is not None:
            raise ParseError("O(...) must be the last addend", line, _column(text, i))
        punct = tokens[i][2]
        sign = -1 if punct == "-" else 1
        if punct == "+" or punct == "-":
            i += 1
            if i == end:
                raise ParseError("dangling sign", line, len(text) + 1)
            punct = tokens[i][2]
        elif i:
            raise _unexpected(text, tokens, i, line, "'+' or '-'")

        if punct == "O":
            if sign < 0:
                raise ParseError("O(...) cannot be subtracted", line, _column(text, i))
            if tokens[i + 1][2] != "(":
                raise _unexpected(text, tokens, i + 1, line, "'('")
            precision = _number(text, tokens, i + 2, line)
            if tokens[i + 3][2] != ")":
                raise _unexpected(text, tokens, i + 3, line, "')'")
            i += 4
            continue

        num, den, exps = sign, 1, [0] * n
        monomial = bool(tokens[i][1])
        if tokens[i][0]:
            num *= _number(text, tokens, i, line)
            i += 1
            if tokens[i][2] == "/":
                den = _number(text, tokens, i + 1, line)
                if den == 0:
                    raise ParseError("zero denominator", line, _column(text, i + 1))
                i += 2
            if tokens[i][2] == "*":
                i, monomial = i + 1, True
        elif not monomial:
            raise _unexpected(text, tokens, i, line, "a term")
        while monomial:   # factor ('*' factor)*, from tokens[i]
            if not tokens[i][1]:
                raise _unexpected(text, tokens, i, line, "a variable")
            k = _number(text, tokens, i, line, 1)
            if not 1 <= k <= n:
                raise ParseError(f"unknown variable {tokens[i][1]} (have x1..x{n})",
                                 line, _column(text, i))
            if tokens[i + 1][2] == "^":
                exps[k - 1] += _number(text, tokens, i + 2, line)
                i += 3
            else:
                exps[k - 1] += 1
                i += 1
            monomial = tokens[i][2] == "*" and bool(tokens[i + 1][1])
            if monomial:
                i += 1
        e = tuple(exps)
        terms[e] = _add(terms.get(e, 0), num if den == 1 else _div(num, den))

    # What the public constructor keeps: nonzero terms below the precision.
    return TruncatedSeries._from_clean(n, {e: c for e, c in terms.items() if c and (
        precision is None or sum(e) < precision)}, precision)


def _coefficient(num, den: int, term: str, step: Optional[int] = None) -> str:
    """num/den, or num alone when den is 1, as text for the coefficient of term
    (in a trace, of step `step`); one past Python's int-to-str limit is an error."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        where = "" if step is None else f" in step {step}"
        raise RewritingError(f"the coefficient of {term}{where} is past Python's "
                             "int-to-str limit") from None


def exponent_text(exponents: tuple[int, ...]) -> str:
    """The monomial's text in the series grammar: `x2*x3^4`, or `1`.  An
    exponent past Python's int-to-str limit is an error naming its variable."""
    try:
        return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                        for i, e in enumerate(exponents, 1) if e) or "1"
    except ValueError:   # then the largest exponent is past the limit
        i = 1 + max(range(len(exponents)), key=exponents.__getitem__)
        raise RewritingError(f"the exponent of x{i} is past Python's int-to-str limit") from None


def format_series(f: TruncatedSeries) -> str:
    require_type(f, TruncatedSeries, "series")
    if f.known_zero():
        return "0" if f.precision is None else f"O({f.precision})"
    parts = []
    for k, (d, e, c) in enumerate(sorted((sum(e), e, c) for e, c in f._terms.items())):
        num, den = (c, 1) if type(c) is int else c
        term = exponent_text(e)
        if not d:
            body = _coefficient(abs(num), den, term)
        elif den == 1 and abs(num) == 1:
            body = term
        else:
            body = f"{_coefficient(abs(num), den, term)}*{term}"
        sign = (" - " if num < 0 else " + ") if k else "-" if num < 0 else ""
        parts.append(sign + body)
    out = "".join(parts)
    if f.precision is not None:
        out += f" + O({f.precision})"
    return out


def parse_rules(text: str, n: int) -> RuleSet:
    """One series per non-blank line; position among non-blank lines fixes
    the 1-based rule index."""
    require_type(text, str, "text")
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
    require_type(trace, ReductionTrace, "trace")
    return [f"step {k}: M={exponent_text(s.monomial.exponents)} rule={s.rule_index} "
            f"m={(m := exponent_text(s.quotient.exponents))} c={_coefficient(s.coeff, 1, m, k)}"
            for k, s in enumerate(trace.steps, start=1)]


# -- finite-system text formats ----------------------------------------------

def parse_ars_system(text: str) -> FiniteARS:
    """First non-blank line `n=<size>`, then one `a -> b` edge per line."""
    require_type(text, str, "text")
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
        try:
            a, b = int(m.group(1)), int(m.group(2))
        except ValueError:   # past the digit limit: the parse error at the label
            a, b = (_int(m.group(k), lineno, m.start(k) + 1) for k in (1, 2))
        if not (0 <= a < size and 0 <= b < size):
            column = m.start(1) + 1 if a >= size else m.start(2) + 1
            raise ParseError(f"edge {a} -> {b} outside 0..{size - 1}", lineno, column)
        edges.append((a, b))
    return FiniteARS._from_clean(size, edges)


def parse_conversion(text: str) -> Conversion:
    """Alternating element / arrow tokens: `0 <- 1 -> 2`."""
    require_type(text, str, "text")
    tokens = text.split()
    if not tokens:
        raise ParseError("empty conversion", 1, 1)

    def element(k: int, message: str) -> int:
        token = tokens[k] if k < len(tokens) else ""
        if not token.isdecimal():
            raise ParseError(message, 1, _column(text, k, _WORD))
        try:
            return int(token)
        except ValueError:   # past the digit limit: the parse error at the token
            return _int(token, 1, _column(text, k, _WORD))

    start = element(0, f"expected an element, found {tokens[0]!r}")
    steps = []
    for k in range(1, len(tokens), 2):
        if tokens[k] not in ("->", "<-"):
            raise ParseError(f"expected '->' or '<-', found {tokens[k]!r}",
                             1, _column(text, k, _WORD))
        steps.append((element(k + 1, "arrow must be followed by an element"),
                      FORWARD if tokens[k] == "->" else BACKWARD))
    return Conversion(start, tuple(steps))


def format_conversion(conv: Conversion) -> str:
    require_type(conv, Conversion, "conversion")
    parts = [str(conv.start)]
    for e, d in conv.steps:
        parts.append("->" if d == FORWARD else "<-")
        parts.append(str(e))
    return " ".join(parts)
