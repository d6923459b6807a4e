"""Truncated multivariate formal power series over exact rationals.

A series is stored as its known polynomial part plus a precision bound:
``precision = p`` means every coefficient of total degree < p is exact and
nothing is known beyond (the value is f + O(deg p)); ``precision = None``
means the stored polynomial is the whole value.  Arithmetic propagates
the sharpest sound precision, and stored terms are always pruned of zeros
and of degrees at or above the bound.

``_terms`` maps exponent tuples to coefficients: an int when integral,
else a pair ``(num, den)`` with ``den > 1`` and ``gcd(num, den) == 1``,
so each rational has one form and ``==`` compares dicts; floating point
never enters.  This module owns the form and its helpers.  The parser
builds it, the reducer copies it in and hands it back, the formatter and
all arithmetic read it, so no term is converted on the way.  `Monomial`
and `fractions.Fraction` objects are built only where a caller reads a
term: `items()` builds a fresh list of pairs on each call, and
`coefficient`, `leading` and pickling box what they return.

Inputs are validated once, where they enter: the public constructors
(`TruncatedSeries(n, terms, precision)` and `zero(n)`) and the
`scale_term` scalar check the variable count (an int >= 1), the precision
(an int >= 0), every monomial, and that each coefficient is a
`numbers.Rational`.
The constructor drops zeros and prunes degrees at or above the precision;
arithmetic and the rewriting engine build their results from terms that
already hold these invariants, so they skip the checks.

Leading data follows the local-order convention used for standard bases
of power series ideals: the leading monomial of f is the *minimum* of its
support under the deglex order (see `monomials`), i.e. the leading
monomial for the opposite order.  The metric ``delta(f, g) = 2^(-val(f - g))``
is the (x1..xn)-adic ultrametric, with val the smallest total degree in
the support and val(0) = infinity.  `valuation()` returns that degree as
an int, or None for the exact zero; when the known part is empty at a
finite precision it returns the precision, which is only a lower bound, and
`delta` flags its value as an upper bound then.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Optional

from .errors import DimensionMismatchError, RewritingError, ZeroOrUnknownLeadingError
from .monomials import Monomial, require_int, require_type

# The helpers keep the stored form of a rational, cancelling gcds across
# operands before they multiply (Knuth, TAOCP vol. 2, 4.5.1).  Hot loops
# add or multiply two ints inline and call them for everything else.

_Q = int | tuple[int, int]


def _narrow(c: Fraction) -> _Q:
    """c in the stored form: its numerator when integral, else a pair."""
    return c.numerator if c.denominator == 1 else (c.numerator, c.denominator)


def _fraction(c: _Q) -> Fraction:
    """The `Fraction` of a stored value, for every value a caller reads."""
    return Fraction(c) if type(c) is int else Fraction(*c)


def _neg(a: _Q) -> _Q:
    return -a if type(a) is int else (-a[0], a[1])


def _mul(a: _Q, b: _Q) -> _Q:
    if type(a) is int:
        if type(b) is int:
            return a * b
        a, b = b, a
    n, d = a
    if type(b) is int:
        g = math.gcd(b, d)
        n *= b // g
        d //= g
    else:
        bn, bd = b
        g1, g2 = math.gcd(n, bd), math.gcd(bn, d)
        n = (n // g1) * (bn // g2)
        d = (d // g2) * (bd // g1)
    return n if d == 1 else (n, d)


def _add(a: _Q, b: _Q) -> _Q:
    if type(a) is int:
        if type(b) is int:
            return a + b
        a, b = b, a
    n, d = a
    if type(b) is int:
        return (n + b * d, d)   # gcd(n + b*d, d) = gcd(n, d) = 1
    bn, bd = b
    g = math.gcd(d, bd)
    if g == 1:
        return (n * bd + bn * d, d * bd)
    t = n * (bd // g) + bn * (d // g)
    g2 = math.gcd(t, g)
    n, d = t // g2, (d // g) * (bd // g2)
    return n if d == 1 else (n, d)


def _div(a: _Q, b: _Q) -> _Q:
    """a / b for a nonzero b: a times b's inverse, in the stored form."""
    n, d = (b, 1) if type(b) is int else b
    if n < 0:
        n, d = -n, -d
    return _mul(a, d if n == 1 else (d, n))


class TruncatedSeries:
    """Immutable known-part-plus-precision representation of a series."""

    __slots__ = ("n", "_terms", "precision")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction],
                 precision: Optional[int] = None):
        require_int(n, "variable count", 1)
        if precision is not None:
            require_int(precision, "precision", 0)
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must map monomials to coefficients, got {type(terms).__name__}")
        clean: dict[tuple[int, ...], _Q] = {}
        for m, c in terms.items():
            require_type(m, Monomial, "term key")
            if m.n != n:
                raise DimensionMismatchError(f"monomial over {m.n} variables in a {n}-variable series")
            c = _rational(c)
            if c != 0 and (precision is None or m.degree < precision):
                clean[m.exponents] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "precision", precision)

    @classmethod
    def _from_clean(cls, n: int, terms: dict[tuple[int, ...], _Q],
                    precision: Optional[int]) -> TruncatedSeries:
        """Wrap a dict the caller guarantees is clean: n-long exponent tuples,
        nonzero values in the stored form, every degree below the precision.
        The dict is stored, not copied, so no one may change it afterwards."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "precision", precision)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # `copy` and `pickle` would restore the slots through `__setattr__`.
        return TruncatedSeries, (self.n, dict(self.items()), self.precision)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> TruncatedSeries:
        return cls(n, {})

    # -- inspection ------------------------------------------------------

    def coefficient(self, m: Monomial) -> Fraction:
        require_type(m, Monomial, "monomial")
        c = self._terms.get(m.exponents)
        return Fraction(0) if c is None else _fraction(c)

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """The stored terms as (Monomial, Fraction) pairs, built on each call."""
        trusted = Monomial._trusted   # each read of a classmethod builds a bound method
        return [(trusted(e), _fraction(c)) for e, c in self._terms.items()]

    def known_zero(self) -> bool:
        """True when the stored polynomial part is zero."""
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.n == other.n and self.precision == other.precision
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, self.precision, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        from .textio import format_series
        try:
            return f"TruncatedSeries({format_series(self)!r})"
        except RewritingError as e:   # a coefficient past the int-to-str limit
            return (f"<TruncatedSeries n={self.n} terms={len(self._terms)} "
                    f"precision={self.precision}: {e}>")

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: TruncatedSeries) -> None:
        require_type(other, TruncatedSeries, "operand")
        if self.n != other.n:
            raise DimensionMismatchError(f"series over {self.n} and {other.n} variables")

    def add(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        p1, p2 = self.precision, other.precision
        prec = p2 if p1 is None else p1 if p2 is None else min(p1, p2)
        # An operand whose precision exceeds the result's may hold terms
        # at or above it; only then is a degree filter needed.
        if p1 == prec:
            acc = dict(self._terms)
        else:
            acc = {e: c for e, c in self._terms.items() if sum(e) < prec}
        cut = p2 != prec
        for e, c in other._terms.items():
            if cut and sum(e) >= prec:
                continue
            old = acc.get(e)
            if old is None:
                acc[e] = c
            else:
                s = old + c if type(old) is int and type(c) is int else _add(old, c)
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return TruncatedSeries._from_clean(self.n, acc, prec)

    def negate(self) -> TruncatedSeries:
        return TruncatedSeries._from_clean(
            self.n, {e: _neg(c) for e, c in self._terms.items()}, self.precision)

    def subtract(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        return self.add(other.negate())

    def multiply(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        prec = _product_precision(self, other)
        right = [(e2, sum(e2), c2) for e2, c2 in other._terms.items()]
        add = operator.add
        acc: dict[tuple[int, ...], _Q] = {}
        for e1, c1 in self._terms.items():
            d1 = sum(e1)
            for e2, d2, c2 in right:
                if prec is not None and d1 + d2 >= prec:
                    continue
                e = tuple(map(add, e1, e2))
                p = c1 * c2 if type(c1) is int and type(c2) is int else _mul(c1, c2)
                old = acc.get(e)
                if old is None:
                    acc[e] = p
                else:
                    s = old + p if type(old) is int and type(p) is int else _add(old, p)
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
        return TruncatedSeries._from_clean(self.n, acc, prec)

    def scale_term(self, c, m: Monomial) -> TruncatedSeries:
        """The series c * m * self; precision shifts by deg(m)."""
        require_type(m, Monomial, "monomial")
        if m.n != self.n:
            raise DimensionMismatchError(f"monomial over {m.n} variables, series over {self.n}")
        c = _rational(c)
        prec = None if self.precision is None else self.precision + m.degree
        if c == 0:
            return TruncatedSeries._from_clean(self.n, {}, prec)
        # m * m1 is injective in m1 and shifts every degree by exactly the
        # precision shift, so the terms stay distinct and below the bound.
        em, add = m.exponents, operator.add
        return TruncatedSeries._from_clean(
            self.n, {tuple(map(add, e, em)): _mul(c1, c) for e, c1 in self._terms.items()}, prec)

    def truncate(self, p: int) -> TruncatedSeries:
        """Forget everything at degree >= p (never raises precision)."""
        require_int(p, "precision", 0)
        if self.precision is not None and self.precision <= p:
            return self
        return TruncatedSeries._from_clean(
            self.n, {e: c for e, c in self._terms.items() if sum(e) < p}, p)

    # -- leading data and valuation ---------------------------------------

    def valuation(self) -> Optional[int]:
        """Least total degree of the known part.  An empty known part gives
        the precision, a lower bound only, and the exact zero gives None
        (val(0) is infinite)."""
        if self._terms:
            return min(map(sum, self._terms))
        return self.precision

    def leading(self) -> tuple[Monomial, Fraction]:
        """Minimum of the support under the deglex order, with its
        coefficient.  Stored terms all lie below the precision bound, so a
        nonempty known part determines the minimum; an empty one does not."""
        if not self._terms:
            raise ZeroOrUnknownLeadingError(
                "known support is empty; leading term undetermined"
                if self.precision is not None else "zero series has no leading term")
        e = min((sum(e), e) for e in self._terms)[1]   # the deglex key on exponents
        return Monomial._trusted(e), _fraction(self._terms[e])


def _rational(c) -> _Q:
    """c in the stored form; anything that is not a rational number raises."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not a rational number")
    return _narrow(Fraction(c))


def _product_precision(f: TruncatedSeries, g: TruncatedSeries) -> Optional[int]:
    # Sharpest sound bound: min(p_f + v_g, p_g + v_f), a side infinite when
    # its factor is exact or the other one is the exact zero.  The valuation
    # lower bound of the other factor shifts how far the unknown tail reaches.
    return min((p + v for p, h in ((f.precision, g), (g.precision, f))
                if p is not None and (v := h.valuation()) is not None), default=None)


def delta(f: TruncatedSeries, g: TruncatedSeries) -> tuple[Fraction, bool]:
    """The adic distance 2^(-val(f-g)) as an exact rational.

    Returns (value, upper_bound_only).  The flag is set when the known
    part of f - g vanishes but the precision is finite: equality below the
    bound is all the data shows, so the true distance is only known to be
    at most 2^(-p).
    """
    require_type(f, TruncatedSeries, "operand")
    d = f.subtract(g)
    v = d.valuation()
    if v is None:
        return Fraction(0), False
    return Fraction(1, 2 ** v), d.known_zero()
