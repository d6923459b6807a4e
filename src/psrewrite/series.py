"""Truncated multivariate formal power series over exact rationals.

A series is stored as its known polynomial part plus a precision bound:
``precision = p`` means every coefficient of total degree < p is exact and
nothing is known beyond (the value is f + O(deg p)); ``precision = None``
means the stored polynomial is the whole value.  Coefficients are
`fractions.Fraction`; floating point never enters.  Arithmetic propagates
the sharpest sound precision, and stored terms are always pruned of zeros
and of degrees at or above the bound.

Inputs are validated once, where they enter: the public constructors
(`TruncatedSeries(n, terms, precision)` and `zero`) and the
`scale_term` scalar check the variable count (an int >= 1), the
precision (an int >= 0) and every monomial, and reject any coefficient
that is not a `numbers.Rational`, such as a float or a string.  `terms`
maps monomials to coefficients, so no monomial comes twice; the
constructor drops zero coefficients and prunes degrees at or above the
precision.  Arithmetic and the rewriting engine build their results from
terms that already hold these invariants, so they skip the checks.

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

from fractions import Fraction
from numbers import Rational
from typing import Mapping, Optional

from .errors import DimensionMismatchError, RewritingError, ZeroOrUnknownLeadingError
from .monomials import Monomial, deglex_key, require_int


class TruncatedSeries:
    """Immutable known-part-plus-precision representation of a series."""

    __slots__ = ("n", "_terms", "precision")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction],
                 precision: Optional[int] = None):
        _check_shape(n, precision)
        if not isinstance(terms, Mapping):
            raise TypeError(f"terms must map monomials to coefficients, got {type(terms).__name__}")
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            if not isinstance(m, Monomial):
                raise TypeError(f"term key {m!r} is not a Monomial")
            if m.n != n:
                raise DimensionMismatchError(f"monomial over {m.n} variables in a {n}-variable series")
            c = _rational(c)
            if c != 0 and (precision is None or m.degree < precision):
                clean[m] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "precision", precision)

    @classmethod
    def _from_clean(cls, n: int, terms: dict[Monomial, Fraction],
                    precision: Optional[int]) -> TruncatedSeries:
        """Wrap a dict the caller guarantees is clean: n-variable keys,
        nonzero `Fraction` values, every degree below the precision.  The
        dict is stored, not copied, so the caller must not keep it."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "precision", precision)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # `copy` and `pickle` would restore the slots through `__setattr__`.
        return TruncatedSeries, (self.n, dict(self._terms), self.precision)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int, precision: Optional[int] = None) -> TruncatedSeries:
        _check_shape(n, precision)
        return cls._from_clean(n, {}, precision)

    # -- inspection ------------------------------------------------------

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def items(self):
        return self._terms.items()

    @property
    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

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
        if self.n != other.n:
            raise DimensionMismatchError(f"series over {self.n} and {other.n} variables")

    def add(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        prec = _min_precision(self.precision, other.precision)
        # An operand whose precision exceeds the result's may hold terms
        # at or above it; only then is a degree filter needed.
        if self.precision == prec:
            acc = dict(self._terms)
        else:
            acc = {m: c for m, c in self._terms.items() if m.degree < prec}
        cut = other.precision != prec
        for m, c in other._terms.items():
            if cut and m.degree >= prec:
                continue
            old = acc.get(m)
            if old is None:
                acc[m] = c
            else:
                s = old + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return TruncatedSeries._from_clean(self.n, acc, prec)

    def negate(self) -> TruncatedSeries:
        return TruncatedSeries._from_clean(
            self.n, {m: -c for m, c in self._terms.items()}, self.precision)

    def subtract(self, other: TruncatedSeries) -> TruncatedSeries:
        return self.add(other.negate())

    def multiply(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        prec = _product_precision(self, other)
        right = [(m2, m2.degree, c2) for m2, c2 in other._terms.items()]
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            d1 = m1.degree
            for m2, d2, c2 in right:
                if prec is not None and d1 + d2 >= prec:
                    continue
                m = m1.multiply(m2)
                old = acc.get(m)
                if old is None:
                    acc[m] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return TruncatedSeries._from_clean(self.n, acc, prec)

    def scale_term(self, c, m: Monomial) -> TruncatedSeries:
        """The series c * m * self; precision shifts by deg(m)."""
        if m.n != self.n:
            raise DimensionMismatchError(f"monomial over {m.n} variables, series over {self.n}")
        c = _rational(c)
        prec = None if self.precision is None else self.precision + m.degree
        if c == 0:
            return TruncatedSeries._from_clean(self.n, {}, prec)
        # m * m1 is injective in m1 and shifts every degree by exactly the
        # precision shift, so the terms stay distinct and below the bound.
        return TruncatedSeries._from_clean(
            self.n, {m1.multiply(m): c1 * c for m1, c1 in self._terms.items()}, prec)

    def truncate(self, p: int) -> TruncatedSeries:
        """Forget everything at degree >= p (never raises precision)."""
        require_int(p, "precision", 0)
        if self.precision is not None and self.precision <= p:
            return self
        return TruncatedSeries._from_clean(
            self.n, {m: c for m, c in self._terms.items() if m.degree < p}, p)

    # -- leading data and valuation ---------------------------------------

    def valuation(self) -> Optional[int]:
        """Least total degree of the known part.  An empty known part gives
        the precision, a lower bound only, and the exact zero gives None
        (val(0) is infinite)."""
        if self._terms:
            return min(m.degree for m in self._terms)
        return self.precision

    def leading(self) -> tuple[Monomial, Fraction]:
        """Minimum of the support under the deglex order, with its
        coefficient.  Stored terms all lie below the precision bound, so a
        nonempty known part determines the minimum; an empty one does not."""
        if not self._terms:
            raise ZeroOrUnknownLeadingError(
                "known support is empty; leading term undetermined"
                if self.precision is not None else "zero series has no leading term")
        m = min(self._terms, key=deglex_key)
        return m, self._terms[m]


def _check_shape(n: int, precision: Optional[int]) -> None:
    require_int(n, "variable count", 1)
    if precision is not None:
        require_int(precision, "precision", 0)


def _rational(c) -> Fraction:
    """c as a `Fraction`; anything that is not a rational number raises."""
    if type(c) is Fraction:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not a rational number")
    return Fraction(c)


def _min_precision(p1: Optional[int], p2: Optional[int]) -> Optional[int]:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


def _product_precision(f: TruncatedSeries, g: TruncatedSeries) -> Optional[int]:
    # Sharpest sound bound: min(p_f + v_g, p_g + v_f), each side infinite
    # when the factor is exact.  The valuation lower bound of the other
    # factor shifts how far the unknown tail can reach down.
    def side(p: Optional[int], other: TruncatedSeries) -> Optional[int]:
        if p is None:
            return None
        v = other.valuation()
        return None if v is None else p + v

    return _min_precision(side(f.precision, g), side(g.precision, f))


def delta(f: TruncatedSeries, g: TruncatedSeries) -> tuple[Fraction, bool]:
    """The adic distance 2^(-val(f-g)) as an exact rational.

    Returns (value, upper_bound_only).  The flag is set when the known
    part of f - g vanishes but the precision is finite: equality below the
    bound is all the data shows, so the true distance is only known to be
    at most 2^(-p).
    """
    d = f.subtract(g)
    v = d.valuation()
    if v is None:
        return Fraction(0), False
    return Fraction(1, 2 ** v), d.known_zero()
