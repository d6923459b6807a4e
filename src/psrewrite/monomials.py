"""Exponent-vector monomials and the engine's one monomial order.

A monomial over variables x1..xn is a vector of natural exponents; the
empty monomial 1 is the all-zeros vector.  The order is fixed to deglex:
total degree first, ties broken lexicographically with x1 the most
significant variable (larger exponent at the first difference wins).
Deglex is admissible (1 <= m for every m) and compatible with the degree,
which is what every termination argument in the rewriting engine leans
on; the reducer's pending list sorts by the same ``(degree, exponents)``
key that `deglex_key` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class Monomial:
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.exponents, tuple):
            raise TypeError(f"exponents {self.exponents!r} are not a tuple")
        for e in self.exponents:
            require_int(e, "exponent", 0)

    @classmethod
    def _trusted(cls, exponents: tuple[int, ...]) -> Monomial:
        """Unchecked: for exponents that are natural ints by construction,
        such as sums, differences or maxima of checked ones."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def multiply(self, other: Monomial) -> Monomial:
        _check_same_n(self, other)
        return Monomial._trusted(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: Monomial) -> Optional[Monomial]:
        """Quotient other/self when self divides other, else None."""
        _check_same_n(self, other)
        if all(a <= b for a, b in zip(self.exponents, other.exponents)):
            return Monomial._trusted(tuple(b - a for a, b in zip(self.exponents, other.exponents)))
        return None

    def lcm(self, other: Monomial) -> Monomial:
        _check_same_n(self, other)
        return Monomial._trusted(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        return exponent_text(self.exponents)


def exponent_text(exponents: tuple[int, ...]) -> str:
    """The monomial's text in the series grammar: `x2*x3^4`, or `1`."""
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                    for i, e in enumerate(exponents, 1) if e) or "1"


def require_int(value, what: str, least: Optional[int] = None) -> None:
    """A TypeError naming `value` unless it is an int (a bool is not), and
    a ValueError when it is below `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} {value!r} is not an int")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")


def _check_same_n(m1: Monomial, m2: Monomial) -> None:
    if m1.n != m2.n:
        raise DimensionMismatchError(
            f"monomials over {m1.n} and {m2.n} variables"
        )


def deglex_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    """Sort key of the deglex order: tuple comparison puts the degree
    first, then the raw exponent vector left to right (x1 most significant)."""
    return (m.degree, m.exponents)
