"""Exponent-vector monomials and the engine's one monomial order.

A monomial over variables x1..xn is a vector of natural exponents; the
empty monomial 1 is the all-zeros vector.  The order is fixed to deglex:
total degree first, ties broken lexicographically with x1 the most
significant variable (larger exponent at the first difference wins).
Deglex is admissible (1 <= m for every m) and compatible with the degree,
which is what every termination argument in the rewriting engine leans
on.  Its sort key is ``(m.degree, m.exponents)``, and the reducer's
pending list sorts by the same key on bare exponent tuples.

The engine computes on bare exponent tuples.  A `Monomial` is the
checked box it hands one out in: `exponents`, `n`, `degree` and its text
in the series grammar, with no arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


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

    def __str__(self) -> str:
        from .textio import exponent_text   # textio imports this module
        return exponent_text(self.exponents)


def require_int(value, what: str, least: Optional[int] = None) -> None:
    """A TypeError naming `value` unless it is an int (a bool is not), and
    a ValueError when it is below `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} {value!r} is not an int")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")


def require_type(value, cls: type, what: str) -> None:
    """A TypeError naming `value` unless it is an instance of `cls`."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} {value!r} is not a {cls.__name__}")


def require_iterable(value, what: str) -> tuple:
    """`value` read once into a tuple; a TypeError naming `what` unless it is iterable."""
    if not isinstance(value, Iterable):
        raise TypeError(f"{what} must be an iterable, got {type(value).__name__}")
    return tuple(value)
