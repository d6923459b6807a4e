"""Finite abstract rewriting systems under the discrete topology.

Over a finite carrier with the discrete topology, "rewrites arbitrarily
close to" collapses to plain many-step reduction, so every normal-form
and confluence property becomes decidable by exhaustive search.  This
module is the testbed for those properties: compute them on a finite
one-step relation, and run the valley-elimination procedure that turns an
arbitrary conversion between normal forms into a single-peak one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidConversionError, InvariantViolationError, PreconditionFailedError

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class FiniteARS:
    """Elements 0..size-1 with a one-step relation given by edge pairs."""

    size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ValueError(f"edge ({a}, {b}) outside 0..{self.size - 1}")

    @classmethod
    def build(cls, size: int, edges: Iterable[tuple[int, int]]) -> FiniteARS:
        return cls(size, frozenset(edges))

    def successors(self, a: int) -> list[int]:
        self._check(a)
        return sorted(b for (x, b) in self.edges if x == a)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.size:
            raise ValueError(f"element {a} outside 0..{self.size - 1}")


def reachable(sys: FiniteARS, a: int) -> set[int]:
    """Everything reachable from a in zero or more steps."""
    sys._check(a)
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in sys.successors(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def normal_forms(sys: FiniteARS) -> set[int]:
    out = {a for (a, _b) in sys.edges}
    return {a for a in range(sys.size) if a not in out}


def _components(sys: FiniteARS) -> list[int]:
    """Connected components of the symmetric closure (union-find)."""
    parent = list(range(sys.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in sys.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(sys.size)]


@dataclass(frozen=True)
class SystemProperties:
    normalising: bool
    nf_property: bool
    unique_nf_property: bool
    unique_nf_reached: bool
    confluent: bool


def check_properties(sys: FiniteARS) -> SystemProperties:
    """Decide the normal-form and confluence flags exhaustively.

    The equivalence used by the nf properties is the one generated by the
    reduction relation, i.e. connected components of the symmetric
    closure; many-step reduction stands in for the topological relation,
    which is exact under the discrete topology.
    """
    reach = [reachable(sys, a) for a in range(sys.size)]
    nfs = normal_forms(sys)
    comp = _components(sys)

    normalising = all(reach[a] & nfs for a in range(sys.size))
    unique_nf_reached = all(len(reach[a] & nfs) <= 1 for a in range(sys.size))

    unique_nf_property = True
    for a in nfs:
        for b in nfs:
            if a < b and comp[a] == comp[b]:
                unique_nf_property = False
    nf_property = all(
        b in reach[a]
        for a in range(sys.size) for b in nfs if comp[a] == comp[b])
    confluent = all(
        reach[b] & reach[c]
        for a in range(sys.size)
        for b in reach[a] for c in reach[a])
    return SystemProperties(normalising, nf_property, unique_nf_property,
                            unique_nf_reached, confluent)


@dataclass(frozen=True)
class Conversion:
    """A zig-zag chain a <-> c1 <-> ... <-> b of one-step hops.

    Each step is (next element, direction): FORWARD means the previous
    element rewrites to the next one, BACKWARD the reverse.
    """

    start: int
    steps: tuple[tuple[int, str], ...]

    @property
    def end(self) -> int:
        return self.steps[-1][0] if self.steps else self.start

    def elements(self) -> list[int]:
        return [self.start] + [e for e, _d in self.steps]

    def valley_indices(self) -> list[int]:
        """Element positions that are a local minimum: entered forward,
        left backward."""
        return [v for v in range(1, len(self.steps))
                if self.steps[v - 1][1] == FORWARD and self.steps[v][1] == BACKWARD]


def validate_conversion(sys: FiniteARS, conv: Conversion) -> None:
    prev = conv.start
    sys._check(prev)
    for e, d in conv.steps:
        sys._check(e)
        if d == FORWARD:
            edge = (prev, e)
        elif d == BACKWARD:
            edge = (e, prev)
        else:
            raise InvalidConversionError(f"unknown direction {d!r}")
        if edge not in sys.edges:
            raise InvalidConversionError(f"missing edge {edge[0]} -> {edge[1]}")
        prev = e


def _path_to_normal_form(sys: FiniteARS, a: int, nfs: set[int]) -> list[int]:
    """A shortest reduction path from a to some normal form (BFS with
    sorted successors, so deterministic)."""
    parent: dict[int, Optional[int]] = {a: None}
    queue = [a]
    while queue:
        x = queue.pop(0)
        if x in nfs:
            path = [x]
            while parent[x] is not None:
                x = parent[x]
                path.append(x)
            return path[::-1]
        for y in sys.successors(x):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    raise PreconditionFailedError(f"no normal form reachable from {a}")


def eliminate_valleys(sys: FiniteARS, conv: Conversion) -> Conversion:
    """Rewrite a conversion between normal forms into a valley-free one.

    Requires the system to be normalising with unique normal forms reached
    by reduction.  Repeatedly take the right-most valley and replace
    everything after it by a reduction of the valley element to its normal
    form; uniqueness forces that normal form to be the conversion's end,
    so each pass removes exactly one valley.  The result has shape
    a <-* c ->* b, and the endpoints then necessarily coincide.
    """
    props = check_properties(sys)
    if not (props.normalising and props.unique_nf_reached):
        raise PreconditionFailedError(
            "system must be normalising with unique normal forms reached")
    validate_conversion(sys, conv)
    nfs = normal_forms(sys)
    if conv.start not in nfs or conv.end not in nfs:
        raise PreconditionFailedError("conversion endpoints must be normal forms")

    while True:
        valleys = conv.valley_indices()
        if not valleys:
            break
        v = valleys[-1]
        elems = conv.elements()
        path = _path_to_normal_form(sys, elems[v], nfs)
        if path[-1] != conv.end:
            raise InvariantViolationError("unique normal forms force the same endpoint")
        new_steps = conv.steps[:v] + tuple((e, FORWARD) for e in path[1:])
        new_conv = Conversion(conv.start, new_steps)
        if len(new_conv.valley_indices()) != len(valleys) - 1:
            raise InvariantViolationError("a pass must remove exactly one valley")
        conv = new_conv

    if conv.start != conv.end:
        raise InvariantViolationError("valley-free conversion between distinct normal forms")
    return conv
