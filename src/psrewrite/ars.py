"""Finite abstract rewriting systems under the discrete topology.

Over a finite carrier with the discrete topology, "rewrites arbitrarily
close to" collapses to plain many-step reduction, so every normal-form
and confluence property is a reachability question:

- normalising: every element reaches a normal form;
- unique normal forms reached: every element reaches at most one;
- unique normal form property: every connected component of the
  symmetric closure holds at most one normal form;
- normal-form property: that, and every element whose component holds a
  normal form reaches it;
- confluent: every element reaches exactly one bottom SCC, a strongly
  connected component that no edge leaves.

A system keeps its relation as one ascending list of distinct edges
between positions, and the flags come from one backward sweep,
`_sweep`, run from several starts.  Swept from each normal form over the
predecessor lists, it marks each position with the normal form whose
sweep took it; a sweep meets another's mark exactly when some position
reaches two normal forms.  That decides every flag of a normalising
system, whose bottom SCCs are its normal forms.  Otherwise, with normal
forms reached uniquely, the normal-form property holds exactly when no
edge leads from a position that reaches a normal form to one that
reaches none, and two rounds of sweeps over the predecessors of the
positions that reach none tell whether each reaches one bottom SCC.
The normal-form property gives the unique one; where it fails, sweeps
from each normal form over the symmetric closure decide that: a normal
form already marked when its turn comes shares its component with
another.  `_nf_reached`, `check_properties` and `_one_bottom_each` give
the arguments.  This module is the testbed for those properties:
compute them on a finite one-step relation, and run the
valley-elimination procedure that turns an arbitrary conversion between
normal forms into a single-peak one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import InvalidConversionError, InvariantViolationError, PreconditionFailedError
from .monomials import require_int, require_iterable, require_type

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True, init=False, repr=False)
class FiniteARS:
    """Elements 0..size-1 with a one-step relation given by edge pairs from any
    iterable.  The elements in an edge are relabelled to positions in the
    ascending order of `labels`, and the distinct edges are kept as one
    ascending list of position pairs in two tuples: edge i leads from
    `tails[i]` to `heads[i]`, so a position's ascending successors are one
    slice of `heads`."""

    size: int
    labels: tuple[int, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    def __init__(self, size: int, edges: Iterable[tuple[int, int]]):
        require_int(size, "size", 0)
        edges = require_iterable(edges, "edges")
        for edge in edges:
            if type(edge) is not tuple or len(edge) != 2:
                raise TypeError(f"edge {edge!r} is not an (a, b) pair")
            a, b = edge
            require_int(a, "element")
            require_int(b, "element")
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"edge ({a}, {b}) outside 0..{size - 1}")
        self._build(size, edges)

    @classmethod
    def _from_clean(cls, size: int, edges: Sequence[tuple[int, int]]) -> FiniteARS:
        """Unchecked: for int pairs the caller guarantees lie in 0..size-1."""
        self = object.__new__(cls)
        self._build(size, edges)
        return self

    def _build(self, size: int, edges: Sequence[tuple[int, int]]) -> None:
        labels = sorted(set(chain.from_iterable(edges)))
        pos = dict(zip(labels, range(len(labels))))
        # Positions ascend with labels, so ascending label pairs are
        # ascending position pairs.
        pairs = sorted(set(edges))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "tails", tuple([pos[a] for a, _b in pairs]))
        object.__setattr__(self, "heads", tuple([pos[b] for _a, b in pairs]))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The distinct (a, b) pairs, built on each read."""
        label = self.labels.__getitem__
        return frozenset(zip(map(label, self.tails), map(label, self.heads)))

    def __repr__(self) -> str:
        return f"FiniteARS(size={self.size!r}, edges={self.edges!r})"


def _position(labels: Sequence[int], a: int) -> int:
    """The position of element a in `labels`, or -1 when a is in no edge."""
    i = bisect_left(labels, a)
    return i if i < len(labels) and labels[i] == a else -1


def _successors(sys: FiniteARS, x: int) -> tuple[int, ...]:
    """The ascending successor positions of position x: the slice of `heads`
    that bisection finds in `tails`."""
    tails = sys.tails
    i = bisect_left(tails, x)
    return sys.heads[i:bisect_left(tails, x + 1, i)]


def normal_forms(sys: FiniteARS) -> set[int]:
    require_type(sys, FiniteARS, "system")
    out = set(map(sys.labels.__getitem__, sys.tails))
    return {a for a in range(sys.size) if a not in out}


@dataclass(frozen=True)
class SystemProperties:
    normalising: bool
    nf_property: bool
    unique_nf_property: bool
    unique_nf_reached: bool
    confluent: bool


def _nf_reached(sys: FiniteARS) -> tuple[list[int], bool, list[list[int]]]:
    """Per position, the normal form whose sweep took it, or -1 when it
    reaches none; whether normal forms are reached uniquely; and the
    predecessor lists, over which one `_sweep` runs from each normal form,
    a position that is no tail.

    Every position that reaches a normal form is taken by some sweep.  A
    sweep that meets another's mark finds a position that reaches both
    normal forms.  Conversely, a position that reaches two normal forms
    reaches one that is not its mark, so the marks change at some edge
    a -> b of a path there; when the sweep of b's mark took b, a was
    already marked by another.  So normal forms are reached uniquely
    exactly when no sweep meets another's mark.  A normal form's mark is
    itself, and no other position's is.

    With each position's successors added, `pred` is the symmetric
    closure, and a sweep from an unmarked normal form takes its whole
    component.  So two normal forms share a component exactly when one is
    already marked when its turn comes.
    """
    k = len(sys.labels)
    pred: list[list[int]] = [[] for _ in range(k)]
    for a, b in zip(sys.tails, sys.heads):
        pred[b].append(a)
    nf = [-1] * k
    met = [_sweep(pred, x, nf) for x in set(range(k)).difference(sys.tails)]
    return nf, True not in met, pred


def _sweep(pred: Sequence[Sequence[int]], start: int, mark: list[int]) -> bool:
    """Mark with `start` every unmarked position that reaches it through
    unmarked ones, by one backward sweep; whether the sweep met a position
    that another start marked."""
    mark[start] = start
    queue = [start]
    met = False
    for x in queue:
        for a in pred[x]:
            m = mark[a]
            if m < 0:
                mark[a] = start
                queue.append(a)
            elif m != start:
                met = True
    return met


def _one_bottom_each(pred: Sequence[Sequence[int]], nf: Sequence[int]) -> bool:
    """Whether every position that reaches no normal form reaches exactly one
    bottom SCC, by two rounds of backward sweeps.  The caller guarantees
    that no edge leads into those positions from one that reaches a normal
    form, so `pred` never leaves them; they are closed under successors too.

    The first round sweeps from each position, in ascending order, that no
    earlier sweep took: a root.  The taken positions are then always those
    that reach a root so far, so no root reaches an earlier one.  The
    second round takes the roots in reverse and sweeps from each that it
    has not marked, until a sweep meets another's mark.  Each such start
    lies in a bottom SCC: a successor of it reaches some root, not an
    earlier one, and not a later one, which would lead the start to an
    earlier start's mark; so it reaches the start.  Each sweep thus marks
    the positions that reach its start's SCC, every bottom SCC is swept,
    and a position two sweeps meet reaches two bottom SCCs.
    """
    k = len(nf)
    taken = [-1] * k
    roots = []
    for x in range(k):
        if nf[x] < 0 and taken[x] < 0:
            _sweep(pred, x, taken)
            roots.append(x)
    mark = [-1] * k
    for x in reversed(roots):
        if mark[x] < 0 and _sweep(pred, x, mark):
            return False
    return True


def check_properties(sys: FiniteARS) -> SystemProperties:
    """Decide the normal-form and confluence flags in O(edges).

    The equivalence used by the nf properties is the one generated by the
    reduction relation, i.e. connected components of the symmetric
    closure; many-step reduction stands in for the topological relation,
    which is exact under the discrete topology.
    """
    require_type(sys, FiniteARS, "system")
    nf, unique_nf_reached, pred = _nf_reached(sys)
    normalising = -1 not in nf
    # Two normal forms reached from one element share its component.  If
    # every element reaches exactly one, both ends of an edge reach the same
    # one, so their component holds no other, and the bottom SCCs are the
    # normal forms.  Only the rest needs components and bottom SCCs.
    unique_nf_property = nf_property = confluent = unique_nf_reached
    if unique_nf_reached and not normalising:
        # A leak is an edge from an element that reaches a normal form to
        # one that reaches none.  The elements that reach none are closed
        # under successors, so without leaks each component holds one
        # kind, and both ends of an edge that reach a normal form reach
        # the same one: the nf property holds exactly when no edge leaks.
        # A leak also gives its tail a second bottom SCC, and without
        # leaks the rest is closed under predecessors for the bottom pass.
        nf_property = all(nf[a] < 0 or nf[b] >= 0 for a, b in zip(sys.tails, sys.heads))
        confluent = nf_property and _one_bottom_each(pred, nf)
        # A normal form reaches only itself, so the nf property gives the
        # unique nf property.  Otherwise the bottom pass did not run, and
        # the components are swept over `pred` extended in place.
        if not nf_property:
            for a, b in zip(sys.tails, sys.heads):
                pred[a].append(b)
            mark = [-1] * len(nf)
            for x, s in enumerate(nf):
                if s == x:
                    if mark[x] >= 0:
                        unique_nf_property = False
                        break
                    _sweep(pred, x, mark)
    return SystemProperties(
        normalising=normalising, nf_property=nf_property,
        unique_nf_property=unique_nf_property, unique_nf_reached=unique_nf_reached,
        confluent=confluent)


@dataclass(frozen=True)
class Conversion:
    """A zig-zag chain a <-> c1 <-> ... <-> b of one-step hops.

    Each step is (next element, direction): FORWARD means the previous
    element rewrites to the next one, BACKWARD the reverse.  The steps are
    read once, from any iterable; `validate_conversion` checks them on a system.
    """

    start: int
    steps: tuple[tuple[int, str], ...]

    def __post_init__(self):
        require_int(self.start, "element")
        steps = require_iterable(self.steps, "steps")
        for step in steps:
            if type(step) is not tuple or len(step) != 2:
                raise InvalidConversionError(f"step {step!r} is not an (element, direction) pair")
            require_int(step[0], "element")
            if step[1] not in (FORWARD, BACKWARD):
                raise InvalidConversionError(f"unknown direction {step[1]!r}")
        object.__setattr__(self, "steps", steps)

    @property
    def end(self) -> int:
        return self.steps[-1][0] if self.steps else self.start

    def valley_indices(self) -> list[int]:
        """Element positions that are a local minimum: entered forward,
        left backward."""
        return [v for v in range(1, len(self.steps))
                if self.steps[v - 1][1] == FORWARD and self.steps[v][1] == BACKWARD]


def validate_conversion(sys: FiniteARS, conv: Conversion) -> None:
    require_type(sys, FiniteARS, "system")
    require_type(conv, Conversion, "conversion")
    elements = (conv.start, *(e for e, _d in conv.steps))
    for e in elements:
        if not 0 <= e < sys.size:
            raise ValueError(f"element {e} outside 0..{sys.size - 1}")
    where = [_position(sys.labels, e) for e in elements]
    for k, (_e, d) in enumerate(conv.steps):
        a, b = (k, k + 1) if d == FORWARD else (k + 1, k)
        if where[a] < 0 or where[b] not in _successors(sys, where[a]):
            raise InvalidConversionError(f"missing edge {elements[a]} -> {elements[b]}")


def _path_to_normal_form(sys: FiniteARS, i: int) -> list[int]:
    """A shortest reduction path from position i, which reaches some normal
    form, to one, as labels (BFS with ascending successors, so deterministic)."""
    labels = sys.labels
    parent = [-1] * len(labels)
    parent[i] = i
    queue = [i]
    for x in queue:
        succ = _successors(sys, x)
        if not succ:
            path = [labels[x]]
            while x != i:
                x = parent[x]
                path.append(labels[x])
            return path[::-1]
        for y in succ:
            if parent[y] < 0:
                parent[y] = x
                queue.append(y)


def eliminate_valleys(sys: FiniteARS, conv: Conversion) -> Conversion:
    """Rewrite a conversion between normal forms into a valley-free one.

    Requires the system to be normalising with unique normal forms reached
    by reduction.  The classic procedure repeatedly takes the right-most
    valley and replaces everything after it by a reduction of the valley
    element to its normal form; uniqueness forces that normal form to be
    the conversion's end, so each pass removes exactly one valley.  Each
    pass keeps everything before its valley, so the last pass, at the
    first valley, alone decides the result: the steps before the first
    valley, then a shortest reduction of that element, which no earlier
    pass touched.  That is computed here in one pass.  The result has
    shape a <-* c ->* b, and the endpoints then necessarily coincide.
    """
    require_type(sys, FiniteARS, "system")
    require_type(conv, Conversion, "conversion")
    nf, unique, _pred = _nf_reached(sys)
    if -1 in nf or not unique:
        raise PreconditionFailedError(
            "system must be normalising with unique normal forms reached")
    validate_conversion(sys, conv)
    if any((i := _position(sys.labels, a)) >= 0 and _successors(sys, i)
           for a in (conv.start, conv.end)):
        raise PreconditionFailedError("conversion endpoints must be normal forms")

    valleys = conv.valley_indices()
    if valleys:
        v = valleys[0]
        path = _path_to_normal_form(sys, _position(sys.labels, conv.steps[v - 1][0]))
        if path[-1] != conv.end:
            raise InvariantViolationError("unique normal forms force the same endpoint")
        conv = Conversion(conv.start, conv.steps[:v] + tuple((e, FORWARD) for e in path[1:]))

    if conv.start != conv.end:
        raise InvariantViolationError("valley-free conversion between distinct normal forms")
    return conv
