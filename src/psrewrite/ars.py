"""Finite abstract rewriting systems under the discrete topology.

Over a finite carrier with the discrete topology, "rewrites arbitrarily
close to" collapses to plain many-step reduction, so every normal-form
and confluence property is a reachability question.  All of them are
decided from the strongly connected components (SCCs) of the one-step
relation, with a bottom SCC being one that no edge leaves:

- normalising: every element reaches a normal form;
- unique normal forms reached: every element reaches at most one;
- unique normal form property: every connected component of the
  symmetric closure holds at most one normal form;
- normal-form property: that, and every element whose component holds a
  normal form reaches it;
- confluent: every element reaches exactly one bottom SCC.

A normal form is a bottom SCC of one element with no self-loop.  This
module is the testbed for those properties: compute them on a finite
one-step relation, and run the valley-elimination procedure that turns an
arbitrary conversion between normal forms into a single-peak one.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidConversionError, InvariantViolationError, PreconditionFailedError
from .monomials import require_int

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class FiniteARS:
    """Elements 0..size-1 with a one-step relation given by edge pairs,
    from any iterable of them, kept as a frozenset."""

    size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        require_int(self.size, "size", 0)
        object.__setattr__(self, "edges", frozenset(self.edges))
        for a, b in self.edges:
            require_int(a, "element")
            require_int(b, "element")
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ValueError(f"edge ({a}, {b}) outside 0..{self.size - 1}")

    def _check(self, a: int) -> None:
        require_int(a, "element")
        if not 0 <= a < self.size:
            raise ValueError(f"element {a} outside 0..{self.size - 1}")


def normal_forms(sys: FiniteARS) -> set[int]:
    out = {a for (a, _b) in sys.edges}
    return {a for a in range(sys.size) if a not in out}


def _adjacency(sys: FiniteARS) -> dict[int, list[int]]:
    """Sorted successor lists of the elements that occur in an edge.

    Every other element is a normal form alone in its component, and
    changes no flag, so nothing here grows with `sys.size`.
    """
    adj: dict[int, list[int]] = {}
    for a, b in sys.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    for succ in adj.values():
        succ.sort()
    return adj


def _components(adj: dict[int, list[int]]) -> dict[int, int]:
    """Connected components of the symmetric closure (union-find)."""
    parent = {x: x for x in adj}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, succ in adj.items():
        for b in succ:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return {x: find(x) for x in adj}


@dataclass(frozen=True)
class SystemProperties:
    normalising: bool
    nf_property: bool
    unique_nf_property: bool
    unique_nf_reached: bool
    confluent: bool


def _add_capped(acc: set[int], more: set[int]) -> None:
    """Union into acc, stopping at two: the flags only tell 0, 1 and many."""
    for x in more:
        if len(acc) == 2:
            return
        acc.add(x)


def _properties(adj: dict[int, list[int]]) -> SystemProperties:
    """The flags from one iterative Tarjan pass over the adjacency map.

    SCCs are closed sinks first, so each one's summary is built from the
    summaries of the SCCs it has edges into: at most two reachable normal
    forms and at most two reachable bottom SCCs (SCCs with no edge leaving
    them).  A normal form is a bottom SCC of one element with no
    self-loop.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    scc_of: dict[int, int] = {}
    nfs_of: list[set[int]] = []
    bottoms_of: list[set[int]] = []
    stack: list[int] = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if w not in scc_of and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                cid = len(nfs_of)
                members = []
                while True:
                    x = stack.pop()
                    scc_of[x] = cid
                    members.append(x)
                    if x == v:
                        break
                nfs: set[int] = set()
                bottoms: set[int] = set()
                for x in members:
                    for w in adj[x]:
                        c = scc_of[w]
                        if c != cid:
                            _add_capped(nfs, nfs_of[c])
                            _add_capped(bottoms, bottoms_of[c])
                # Every SCC reaches a bottom SCC, so none was inherited
                # exactly when no edge leaves this one.
                if not bottoms:
                    bottoms.add(cid)
                    if not adj[v]:
                        nfs.add(v)
                nfs_of.append(nfs)
                bottoms_of.append(bottoms)

    comp = _components(adj)
    nf_count = Counter(comp[x] for x, succ in adj.items() if not succ)
    unique_nf_property = all(k <= 1 for k in nf_count.values())
    return SystemProperties(
        normalising=all(nfs_of),
        nf_property=unique_nf_property and all(
            nfs_of[scc_of[x]] or comp[x] not in nf_count for x in adj),
        unique_nf_property=unique_nf_property,
        unique_nf_reached=all(len(nfs) <= 1 for nfs in nfs_of),
        confluent=all(len(bottoms) == 1 for bottoms in bottoms_of),
    )


def check_properties(sys: FiniteARS) -> SystemProperties:
    """Decide the normal-form and confluence flags in O(edges).

    The equivalence used by the nf properties is the one generated by the
    reduction relation, i.e. connected components of the symmetric
    closure; many-step reduction stands in for the topological relation,
    which is exact under the discrete topology.
    """
    return _properties(_adjacency(sys))


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


def _path_to_normal_form(adj: dict[int, list[int]], a: int) -> list[int]:
    """A shortest reduction path from a to some normal form (BFS with
    sorted successors, so deterministic)."""
    parent: dict[int, Optional[int]] = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if not adj[x]:
            path = [x]
            while parent[x] is not None:
                x = parent[x]
                path.append(x)
            return path[::-1]
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    raise PreconditionFailedError(f"no normal form reachable from {a}")


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
    adj = _adjacency(sys)
    props = _properties(adj)
    if not (props.normalising and props.unique_nf_reached):
        raise PreconditionFailedError(
            "system must be normalising with unique normal forms reached")
    validate_conversion(sys, conv)
    if adj.get(conv.start) or adj.get(conv.end):
        raise PreconditionFailedError("conversion endpoints must be normal forms")

    valleys = conv.valley_indices()
    if valleys:
        v = valleys[0]
        path = _path_to_normal_form(adj, conv.elements()[v])
        if path[-1] != conv.end:
            raise InvariantViolationError("unique normal forms force the same endpoint")
        conv = Conversion(conv.start, conv.steps[:v] + tuple((e, FORWARD) for e in path[1:]))

    if conv.start != conv.end:
        raise InvariantViolationError("valley-free conversion between distinct normal forms")
    return conv
