"""Independent checks of psrewrite outputs, and their canonical rendering.

Nothing here calls into psrewrite.  A series is read once into a plain
dict {exponent tuple: Fraction}; every identity is then re-derived with
the benchmark's own arithmetic, and every finite-system flag with its own
bitset reachability.  A defect in the engine therefore cannot hide behind
the same defect in its checker.
"""

from __future__ import annotations

from fractions import Fraction

Terms = dict[tuple[int, ...], Fraction]


# -- series as dicts ---------------------------------------------------------

def terms(series) -> Terms:
    """The stored terms of a library series, as exponent tuples."""
    return {m.exponents: Fraction(c) for m, c in series.items()}


def leading(t: Terms) -> tuple[int, ...]:
    """Minimum of the support under deglex (degree, then exponent vector)."""
    return min(t, key=lambda e: (sum(e), e))


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def truncate(t: Terms, below: int | None) -> Terms:
    if below is None:
        return dict(t)
    return {e: c for e, c in t.items() if sum(e) < below}


def add_into(acc: Terms, t: Terms, scale: Fraction = Fraction(1)) -> Terms:
    for e, c in t.items():
        s = acc.get(e, Fraction(0)) + scale * c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return acc


def multiply(a: Terms, b: Terms, below: int | None = None) -> Terms:
    acc: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if below is not None and sum(e) >= below:
                continue
            s = acc.get(e, Fraction(0)) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return acc


def combination(qs: list[Terms], bodies: list[Terms], below: int | None = None) -> Terms:
    """sum q_i * s_i, truncated below `below` when given."""
    acc: Terms = {}
    for q, s in zip(qs, bodies):
        add_into(acc, multiply(q, s, below))
    return acc


def reducible(t: Terms, lms: list[tuple[int, ...]], below: int) -> list[tuple[int, ...]]:
    """Monomials of t below degree `below` that some leading monomial divides."""
    return sorted(e for e in t if sum(e) < below and any(divides(lm, e) for lm in lms))


def valuation_distance(a: Terms, pa: int | None, b: Terms, pb: int | None
                       ) -> tuple[Fraction, bool]:
    """2^-val(a - b) for series known below pa and pb, with the flag that
    says the value is only an upper bound (the known difference vanishes
    at a finite precision)."""
    prec = pa if pb is None else pb if pa is None else min(pa, pb)
    diff = truncate(add_into(dict(a), b, Fraction(-1)), prec)
    if diff:
        return Fraction(1, 2 ** min(sum(e) for e in diff)), False
    if prec is None:
        return Fraction(0), False
    return Fraction(1, 2 ** prec), True


def coeff_bits(t: Terms) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in t.values()), default=0)


# -- checks on reduction outputs ----------------------------------------------

def check_cofactor_identity(start: Terms, end: Terms, qs: list[Terms],
                            bodies: list[Terms], precision: int) -> list[str]:
    """start = end + sum q_i s_i below `precision`."""
    rhs = add_into(dict(end), combination(qs, bodies, precision))
    diff = truncate(add_into(dict(start), rhs, Fraction(-1)), precision)
    if diff:
        return [f"cofactor identity fails below {precision} at {sorted(diff)[:3]}"]
    return []


def check_irreducible(name: str, t: Terms, lms: list[tuple[int, ...]],
                      below: int) -> list[str]:
    bad = reducible(t, lms, below)
    return [f"{name} has reducible monomials {bad[:3]} below {below}"] if bad else []


# -- finite systems -------------------------------------------------------------

def ars_flags(size: int, edges: list[tuple[int, int]]) -> tuple[bool, ...]:
    """(normalising, nf_property, unique_nf_property, unique_nf_reached,
    confluent) straight from their definitions, over Python-int bitsets."""
    succ = [[] for _ in range(size)]
    undirected = [[] for _ in range(size)]
    for a, b in edges:
        succ[a].append(b)
        undirected[a].append(b)
        undirected[b].append(a)

    def closure(a: int, adj: list[list[int]]) -> int:
        seen = 1 << a
        stack = [a]
        while stack:
            for y in adj[stack.pop()]:
                if not seen >> y & 1:
                    seen |= 1 << y
                    stack.append(y)
        return seen

    reach = [closure(a, succ) for a in range(size)]
    comp = [closure(a, undirected) for a in range(size)]
    nf = sum(1 << a for a in range(size) if not succ[a])
    members = [[b for b in range(size) if r >> b & 1] for r in reach]

    normalising = all(r & nf for r in reach)
    unique_reached = all((r & nf).bit_count() <= 1 for r in reach)
    unique_property = all((comp[a] & nf).bit_count() <= 1 for a in range(size))
    nf_property = all(comp[a] & nf & ~reach[a] == 0 for a in range(size))
    confluent = all(reach[b] & reach[c]
                    for a in range(size) for b in members[a] for c in members[a])
    return normalising, nf_property, unique_property, unique_reached, confluent


def check_valley_free(edges: set[tuple[int, int]], start: int,
                      steps: list[tuple[int, str]], expected_start: int) -> list[str]:
    """The output of valley elimination: real edges, no valley, equal
    endpoints, and the start it was given."""
    errors = []
    if start != expected_start:
        errors.append(f"conversion starts at {start}, expected {expected_start}")
    prev = start
    for e, d in steps:
        edge = (prev, e) if d == "forward" else (e, prev) if d == "backward" else None
        if edge not in edges:
            errors.append(f"step {prev} {d} {e} is not an edge")
        prev = e
    dirs = [d for _e, d in steps]
    for k in range(1, len(dirs)):
        if dirs[k - 1] == "forward" and dirs[k] == "backward":
            errors.append(f"valley at position {k}")
    if prev != start:
        errors.append(f"endpoints differ: {start} and {prev}")
    return errors


# -- canonical rendering for the seeded-output digest --------------------------

def render_terms(t: Terms) -> str:
    return ";".join(f"{','.join(map(str, e))}:{c}" for e, c in sorted(t.items()))


def render_series(series) -> str:
    return f"[{render_terms(terms(series))}|{series.precision}]"


def render_trace(trace) -> str:
    steps = ";".join(f"{','.join(map(str, s.monomial.exponents))}/{s.rule_index}/"
                     f"{','.join(map(str, s.quotient.exponents))}/{s.coeff}"
                     for s in trace.steps)
    return f"trace({steps})->{render_series(trace.end)}@{trace.end_precision}"
