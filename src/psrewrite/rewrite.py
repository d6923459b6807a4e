"""Rewriting of truncated power series modulo a finite rule set.

A rule set R = {s_1..s_r} of nonzero series induces one-step reduction:
pick a stored monomial M of f divisible by the leading monomial of some
rule, M = m * LM(s_i), and subtract (coeff(f,M)/LC(s_i)) * m * s_i.  The
step kills the coefficient at M and only touches monomials >= M, so
reducing the smallest reducible monomial first (smallest applicable rule
index on ties) drives every coefficient below a degree bound to its
normal-form value in finitely many steps.

Everything here works modulo an explicit precision: a normalisation below
degree p is a faithful finite prefix of the convergent infinite reduction
chain, and all certificates (cofactors, membership verdicts, divergence
witnesses) are stated "below degree p".
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    InvalidTraceError,
    InvariantViolationError,
    NotReducibleError,
    PreconditionFailedError,
    PrecisionUnattainableError,
)
from .monomials import Monomial, require_int, require_iterable, require_type
from .series import _Q, TruncatedSeries, _add, _div, _fraction, _mul, _neg, delta


@dataclass(frozen=True)
class RewriteRule:
    """A nonzero series with its leading data for the opposite order, from `body.leading()`."""

    body: TruncatedSeries
    leading_monomial: Monomial = field(init=False)
    leading_coefficient: Fraction = field(init=False)

    def __post_init__(self):
        require_type(self.body, TruncatedSeries, "rule body")
        for name, value in zip(("leading_monomial", "leading_coefficient"), self.body.leading()):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, init=False)
class RuleSet:
    """Rewrite rules built from their bodies, read once from any iterable;
    line order fixes the 1-based indices that tie-breaking and traces use."""

    rules: tuple[RewriteRule, ...]
    n: int

    def __init__(self, bodies: Iterable[TruncatedSeries], n: Optional[int] = None):
        rules = tuple(map(RewriteRule, require_iterable(bodies, "bodies")))
        if n is None and not rules:
            raise ValueError("variable count required for an empty rule set")
        n = rules[0].body.n if n is None else n
        require_int(n, "variable count", 1)
        for r in rules:
            if r.body.n != n:
                raise DimensionMismatchError(
                    f"rule over {r.body.n} variables in a {n}-variable system")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return len(self.rules)

    def rule(self, i: int) -> RewriteRule:
        """Rule number i, 1-based."""
        require_int(i, "rule index")
        if not 1 <= i <= len(self.rules):
            raise NotReducibleError(f"rule index {i} out of range 1..{len(self.rules)}")
        return self.rules[i - 1]


@dataclass(frozen=True)
class ReductionStep:
    monomial: Monomial       # the reduced monomial M
    rule_index: int          # 1-based index i
    quotient: Monomial       # m with M = m * LM(s_i)
    coeff: Fraction          # coefficient of M at the time of reduction


@dataclass(frozen=True)
class ReductionTrace:
    """A finite reduction chain prefix: replaying the steps from `start`
    reproduces `end` below `end_precision`.

    A trace made by the engine also holds the rule set and the cofactor
    accumulators of its run, which `cofactors` returns without a replay.
    Traces built by hand or by `dataclasses.replace` hold none, and only
    they run the checks of `__post_init__`: the engine skips `__init__`.

    An engine-made trace holds its run's raw ``(M, i, m, coeff)`` records
    instead of `steps`, and builds the `steps` tuple from them on the first
    read (`__getattr__` runs only while `steps` is missing).  `len` and
    `cofactors` build nothing."""

    start: TruncatedSeries
    steps: tuple[ReductionStep, ...]
    end: TruncatedSeries
    end_precision: int
    _collected: Optional[tuple[RuleSet, list[dict]]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for what in ("start", "end"):
            require_type(getattr(self, what), TruncatedSeries, what)
        steps = require_iterable(self.steps, "steps")
        for step in steps:
            require_type(step, ReductionStep, "step")
            require_type(step.monomial, Monomial, "monomial")
            require_int(step.rule_index, "rule index", 1)
            require_type(step.quotient, Monomial, "quotient")
            require_type(step.coeff, numbers.Rational, "coeff")
        require_int(self.end_precision, "end precision", 0)
        object.__setattr__(self, "steps", steps)

    def __getattr__(self, name: str):
        # `copy` and `pickle` probe a half-built instance without `_raw`:
        # every name but `steps` of a trace with raw records is missing.
        raw = self.__dict__.pop("_raw", None) if name == "steps" else None
        if raw is None:
            raise AttributeError(name)
        steps = _box(raw)
        object.__setattr__(self, "steps", steps)
        return steps

    def __len__(self) -> int:
        raw = self.__dict__.get("_raw")
        return len(self.steps if raw is None else raw)


def _box(raw: Sequence[tuple[tuple[int, ...], int, tuple[int, ...], _Q]]
         ) -> tuple[ReductionStep, ...]:
    """The `ReductionStep`s of a reducer's raw ``(M, i, m, coeff)`` records."""
    trusted = Monomial._trusted
    return tuple(ReductionStep(trusted(M), i, trusted(m), _fraction(c)) for M, i, m, c in raw)


_Key = tuple[int, tuple[int, ...]]   # (degree, exponents): a monomial's deglex key


# A leading exponent above this is tested rule by rule, so no divisor
# mask table holds more than this many entries plus one.
_MASK_LIMIT = 64


class _Index:
    """The divisor masks and memo of one tuple of leading exponents, in rule
    order: which rules divide a monomial depends on nothing else, so every
    rule set with these leading monomials shares them.  Built by `_compile`
    only, and kept in `_indices`.

    ``masks`` holds ``(k, cap, below)`` for each variable k that some
    leading monomial uses, with cap its largest exponent there but at most
    `_MASK_LIMIT`: bit j - 1 of ``below[v]`` is set when rule j's leading
    exponent in k is at most v (each rule sets its bit at its own exponent,
    and each entry is OR-ed into the next).  A monomial's dividing rules
    are the ``short`` rules' bits left in the AND of its variables'
    entries, an exponent above the cap read at the cap, plus each of the
    ``tall`` rules, whose leading exponents pass the limit, that divides
    it exponent by exponent.  ``indices`` maps each bit set to its
    ascending 1-based rule indices, built once per distinct set."""

    __slots__ = ("short", "tall", "masks", "indices", "memo")

    def __init__(self, lms: tuple[tuple[int, ...], ...]):
        self.masks = []
        tall = 0
        for k, column in enumerate(zip(*lms)):
            cap = max(column)
            if cap:
                if cap > _MASK_LIMIT:
                    cap = _MASK_LIMIT
                    tall |= sum(1 << j for j, v in enumerate(column) if v > cap)
                    column = [min(v, cap) for v in column]
                below = [0] * (cap + 1)
                bit = 1
                for v in column:
                    below[v] |= bit
                    bit <<= 1
                for v in range(cap):
                    below[v + 1] |= below[v]
                self.masks.append((k, cap, below))
        self.short = (1 << len(lms)) - 1 & ~tall
        self.tall = [(1 << j, lm) for j, lm in enumerate(lms) if tall >> j & 1] if tall else []
        self.indices: dict[int, tuple[int, ...]] = {}
        self.memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def dividing(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """1-based indices of the rules whose leading monomial divides e."""
        hit = self.memo.get(e)
        if hit is None:
            bits = self.short
            for k, cap, below in self.masks:
                v = e[k]
                bits &= below[v if v < cap else cap]
            for bit, lm in self.tall:
                if all(map(operator.le, lm, e)):
                    bits |= bit
            hit = self.indices.get(bits)
            if hit is None:
                hit = self.indices[bits] = tuple(
                    j for j in range(1, bits.bit_length() + 1) if bits >> (j - 1) & 1)
            self.memo[e] = hit
        return hit


class _Compiled:
    """Per rule: LM exponents, deg LM, LC, the other terms with their
    degrees, and the body precision, read from the bodies' stored terms;
    plus the memo and divisor test of the `_Index` of its leading
    exponents.  Built by `_compile` only, shared by every reducer of the
    calls on one `RuleSet` in a row, never kept on the `RuleSet`."""

    __slots__ = ("rules", "table", "memo", "dividing")

    def __init__(self, rules: RuleSet, index: _Index):
        self.rules = rules
        self.table = []
        for r in rules.rules:
            lm, terms = r.leading_monomial.exponents, r.body._terms
            tail = [(e, sum(e), c) for e, c in terms.items() if e != lm]
            self.table.append((lm, sum(lm), terms[lm], tail, r.body.precision))
        self.memo = index.memo
        self.dividing = index.dividing

    def reducible(self, f: TruncatedSeries) -> list[tuple[int, ...]]:
        """The exponents of f's stored terms that some rule's leading
        monomial divides; f must be a series over the rules' variables."""
        require_type(f, TruncatedSeries, "series")
        if f.n != self.rules.n:
            raise DimensionMismatchError(f"series over {f.n} variables, rules over {self.rules.n}")
        dividing = self.dividing
        return [e for e in f._terms if dividing(e)]


# The last rule set's `_Compiled`, or None before the first compile
_slot: Optional[_Compiled] = None
# The `_Index` of each (variable count, leading exponents in rule order)
# compiled since the dict was last replaced; a published dict is never
# changed, so a thread may read it while another replaces it.
_indices: dict[tuple[int, tuple[tuple[int, ...], ...]], _Index] = {}
_INDEX_LIMIT = 64   # at most this many kept indices
_MEMO_LIMIT = 1 << 10   # a slot memo past this many entries drops the kept indices


def _compile(rules: RuleSet) -> _Compiled:
    """The rule set's `_Compiled`, kept in `_slot` until a call with another
    rule set replaces it, or one that finds its memo past `_MEMO_LIMIT`
    entries (never a run, which reads the memo for every pending key).  A
    new `_Compiled` takes the `_Index` kept for its variable count and
    leading exponents, if any: a memo entry is a function of those and the
    monomial, so it carries over.  Every call runs on the `_Compiled` in
    the slot, so between compiles only the slot's memo grows: when it is
    past the limit, or a new index would pass `_INDEX_LIMIT`, `_indices`
    is replaced by an empty dict first.  The slot and the dict are each
    read and swapped in one step, so a thread never reads one rule set's
    table with another's, and a race between threads costs at most a
    build more."""
    global _slot, _indices
    compiled = _slot
    if compiled is None or compiled.rules is not rules or len(compiled.memo) > _MEMO_LIMIT:
        require_type(rules, RuleSet, "rule set")
        key = (rules.n, tuple(r.leading_monomial.exponents for r in rules.rules))
        kept = _indices if compiled is None or len(compiled.memo) <= _MEMO_LIMIT else {}
        index = kept.get(key)
        if index is None:
            index = _Index(key[1])
            _indices = {**kept, key: index} if len(kept) < _INDEX_LIMIT else {key: index}
        compiled = _slot = _Compiled(rules, index)
    return compiled


class _Reducer:
    """One reduction run from a series, which `_Compiled.reducible` checks.

    ``terms`` starts as a copy of the series' stored terms: it maps
    exponent tuples to the nonzero coefficients of degree below
    ``precision``, at first the series' own, and below ``bound``.  When a
    rule's truncation lowers the precision, the terms and deferred products
    at or above the new precision are dropped, as the series constructor
    would.  ``pending`` holds the ``(degree, exponents)`` keys of the
    reducible terms, sorted in the order: the canonical strategy takes
    ``pending[0]``, and a uniform draw over it is a draw over the sorted
    candidate list.  ``memo`` is the divisor memo of the rules' leading
    monomials, shared with every run on a rule set with the same ones
    while `_compile` keeps their `_Index`: a step looks a
    new term up there once and runs the divisor test only on a miss, so
    every pending key is in it and `_run` reads its pick's rules there.  A
    step on ``pending[0]``, the canonical pick, deletes the head; any other
    key is found by bisection.
    ``quotients[i]`` accumulates the cofactor of rule i + 1 as the steps
    run, and ``steps`` the raw ``(M, i, m, coeff)`` records a trace is
    built from.

    Nothing of degree ``bound`` or more enters ``terms``: ``deferred``
    keeps, under its monomial, each start term there as the pair
    ``(c, 1)`` and each tail product there as its ``(-factor, tail
    coefficient)`` pair, and `end` sums those pairs only when the end
    needs them.  ``bound`` is the target in `_run`, whose steps never read
    a term at or above it, and infinite for the walkers that read every
    coefficient.

    The coefficients in ``terms``, ``deferred``, ``steps`` and
    ``quotients`` are in the stored form of `TruncatedSeries`, so `_series`
    hands terms out as they are; only a trace's `steps` turn their
    coefficients into `Fraction`s.
    """

    __slots__ = ("rules", "bound", "terms", "deferred", "precision", "pending",
                 "steps", "quotients", "_table", "memo", "dividing")

    def __init__(self, compiled: _Compiled, f: TruncatedSeries, bound: float = math.inf):
        reducible = compiled.reducible(f)
        self.rules = rules = compiled.rules
        self.bound = bound
        self.terms = terms = dict(f._terms)
        self.deferred: dict[tuple[int, ...], list[tuple[_Q, _Q]]] = {
            e: [(terms.pop(e), 1)] for e in [e for e in terms if sum(e) >= bound]}
        self.precision = f.precision
        self._table = compiled.table
        self.memo = compiled.memo
        self.dividing = compiled.dividing
        self.pending = sorted((sum(e), e) for e in reducible if e in terms)
        self.steps: list[tuple[tuple[int, ...], int, tuple[int, ...], _Q]] = []
        self.quotients: list[dict[tuple[int, ...], _Q]] = [{} for _ in rules.rules]

    def _unpend(self, key: _Key) -> None:
        pending = self.pending
        k = bisect_left(pending, key)
        if k < len(pending) and pending[k] == key:
            del pending[k]

    def step(self, key: _Key, i: int) -> None:
        """Reduce the stored term at key = (degree, exponents), which is
        pending, with rule i, whose leading monomial divides it."""
        d, M = key
        lm, lm_degree, lc, tail, body_precision = self._table[i - 1]
        m = tuple(map(operator.sub, M, lm))
        dm = d - lm_degree
        terms, pending, deferred, bound = self.terms, self.pending, self.deferred, self.bound
        memo = self.memo
        coeff = terms.pop(M)
        if pending[0] is key:   # the canonical pick
            del pending[0]
        else:
            self._unpend(key)
        prec = self.precision
        if body_precision is not None and (prec is None or body_precision + dm < prec):
            prec = self.precision = body_precision + dm
            for store in (terms, deferred):
                for e in [e for e in store if sum(e) >= prec]:
                    del store[e]
            del pending[bisect_left(pending, (prec,)):]
        if type(coeff) is int and type(lc) is int and not coeff % lc:
            factor = coeff // lc
            neg = -factor
        else:
            factor = _div(coeff, lc)
            neg = _neg(factor)
        for e, de, c in tail:
            d2 = de + dm
            if prec is not None and d2 >= prec:
                continue
            e2 = tuple(map(operator.add, e, m))
            if d2 >= bound:
                held = deferred.get(e2)
                if held is None:
                    deferred[e2] = [(neg, c)]
                else:
                    held.append((neg, c))
                continue
            p = _mul(neg, c)
            old = terms.get(e2)
            if old is None:
                terms[e2] = p
                hit = memo.get(e2)
                if hit is None:
                    hit = self.dividing(e2)
                if hit:
                    insort(pending, (d2, e2))
                continue
            new = old + p if type(old) is int and type(p) is int else _add(old, p)
            if new:
                terms[e2] = new
            else:
                del terms[e2]
                self._unpend((d2, e2))
        q = self.quotients[i - 1]
        old = q.get(m)   # only a random walk revisits m; a zero sum drops out in _series
        q[m] = factor if old is None else _add(old, factor)
        self.steps.append((M, i, m, coeff))

    def end(self, target: int) -> tuple[TruncatedSeries, int]:
        """The end and end precision of a run whose pending list is empty;
        the target is the run's bound.

        A nonzero deferred sum on a reducible monomial means the normal
        form is pinned down only below the target: the end is the terms at
        precision target, and the first such sum settles it.  Otherwise
        every deferred sum is folded in and the end is exact up to the
        run's precision."""
        terms, deferred, dividing = self.terms, self.deferred, self.dividing
        if any(dividing(e) and _fold(held) for e, held in deferred.items()):
            return _series(self.rules.n, terms, target), target
        for e, held in deferred.items():
            c = _fold(held)
            if c:
                terms[e] = c
        return self.series(), target if self.precision is None else self.precision

    def series(self) -> TruncatedSeries:
        return _series(self.rules.n, self.terms, self.precision)

    def trace(self, start: TruncatedSeries, end: TruncatedSeries,
              end_precision: int) -> ReductionTrace:
        """The trace of this run from start, with its cofactors and raw steps."""
        trace = object.__new__(ReductionTrace)
        trace.__dict__.update(start=start, end=end, end_precision=end_precision,
                              _collected=(self.rules, self.quotients), _raw=self.steps)
        return trace


def _fold(held: Sequence[tuple[_Q, _Q]]) -> _Q:
    """The sum of the products of the deferred pairs, in the order deferred."""
    c = 0
    for a, b in held:
        c = _add(c, _mul(a, b))
    return c


def _series(n: int, terms: dict[tuple[int, ...], _Q],
            precision: Optional[int] = None) -> TruncatedSeries:
    """The series of a stored-form term dict below the precision that no one
    changes afterwards: a reducer's terms, or a cofactor or combination.  It
    is wrapped as it is, unless a cofactor sum in it is zero."""
    if not all(terms.values()):
        terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries._from_clean(n, terms, precision)


def _run(compiled: _Compiled, f: TruncatedSeries, target_precision: int,
         rng: Optional[random.Random] = None) -> tuple[_Reducer, TruncatedSeries, int]:
    """Reduce the series f below the target; the reducer, end and end
    precision.  Without an rng each step takes the smallest pending
    monomial and its first dividing rule, the canonical strategy; with one
    it draws both uniformly.  Terms and products at or above the target
    are deferred, and summed only as far as `_Reducer.end` needs them."""
    require_int(target_precision, "target precision", 0)
    r = _Reducer(compiled, f, target_precision)
    if r.precision is not None and r.precision < target_precision:
        raise PrecisionUnattainableError(
            f"input precision {r.precision} below target {target_precision}")
    pending, memo = r.pending, r.memo   # every pending key is in the memo
    while pending:
        if rng is None:
            key = pending[0]
            i = memo[key[1]][0]
        else:
            key = rng.choice(pending)
            i = rng.choice(memo[key[1]])
        r.step(key, i)
        if r.precision is not None and r.precision < target_precision:
            raise PrecisionUnattainableError(
                f"rule truncation caps precision at {r.precision} < target {target_precision} "
                f"after reducing {Monomial(key[1])} with rule {i}")
    return (r, *r.end(target_precision))


def normalize(f: TruncatedSeries, rules: RuleSet, target_precision: int) -> ReductionTrace:
    """Reduce f below the target degree with the canonical strategy:
    always the smallest reducible monomial, smallest rule index on ties.

    The reduced monomials then strictly increase, which both terminates
    (finitely many monomials under any bound) and leaves every coefficient
    below the last reduced monomial final.
    """
    r, end, end_precision = _run(_compile(rules), f, target_precision)
    return r.trace(f, end, end_precision)


def normalize_random(f: TruncatedSeries, rules: RuleSet, target_precision: int,
                     seed: int) -> ReductionTrace:
    """Reduce f below the target degree, drawing the reducible monomial
    and the applicable rule uniformly at each step (reproducible per seed)."""
    require_int(seed, "seed")
    r, end, end_precision = _run(_compile(rules), f, target_precision, random.Random(seed))
    return r.trace(f, end, end_precision)


def reducible_monomials(f: TruncatedSeries, rules: RuleSet) -> set[Monomial]:
    """Stored monomials of f divisible by some rule's leading monomial."""
    return set(map(Monomial._trusted, _compile(rules).reducible(f)))


def reduce_step(f: TruncatedSeries, rules: RuleSet, M: Monomial,
                i: int) -> tuple[TruncatedSeries, ReductionStep]:
    """One reduction of f at monomial M with rule i.

    The result g has coefficient 0 at M and agrees with f on every
    monomial strictly smaller than M; its precision is
    min(p_f, deg(m) + p_rule).  It is one `_Reducer.step`, the step that
    every reduction here runs.
    """
    compiled = _compile(rules)
    rules.rule(i)   # the index checks
    require_type(f, TruncatedSeries, "series")
    if not f.coefficient(M):
        raise NotReducibleError(f"monomial {M} not in the known support")
    r = _Reducer(compiled, f)
    e = M.exponents
    if i not in r.dividing(e):
        raise NotReducibleError(f"leading monomial of rule {i} does not divide {M}")
    r.step((M.degree, e), i)
    (step,) = _box(r.steps)
    return r.series(), step


def _replay(trace: ReductionTrace, compiled: _Compiled) -> _Reducer:
    """Rerun the steps of the trace on a reducer, validating each one."""
    rules = compiled.rules
    r = _Reducer(compiled, trace.start)
    for k, step in enumerate(trace.steps):
        lm, m = rules.rule(step.rule_index).leading_monomial.exponents, step.quotient.exponents
        if len(m) != len(lm):   # `map` would stop at the shorter one
            raise DimensionMismatchError(f"monomials over {len(m)} and {len(lm)} variables")
        M = step.monomial.exponents
        if tuple(map(operator.add, m, lm)) != M:
            raise InvalidTraceError(
                f"step {k + 1}: quotient * LM(rule {step.rule_index}) != {step.monomial}")
        actual = _fraction(r.terms.get(M, 0))
        if actual != step.coeff or actual == 0:
            raise InvalidTraceError(
                f"step {k + 1}: recorded coefficient {step.coeff} at {step.monomial}, found {actual}")
        r.step((step.monomial.degree, M), step.rule_index)
    if r.series().truncate(trace.end_precision) != trace.end.truncate(trace.end_precision):
        raise InvalidTraceError("replayed end differs from recorded end below end precision")
    return r


def cofactors(trace: ReductionTrace, rules: RuleSet) -> tuple[TruncatedSeries, ...]:
    """Per-rule quotients q_1..q_r with start = end + sum q_i s_i below the
    trace's end precision.  Each step at M = m * LM(s_i) contributes
    (coeff/LC(s_i)) * m to q_i.

    A trace the engine made for these rules carries the quotients its run
    collected; any other trace is replayed and validated step by step."""
    require_type(trace, ReductionTrace, "trace")
    collected = trace._collected
    if collected is None or collected[0] != rules:
        collected = (rules, _replay(trace, _compile(rules)).quotients)
    return tuple(_series(rules.n, q) for q in collected[1])


def multiple_to_zero_chain(q: TruncatedSeries, i: int, rules: RuleSet,
                           precision: int) -> ReductionTrace:
    """Reduce q * s_i to zero with rule i alone, walking the support of q
    in increasing order; every quotient monomial is a support element of q
    and the whole known part telescopes away."""
    require_int(precision, "target precision", 0)
    compiled = _compile(rules)
    rule = rules.rule(i)
    require_type(q, TruncatedSeries, "series")
    start = q.multiply(rule.body)
    if start.precision is not None and start.precision < precision:
        raise PrecisionUnattainableError(
            f"product precision {start.precision} below target {precision}")
    r = _Reducer(compiled, start)
    lm = rule.leading_monomial.exponents
    for _d, m in sorted((sum(e), e) for e in q._terms):   # increasing in deglex
        M = tuple(map(operator.add, m, lm))
        if M in r.terms:   # else truncated away: the slice lies beyond the precision
            r.step((sum(M), M), i)
    if r.terms:
        raise InvariantViolationError("known part of q * s_i did not telescope to zero")
    return r.trace(start, r.series(), precision if r.precision is None else r.precision)


def translate(f: TruncatedSeries, g: TruncatedSeries, trace: ReductionTrace,
              rules: RuleSet) -> tuple[TruncatedSeries, TruncatedSeries,
                                       ReductionTrace, ReductionTrace]:
    """Lift a reduction chain of f - g onto f and g separately.

    Each step at monomial M is applied on the side(s) whose support
    contains M and skipped on the other, so f' - g' equals the chain's end
    below the common precision.  The lifted traces carry their cofactors.
    """
    require_type(f, TruncatedSeries, "series")
    require_type(trace, ReductionTrace, "trace")
    if trace.start != f.subtract(g):
        raise InvalidTraceError("trace does not start at f - g")
    compiled = _compile(rules)
    _replay(trace, compiled)
    sides = tuple(_Reducer(compiled, h) for h in (f, g))
    for step in trace.steps:
        M = step.monomial.exponents
        for r in sides:
            if M in r.terms:
                r.step((step.monomial.degree, M), step.rule_index)
    p = trace.end_precision
    f_k, g_k = (r.series() for r in sides)
    if f_k.subtract(g_k).truncate(p) != trace.end.truncate(p):
        raise InvalidTraceError("lifted chains do not reproduce the trace end")
    return f_k, g_k, sides[0].trace(f, f_k, p), sides[1].trace(g, g_k, p)


# -- membership / congruence ------------------------------------------------

@dataclass(frozen=True)
class Member:
    """f - g is generated by the rules below the working precision; the
    cofactors witness it."""
    cofactors: tuple[TruncatedSeries, ...]


@dataclass(frozen=True)
class NotMember:
    """A nonzero normal form below the precision: conclusive only when the
    rules were asserted to form a standard basis (unique normal forms)."""
    witness: TruncatedSeries


@dataclass(frozen=True)
class UnknownAtPrecision:
    """A nonzero residual without the standard-basis assumption: the
    division strategy proves nothing either way."""
    residual: TruncatedSeries


MembershipVerdict = Member | NotMember | UnknownAtPrecision


def congruence_test(f: TruncatedSeries, g: TruncatedSeries, rules: RuleSet,
                    precision: int,
                    assume_standard_basis: bool = False) -> MembershipVerdict:
    """Decide f = g modulo the generated ideal, below the precision.

    Normalises f - g.  A vanishing residual always yields Member (the
    congruence is witnessed by cofactors).  A surviving residual yields
    NotMember only under the caller's standard-basis assumption, otherwise
    UnknownAtPrecision.
    """
    require_type(f, TruncatedSeries, "series")
    d = f.subtract(g)
    r, end, _ = _run(_compile(rules), d, precision)
    if end.truncate(precision).known_zero():
        return Member(tuple(_series(rules.n, q) for q in r.quotients))
    if assume_standard_basis:
        return NotMember(end)
    return UnknownAtPrecision(end)


# -- standard-basis falsification -------------------------------------------

@dataclass(frozen=True)
class StandardBasisCounterexample:
    """A combination of the rules whose normal form is nonzero below the
    working precision: the rules cannot be a standard basis of the ideal
    they generate."""

    phase: str                   # "pairwise" or "random"
    trial: int                   # 1-based counter within the phase
    cofactors: tuple[TruncatedSeries, ...]
    combination: TruncatedSeries
    normal_form: TruncatedSeries


def falsify_standard_basis(rules: RuleSet, precision: int, trials: int,
                           seed: int) -> Optional[StandardBasisCounterexample]:
    """Search for a combination of the rules that does not reduce to zero.

    Runs the deterministic leading-cancellation phase first (for each rule
    pair, multiply both onto the lcm of their leading monomials so the
    least leading terms cancel), then seeded random combinations with
    cofactors of degree at most 3.

    When every rule is exact or known to precision >= p = `precision`
    (hence exact in Q[[x]]/m^p), a None after the pairwise phase is
    conclusive: every critical pair reduced to 0 below p, which by
    Buchberger's criterion in Q[[x]]/m^p means the rules are a standard
    basis below p (the leading ideal of I + m^p is generated by the rules'
    leading monomials and m^p), so no combination can be a counterexample
    and the random phase is skipped.  It runs only when some rule is known
    below p only; there a None is inconclusive.

    When moreover no two leading monomials share a variable, the pairs are
    skipped too and the None comes at once (Buchberger's product criterion;
    Becker, JPAA 1990, for power series).  The textbook proof needs a
    global order, so here is one for this local order, where LM is the
    least monomial in deglex.  Complete each body known to p to any series
    s_i of Q[[x]]: combinations and steps read only the terms below p.
    For a nonzero f = sum h_i s_i take the representation whose delta =
    min_i LM(h_i s_i) is largest; delta <= LM(f) and only finitely many
    monomials lie below LM(f), so a largest one exists.  If delta < LM(f),
    the terms at delta cancel: the leading terms of the h_i with
    LM(h_i s_i) = delta form a syzygy of the leading terms of the s_i.  It
    is a sum of pairwise syzygies, and for coprime LM_i, LM_j each is
    m * (LT(s_j) e_i - LT(s_i) e_j) with m a monomial, the lowest part of
    the Koszul syzygy m * (s_j e_i - s_i e_j).  Subtracting those lifts
    keeps f and leaves every h_i s_i with its least monomial above delta,
    a contradiction.  So some LM_i divides LM(f): the rules are a standard
    basis, every series of I + m^p with a term below p has a reducible
    least term, and every combination reduces to 0 below p.  The test
    covers the whole set only.  Skipping one coprime pair of a set that is
    not pairwise coprime can skip the certificate, as
    `tests/test_reducer_differential.py::test_a_pair_with_coprime_leading_monomials_can_be_the_certificate`
    pins, while a pairwise-coprime set has no certificate to skip.
    """
    require_int(trials, "trials", 1)
    require_int(precision, "target precision", 0)
    require_int(seed, "seed")
    compiled = _compile(rules)
    for phase, trial, qs in _draws(compiled, precision, trials, seed):
        combination = _combine(compiled, qs)
        try:
            end = _run(compiled, combination, precision)[1]
        except PrecisionUnattainableError:
            continue  # rule truncations make this combination untestable
        residual = end.truncate(precision)
        if not residual.known_zero():
            return StandardBasisCounterexample(phase, trial, tuple(_series(rules.n, q) for q in qs),
                                               combination, residual)
    return None


def _draws(compiled: _Compiled, precision: int, trials: int, seed: int
           ) -> Iterator[tuple[str, int, list[dict[tuple[int, ...], _Q]]]]:
    """(phase, trial, cofactor lists) in the falsifier's order, each trial
    counted from 1 within its phase: every rule pair's lcm cofactors, then,
    only when some body is known below `precision` only, `trials` draws from
    `random.Random(seed)`, each made when the caller asks for it.

    Nothing at all when every body is exact or known to `precision` and no
    two leading monomials share a variable: by Buchberger's product
    criterion, proved for this local order in `falsify_standard_basis`,
    such rules are a standard basis below `precision`, so no draw can be a
    certificate.  The test is on the whole set only, never pair by pair."""
    table = compiled.table
    settled = all(p is None or p >= precision for *_, p in table)
    if settled and all(sum(map(bool, column)) < 2 for column in zip(*(lm for lm, *_ in table))):
        return
    for trial, (a, b) in enumerate(combinations(range(len(table)), 2), 1):
        lcm = tuple(map(max, table[a][0], table[b][0]))
        qs = [{} for _ in table]
        for k, sign in ((a, 1), (b, -1)):
            qs[k] = {tuple(map(operator.sub, lcm, table[k][0])): _div(sign, table[k][2])}
        yield "pairwise", trial, qs
    if settled:
        return
    rng = random.Random(seed)
    n = compiled.rules.n
    for trial in range(1, trials + 1):
        yield "random", trial, [_random_cofactor(rng, n) for _ in table]


def _random_cofactor(rng: random.Random, n: int) -> dict[tuple[int, ...], _Q]:
    """A random-phase cofactor in the stored form, reproducible from rng: at
    most 4 terms with small integer coefficients and total degree <= 3."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(0, 3)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
    return {e: c for e, c in terms.items() if c}


def _combine(compiled: _Compiled, qs: Sequence[dict[tuple[int, ...], _Q]]
             ) -> TruncatedSeries:
    """The series sum q_i * s_i, for exact cofactors q_i given as stored-form
    term dicts (nonzero terms only) and the compiled rule bodies s_i.

    The precision is min over the nonzero q_i of p_i + val(q_i), as
    `TruncatedSeries.multiply` and `add` compute it, and the terms are
    those below it; a leading term that cancels, as in a critical pair,
    cancels in the sum.  The falsifier both runs and returns the result."""
    precision = None
    for q, (_lm, _d, _lc, _tail, body_precision) in zip(qs, compiled.table):
        if q and body_precision is not None:
            p = body_precision + min(map(sum, q))
            precision = p if precision is None else min(precision, p)
    acc: dict[tuple[int, ...], _Q] = {}
    for q, (lm, lm_degree, lc, tail, _p) in zip(qs, compiled.table):
        for mq, cq in q.items():
            dq = sum(mq)
            for e, de, c in ((lm, lm_degree, lc), *tail):
                if precision is None or de + dq < precision:
                    e2 = tuple(map(operator.add, e, mq))
                    acc[e2] = _add(acc.get(e2, 0), _mul(cq, c))
    return _series(compiled.rules.n, acc, precision)


# -- confluence probing ------------------------------------------------------

@dataclass(frozen=True)
class ConfluenceProbeReport:
    """Pairwise adic distances between the normal forms reached by
    different randomized strategies.  Under a standard basis every pair
    must lie within 2^(-precision); anything larger witnesses divergence."""

    precision: int
    seeds: tuple[int, ...]
    ends: tuple[TruncatedSeries, ...]
    pairwise: tuple[tuple[int, int, Fraction, bool], ...]

    @property
    def threshold(self) -> Fraction:
        return Fraction(1, 2 ** self.precision)

    @property
    def max_delta(self) -> Fraction:
        return max((d for _, _, d, _ in self.pairwise), default=Fraction(0))

    def divergence_witnesses(self) -> list[tuple[int, int, Fraction]]:
        threshold = self.threshold
        return [(a, b, d) for a, b, d, _ in self.pairwise if d > threshold]


def confluence_probe(f: TruncatedSeries, rules: RuleSet, precision: int,
                     strategy_seeds: Iterable[int]) -> ConfluenceProbeReport:
    strategy_seeds = require_iterable(strategy_seeds, "strategy_seeds")
    if not strategy_seeds:
        raise ValueError("strategy_seeds must be nonempty")
    for s in strategy_seeds:
        require_int(s, "seed")
    compiled = _compile(rules)
    ends = [_run(compiled, f, precision, random.Random(s))[1] for s in strategy_seeds]
    pairs = []
    for a in range(len(ends)):
        for b in range(a + 1, len(ends)):
            d, ub = delta(ends[a], ends[b])
            pairs.append((strategy_seeds[a], strategy_seeds[b], d, ub))
    return ConfluenceProbeReport(precision, strategy_seeds, tuple(ends), tuple(pairs))


# -- attractivity -------------------------------------------------------------

@dataclass(frozen=True)
class AttractivityReport:
    """Distances to a fixed normal form along an arbitrary reduction walk;
    a violation is any step that moved strictly further away."""

    ok: bool
    steps_taken: int
    distances: tuple[Fraction, ...]   # delta to alpha before/after each step
    violation_step: Optional[int]     # 1-based, None when ok


def attractivity_check(f: TruncatedSeries, rules: RuleSet,
                       alpha: TruncatedSeries, steps: int,
                       seed: int = 0) -> AttractivityReport:
    """Walk up to `steps` random one-step reductions from f, checking that
    the distance to the normal form alpha never increases."""
    require_int(steps, "steps", 0)
    require_int(seed, "seed")
    compiled = _compile(rules)
    if compiled.reducible(alpha):
        raise PreconditionFailedError("alpha contains a reducible monomial")
    rng = random.Random(seed)
    r = _Reducer(compiled, f)
    dists = [delta(f, alpha)[0]]
    for k in range(1, steps + 1):
        if not r.pending:
            break
        key = rng.choice(r.pending)
        r.step(key, rng.choice(r.dividing(key[1])))
        dists.append(delta(r.series(), alpha)[0])
        if dists[-1] > dists[-2]:
            return AttractivityReport(False, k, tuple(dists), k)
    return AttractivityReport(True, len(dists) - 1, tuple(dists), None)
