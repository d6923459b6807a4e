"""Slow reference reductions kept as differential oracles.

These are the straightforward forms of the engine's reducer, written in
series arithmetic and independent of it; their monomial arithmetic is the
exponent-tuple helpers of `helpers`.  One step is `reduce_step`:
f - (coeff / LC) * m * s_i, with `scale_term` and `subtract`, after the
divisor test of `dividing_rules`.  Every reduction rescans the whole
support against every rule with `reducible_monomials`, re-sorts the
candidates and rebuilds the series with `reduce_step`; cofactors come
from replaying the trace, and `translate` lifts a chain one `reduce_step`
at a time.  `standard_representation` divides with these and rebuilds each
summand q_i s_i with `multiply`.  The package's one incremental reducer
in `psrewrite.rewrite`, its public `reduce_step` and `reducible_monomials`
included, is checked against them.  The standard-basis falsifier here
always runs its seeded random phase after the critical pairs, whether or
not the rules are exact.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from helpers import (
    deglex_key,
    monomial_lcm,
    monomial_product,
    monomial_quotient,
    random_polynomial,
    support,
)
from psrewrite import (
    DimensionMismatchError,
    InvalidTraceError,
    Monomial,
    NotReducibleError,
    PrecisionUnattainableError,
    ReductionStep,
    ReductionTrace,
    StandardBasisCounterexample,
    TruncatedSeries,
    delta,
)
from psrewrite.rewrite import AttractivityReport


def dividing_rules(rules, m):
    """1-based indices of the rules whose leading monomial divides m."""
    return [i + 1 for i, r in enumerate(rules.rules)
            if monomial_quotient(r.leading_monomial, m) is not None]


def reducible_monomials(f, rules):
    """Stored monomials of f divisible by some rule's leading monomial."""
    if f.n != rules.n:
        raise DimensionMismatchError(f"series over {f.n} variables, rules over {rules.n}")
    return {m for m in support(f) if dividing_rules(rules, m)}


def reduce_step(f, rules, M, i):
    """One reduction of f at M with rule i: f - (coeff / LC) * m * s_i."""
    rule = rules.rule(i)
    coeff = f.coefficient(M)
    if coeff == 0:
        raise NotReducibleError(f"monomial {M} not in the known support")
    m = monomial_quotient(rule.leading_monomial, M)
    if m is None:
        raise NotReducibleError(f"leading monomial of rule {i} does not divide {M}")
    g = f.subtract(rule.body.scale_term(coeff / rule.leading_coefficient, m))
    return g, ReductionStep(M, i, m, coeff)


def _normalize_with(f, rules, target_precision, choose):
    if f.n != rules.n:
        raise DimensionMismatchError(f"series over {f.n} variables, rules over {rules.n}")
    if target_precision < 0:
        raise ValueError("target precision must be >= 0")
    if f.precision is not None and f.precision < target_precision:
        raise PrecisionUnattainableError(
            f"input precision {f.precision} below target {target_precision}")

    h = f
    steps = []
    while True:
        candidates = sorted(
            (m for m in reducible_monomials(h, rules) if m.degree < target_precision),
            key=deglex_key)
        if not candidates:
            break
        M, i = choose(candidates)
        h, step = reduce_step(h, rules, M, i)
        if h.precision is not None and h.precision < target_precision:
            raise PrecisionUnattainableError(
                f"rule truncation caps precision at {h.precision} < target {target_precision} "
                f"after reducing {M} with rule {i}")
        steps.append(step)

    if reducible_monomials(h, rules):
        end = h.truncate(target_precision)
        end_precision = target_precision
    else:
        end = h
        end_precision = target_precision if h.precision is None else h.precision
    return ReductionTrace(f, tuple(steps), end, end_precision)


def normalize(f, rules, target_precision):
    def choose(candidates):
        M = candidates[0]
        return M, dividing_rules(rules, M)[0]

    return _normalize_with(f, rules, target_precision, choose)


def normalize_random(f, rules, target_precision, seed):
    rng = random.Random(seed)

    def choose(candidates):
        M = rng.choice(candidates)
        return M, rng.choice(dividing_rules(rules, M))

    return _normalize_with(f, rules, target_precision, choose)


def cofactors(trace, rules):
    """Replay the trace with `reduce_step`, checking every recorded step,
    and sum each step's (coeff / LC) * m into its rule's quotient."""
    acc = [dict() for _ in range(len(rules))]
    h = trace.start
    for k, step in enumerate(trace.steps):
        h, replayed = reduce_step(h, rules, step.monomial, step.rule_index)
        if replayed != step:
            raise InvalidTraceError(f"step {k + 1} does not replay")
        rule = rules.rule(step.rule_index)
        bucket = acc[step.rule_index - 1]
        c = bucket.get(step.quotient, Fraction(0)) + step.coeff / rule.leading_coefficient
        if c == 0:
            bucket.pop(step.quotient, None)
        else:
            bucket[step.quotient] = c
    p = trace.end_precision
    if h.truncate(p) != trace.end.truncate(p):
        raise InvalidTraceError("replayed end differs from recorded end")
    return tuple(TruncatedSeries(rules.n, terms) for terms in acc)


def multiple_to_zero_chain(q, i, rules, precision):
    start = q.multiply(rules.rule(i).body)
    if start.precision is not None and start.precision < precision:
        raise PrecisionUnattainableError(
            f"product precision {start.precision} below target {precision}")
    lm = rules.rule(i).leading_monomial
    h = start
    steps = []
    for m in sorted(support(q), key=deglex_key):
        M = monomial_product(m, lm)
        if h.coefficient(M) == 0:
            continue
        h, step = reduce_step(h, rules, M, i)
        steps.append(step)
    end_precision = precision if h.precision is None else h.precision
    return ReductionTrace(start, tuple(steps), h, end_precision)


def attractivity_check(f, rules, alpha, steps, seed=0):
    rng = random.Random(seed)
    h = f
    dists = [delta(h, alpha)[0]]
    taken = 0
    for k in range(1, steps + 1):
        candidates = sorted(reducible_monomials(h, rules), key=deglex_key)
        if not candidates:
            break
        M = rng.choice(candidates)
        i = rng.choice(dividing_rules(rules, M))
        h, _ = reduce_step(h, rules, M, i)
        taken = k
        dists.append(delta(h, alpha)[0])
        if dists[-1] > dists[-2]:
            return AttractivityReport(False, taken, tuple(dists), k)
    return AttractivityReport(True, taken, tuple(dists), None)


def translate(f, g, trace, rules):
    """Validate the chain of f - g by replaying it, then apply each step
    with `reduce_step` on the side(s) whose support holds its monomial."""
    if trace.start != f.subtract(g):
        raise InvalidTraceError("trace does not start at f - g")
    cofactors(trace, rules)
    f_k, g_k = f, g
    f_steps = []
    g_steps = []
    for step in trace.steps:
        if f_k.coefficient(step.monomial) != 0:
            f_k, s = reduce_step(f_k, rules, step.monomial, step.rule_index)
            f_steps.append(s)
        if g_k.coefficient(step.monomial) != 0:
            g_k, s = reduce_step(g_k, rules, step.monomial, step.rule_index)
            g_steps.append(s)
    p = trace.end_precision
    if f_k.subtract(g_k).truncate(p) != trace.end.truncate(p):
        raise InvalidTraceError("lifted chains do not reproduce the trace end")
    return (f_k, g_k,
            ReductionTrace(f, tuple(f_steps), f_k, p),
            ReductionTrace(g, tuple(g_steps), g_k, p))


def falsify_standard_basis(rules, precision, trials, seed):
    """Every critical pair, then `trials` seeded random combinations; the
    first whose normal form is nonzero below the precision is returned."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = rules.n
    r = len(rules)

    def check(qs, phase, trial):
        combo = TruncatedSeries.zero(n)
        for q, rule in zip(qs, rules.rules):
            combo = combo.add(q.multiply(rule.body))
        if combo.truncate(precision).known_zero():
            return None
        try:
            trace = normalize(combo, rules, precision)
        except PrecisionUnattainableError:
            return None
        residual = trace.end.truncate(precision)
        if residual.known_zero():
            return None
        return StandardBasisCounterexample(phase, trial, tuple(qs), combo, residual)

    trial = 0
    for a in range(r):
        for b in range(a + 1, r):
            ra, rb = rules.rule(a + 1), rules.rule(b + 1)
            lcm = monomial_lcm(ra.leading_monomial, rb.leading_monomial)
            qs = [TruncatedSeries.zero(n) for _ in range(r)]
            qs[a] = TruncatedSeries(n, {monomial_quotient(ra.leading_monomial, lcm):
                                        1 / ra.leading_coefficient})
            qs[b] = TruncatedSeries(n, {monomial_quotient(rb.leading_monomial, lcm):
                                        -1 / rb.leading_coefficient})
            trial += 1
            found = check(qs, "pairwise", trial)
            if found is not None:
                return found

    rng = random.Random(seed)
    for t in range(1, trials + 1):
        qs = [random_polynomial(rng, n, 3) for _ in range(r)]
        found = check(qs, "random", t)
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class StandardRepresentation:
    """Cofactors expressing f as sum q_i s_i below a precision, plus the
    no-cancellation check: the least leading monomial among the nonzero
    summands q_i s_i must be the leading monomial of f itself."""

    cofactors: tuple[TruncatedSeries, ...]
    leading_monomial: Monomial
    min_summand_leading: Optional[Monomial]
    no_cancellation: bool
    trace: ReductionTrace


def standard_representation(f, rules, precision):
    """Divide f by the rules; when the residual vanishes below the
    precision, return the cofactors together with the cancellation check.
    None when a nonzero residual survives."""
    lm_f, _ = f.leading()
    trace = normalize(f, rules, precision)
    if not trace.end.truncate(precision).known_zero():
        return None
    qs = cofactors(trace, rules)
    summand_lms = [q.multiply(rule.body).leading()[0]
                   for q, rule in zip(qs, rules.rules) if not q.known_zero()]
    min_lm = min(summand_lms, key=deglex_key, default=None)
    return StandardRepresentation(qs, lm_f, min_lm, min_lm == lm_f, trace)
