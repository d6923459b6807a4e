"""The incremental reducer against the naive rescan oracle.

Every public reduction entry point must give exactly what the slow
reference in `naive_reduction` gives: the same steps, end, end precision
and cofactors, the same seeded random walks, the same lifts of a chain of
f - g onto f and g, and the same PrecisionUnattainableError at the same
point with the same message.

The verdict procedures reduce without building a trace; they must give
what the traced `normalize` and `normalize_random` give.

The public one-step API, `reduce_step` and `reducible_monomials`, runs on
the same reducer and must match the oracle's series-arithmetic step and
divisor test exactly: the result and its precision, the step, and the
error type and message for an absent monomial, one the rule's leading
monomial does not divide, and a bad rule index.

A run defers every start term and tail product at or above its target,
so its terms stay below the target, and sums what it deferred only where
its end needs it.  Low targets, where most products land above, are
checked against the oracle on their own, as is the
falsifier, which seeds its reducers with combinations built from the
compiled rule table.

Inside, the reducer keeps integral coefficients as ints and the others
as reduced (num, den) pairs; its helpers must agree with `Fraction`
arithmetic.  An int that leaked out would pass every `==` here and still
change `repr` and `type`, so every coefficient that leaves it is checked
to be a `Fraction`.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_reduction as naive
from helpers import deglex_key, monomial_product, monomials_of_degree, random_instance, support
from psrewrite import (
    DimensionMismatchError,
    Member,
    Monomial,
    NotMember,
    NotReducibleError,
    PrecisionUnattainableError,
    RuleSet,
    TruncatedSeries,
    UnknownAtPrecision,
    attractivity_check,
    cofactors,
    confluence_probe,
    congruence_test,
    falsify_standard_basis,
    multiple_to_zero_chain,
    normalize,
    normalize_random,
    format_series,
    parse_rules,
    parse_series,
    reduce_step,
    reducible_monomials,
    translate,
)
from psrewrite.rewrite import _compile, _Index, _Reducer
from psrewrite.series import _add, _div, _fraction, _mul, _narrow, _neg

COEFFS = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def polynomials(draw, n, max_terms, nonzero=False):
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda e: sum(e) <= 3)
    terms = draw(st.dictionaries(exps.map(tuple), COEFFS,
                                 min_size=1 if nonzero else 0, max_size=max_terms))
    return TruncatedSeries(n, {Monomial(e): c for e, c in terms.items()})


@st.composite
def instances(draw, targets=st.integers(0, 6)):
    """(f, rules, target): 1-3 variables, 1-3 rules, some rule bodies and
    inputs truncated, and inputs that contain multiples of the rules so
    that reduction steps cancel terms."""
    n = draw(st.integers(1, 3))
    bodies = []
    for _ in range(draw(st.integers(1, 3))):
        body = draw(polynomials(n, 4, nonzero=True))
        v = body.valuation()
        if draw(st.booleans()):
            body = body.truncate(draw(st.integers(v + 1, v + 4)))
        bodies.append(body)
    rules = RuleSet(bodies, n)
    f = draw(polynomials(n, 4))
    for body in bodies:
        if draw(st.booleans()):
            f = f.add(draw(polynomials(n, 2)).multiply(body))
    target = draw(targets)
    if draw(st.integers(0, 3)) == 0:
        f = f.truncate(draw(st.integers(max(target - 1, 0), target + 3)))
    return f, rules, target


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionUnattainableError as e:
        return str(e)


def assert_fractions(*series, coeffs=()):
    """Every coefficient of the series, and every one of coeffs, is a
    `Fraction`, not an int of the same value."""
    types = {type(c) for f in series for _m, c in f.items()} | {type(c) for c in coeffs}
    assert types <= {Fraction}, types


def assert_trace_fractions(trace, rules):
    assert_fractions(trace.end, *cofactors(trace, rules),
                     coeffs=[step.coeff for step in trace.steps])


def assert_same_trace(fast, slow, rules):
    if isinstance(slow, str):   # the error message of the oracle
        assert fast == slow
        return
    assert fast == slow
    assert fast.end.precision == slow.end.precision
    assert fast.end_precision == slow.end_precision
    expected = naive.cofactors(slow, rules)
    assert cofactors(fast, rules) == expected
    # the replay path for a copied trace agrees with the collected one
    assert cofactors(dataclasses.replace(fast), rules) == expected
    assert_trace_fractions(fast, rules)
    assert_trace_fractions(dataclasses.replace(fast), rules)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_canonical_matches_oracle(instance):
    f, rules, target = instance
    assert_same_trace(outcome(normalize, f, rules, target),
                      outcome(naive.normalize, f, rules, target), rules)


@settings(max_examples=150, deadline=None)
@given(instances(), st.integers(0, 2 ** 16))
def test_seeded_random_matches_oracle(instance, seed):
    f, rules, target = instance
    assert_same_trace(outcome(normalize_random, f, rules, target, seed),
                      outcome(naive.normalize_random, f, rules, target, seed), rules)


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2 ** 16), st.integers(0, 12))
def test_attractivity_walk_matches_oracle(instance, seed, steps):
    """The attractivity lemma as a property: no walk moves away from the
    normal form.  alpha is irreducible, so it has no term at a reducible M;
    a step at M clears M, keeps every degree below deg M, adds terms only
    at degree >= deg M, and a precision drop lands above deg M.  So
    val(f - alpha) never goes down, and a violation is an engine fault."""
    f, rules, target = instance
    alpha = outcome(naive.normalize, f, rules, target)
    if isinstance(alpha, str):
        return
    report = attractivity_check(f, rules, alpha.end, steps, seed)
    assert report == naive.attractivity_check(f, rules, alpha.end, steps, seed)
    assert report.ok and report.violation_step is None


@settings(max_examples=100, deadline=None)
@given(instances(), st.data())
def test_multiple_to_zero_chain_matches_oracle(instance, data):
    _f, rules, target = instance
    q = data.draw(polynomials(rules.n, 4))
    if data.draw(st.booleans()):
        q = q.truncate(data.draw(st.integers(1, 5)))
    i = data.draw(st.integers(1, len(rules)))
    fast = outcome(multiple_to_zero_chain, q, i, rules, target)
    slow = outcome(naive.multiple_to_zero_chain, q, i, rules, target)
    assert_same_trace(fast, slow, rules)


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_translate_matches_oracle(instance, data):
    h, rules, target = instance
    g = data.draw(polynomials(rules.n, 4))
    if data.draw(st.booleans()):
        g = g.truncate(data.draw(st.integers(target, target + 3)))
    f = h.add(g)
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2 ** 16)))
    if seed is None:
        trace = outcome(normalize, f.subtract(g), rules, target)
    else:
        trace = outcome(normalize_random, f.subtract(g), rules, target, seed)
    if isinstance(trace, str):
        return
    fast = translate(f, g, trace, rules)
    # the lifted ends, then each lifted trace: start, steps, end, end precision
    assert fast == naive.translate(f, g, trace, rules)
    assert_fractions(*fast[:2])
    for lifted in fast[2:]:
        assert cofactors(lifted, rules) == naive.cofactors(lifted, rules)
        assert_trace_fractions(lifted, rules)


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_congruence_test_matches_traced_normalize(instance, data):
    h, rules, target = instance
    g = data.draw(polynomials(rules.n, 4))
    f = h.add(g)
    assume_standard_basis = data.draw(st.booleans())
    verdict = outcome(congruence_test, f, g, rules, target, assume_standard_basis)
    trace = outcome(normalize, f.subtract(g), rules, target)
    if isinstance(trace, str):   # the same error with the same message
        assert verdict == trace
        return
    if trace.end.truncate(target).known_zero():
        assert verdict == Member(cofactors(trace, rules))
        assert_fractions(*verdict.cofactors)
    elif assume_standard_basis:
        assert verdict == NotMember(trace.end)
        assert_fractions(verdict.witness)
    else:
        assert verdict == UnknownAtPrecision(trace.end)
        assert_fractions(verdict.residual)


@settings(max_examples=150, deadline=None)
@given(instances(), st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4))
def test_confluence_probe_matches_seeded_normalize(instance, seeds):
    f, rules, target = instance
    report = outcome(confluence_probe, f, rules, target, seeds)
    traces = [outcome(normalize_random, f, rules, target, s) for s in seeds]
    errors = [t for t in traces if isinstance(t, str)]
    if errors:   # the first strategy that fails raises for the probe
        assert report == errors[0]
    else:
        assert report.ends == tuple(t.end for t in traces)
        assert_fractions(*report.ends)


@settings(max_examples=200, deadline=None)
@given(instances(), st.integers(0, 2 ** 16))
def test_falsifier_certificate_holds_fractions(instance, seed):
    """Against the oracle too: leading coefficients such as 1/2, 2, 3 and
    -3/2, and bodies truncated one to four degrees above their valuation,
    so that some critical pairs are known only below the target."""
    _f, rules, target = instance
    p = max(target, 1)
    cert = falsify_standard_basis(rules, p, trials=2, seed=seed)
    assert cert == naive.falsify_standard_basis(rules, p, 2, seed)
    if cert is not None:
        assert_fractions(cert.combination, cert.normal_form, *cert.cofactors)


# Each branch of the step's factor coeff / LC: int // int inline where the
# LC divides, and `_div` otherwise, on two ints, an int and a pair, a pair
# and an int, or two pairs; its result is an int when integral, else a
# reduced (num, den) pair with den > 1.
# (rules, input series, precision, the factor of the first step)
FACTORS = [
    ("-x1 + x1^2", "3*x1", 3, -3),
    ("-2*x1 + x1^2", "4*x1", 3, -2),
    ("-2*x1 + x1^2", "3*x1", 3, (-3, 2)),
    ("2*x1 - x1^2", "3*x1", 4, (3, 2)),
    ("1/2*x1 + x2^2", "3*x1", 4, 6),
    ("2*x1 + x2^2", "3/2*x1 + x1^2", 4, (3, 4)),
    ("-2/3*x1 + x2^2", "x1", 4, (-3, 2)),
    ("3/2*x1 + x2^2", "-3/2*x1 + x1^2", 4, -1),
    ("4/3*x1 + x2^2", "3/2*x1 + x1^2", 4, (9, 8)),
]


@pytest.mark.parametrize("rules_text, f_text, prec, factor", FACTORS)
def test_factor_branches_match_oracle(rules_text, f_text, prec, factor):
    rules = parse_rules(rules_text, 2)
    f = parse_series(f_text, 2)
    r = _Reducer(_compile(rules), f, prec)
    r.step(r.pending[0], 1)
    (got,) = r.quotients[0].values()
    assert got == factor and type(got) is type(factor)
    fast, slow = normalize(f, rules, prec), naive.normalize(f, rules, prec)
    assert_same_trace(fast, slow, rules)
    assert repr(fast) == repr(slow)
    for seed in range(3):
        assert_same_trace(normalize_random(f, rules, prec, seed),
                          naive.normalize_random(f, rules, prec, seed), rules)


# Reducer values: the int 0, ints and pairs with large numerators, and
# denominators of 1 and -1, which `_narrow` turns into ints.
NUMBERS = st.integers(-10, 10) | st.integers(-2 ** 200, 2 ** 200)
DENOMINATORS = (st.sampled_from([1, -1]) | st.integers(-10, 10) | st.integers(-2 ** 90, 2 ** 90)
                ).filter(bool)
RATIONALS = st.builds(Fraction, NUMBERS, DENOMINATORS)


def canonical(c):
    """An int, or a pair (num, den) of ints with den > 1 and gcd 1."""
    if type(c) is int:
        return True
    return (type(c) is tuple and len(c) == 2 and all(type(x) is int for x in c)
            and c[1] > 1 and math.gcd(*c) == 1)


@settings(max_examples=600, deadline=None)
@given(RATIONALS, RATIONALS)
def test_coefficient_helpers_match_fraction(a, b):
    qa, qb = _narrow(a), _narrow(b)
    assert canonical(qa) and _fraction(qa) == a and type(_fraction(qa)) is Fraction
    results = [(_neg(qa), -a), (_mul(qa, qb), a * b), (_add(qa, qb), a + b)]
    if b:
        results.append((_div(qa, qb), a / b))
    for got, want in results:
        assert canonical(got) and got == _narrow(want)
        assert _fraction(got) == want and type(_fraction(got)) is Fraction


def test_deep_geometric_division_reprs_are_unchanged():
    """x2 by x2 - x2^2 at p=400: 399 steps on ints, each shown as it always was."""
    rules = parse_rules("x2 - x2^2", 2)
    f = parse_series("x2", 2)
    fast = normalize(f, rules, 400)
    assert len(fast) == 399
    assert all(repr(step).endswith("coeff=Fraction(1, 1))") for step in fast.steps)
    assert repr(fast) == repr(naive.normalize(f, rules, 400))
    assert repr(cofactors(fast, rules)) == repr(naive.cofactors(fast, rules))


# -- products at or above the target -----------------------------------------

# Inputs of degree up to 6 against targets of 1..3: most tail products land
# at or above the target, where a run defers them; a truncated body lowers
# the run's precision when it reduces a monomial of high degree.
LOW_TARGET = instances(st.integers(1, 3))


@pytest.mark.parametrize("rules_text, f_text, end, end_precision", [
    ("x1 - x1^3", "x1 - x1^3", "0", 2),       # the reducible product cancels: exact end
    ("x1 - x1^3", "x1 - x1^4", "O(2)", 2),    # x1^4 is left reducible: truncated end
    ("x1 - x1^3", "x1", "O(2)", 2),           # the product x1^3 itself is reducible
    ("x1 - x2^2", "x1", "x2^2", 2),           # an irreducible product is folded in
    ("x1 - x2^2 + O(3)", "x1 + x1*x2^2", "x2^2 + O(3)", 3),   # O(3) drops x1*x2^2
    ("x2 - x2^4\nx1 + O(3)", "x1 + x2", "O(3)", 3),    # and the deferred x2^4
    ("x1 - x2^2", "x1 + x2^3", "x2^2 + x2^3", 2),   # and an irreducible start term
])
def test_deferred_products_decide_the_end(rules_text, f_text, end, end_precision):
    rules, f = parse_rules(rules_text, 2), parse_series(f_text, 2)
    fast = normalize(f, rules, 2)
    assert (format_series(fast.end), fast.end_precision) == (end, end_precision)
    assert_same_trace(fast, naive.normalize(f, rules, 2), rules)
    assert congruence_test(f, parse_series("0", 2), rules, 2) == (
        Member(cofactors(fast, rules)) if fast.end.truncate(2).known_zero()
        else UnknownAtPrecision(fast.end))
    assert confluence_probe(f, rules, 2, [0, 1]).ends == (fast.end, fast.end)


@settings(max_examples=200, deadline=None)
@given(LOW_TARGET, st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_terms_stay_below_the_bound(instance, seed):
    """Start terms and products at or above the bound go to `deferred`
    alone, so `pending` is every reducible term, from construction on."""
    f, rules, target = instance
    r = _Reducer(_compile(rules), f, target)
    rng = random.Random(seed)

    def check():
        assert all(sum(e) < target for e in r.terms)
        assert all(sum(e) >= target for e in r.deferred)
        assert r.pending == sorted((sum(e), e) for e in r.terms if r.dividing(e))

    check()
    while r.pending:
        key = r.pending[0] if seed is None else rng.choice(r.pending)
        r.step(key, r.dividing(key[1])[0] if seed is None else rng.choice(r.dividing(key[1])))
        check()


@settings(max_examples=200, deadline=None)
@given(LOW_TARGET)
def test_low_target_normalize_matches_oracle(instance):
    f, rules, target = instance
    assert_same_trace(outcome(normalize, f, rules, target),
                      outcome(naive.normalize, f, rules, target), rules)


@settings(max_examples=150, deadline=None)
@given(LOW_TARGET, st.integers(0, 2 ** 16))
def test_low_target_seeded_random_matches_oracle(instance, seed):
    f, rules, target = instance
    assert_same_trace(outcome(normalize_random, f, rules, target, seed),
                      outcome(naive.normalize_random, f, rules, target, seed), rules)


@settings(max_examples=150, deadline=None)
@given(LOW_TARGET, st.data())
def test_low_target_congruence_test_matches_oracle(instance, data):
    h, rules, target = instance
    g = data.draw(polynomials(rules.n, 4))
    if data.draw(st.booleans()):
        g = g.truncate(data.draw(st.integers(target, target + 3)))
    f = h.add(g)
    assume_standard_basis = data.draw(st.booleans())
    verdict = outcome(congruence_test, f, g, rules, target, assume_standard_basis)
    trace = outcome(naive.normalize, f.subtract(g), rules, target)
    if isinstance(trace, str):
        assert verdict == trace
    elif trace.end.truncate(target).known_zero():
        assert verdict == Member(naive.cofactors(trace, rules))
        assert_fractions(*verdict.cofactors)
    elif assume_standard_basis:
        assert verdict == NotMember(trace.end)
        assert_fractions(verdict.witness)
    else:
        assert verdict == UnknownAtPrecision(trace.end)
        assert_fractions(verdict.residual)


@settings(max_examples=150, deadline=None)
@given(LOW_TARGET, st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3))
def test_low_target_confluence_probe_matches_oracle(instance, seeds):
    f, rules, target = instance
    report = outcome(confluence_probe, f, rules, target, seeds)
    traces = [outcome(naive.normalize_random, f, rules, target, s) for s in seeds]
    errors = [t for t in traces if isinstance(t, str)]
    if errors:
        assert report == errors[0]
    else:
        assert report.ends == tuple(t.end for t in traces)
        assert [end.precision for end in report.ends] == [t.end.precision for t in traces]
        assert_fractions(*report.ends)


def test_congruence_test_dimension_errors():
    rules = parse_rules("x1 - x1^2", 2)
    x = {n: parse_series("x1", n) for n in (1, 2)}
    with pytest.raises(DimensionMismatchError, match="^series over 2 and 1 variables$"):
        congruence_test(x[2], x[1], rules, 3)
    with pytest.raises(DimensionMismatchError, match="^series over 1 and 2 variables$"):
        congruence_test(x[1], x[2], rules, 3)
    with pytest.raises(DimensionMismatchError, match="^series over 1 variables, rules over 2$"):
        congruence_test(x[1], x[1], rules, 3)


# -- the falsifier's combinations --------------------------------------------

def test_a_pair_known_below_the_target_is_skipped_but_counted():
    # LM x2 with LCs 1 and 1/2 in rules 1 and 3: their pair, trial 2, is
    # known only below degree 2 < 3; the certificate is the third pair's.
    rules = parse_rules("x2 + O(2)\nx1*x2 + O(3)\n1/2*x2 + 2*x1 + O(2)\n", 2)
    cert = falsify_standard_basis(rules, precision=3, trials=1, seed=0)
    assert (cert.phase, cert.trial) == ("pairwise", 3)
    assert [format_series(q) for q in cert.cofactors] == ["0", "1", "-2*x1"]
    assert format_series(cert.combination) == format_series(cert.normal_form) == "-4*x1^2 + O(3)"
    assert cert == naive.falsify_standard_basis(rules, 3, 1, 0)
    assert_fractions(cert.combination, cert.normal_form, *cert.cofactors)


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2 ** 16))
def test_random_phase_matches_oracle(instance, seed):
    """Every body truncated, so the random phase runs after the pairs."""
    _f, rules, target = instance
    rules = RuleSet([r.body.truncate(r.body.valuation() + 2) for r in rules.rules], rules.n)
    p = max(target, 1)
    cert = falsify_standard_basis(rules, p, 3, seed)
    assert cert == naive.falsify_standard_basis(rules, p, 3, seed)
    if cert is not None:
        assert_fractions(cert.combination, cert.normal_form, *cert.cofactors)


def test_a_pair_with_coprime_leading_monomials_can_be_the_certificate():
    # Rules 1 and 3 lead with x1^2 and x2*x3: the per-pair form of
    # Buchberger's product criterion would skip their pair, trial 2, yet on
    # these non-standard rules its combination keeps a nonzero normal form
    # below 8.  The falsifier uses the criterion only on a whole set whose
    # leading monomials are pairwise coprime, which this one is not.
    rules = parse_rules("x1^2 + x1^2*x2 - 2*x1*x2^3\n3*x1*x3 + x1*x2^2 + 2*x2*x3^3\n"
                        "x2*x3 - 2*x2*x3^2 - 3*x2^3*x3\n", 3)
    a, b = (rules.rule(i).leading_monomial.exponents for i in (1, 3))
    assert (a, b) == ((2, 0, 0), (0, 1, 1))
    cert = falsify_standard_basis(rules, precision=8, trials=100, seed=1)
    assert (cert.phase, cert.trial) == ("pairwise", 2)
    assert [format_series(q) for q in cert.cofactors] == ["x2*x3", "0", "-x1^2"]
    assert format_series(cert.normal_form) == "2/3*x1*x2^6 + O(8)"
    assert cert == naive.falsify_standard_basis(rules, 8, 100, 1)


# -- the divisor test ---------------------------------------------------------

def index_of(rules):
    """A new `_Index` of the rule set's leading exponents, kept nowhere."""
    return _Index(tuple(r.leading_monomial.exponents for r in rules.rules))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divisor_masks_match_the_naive_test(data):
    # Up to 70 rules, so the masks pass 64 bits; leading monomial 1 and
    # repeats; exponents above every cap and variables no rule uses.
    n = data.draw(st.integers(1, 6))
    unused = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))

    def exponents(values):
        return st.lists(values, min_size=n, max_size=n).map(
            lambda e: tuple(0 if k in unused else x for k, x in enumerate(e)))

    r = data.draw(st.one_of(st.integers(0, 8), st.integers(60, 70)))
    lms = data.draw(st.lists(st.one_of(st.just((0,) * n), exponents(st.integers(0, 3))),
                             min_size=r, max_size=r))
    # leading exponents past the mask tables' limit, tested rule by rule
    lms += data.draw(st.lists(exponents(st.sampled_from([0, 1, 64, 65, 10**30])), max_size=2))
    lms += data.draw(st.lists(st.sampled_from(lms), max_size=3)) if lms else []
    rules = RuleSet([TruncatedSeries(n, {Monomial(lm): 1, Monomial(lm[:-1] + (lm[-1] + 1,)): 2})
                     for lm in lms], n)
    index = index_of(rules)
    big = st.sampled_from([64, 65, 10**30])
    for e in data.draw(st.lists(st.lists(st.integers(0, 5) | big, min_size=n, max_size=n).map(tuple),
                                min_size=1, max_size=8)):
        hit = index.dividing(e)
        assert hit == tuple(naive.dividing_rules(rules, Monomial(e)))
        index.memo[e] = ("memo",)   # a second call reads the memo, not the masks
        assert index.dividing(e) == ("memo",)
        index.memo[e] = hit
    # equal index tuples are one object: each is built once per distinct mask
    assert len(set(map(id, index.memo.values()))) == len(set(index.memo.values()))


def test_a_tall_leading_exponent_keeps_the_mask_tables_small():
    index = index_of(parse_rules("x1^1000000000000\nx1^2*x2", 2))
    assert max(len(below) for _k, _cap, below in index.masks) <= 65
    es = [(10**12, 1), (10**12 - 1, 1), (2, 1), (10**13, 0)]
    assert [index.dividing(e) for e in es] == [(1, 2), (2,), (2,), (1,)]


def test_no_rules_divide_nothing():
    for n in (1, 3):
        index = index_of(RuleSet([], n))
        for e in [(0,) * n, (5,) * n, tuple(range(n))]:
            assert index.dividing(e) == ()


# -- one step ----------------------------------------------------------------

def step_outcome(fn, f, rules, M, i):
    """("ok", result, step) of one step, or ("error", type, message)."""
    try:
        g, step = fn(f, rules, M, i)
    except NotReducibleError as e:
        return "error", type(e), str(e)
    return "ok", g, step


def assert_same_step(f, rules, M, i):
    """The engine's step against the oracle's; the kind of outcome: "ok",
    or the start of the error message."""
    fast = step_outcome(reduce_step, f, rules, M, i)
    slow = step_outcome(naive.reduce_step, f, rules, M, i)
    assert fast == slow   # series equality includes the precision
    if slow[0] == "error":
        return slow[2].split(" ")[0]
    _, g, step = fast
    assert repr(step) == repr(slow[2])
    assert_fractions(g, coeffs=[step.coeff])
    return "ok"


def step_pool(f, rules):
    """Monomials to reduce at: f's support, the leading monomials and their
    multiples by one variable (mostly absent from f), and every monomial of
    degree 1 and 2 (some not divisible)."""
    pool = set(support(f))
    for rule in rules.rules:
        for d in range(2):
            pool.update(monomial_product(rule.leading_monomial, m)
                        for m in monomials_of_degree(rules.n, d))
    for d in range(1, 3):
        pool.update(monomials_of_degree(rules.n, d))
    return sorted(pool, key=deglex_key)


def test_reduce_step_matches_oracle_on_seeded_instances():
    """Every monomial of the pool with every rule index, 0 and r + 1
    included, on exact and truncated inputs and rule bodies."""
    kinds = {}
    for seed in range(150):
        rng = random.Random(seed)
        f, rules, _p = random_instance(rng, exact_input=False)
        if seed % 2:
            rules = RuleSet(
                [r.body.truncate(r.body.valuation() + rng.randint(1, 3)) for r in rules.rules],
                rules.n)
        assert reducible_monomials(f, rules) == naive.reducible_monomials(f, rules)
        for M in step_pool(f, rules):
            for i in range(len(rules) + 2):
                kind = assert_same_step(f, rules, M, i)
                kinds[kind] = kinds.get(kind, 0) + 1
    # steps, absent monomials, monomials not divisible, indices out of range
    assert set(kinds) == {"ok", "monomial", "leading", "rule"}, kinds


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_reduce_step_matches_oracle(instance, data):
    f, rules, _target = instance
    assert reducible_monomials(f, rules) == naive.reducible_monomials(f, rules)
    M = data.draw(st.sampled_from(step_pool(f, rules)))
    i = data.draw(st.integers(1, len(rules)))
    assert_same_step(f, rules, M, i)


def test_one_step_dimension_errors():
    rules = parse_rules("x1 - x1^2", 2)
    f = parse_series("x1", 1)
    message = "^series over 1 variables, rules over 2$"
    for fn in (reducible_monomials, naive.reducible_monomials):
        with pytest.raises(DimensionMismatchError, match=message):
            fn(f, rules)
    with pytest.raises(DimensionMismatchError, match=message):
        reduce_step(f, rules, Monomial((1,)), 1)
    # a monomial outside f's support is not reducible, whatever its shape,
    # and an exponent tuple is no monomial at all
    M = Monomial((1, 0))
    assert (step_outcome(reduce_step, f, rules, M, 1)
            == step_outcome(naive.reduce_step, f, rules, M, 1)
            == ("error", NotReducibleError, f"monomial {M} not in the known support"))
    with pytest.raises(TypeError, match=r"^monomial \(1,\) is not a Monomial$"):
        reduce_step(f, rules, (1,), 1)
