"""The standard-basis falsifier against Buchberger's criterion below p.

For exact rules F generating I, every critical pair of F reduces to 0
below p exactly when F is a standard basis below p, i.e. the leading
monomials of I + m^p below degree p are the multiples of the rules'
leading monomials (Buchberger's criterion in Q[[x]]/m^p).  The echelon
oracle here reads those leading monomials off the row-reduced truncated
multiples x^a * s_i, without the reducer.  On rules that are exact or
known to precision >= p the falsifier stops after the pairs, so its None
must match the oracle's verdict; on rules known below p only it must
still give what the always-random falsifier in `naive_reduction` gives.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import naive_reduction as naive
from helpers import deglex_key, monomials_of_degree, random_instance, random_polynomial
from psrewrite import (
    Monomial,
    RuleSet,
    TruncatedSeries,
    falsify_standard_basis,
    format_series,
    parse_rules,
)
from psrewrite import rewrite


def leading_monomials_below(rules, p):
    """The leading (least) monomials of I + m^p below degree p: the pivots
    of an echelon basis of the multiples x^a * s_i truncated below p."""
    rows = {}   # pivot -> a row whose least monomial it is, with coefficient 1 there
    for rule in rules.rules:
        for d in range(p - rule.body.valuation()):
            for m in monomials_of_degree(rules.n, d):
                vec = dict(rule.body.scale_term(1, m).truncate(p).items())
                while vec:
                    pivot = min(vec, key=deglex_key)
                    c = vec[pivot]
                    if pivot not in rows:
                        rows[pivot] = {k: x / c for k, x in vec.items()}
                        break
                    for k, x in rows[pivot].items():
                        y = vec.get(k, 0) - c * x
                        if y:
                            vec[k] = y
                        else:
                            vec.pop(k, None)
    return rows.keys()


def standard_below(rules, p):
    return all(naive.dividing_rules(rules, m) for m in leading_monomials_below(rules, p))


def instance(seed, crowd=False, truncate=False):
    """(rules, p) from `random_instance`.  With `crowd`, one more rule when
    there is a monomial m between the first rule's leading degree and p
    that no leading monomial divides: the first rule plus c*m.  The two
    share a leading monomial, and their critical pair is an irreducible
    multiple of m, so the rules are not a standard basis below p.  With
    `truncate`, each body is truncated, with probability 1/2, a little
    above its valuation."""
    rng = random.Random(seed)
    _f, rules, p = random_instance(rng)
    bodies = [rule.body for rule in rules.rules]
    if crowd:
        lead = rules.rules[0].leading_monomial
        free = [m for d in range(lead.degree + 1, p) for m in monomials_of_degree(rules.n, d)
                if not naive.dividing_rules(rules, m)]
        if free:
            m = TruncatedSeries(rules.n, {rng.choice(free): rng.choice([-2, 1, 3])})
            bodies.append(bodies[0].add(m))
    if truncate:
        bodies = [b.truncate(b.valuation() + rng.randint(1, 4))
                  if rng.random() < 0.5 else b for b in bodies]
    return RuleSet(bodies, rules.n), p


NOT_STANDARD = [24, 65]   # seeds whose plain instance is not a standard basis


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
@example(NOT_STANDARD[0], False)
@example(NOT_STANDARD[1], False)
def test_exact_verdict_matches_echelon_oracle(seed, crowd):
    rules, p = instance(seed, crowd)
    cert = falsify_standard_basis(rules, p, trials=3, seed=seed)
    assert (cert is None) == standard_below(rules, p)
    if cert is not None:
        assert cert.phase == "pairwise"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
@example(NOT_STANDARD[0], False)
@example(NOT_STANDARD[1], False)
def test_verdict_on_bodies_known_to_p_matches_echelon_oracle(seed, crowd):
    # A body known modulo m^p is exact in Q[[x]]/m^p: the falsifier still
    # stops after the pairs, and its None must still match the oracle.
    rules, p = instance(seed, crowd)
    rng = random.Random(seed)
    bodies = []
    for rule in rules.rules:
        bound = p + rng.randint(0, 2)
        bodies.append(rule.body.truncate(bound) if rule.body.valuation() < bound
                      else rule.body)
    rules = RuleSet(bodies, rules.n)
    cert = falsify_standard_basis(rules, p, trials=3, seed=seed)
    assert (cert is None) == standard_below(rules, p)
    if cert is not None:
        assert cert.phase == "pairwise"


def test_seeded_sweep_holds_both_verdicts():
    verdicts = []
    for seed in range(300):
        rules, p = instance(seed, crowd=seed % 2 == 1)
        standard = standard_below(rules, p)
        assert (falsify_standard_basis(rules, p, trials=1, seed=seed) is None) == standard
        verdicts.append(standard)
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 200
    for seed in NOT_STANDARD:
        assert not standard_below(*instance(seed))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans(), st.integers(1, 3))
def test_matches_always_random_falsifier(seed, crowd, truncate, trials):
    rules, p = instance(seed, crowd, truncate)
    assert (falsify_standard_basis(rules, p, trials, seed)
            == naive.falsify_standard_basis(rules, p, trials, seed))


def test_only_the_random_phase_finds_this_truncated_certificate():
    rules = parse_rules("-x1*x2 + O(4)\n-3*x2 + 4*x1^2 + O(6)\n", 2)
    cert = falsify_standard_basis(rules, precision=5, trials=1, seed=5106)
    assert cert is not None
    assert (cert.phase, cert.trial) == ("random", 1)
    assert format_series(cert.normal_form) == "20*x1^4 + O(5)"
    assert cert == naive.falsify_standard_basis(rules, 5, 1, 5106)


def test_random_phase_runs_only_for_truncated_rules(monkeypatch):
    drawn = []

    draw = rewrite._random_cofactor

    def counting(rng, n):
        drawn.append(n)
        return draw(rng, n)

    monkeypatch.setattr(rewrite, "_random_cofactor", counting)
    exact = parse_rules("x1 - x1^2\nx2 + x1*x2\n", 2)
    assert falsify_standard_basis(exact, precision=6, trials=50, seed=1) is None
    assert drawn == []
    known_to_p = parse_rules("x1 - x1^2 + O(7)\nx2 + x1*x2 + O(6)\n", 2)
    assert falsify_standard_basis(known_to_p, precision=6, trials=50, seed=1) is None
    assert drawn == []
    rules = parse_rules("x1 - x1^2 + O(5)\nx2 + x1*x2\n", 2)
    assert falsify_standard_basis(rules, precision=6, trials=50, seed=1) is None
    assert len(drawn) == 2 * 50


def test_exact_rules_sharing_a_variable_run_their_pairs_only(monkeypatch):
    # Leading monomials x1 and x1*x2 share x1, so the product criterion
    # does not apply: the one pair runs, reduces to 0, and no random
    # cofactor is drawn.
    runs, drawn = [], []
    run, draw = rewrite._run, rewrite._random_cofactor

    def counting_run(*args):
        runs.append(args[1])
        return run(*args)

    def counting_draw(rng, n):
        drawn.append(n)
        return draw(rng, n)

    monkeypatch.setattr(rewrite, "_run", counting_run)
    monkeypatch.setattr(rewrite, "_random_cofactor", counting_draw)
    rules = parse_rules("x1\nx1*x2 + x1^2\n", 2)
    assert falsify_standard_basis(rules, precision=6, trials=50, seed=1) is None
    assert [format_series(f) for f in runs] == ["-x1^2"]
    assert drawn == []


def test_random_phase_draws_as_the_test_generator():
    # The naive falsifier draws its cofactors with `helpers.random_polynomial`
    # at degree 3; the random phase's own draw must match it call for call.
    for seed in range(200):
        for n in (1, 2, 3):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert rewrite._random_cofactor(ours, n) == random_polynomial(theirs, n, 3)._terms
            assert ours.getstate() == theirs.getstate()


def test_trials_checked_before_the_pairs():
    # The second set is pairwise coprime, so no pair is drawn: the checks
    # still run first and raise as they do on other sets.
    for rules in parse_rules("x1\n", 1), parse_rules("x1 - x1^2\nx2 + x1*x2\n", 2):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            falsify_standard_basis(rules, precision=3, trials=0, seed=0)
        with pytest.raises(ValueError, match="^target precision must be >= 0$"):
            falsify_standard_basis(rules, precision=-1, trials=1, seed=0)
        with pytest.raises(TypeError, match="^seed '1' is not an int$"):
            falsify_standard_basis(rules, precision=3, trials=1, seed="1")
        with pytest.raises(TypeError, match="^rule set None is not a RuleSet$"):
            falsify_standard_basis(None, precision=3, trials=1, seed=0)


# -- Buchberger's product criterion --------------------------------------------

def coprime_instance(seed, below=False):
    """(rules, p): 1-4 rules over 1-4 variables whose leading monomials
    share no variable: each variable is used by at most one of them, each
    rule uses one while some are left, and the rules that get none lead
    with 1 (so there are such rules only when r > n).  Each body has 0-3
    tail terms, of the leading degree above the leading monomial in deglex
    or of higher degree, and is truncated with probability 1/2: at p or up
    to 2 above it, or, with `below`, 1-3 above its valuation, which may be
    below p."""
    rng = random.Random(seed)
    n, r, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
    lms = [[0] * n for _ in range(r)]
    for j, k in enumerate(rng.sample(range(n), n)):
        owner = j if j < r else rng.randrange(r + 1)   # r: no rule uses x_k
        if owner < r:
            lms[owner][k] = rng.randint(1, 2)
    rng.shuffle(lms)
    bodies = []
    for lm in map(tuple, lms):
        d = sum(lm)
        terms = {lm: rng.choice([1, -1, 2, -3, Fraction(1, 2)])}
        for _ in range(rng.randint(0, 3)):
            same = [m.exponents for m in monomials_of_degree(n, d) if m.exponents > lm]
            if same and rng.random() < 0.5:
                e = rng.choice(same)
            else:
                e = rng.choice([m.exponents for m in monomials_of_degree(n, d + rng.randint(1, 2))])
            terms[e] = rng.choice([-4, -1, 1, 2, 3])
        body = TruncatedSeries(n, {Monomial(e): c for e, c in terms.items()})
        if rng.random() < 0.5:
            bound = body.valuation() + rng.randint(1, 3) if below else p + rng.randint(0, 2)
            if body.valuation() < bound:
                body = body.truncate(bound)
        bodies.append(body)
    return RuleSet(bodies, n), p


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
@example(1)     # a single rule
@example(82)    # four rules, two leading with 1; bodies known to p + 1 and p + 2
@example(75)    # tails of the leading degree; bodies known to p and p + 1
@example(174)   # p = 1, three rules leading with 1, one of them -3 + O(1)
def test_pairwise_coprime_rules_are_settled_without_a_run(seed):
    rules, p = coprime_instance(seed)
    assert standard_below(rules, p)

    def no_run(*_args):
        raise AssertionError("the product criterion settles this set")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_combine", no_run)
        patch.setattr(rewrite, "_run", no_run)
        assert falsify_standard_basis(rules, p, trials=3, seed=seed) is None


def test_seeded_coprime_sweep_matches_always_random_falsifier():
    seen = dict.fromkeys(("one", "single", "same degree", "known to p", "below p"), 0)
    for seed in range(4000):
        rules, p = coprime_instance(seed, below=seed % 2 == 1)
        assert (falsify_standard_basis(rules, p, trials=1, seed=seed)
                == naive.falsify_standard_basis(rules, p, 1, seed))
        seen["single"] += len(rules) == 1
        for rule in rules.rules:
            lm, body = rule.leading_monomial, rule.body
            seen["one"] += lm.degree == 0
            seen["same degree"] += any(m.degree == lm.degree and m != lm for m, _c in body.items())
            if body.precision is not None:
                seen["known to p" if body.precision >= p else "below p"] += 1
    assert min(seen.values()) >= 1000, seen
