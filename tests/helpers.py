"""Shared generators for seeded random rewriting instances, and the
monomial arithmetic of the test oracles, computed on exponent tuples
independently of the engine."""

from itertools import combinations

from psrewrite import DimensionMismatchError, Monomial, RuleSet, TruncatedSeries


def _exponent_pairs(a, b):
    """Zip the exponents of two monomials over the same variables."""
    if a.n != b.n:
        raise DimensionMismatchError(f"monomials over {a.n} and {b.n} variables")
    return zip(a.exponents, b.exponents)


def monomial_product(a, b):
    """a * b: the exponents add."""
    return Monomial(tuple(x + y for x, y in _exponent_pairs(a, b)))


def monomial_quotient(a, b):
    """b / a when a divides b, else None."""
    q = tuple(y - x for x, y in _exponent_pairs(a, b))
    return Monomial(q) if all(e >= 0 for e in q) else None


def monomial_lcm(a, b):
    """The least common multiple: the larger exponent of each variable."""
    return Monomial(tuple(max(x, y) for x, y in _exponent_pairs(a, b)))


def deglex_key(m):
    """The engine's deglex sort key: the degree, then the exponents."""
    return (m.degree, m.exponents)


def support(f):
    """The stored monomials of the series f."""
    return frozenset(m for m, _c in f.items())


def monomials_of_degree(n, d):
    """All monomials over n variables of total degree exactly d."""
    # Stars and bars: positions of n-1 separators among d + n - 1 slots.
    for bars in combinations(range(d + n - 1), n - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + n - 2 - prev)
        yield Monomial(tuple(exps))


def random_polynomial(rng, n, max_degree, zero_ok=True):
    """A reproducible random exact polynomial with at most 4 terms, small
    integer coefficients and total degree <= max_degree.  With max_degree 3
    it draws as the falsifier's random phase does."""
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, 4)):
        d = rng.randint(0, max_degree)
        exps = [0] * n
        for _ in range(d):
            exps[rng.randrange(n)] += 1
        m = Monomial(tuple(exps))
        terms[m] = terms.get(m, 0) + rng.randint(-4, 4)
    return TruncatedSeries(n, terms)


def random_instance(rng, exact_input=True):
    """A reproducible (f, rules, precision) triple with n <= 3, r <= 3,
    p <= 6 and exact nonzero rules."""
    n = rng.randint(1, 3)
    r = rng.randint(1, 3)
    p = rng.randint(2, 6)
    bodies = []
    while len(bodies) < r:
        b = random_polynomial(rng, n, max_degree=3, zero_ok=False)
        if not b.known_zero():
            bodies.append(b)
    f = random_polynomial(rng, n, max_degree=4)
    if not exact_input and rng.random() < 0.5:
        f = f.truncate(rng.randint(p, 8))
    return f, RuleSet(bodies, n), p


def combination(qs, rules):
    """sum q_i * s_i over the rule set."""
    out = TruncatedSeries.zero(rules.n)
    for q, rule in zip(qs, rules.rules):
        out = out.add(q.multiply(rule.body))
    return out
