import copy
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import monomial_product
from psrewrite import (
    DimensionMismatchError,
    Monomial,
    TruncatedSeries,
    ZeroOrUnknownLeadingError,
    delta,
    parse_series,
)

N = 2
X = Monomial((1, 0))
Y = Monomial((0, 1))
ONE = Monomial((0, 0))


def S(text, n=N):
    return parse_series(text, n)


def exact_mul(f, g):
    """Schoolbook convolution of two exact polynomials, kept independent
    of TruncatedSeries.multiply."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = monomial_product(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return TruncatedSeries(f.n, out)


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(Monomial)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(
    lambda d: TruncatedSeries(N, d))
precisions = st.integers(0, 7)
# Built by the validating constructor, exact or truncated.
series = st.builds(lambda d, p: TruncatedSeries(N, d, p),
                   st.dictionaries(monomials, coefficients, max_size=5),
                   st.one_of(st.none(), precisions))


class TestAdd:
    def test_cancellation(self):
        assert S("x2 - x2^2").add(S("x2^2")) == S("x2")

    def test_precision_is_minimum(self):
        f = TruncatedSeries(N, {X: 1}, 3)
        g = TruncatedSeries(N, {Monomial((2, 0)): 1}, 2)
        out = f.add(g)
        assert out.precision == 2
        assert out == TruncatedSeries(N, {X: 1}, 2)  # x^2 pruned

    def test_zero_identity(self):
        f = S("1/2*x1 + x2^3")
        assert f.add(TruncatedSeries.zero(N)) == f

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            S("x1").add(S("x1", n=3))


class TestMultiply:
    def test_truncated_by_truncated(self):
        # oracle: x*(1+x) = x + x^2, precision min(3+0, 2+1) = 3
        f = TruncatedSeries(N, {X: 1}, 3)
        g = TruncatedSeries(N, {ONE: 1, X: 1}, 2)
        assert f.multiply(g) == TruncatedSeries(N, {X: 1, Monomial((2, 0)): 1}, 3)

    def test_one_identity(self):
        f = S("x1 - 2/3*x2^2 + O(5)")
        assert f.multiply(TruncatedSeries(N, {ONE: 1})) == f

    def test_telescoping(self):
        q = S("1 + x2 + x2^2 + x2^3")
        s = S("x2 - x2^2")
        assert q.multiply(s) == exact_mul(q, s)
        assert q.multiply(s) == S("x2 - x2^5")

    @given(polys, polys)
    def test_exact_matches_schoolbook(self, f, g):
        assert f.multiply(g) == exact_mul(f, g)

    @given(polys, polys, precisions, precisions)
    def test_precision_soundness(self, fx, gx, pf, pg):
        # Truncations of exact inputs: every stored term of the truncated
        # product below its computed precision must agree with the exact
        # product.
        f, g = fx.truncate(pf), gx.truncate(pg)
        prod = f.multiply(g)
        exact = exact_mul(fx, gx)
        if prod.precision is not None:
            assert exact.truncate(prod.precision) == prod
        else:
            assert exact == prod


class TestScaleTerm:
    def test_shift(self):
        assert S("x2 - x2^2").scale_term(1, Y) == S("x2^2 - x2^3")

    def test_zero_scalar(self):
        f = TruncatedSeries(N, {X: 1}, 3)
        out = f.scale_term(0, Y)
        assert out.known_zero() and out.precision == 4
        exact = S("x1 - x2").scale_term(0, Y)
        assert exact.known_zero() and exact.precision is None

    def test_truncated_shift(self):
        f = TruncatedSeries(N, {X: 1}, 3)
        out = f.scale_term(2, Y)
        assert out == TruncatedSeries(N, {Monomial((1, 1)): 2}, 4)

    @given(polys, coefficients, monomials)
    def test_matches_term_multiplication(self, f, c, m):
        assert f.scale_term(c, m) == exact_mul(f, TruncatedSeries(N, {m: c}))


class TestValuation:
    def test_definite(self):
        f = S("x1^2 + x2^3")
        assert f.valuation() == 2 and not f.known_zero()

    def test_unknown_tail(self):
        # An empty known part at precision 4: "at least 4", a lower bound.
        f = TruncatedSeries(N, {}, 4)
        assert f.valuation() == 4 and f.known_zero()

    def test_exact_zero(self):
        assert TruncatedSeries.zero(N).valuation() is None


class TestLeading:
    def test_minimum_of_support(self):
        assert S("x2 - x2^2").leading() == (Y, 1)

    def test_degree_tie(self):
        # x1 beats x2 in the order, so the minimum of {x1, x2} is x2
        assert S("x1 + x2").leading() == (Y, 1)

    def test_empty_known_support(self):
        with pytest.raises(ZeroOrUnknownLeadingError):
            TruncatedSeries(N, {}, 5).leading()
        with pytest.raises(ZeroOrUnknownLeadingError):
            TruncatedSeries.zero(N).leading()


class TestDelta:
    def test_identical(self):
        f = S("x1 + 3*x2")
        assert delta(f, f) == (Fraction(0), False)

    def test_single_variable(self):
        assert delta(S("x1"), TruncatedSeries.zero(N)) == (Fraction(1, 2), False)

    def test_valuation_five(self):
        assert delta(S("x1^2 + x1^5"), S("x1^2")) == (Fraction(1, 32), False)

    def test_upper_bound_flag(self):
        f = TruncatedSeries(N, {}, 3)
        value, upper = delta(f, TruncatedSeries.zero(N))
        assert value == Fraction(1, 8) and upper

    def test_a_first_operand_that_is_not_a_series(self):
        # A TypeError naming it, as for the second operand, not an AttributeError.
        with pytest.raises(TypeError, match="^operand 'x1' is not a TruncatedSeries$"):
            delta("x1", S("x2"))

    @given(polys, polys, polys)
    def test_ultrametric(self, f, g, h):
        assert delta(f, h)[0] <= max(delta(f, g)[0], delta(g, h)[0])

    @given(polys, polys)
    def test_matches_leading_degree(self, f, g):
        # deg(LM(f-g)) equals the valuation for a degree-compatible order
        if f == g:
            return
        lm, _ = f.subtract(g).leading()
        assert delta(f, g) == (Fraction(1, 2 ** lm.degree), False)


class TestInvariants:
    @given(polys, polys, precisions, precisions)
    def test_storage_invariants(self, fx, gx, pf, pg):
        for out in (fx.truncate(pf).add(gx.truncate(pg)),
                    fx.truncate(pf).multiply(gx.truncate(pg)),
                    fx.truncate(pf).subtract(gx)):
            assert all(c != 0 for _m, c in out.items())
            if out.precision is not None:
                assert all(m.degree < out.precision for m, _c in out.items())

    @given(polys, polys, precisions)
    def test_add_precision_soundness(self, fx, gx, p):
        f, g = fx.truncate(p), gx
        out = f.add(g)
        assert out.precision == p
        assert fx.add(gx).truncate(p) == out


class TestCopyAndPickle:
    # The slots are restored through the checked constructor, not through
    # the blocked `__setattr__`.
    @pytest.mark.parametrize("text", ["0", "x1 + x2", "1/3*x1^2 - x2 + O(4)", "O(2)"])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda f: pickle.loads(pickle.dumps(f))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, text, clone):
        f = S(text)
        g = clone(f)
        assert g == f and g.precision == f.precision
        assert_clean(g)
        with pytest.raises(AttributeError, match="immutable"):
            g.n = 3


# `pickle.dumps(S(text, n), protocol=4).hex()` as recorded while series
# stored `Monomial` keys and `Fraction` values, on CPython 3.11.
PICKLES = [
    ("x1 + 2*x2 - 3*x1*x2^2", 2,
     "800495c9000000000000008c107073726577726974652e736572696573948c0f5472756e636174656453"
     "65726965739493944b027d94288c137073726577726974652e6d6f6e6f6d69616c73948c084d6f6e6f6d"
     "69616c9493942981947d948c096578706f6e656e7473944b014b00869473628c096672616374696f6e73"
     "948c084672616374696f6e9493944b014b018694529468062981947d9468094b004b0186947362680d4b"
     "024b018694529468062981947d9468094b014b0286947362680d4afdffffff4b0186945294754e879452"
     "942e"),
    ("1/3*x1^2 - x2 + 5/2", 2,
     "800495c9000000000000008c107073726577726974652e736572696573948c0f5472756e636174656453"
     "65726965739493944b027d94288c137073726577726974652e6d6f6e6f6d69616c73948c084d6f6e6f6d"
     "69616c9493942981947d948c096578706f6e656e7473944b024b00869473628c096672616374696f6e73"
     "948c084672616374696f6e9493944b014b038694529468062981947d9468094b004b0186947362680d4a"
     "ffffffff4b018694529468062981947d9468094b004b0086947362680d4b054b0286945294754e879452"
     "942e"),
    ("x1 - 2/3*x2^2 + x1^3 + O(3)", 2,
     "800495af000000000000008c107073726577726974652e736572696573948c0f5472756e636174656453"
     "65726965739493944b027d94288c137073726577726974652e6d6f6e6f6d69616c73948c084d6f6e6f6d"
     "69616c9493942981947d948c096578706f6e656e7473944b014b00869473628c096672616374696f6e73"
     "948c084672616374696f6e9493944b014b018694529468062981947d9468094b004b0286947362680d4a"
     "feffffff4b0386945294754b03879452942e"),
    ("0", 2,
     "80049531000000000000008c107073726577726974652e736572696573948c0f5472756e636174656453"
     "65726965739493944b027d944e879452942e"),
    ("O(4)", 3,
     "80049532000000000000008c107073726577726974652e736572696573948c0f5472756e636174656453"
     "65726965739493944b037d944b04879452942e"),
]


@pytest.mark.parametrize("text, n, golden", PICKLES,
                         ids=["integral", "rational", "truncated", "zero", "unknown"])
def test_pickle_is_unchanged(text, n, golden):
    """The pickle payload stays (n, {Monomial: Fraction}, precision), so old
    pickles load and new ones match them byte for byte."""
    f = S(text, n)
    assert pickle.loads(bytes.fromhex(golden)) == f
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
    cls, (n2, terms, p) = f.__reduce__()
    assert (cls, n2, p) == (TruncatedSeries, n, f.precision)
    assert list(terms.items()) == [(m, c) for m, c in f.items()]
    assert {type(m) for m in terms} <= {Monomial} and {type(c) for c in terms.values()} <= {Fraction}
    if Fraction(1, 3).__reduce__()[1] == (1, 3):   # Fraction's own pickle form since 3.11
        assert pickle.dumps(f, protocol=4).hex() == golden


def assert_clean(r):
    """What the constructor guarantees: r equals its re-validated copy,
    and every stored coefficient is a nonzero Fraction below the bound."""
    assert r == TruncatedSeries(r.n, dict(r.items()), r.precision)
    for m, c in r.items():
        assert type(c) is Fraction and c != 0
        assert r.precision is None or m.degree < r.precision


class TestTrustedPath:
    """Arithmetic builds its results without the constructor's checks, so
    each result must already be what the constructor would make of it."""

    @given(series, series, st.one_of(coefficients, st.integers(-3, 3)), monomials,
           precisions)
    # An exact operand with terms above a truncated one's precision: add
    # and multiply lower the precision and must prune, on either side.
    @example(TruncatedSeries(N, {X: 2, Monomial((3, 0)): 1, Monomial((1, 2)): -1}),
             TruncatedSeries(N, {Y: 1, ONE: 3}, 2), 2, Y, 1)
    def test_results_are_clean(self, f, g, c, m, p):
        for r in (f.add(g), g.add(f), f.subtract(g), g.subtract(f), f.negate(),
                  f.multiply(g), g.multiply(f), f.scale_term(c, m), f.truncate(p),
                  f.add(f.negate())):
            assert_clean(r)

    def test_truncate_rejects_negative_precision(self):
        with pytest.raises(ValueError):
            S("x1").truncate(-1)
        with pytest.raises(ValueError):
            S("x1 + O(3)").truncate(-1)

    @pytest.mark.parametrize("value", [2.5, True, "3", Fraction(3)])
    def test_truncate_precision_must_be_an_int(self, value):
        for f in (S("x1 + x1^3"), S("x1 + O(3)")):
            with pytest.raises(TypeError, match=re.escape(f"precision {value!r} is not an int")):
                f.truncate(value)

    @pytest.mark.parametrize("make, message", [
        (lambda: TruncatedSeries(N, {Monomial((1,)): 1}),
         "^monomial over 1 variables in a 2-variable series$"),
        (lambda: S("x1").scale_term(1, Monomial((1,))), "^monomial over 1 variables, series over 2$"),
    ], ids=["constructor", "scale_term"])
    def test_monomial_variable_count_checked(self, make, message):
        with pytest.raises(DimensionMismatchError, match=message):
            make()

    def test_never_equal_to_a_non_series(self):
        assert (S("x1") == "x1") is False

    def test_zero_checks_its_shape(self):
        with pytest.raises(ValueError):
            TruncatedSeries.zero(0)

    def test_terms_must_be_a_mapping(self):
        with pytest.raises(TypeError):
            TruncatedSeries(N, [(X, 1), (X, -1)])

    @pytest.mark.parametrize("key", [(1, 0), "x1", None])
    def test_term_keys_must_be_monomials(self, key):
        with pytest.raises(TypeError, match=re.escape(f"term key {key!r} is not a Monomial")):
            TruncatedSeries(N, {X: 1, key: 1})

    @pytest.mark.parametrize("value", [2.5, True, "3", Fraction(3)])
    def test_variable_count_and_precision_must_be_ints(self, value):
        for make, what in [(lambda: TruncatedSeries(value, {}), "variable count"),
                           (lambda: TruncatedSeries(1, {}, value), "precision"),
                           (lambda: TruncatedSeries.zero(value), "variable count")]:
            with pytest.raises(TypeError, match=re.escape(f"{what} {value!r} is not an int")):
                make()


class TestRationalCoefficients:
    @pytest.mark.parametrize("c", [0.1, 0.0, "3/7", Decimal("0.5"), 1j, None])
    def test_non_rationals_are_rejected(self, c):
        with pytest.raises(TypeError):
            TruncatedSeries(N, {X: c})
        with pytest.raises(TypeError):
            TruncatedSeries(N, {Monomial((4, 0)): c}, 2)   # even if pruned
        with pytest.raises(TypeError):
            S("x1 + O(3)").scale_term(c, Y)

    def test_rationals_are_stored_as_fractions(self):
        f = TruncatedSeries(N, {X: 3, Y: Fraction(1, 2), ONE: -1})
        assert_clean(f)
        assert_clean(TruncatedSeries(N, {X: 5}))
        assert_clean(S("x1").scale_term(2, Y))


class TestRepr:
    def test_printable_series_show_their_text(self):
        assert repr(S("x1 - 1/2*x2 + O(3)")) == "TruncatedSeries('-1/2*x2 + x1 + O(3)')"

    def test_an_unprintable_coefficient_never_makes_repr_raise(self):
        # format_series refuses a coefficient past Python's int-to-str limit
        big = TruncatedSeries(1, {Monomial((0,)): Fraction(10 ** 5000)})
        assert repr(big) == ("<TruncatedSeries n=1 terms=1 precision=None: the coefficient "
                             "of 1 is past Python's int-to-str limit>")
        tiny = TruncatedSeries(N, {X: 3, Y: Fraction(1, 10 ** 5000)}, 4)
        assert repr(tiny) == ("<TruncatedSeries n=2 terms=2 precision=4: the coefficient "
                              "of x2 is past Python's int-to-str limit>")


# -- differential: stored form against Fraction dicts ----------------------------
#
# The oracle keeps a series as ({exponents: Fraction}, precision) and redoes
# every operation with `fractions` arithmetic.

fractional = st.fractions(min_value=-3, max_value=3, max_denominator=4) | st.integers(-3, 3)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
term_dicts = st.dictionaries(exponents, fractional, max_size=5)
maybe_precision = st.none() | st.integers(0, 7)


@st.composite
def operand_pairs(draw):
    """Two (terms, precision) pairs; g takes some of f's terms negated, so
    that sums cancel exactly."""
    f, g = draw(term_dicts), draw(term_dicts)
    for e, c in f.items():
        if draw(st.booleans()):
            g[e] = -c
    return (f, draw(maybe_precision)), (g, draw(maybe_precision))


def o_series(terms, p):
    """The oracle's clean form: nonzero Fractions below the precision."""
    return {e: Fraction(c) for e, c in terms.items() if c and (p is None or sum(e) < p)}, p


def o_min(p, q):
    return q if p is None else p if q is None else min(p, q)


def o_valuation(a):
    terms, p = a
    return min(map(sum, terms)) if terms else p


def o_add(a, b):
    acc = {}
    for terms in (a[0], b[0]):
        for e, c in terms.items():
            acc[e] = acc.get(e, 0) + c
    return o_series(acc, o_min(a[1], b[1]))


def o_negate(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def o_multiply(a, b):
    acc = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            acc[e] = acc.get(e, 0) + c1 * c2
    # min(p_a + val(b), p_b + val(a)); a side is infinite when its factor
    # is exact or the other one is the exact zero.
    sides = [p + v for p, v in ((a[1], o_valuation(b)), (b[1], o_valuation(a)))
             if p is not None and v is not None]
    return o_series(acc, min(sides, default=None))


def o_scale_term(a, c, e):
    shifted = {(e1[0] + e[0], e1[1] + e[1]): c1 * c for e1, c1 in a[0].items()}
    return o_series(shifted, None if a[1] is None else a[1] + sum(e))


def view(f):
    """f read through the public `items()`, in the oracle's form."""
    pairs = f.items()
    assert {type(c) for _m, c in pairs} <= {Fraction}
    return {m.exponents: c for m, c in pairs}, f.precision


def assert_stored(f):
    """The storage invariant: exponent tuples below the precision, each
    value a nonzero int or a reduced pair (num, den) with den > 1."""
    for e, c in f._terms.items():
        assert type(e) is tuple and len(e) == f.n and all(type(x) is int and x >= 0 for x in e)
        assert f.precision is None or sum(e) < f.precision
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is tuple and len(c) == 2 and all(type(x) is int for x in c)
            assert c[1] > 1 and math.gcd(*c) == 1


def build(a):
    return TruncatedSeries(N, {Monomial(e): c for e, c in a[0].items()}, a[1])


@settings(max_examples=400, deadline=None)
@given(operand_pairs(), fractional, exponents, st.integers(0, 7))
# x1 - 1/2*x2 times x1 + 1/2*x2: the cross terms cancel in the product.
@example((({(1, 0): 1, (0, 1): Fraction(-1, 2)}, None), ({(1, 0): 1, (0, 1): Fraction(1, 2)}, 5)),
         Fraction(2, 3), (1, 1), 1)
def test_stored_form_matches_fraction_dicts(pair, c, e, p):
    a, b = (o_series(*x) for x in pair)
    f, g = build(pair[0]), build(pair[1])
    cases = [
        (f, a), (g, b),
        (f.add(g), o_add(a, b)),
        (g.add(f), o_add(a, b)),
        (f.subtract(g), o_add(a, o_negate(b))),
        (f.add(f.negate()), o_series({}, a[1])),
        (g.negate(), o_negate(b)),
        (f.multiply(g), o_multiply(a, b)),
        (g.multiply(f), o_multiply(a, b)),
        (f.scale_term(c, Monomial(e)), o_scale_term(a, Fraction(c), e)),
        (f.truncate(p), o_series(a[0], o_min(a[1], p))),
    ]
    for got, want in cases:
        assert_stored(got)
        assert view(got) == want
        assert got.valuation() == o_valuation(want)
        if want[0]:
            lm = min(want[0], key=lambda x: (sum(x), x))
            assert got.leading() == (Monomial(lm), want[0][lm])
        else:
            with pytest.raises(ZeroOrUnknownLeadingError):
                got.leading()
        rebuilt = build(want)
        assert got == rebuilt and hash(got) == hash(rebuilt)
    for (got, want), (got2, want2) in zip(cases, cases[1:]):
        assert (got == got2) == (want == want2)
