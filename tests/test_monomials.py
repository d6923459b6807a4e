import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import deglex_key, monomial_product, monomial_quotient, monomials_of_degree, support
from psrewrite import (
    DimensionMismatchError,
    Monomial,
    RuleSet,
    TruncatedSeries,
    reduce_step,
)

LESS, EQUAL, GREATER = -1, 0, 1


def mono(*exps):
    return Monomial(tuple(exps))


def compare(m1, m2):
    """LESS/EQUAL/GREATER for m1 against m2 under deglex_key."""
    k1, k2 = deglex_key(m1), deglex_key(m2)
    return (k1 > k2) - (k1 < k2)


def deglex_oracle(m1, m2):
    """Independent restatement of deglex: total degree first, then the
    exponent vectors compared position by position, x1 most significant,
    larger exponent at the first difference means the larger monomial."""
    if m1.degree != m2.degree:
        return LESS if m1.degree < m2.degree else GREATER
    for a, b in zip(m1.exponents, m2.exponents):
        if a != b:
            return GREATER if a > b else LESS
    return EQUAL


monomials2 = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(Monomial)
monomials3 = st.tuples(*([st.integers(0, 4)] * 3)).map(Monomial)


class TestDegree:
    def test_empty_monomial(self):
        assert mono(0, 0).degree == 0

    def test_mixed(self):
        assert mono(2, 1).degree == 3

    def test_single_variable(self):
        assert mono(0, 4).degree == 4


class TestCompare:
    def test_one_below_everything(self):
        assert compare(mono(0, 0), mono(1, 0)) == LESS

    def test_degree_first(self):
        assert compare(mono(3, 0), mono(0, 4)) == LESS

    def test_tie_break_most_significant_first(self):
        # x1*x2 vs x2^2: same degree, first exponent 1 > 0
        assert compare(mono(1, 1), mono(0, 2)) == GREATER

    def test_equal(self):
        assert compare(mono(1, 2), mono(1, 2)) == EQUAL

    @given(monomials2, monomials2)
    def test_matches_oracle(self, m1, m2):
        assert compare(m1, m2) == deglex_oracle(m1, m2)

    @given(monomials3, monomials3)
    def test_matches_oracle_three_vars(self, m1, m2):
        assert compare(m1, m2) == deglex_oracle(m1, m2)

    @given(monomials3, monomials3)
    def test_engine_leading_is_the_minimum(self, m1, m2):
        # The engine sorts on the same key inline, on bare exponent tuples.
        assert TruncatedSeries(3, {m1: 1, m2: 1}).leading()[0] == min(m1, m2, key=deglex_key)


class TestTrustedConstructor:
    @given(monomials3)
    def test_equal_and_hashes_like_the_checked_one(self, m):
        trusted = Monomial._trusted(m.exponents)
        assert trusted == m and hash(trusted) == hash(m)

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="^exponent must be >= 0$"):
            Monomial((-1,))

    @pytest.mark.parametrize("e", [1.5, "a", True, None, Fraction(1)])
    def test_public_constructor_rejects_a_non_int_exponent(self, e):
        with pytest.raises(TypeError, match=re.escape(f"exponent {e!r} is not an int")):
            Monomial((1, e))

    @pytest.mark.parametrize("exponents", [[1, 2], range(2), (e for e in (1, 2)), "12"])
    def test_public_constructor_takes_only_a_tuple(self, exponents):
        with pytest.raises(TypeError, match=re.escape(f"exponents {exponents!r} are not a tuple")):
            Monomial(exponents)

    @given(monomials3, monomials3)
    def test_unchecked_results_hold_checked_exponents(self, m1, m2):
        # The engine boxes sums and differences of exponents with
        # `_trusted`: a product's support and leading monomial, and a
        # step's quotient, must pass the public constructor's checks all
        # the same.
        f, g = TruncatedSeries(3, {m1: 1}), TruncatedSeries(3, {m2: 1})
        boxed = [*support(f.multiply(g)), f.multiply(g).leading()[0]]
        if monomial_quotient(m1, m2) is not None:
            boxed.append(reduce_step(g, RuleSet([f]), m2, 1)[1].quotient)
        for r in boxed:
            assert Monomial(r.exponents) == r
            assert all(type(e) is int and e >= 0 for e in r.exponents)


class TestDivides:
    """The exponent-tuple quotient the test oracles divide with."""

    def test_quotient(self):
        assert monomial_quotient(mono(1, 0), mono(2, 1)) == mono(1, 1)

    def test_not_divisible(self):
        assert monomial_quotient(mono(0, 1), mono(2, 0)) is None

    def test_one_divides_everything(self):
        m = mono(3, 2)
        assert monomial_quotient(mono(0, 0), m) == m

    @given(monomials2, monomials2)
    def test_roundtrip_with_multiply(self, m1, m2):
        q = monomial_quotient(m1, m2)
        if q is not None:
            assert monomial_product(m1, q) == m2
        else:
            assert any(a > b for a, b in zip(m1.exponents, m2.exponents))


class TestMultiply:
    """The exponent-tuple product the test oracles multiply with."""

    def test_distinct_variables(self):
        assert monomial_product(mono(1, 0), mono(0, 1)) == mono(1, 1)

    def test_unit(self):
        m = mono(2, 3)
        assert monomial_product(m, mono(0, 0)) == m

    def test_repeated_variable(self):
        assert monomial_product(mono(1, 1), mono(1, 0)) == mono(2, 1)

    def test_variable_counts_must_match(self):
        with pytest.raises(DimensionMismatchError, match="^monomials over 2 and 1 variables$"):
            monomial_product(mono(1, 0), mono(1))

    @given(monomials2, monomials2)
    def test_commutative(self, m1, m2):
        assert monomial_product(m1, m2) == monomial_product(m2, m1)


class TestOrderAxioms:
    @given(monomials2, monomials2, monomials2)
    def test_multiplicative(self, m, m1, m2):
        if compare(m1, m2) == LESS:
            assert compare(monomial_product(m, m1), monomial_product(m, m2)) == LESS

    @given(monomials2)
    def test_admissible(self, m):
        assert compare(Monomial((0, 0)), m) in (LESS, EQUAL)

    @given(monomials2, monomials2)
    def test_degree_compatible(self, m1, m2):
        if m1.degree < m2.degree:
            assert compare(m1, m2) == LESS

    @given(monomials2, monomials2)
    def test_total(self, m1, m2):
        c = compare(m1, m2)
        assert c in (LESS, EQUAL, GREATER)
        assert (c == EQUAL) == (m1 == m2)
        assert compare(m2, m1) == -c


class TestEnumeration:
    def test_monomials_of_degree_count(self):
        # n=3, d=4: C(4+2, 2) = 15 compositions
        ms = list(monomials_of_degree(3, 4))
        assert len(ms) == 15
        assert len(set(ms)) == 15
        assert all(m.degree == 4 for m in ms)

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)).map(Monomial))
    def test_below_is_finite_and_complete(self, limit):
        # the monomials below limit, enumerated degree by degree
        below = sorted((m for d in range(limit.degree + 1) for m in monomials_of_degree(2, d)
                        if compare(m, limit) == LESS), key=deglex_key)
        assert all(compare(m, limit) == LESS for m in below)
        # brute force over the grid that could possibly be below
        d = limit.degree
        brute = {
            Monomial((a, b))
            for a in range(d + 1) for b in range(d + 1)
            if compare(Monomial((a, b)), limit) == LESS
        }
        assert set(below) == brute
        assert below == sorted(below, key=deglex_key)
