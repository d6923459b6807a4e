"""Hand-built certificates with junk in any field.

A `ReductionTrace` or `Conversion` built by hand either fails where it is
built, with a `TypeError`, `ValueError` or `RewritingError`, or every
consumer takes it: each consumer then returns, or raises one of those
errors with its own message, never a Python internal such as an
`AttributeError`, an unpacking error or "object is not iterable".
"""

import dataclasses
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings, strategies as st

from psrewrite import (
    BACKWARD,
    FORWARD,
    Conversion,
    FiniteARS,
    Monomial,
    ReductionStep,
    ReductionTrace,
    RewritingError,
    cofactors,
    eliminate_valleys,
    format_conversion,
    format_trace,
    normalize,
    parse_rules,
    parse_series,
    translate,
    validate_conversion,
)

TYPED = (TypeError, ValueError, RewritingError)
# Texts of Python's own errors that a consumer must not leak.
INTERNALS = ("has no attribute", "not iterable", "unpack", "not subscriptable",
             "not supported between", "unsupported operand", "object is not callable")


def typed_or_nothing(call):
    """Run the call; an error must be a typed one with no internal text."""
    try:
        call()
    except TYPED as e:
        assert not any(text in str(e) for text in INTERNALS), repr(e)


N = 2
RULES = parse_rules("x2 - x2^2\nx1 - x1*x2", N)
F, G = parse_series("x1 + x2 + O(6)", N), parse_series("x1*x2", N)
TRACE = normalize(F.subtract(G), RULES, 5)
STEPS = TRACE.steps

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 7), st.floats(allow_nan=False), st.text(max_size=3),
    st.just(FORWARD), st.just(BACKWARD), st.just(Fraction(1, 2)),
    st.just(F), st.just(Monomial((0, 1))), st.just(Monomial((1,))), st.just(STEPS[0]),
    st.tuples(st.integers(0, 3)), st.lists(st.integers(0, 3), max_size=3))


def mostly(usual, other):
    """A draw of `usual` three times in four, else one of `other`."""
    return st.integers(0, 3).flatmap(lambda k: usual if k else other)


@st.composite
def steps(draw):
    """A trace's steps: real ones, ones with a junk field, and junk."""
    def one(k):
        step = STEPS[k % len(STEPS)]
        fields = [step.monomial, step.rule_index, step.quotient, step.coeff]
        fields[draw(st.integers(0, 3))] = draw(junk)
        return draw(mostly(st.just(step), st.sampled_from([ReductionStep(*fields),
                                                            tuple(fields), draw(junk)])))
    chosen = [one(k) for k in range(draw(st.integers(0, len(STEPS))))]
    return draw(mostly(st.just(tuple(chosen)),
                       st.sampled_from([chosen, iter(chosen), draw(junk)])))


@settings(max_examples=300, deadline=None)
@given(start=mostly(st.just(TRACE.start), junk), trace_steps=steps(),
       end=mostly(st.just(TRACE.end), junk),
       end_precision=mostly(st.just(TRACE.end_precision), junk))
def test_hand_built_traces(start, trace_steps, end, end_precision):
    try:
        trace = ReductionTrace(start, trace_steps, end, end_precision)
    except TYPED:
        return
    # What is built has a valid value in every field that a consumer
    # prints or computes with.
    assert is_int(trace.end_precision, 0)
    for step in trace.steps:
        assert is_int(step.rule_index, 1) and isinstance(step.coeff, Rational)
    typed_or_nothing(lambda: cofactors(trace, RULES))
    typed_or_nothing(lambda: translate(F, G, trace, RULES))
    typed_or_nothing(lambda: format_trace(trace))


def is_int(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def one_step(end_precision=TRACE.end_precision, **change):
    """A trace of the first step of TRACE, with the given fields changed."""
    step = dataclasses.replace(STEPS[0], **change)
    return ReductionTrace(TRACE.start, (step,), TRACE.end, end_precision)


# The types of these fields are checked in `test_wrong_argument_type_rejected`.
@pytest.mark.parametrize("change, error, message", [
    ({"rule_index": 0}, ValueError, "rule index must be >= 1"),
    ({"rule_index": -2}, ValueError, "rule index must be >= 1"),
    ({"coeff": None}, TypeError, "coeff None is not a Rational"),
    ({"end_precision": -3}, ValueError, "end precision must be >= 0"),
    ({"end_precision": True}, TypeError, "end precision True is not an int"),
], ids=["zero-rule-index", "negative-rule-index", "no-coeff", "negative-end-precision",
        "bool-end-precision"])
def test_step_values_are_checked_where_built(change, error, message):
    # Where the trace is built, not in a consumer: `format_trace` would
    # print these values as they are.
    with pytest.raises(error, match=f"^{message}$"):
        one_step(**change)


def test_any_rational_coeff_and_zero_end_precision_are_taken():
    for coeff in (STEPS[0].coeff, int(STEPS[0].coeff)):
        trace = one_step(0, coeff=coeff)
        assert trace.steps[0].coeff == coeff and trace.end_precision == 0


# 0 <- 1 -> 2 and 3 -> 2: normalising with unique normal forms reached.
SYSTEM = FiniteARS(4, [(1, 0), (1, 2), (3, 2), (2, 0)])
element = mostly(st.integers(0, 3), st.one_of(st.integers(-2, 6), junk))
direction = mostly(st.sampled_from([FORWARD, BACKWARD]), junk)
conversion_step = mostly(st.tuples(element, direction),
                         st.one_of(st.tuples(element), st.tuples(element, direction, junk), junk))
step_lists = st.lists(conversion_step, max_size=5)


@settings(max_examples=300, deadline=None)
@given(start=element, conversion_steps=mostly(
    step_lists.map(tuple), st.one_of(step_lists, step_lists.map(iter), junk)))
def test_hand_built_conversions(start, conversion_steps):
    try:
        conv = Conversion(start, conversion_steps)
    except TYPED:
        return
    typed_or_nothing(lambda: conv.end)
    typed_or_nothing(conv.valley_indices)
    typed_or_nothing(lambda: format_conversion(conv))
    typed_or_nothing(lambda: validate_conversion(SYSTEM, conv))
    typed_or_nothing(lambda: eliminate_valleys(SYSTEM, conv))
