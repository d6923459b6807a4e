"""Hand-built certificates with junk in any field.

A `ReductionTrace` or `Conversion` built by hand either fails where it is
built, with a `TypeError`, `ValueError` or `RewritingError`, or every
consumer takes it: each consumer then returns, or raises one of those
errors with its own message, never a Python internal such as an
`AttributeError`, an unpacking error or "object is not iterable".
"""

from fractions import Fraction

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
    typed_or_nothing(lambda: cofactors(trace, RULES))
    typed_or_nothing(lambda: translate(F, G, trace, RULES))
    typed_or_nothing(lambda: format_trace(trace))


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
