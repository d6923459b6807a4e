import copy
import dataclasses
import operator
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psrewrite import (
    DimensionMismatchError,
    InvalidTraceError,
    Member,
    Monomial,
    NotMember,
    NotReducibleError,
    PreconditionFailedError,
    PrecisionUnattainableError,
    ReductionStep,
    ReductionTrace,
    RewriteRule,
    RuleSet,
    TruncatedSeries,
    UnknownAtPrecision,
    ZeroOrUnknownLeadingError,
    attractivity_check,
    cofactors,
    confluence_probe,
    congruence_test,
    delta,
    falsify_standard_basis,
    format_trace,
    multiple_to_zero_chain,
    normalize,
    normalize_random,
    parse_series,
    reduce_step,
    reducible_monomials,
    translate,
)

import naive_reduction as naive
from helpers import (
    combination,
    deglex_key,
    monomials_of_degree,
    random_instance,
    random_polynomial,
    support,
)
from psrewrite import rewrite as rewrite_module

N = 2
X = Monomial((1, 0))
Y = Monomial((0, 1))
ONE = Monomial((0, 0))


def S(text, n=N):
    return parse_series(text, n)


def rules_of(*texts, n=N):
    return RuleSet([parse_series(t, n) for t in texts], n)


GEOMETRIC = rules_of("x2 - x2^2")          # y -> y^2
PAIR = rules_of("x1 + x2", "x1 - x2")      # both leading monomials are x2


class TestReducibleMonomials:
    def test_geometric(self):
        assert reducible_monomials(S("x2"), GEOMETRIC) == {Y}

    def test_irreducible_constant(self):
        assert reducible_monomials(S("1"), GEOMETRIC) == set()

    def test_two_multiples(self):
        rules = rules_of("x1")
        assert reducible_monomials(S("x1 + x1*x2"), rules) == {X, Monomial((1, 1))}


class TestReduceStep:
    def test_geometric_step(self):
        g, step = reduce_step(S("x2"), GEOMETRIC, Y, 1)
        assert g == S("x2^2")
        assert step.quotient == ONE and step.coeff == 1

    def test_exact_multiple_cancels(self):
        rules = rules_of("x1")
        g, step = reduce_step(S("x1^2"), rules, Monomial((2, 0)), 1)
        assert g.known_zero() and g.precision is None
        assert step.quotient == X

    def test_general_formula(self):
        # 2x + y - 2*(x + y^2) = y - 2y^2
        rules = rules_of("x1 + x2^2")
        g, step = reduce_step(S("2*x1 + x2"), rules, X, 1)
        assert g == S("x2 - 2*x2^2")
        assert step.coeff == 2

    def test_untouched_below_reduced_monomial(self):
        rules = rules_of("x2 - x2^3")
        f = S("1 + x1 + x2 + x1*x2 + x2^2")
        g, _ = reduce_step(f, rules, Y, 1)
        for m in support(f) | support(g):
            if deglex_key(m) < deglex_key(Y):
                assert f.coefficient(m) == g.coefficient(m)
        assert g.coefficient(Y) == 0

    def test_not_reducible(self):
        with pytest.raises(NotReducibleError):
            reduce_step(S("x1"), GEOMETRIC, X, 1)   # x2 does not divide x1
        with pytest.raises(NotReducibleError):
            reduce_step(S("x1"), GEOMETRIC, Y, 1)   # y not in the support


class TestNormalize:
    def test_geometric_chain(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        assert [s.monomial for s in trace.steps] == [
            Y, Monomial((0, 2)), Monomial((0, 3)), Monomial((0, 4))]
        assert trace.end == TruncatedSeries(N, {}, 5)
        assert trace.end_precision == 5

    def test_already_normal(self):
        rules = rules_of("x1^2")
        f = S("1 + x1*x2")
        trace = normalize(f, rules, 6)
        assert trace.end == f and not trace.steps
        assert trace.end.precision is None

    def test_tie_break_smallest_rule_index(self):
        trace = normalize(S("x1 + x2"), PAIR, 4)
        assert len(trace.steps) == 1
        assert trace.steps[0].rule_index == 1
        assert trace.end.known_zero() and trace.end.precision is None

    def test_input_precision_too_low(self):
        f = TruncatedSeries(N, {Y: 1}, 3)
        with pytest.raises(PrecisionUnattainableError):
            normalize(f, GEOMETRIC, 5)

    def test_rule_truncation_caps_precision(self):
        truncated_rule = RuleSet([TruncatedSeries(N, {Y: 1}, 2)], N)
        with pytest.raises(PrecisionUnattainableError):
            normalize(S("x2"), truncated_rule, 3)

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(25):
            f, rules, p = random_instance(rng)
            assert normalize(f, rules, p) == normalize(f, rules, p)

    def test_strictly_increasing_reduced_monomials(self):
        rng = random.Random(11)
        for _ in range(60):
            f, rules, p = random_instance(rng)
            ms = [s.monomial for s in normalize(f, rules, p).steps]
            assert all(deglex_key(a) < deglex_key(b) for a, b in zip(ms, ms[1:]))


class TestCofactors:
    def test_geometric(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        (q1,) = cofactors(trace, GEOMETRIC)
        assert q1 == S("1 + x2 + x2^2 + x2^3")
        # oracle: q1 * s1 telescopes, leaving only the tail beyond precision
        assert q1.multiply(GEOMETRIC.rule(1).body) == S("x2 - x2^5")
        assert S("x2").subtract(q1.multiply(GEOMETRIC.rule(1).body)) == S("x2^5")

    def test_empty_trace(self):
        trace = normalize(S("1"), GEOMETRIC, 5)
        (q1,) = cofactors(trace, GEOMETRIC)
        assert q1.known_zero()

    def test_rule_reduced_at_own_leading_monomial(self):
        f = GEOMETRIC.rule(1).body
        trace = normalize(f, GEOMETRIC, 6)
        assert len(trace.steps) == 1 and trace.end.known_zero() and trace.end.precision is None
        (q1,) = cofactors(trace, GEOMETRIC)
        assert q1 == S("1")

    def test_cancelled_quotient_terms_are_dropped(self):
        # Reducing y^2 before y brings y^2 back with the opposite sign, so
        # the quotient collected at y sums to zero and must not be stored.
        f = GEOMETRIC.rule(1).body
        trace = next(t for t in (normalize_random(f, GEOMETRIC, 3, seed) for seed in range(20))
                     if len(t.steps) == 3)
        assert [(s.quotient, s.coeff) for s in trace.steps] == [(Y, -1), (ONE, 1), (Y, 1)]
        assert trace.end.known_zero() and trace.end.precision is None
        replayed = ReductionTrace(trace.start, trace.steps, trace.end, trace.end_precision)
        for t in (trace, replayed):
            (q1,) = cofactors(t, GEOMETRIC)
            assert Y not in support(q1)
            assert q1 == S("1")

    def test_invalid_trace_rejected(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        bad = type(trace)(S("x2 + x1"), trace.steps, trace.end, trace.end_precision)
        with pytest.raises(InvalidTraceError):
            cofactors(bad, GEOMETRIC)

    def test_cofactor_identity_random(self):
        rng = random.Random(23)
        for _ in range(80):
            f, rules, p = random_instance(rng, exact_input=False)
            trace = normalize(f, rules, p)
            qs = cofactors(trace, rules)
            residue = trace.start.subtract(trace.end).subtract(combination(qs, rules))
            assert residue.valuation() is None or residue.valuation() >= trace.end_precision


class TestCofactorTrustBoundary:
    """Only a trace the engine made for the same rules skips the replay;
    every other trace is replayed and validated."""

    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        original = rewrite_module._replay

        def counting(trace, rules):
            calls.append(trace)
            return original(trace, rules)
        monkeypatch.setattr(rewrite_module, "_replay", counting)
        return calls

    def test_engine_trace_is_not_replayed(self, replays):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        assert cofactors(trace, GEOMETRIC) == (S("1 + x2 + x2^2 + x2^3"),)
        assert not replays

    def test_hand_built_trace_is_replayed(self, replays):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        copy = ReductionTrace(trace.start, trace.steps, trace.end, trace.end_precision)
        assert cofactors(copy, GEOMETRIC) == cofactors(trace, GEOMETRIC)
        assert replays == [copy]

    def test_hand_built_tampered_trace_rejected(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        first = dataclasses.replace(trace.steps[0], coeff=Fraction(2))
        bad = ReductionTrace(trace.start, (first,) + trace.steps[1:], trace.end,
                             trace.end_precision)
        with pytest.raises(InvalidTraceError):
            cofactors(bad, GEOMETRIC)

    def test_hand_built_trace_with_wrong_quotient_rejected(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        first = dataclasses.replace(trace.steps[0], quotient=Y)
        bad = ReductionTrace(trace.start, (first,) + trace.steps[1:], trace.end,
                             trace.end_precision)
        with pytest.raises(InvalidTraceError,
                           match=r"^step 1: quotient \* LM\(rule 1\) != x2$"):
            cofactors(bad, GEOMETRIC)

    @pytest.mark.parametrize("quotient, message", [
        (Monomial((0, 0, 7)), "^monomials over 3 and 2 variables$"),
        (Monomial((0,)), "^monomials over 1 and 2 variables$"),
    ])
    def test_hand_built_trace_with_quotient_of_other_variable_count_rejected(
            self, quotient, message):
        # Summing exponents with `map` would stop at the shorter vector and
        # accept the longer quotient: x2 = (0, 0, 7) * x2 on two variables.
        trace = normalize(S("x2"), GEOMETRIC, 5)
        first = dataclasses.replace(trace.steps[0], quotient=quotient)
        bad = ReductionTrace(trace.start, (first,) + trace.steps[1:], trace.end,
                             trace.end_precision)
        with pytest.raises(DimensionMismatchError, match=message):
            cofactors(bad, GEOMETRIC)

    def test_hand_built_steps_are_read_once(self):
        # `translate` reads the steps twice: to replay them, then to lift them.
        f, g = S("x2 + x1"), S("x1")
        trace = normalize(f.subtract(g), GEOMETRIC, 5)
        hand = ReductionTrace(trace.start, iter(trace.steps), trace.end, trace.end_precision)
        assert type(hand.steps) is tuple and hand.steps == trace.steps
        assert translate(f, g, hand, GEOMETRIC)[:2] == translate(f, g, trace, GEOMETRIC)[:2]

    def test_replaced_trace_with_tampered_step_rejected(self, replays):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        last = dataclasses.replace(trace.steps[-1], rule_index=1, coeff=Fraction(3))
        bad = dataclasses.replace(trace, steps=trace.steps[:-1] + (last,))
        with pytest.raises(InvalidTraceError):
            cofactors(bad, GEOMETRIC)
        assert replays == [bad]

    def test_replaced_trace_with_dropped_step_rejected(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        with pytest.raises(InvalidTraceError):
            cofactors(dataclasses.replace(trace, steps=trace.steps[:-1]), GEOMETRIC)

    def test_other_rules_are_replayed(self, replays):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        with pytest.raises(InvalidTraceError):
            cofactors(trace, rules_of("x2 - 2*x2^2"))
        assert replays == [trace]

    def test_lifted_traces_carry_their_cofactors(self, replays):
        f, g = S("x2 + x1"), S("x1")
        trace = normalize(f.subtract(g), GEOMETRIC, 5)
        _f2, _g2, tf, _tg = translate(f, g, trace, GEOMETRIC)
        assert replays == [trace]
        assert cofactors(tf, GEOMETRIC) == (S("1 + x2 + x2^2 + x2^3"),)
        assert replays == [trace]

    def test_translate_validates_its_trace(self):
        f, g = S("x2 + x1"), S("x1")
        trace = normalize(f.subtract(g), GEOMETRIC, 5)
        first = dataclasses.replace(trace.steps[0], coeff=Fraction(-1))
        bad = dataclasses.replace(trace, steps=(first,) + trace.steps[1:])
        with pytest.raises(InvalidTraceError):
            translate(f, g, bad, GEOMETRIC)


def _eager(trace):
    return ReductionTrace(trace.start, trace.steps, trace.end, trace.end_precision)


# A hand-built input, whose steps exist already: `translate` reads them.
LIFT_F, LIFT_G = S("x1 + x2"), S("x1*x2")
LIFT_TRACE = _eager(normalize(LIFT_F.subtract(LIFT_G), GEOMETRIC, 4))


def _lifted(side):
    return translate(LIFT_F, LIFT_G, LIFT_TRACE, GEOMETRIC)[2 + side]


CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda x: pickle.loads(pickle.dumps(x))}

# Fresh engine traces whose steps nobody has read yet, with their rules.
ENGINE_TRACES = {
    "normalize": lambda: (normalize(S("x2 + x1*x2"), GEOMETRIC, 5), GEOMETRIC),
    "normalize_random": lambda: (normalize_random(S("x1 + x2 + x2^2"), PAIR, 5, 12), PAIR),
    "multiple_to_zero_chain": lambda: (multiple_to_zero_chain(S("1 + x2"), 1, GEOMETRIC, 5),
                                       GEOMETRIC),
    "translate_f": lambda: (_lifted(0), GEOMETRIC),
    "translate_g": lambda: (_lifted(1), GEOMETRIC),
}


@pytest.mark.parametrize("make", ENGINE_TRACES.values(), ids=ENGINE_TRACES.keys())
class TestStepsBuiltOnFirstRead:
    """An engine trace keeps its run's raw step records and builds the
    `ReductionStep`s once, when `steps` is first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        # Every step the engine builds comes from `_box`; wrapping it keeps
        # `ReductionStep` a class, which `isinstance` checks need.
        made = []
        original = rewrite_module._box

        def counting(raw):
            steps = original(raw)
            made.extend(steps)
            return steps
        monkeypatch.setattr(rewrite_module, "_box", counting)
        return made

    def test_len_and_cofactors_build_no_step(self, make, built):
        trace, rules = make()
        n = len(trace)
        qs = cofactors(trace, rules)
        assert n > 0 and not built
        assert n == len(trace.steps) == len(built)
        assert qs == cofactors(_eager(trace), rules)   # the replay agrees

    def test_second_read_is_the_same_tuple(self, make, built):
        trace, _rules = make()
        steps = trace.steps
        assert trace.steps is steps and len(built) == len(steps)
        assert steps == _eager(make()[0]).steps
        assert all(type(s.coeff) is Fraction for s in steps)

    def test_equal_hash_repr_asdict_as_eager(self, make):
        hand = _eager(make()[0])
        for read in (operator.eq, lambda a, b: hash(a) == hash(b),
                     lambda a, b: repr(a) == repr(b),
                     lambda a, b: dataclasses.asdict(a)["steps"] == dataclasses.asdict(b)["steps"]):
            assert read(make()[0], hand)
            assert read(hand, make()[0])

    def test_replace_before_and_after_read(self, make):
        unread = dataclasses.replace(make()[0], end_precision=1)
        trace = make()[0]
        steps = trace.steps
        read = dataclasses.replace(trace, end_precision=1)
        assert unread.steps == read.steps == steps and read.steps is steps
        assert unread.end_precision == read.end_precision == 1

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace(self, make):
        trace = make()[0]
        again = copy.replace(trace, end_precision=1)
        assert again.steps == make()[0].steps and again.end_precision == 1

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_copies_of_an_unread_trace(self, make, built, clone):
        trace, rules = make()
        again = clone(trace)
        assert not built
        assert len(again) == len(trace) and cofactors(again, rules) == cofactors(trace, rules)
        assert not built
        assert again == trace and again.steps == trace.steps


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_rule_set_copies(clone):
    rules = rules_of("x1 + x2", "x2^2 - 1/2*x1^3 + O(6)")
    again = clone(rules)
    assert again == rules
    assert normalize(S("x1 + x2^2"), again, 5) == normalize(S("x1 + x2^2"), rules, 5)


@pytest.mark.parametrize("n", [1, None])
def test_rule_set_from_a_generator(n):
    # the bodies are read once, so a one-shot iterable gives the same rules
    bodies = [S("x1 - x1^2", 1)]
    rules = RuleSet((b for b in bodies), n)
    assert rules == RuleSet(bodies, 1) and len(rules) == 1
    assert normalize(S("x1", 1), rules, 3).end.known_zero()


def test_rule_leading_data_comes_from_the_body():
    rules = RuleSet([S("x1 - x1^2", 1)])
    rule = rules.rule(1)
    assert (rule.leading_monomial, rule.leading_coefficient) == (Monomial((1,)), 1)
    assert repr(rules) == (
        "RuleSet(rules=(RewriteRule(body=TruncatedSeries('x1 - x1^2'), "
        "leading_monomial=Monomial(exponents=(1,)), leading_coefficient=Fraction(1, 1)),), n=1)")


# A rule set is built one checked way: no unchecked rules, leading data or n.
@pytest.mark.parametrize("make, error, message", [
    (lambda: RuleSet(["x1"], 1), TypeError, "^rule body 'x1' is not a TruncatedSeries$"),
    (lambda: RuleSet(GEOMETRIC.rules, 2), TypeError, "^rule body RewriteRule.* is not a "),
    (lambda: RuleSet(list(GEOMETRIC.rules), 0), TypeError, "^rule body RewriteRule.* is not a "),
    (lambda: RewriteRule(S("x1 - x1^2", 1), Monomial((1,)), Fraction(5)), TypeError, "argument"),
    (lambda: dataclasses.replace(GEOMETRIC, n=3), TypeError, "argument"),
    (lambda: RuleSet(None), TypeError, "^bodies must be an iterable, got NoneType$"),
    (lambda: RuleSet(5, 1), TypeError, "^bodies must be an iterable, got int$"),
    (lambda: RewriteRule("x1"), TypeError, "^rule body 'x1' is not a TruncatedSeries$"),
    (lambda: RewriteRule(None), TypeError, "^rule body None is not a TruncatedSeries$"),
    # each body becomes a rule before the variable counts are read
    (lambda: RuleSet([TruncatedSeries.zero(3)], 2), ZeroOrUnknownLeadingError,
     "^zero series has no leading term$"),
    (lambda: RuleSet([S("x1"), "x2"]), TypeError, "^rule body 'x2' is not a TruncatedSeries$"),
], ids=["str-body", "rule-body", "rule-list-n0",
        "rule-with-leading-data", "replace", "none-bodies", "int-bodies",
        "rule-str-body", "rule-none-body", "zero-body-before-dimension", "str-second-body"])
def test_rule_set_rejects(make, error, message):
    with pytest.raises(error, match=message):
        make()


def _hand_trace(step):
    """A one-step trace built by hand on the geometric rule, from x2."""
    return ReductionTrace(S("x2"), (step,), S("x2^2"), 4)


# An argument of the wrong type is a TypeError that names it, not an
# AttributeError from deep inside the engine.
@pytest.mark.parametrize("call, message", [
    (lambda: normalize("x1", GEOMETRIC, 4), "series 'x1' is not a TruncatedSeries"),
    (lambda: normalize_random(None, GEOMETRIC, 4, 0), "series None is not a TruncatedSeries"),
    (lambda: reducible_monomials("x1", GEOMETRIC), "series 'x1' is not a TruncatedSeries"),
    (lambda: confluence_probe("x1", GEOMETRIC, 4, [0, 1]),
     "series 'x1' is not a TruncatedSeries"),
    (lambda: attractivity_check(S("x2"), GEOMETRIC, "x1", 3),
     "series 'x1' is not a TruncatedSeries"),
    (lambda: falsify_standard_basis("r", 4, 1, 0), "rule set 'r' is not a RuleSet"),
    (lambda: normalize(S("x2"), ["x1"], 4), r"rule set \['x1'\] is not a RuleSet"),
    (lambda: cofactors(None, GEOMETRIC), "trace None is not a ReductionTrace"),
    (lambda: congruence_test(S("x2"), "x1", GEOMETRIC, 4),
     "operand 'x1' is not a TruncatedSeries"),
    (lambda: delta(S("x2"), "x1"), "operand 'x1' is not a TruncatedSeries"),
    (lambda: S("x2").add("x1"), "operand 'x1' is not a TruncatedSeries"),
    (lambda: S("x2").subtract(None), "operand None is not a TruncatedSeries"),
    (lambda: S("x2").multiply("x1"), "operand 'x1' is not a TruncatedSeries"),
    (lambda: reduce_step("x1", GEOMETRIC, Y, 1), "series 'x1' is not a TruncatedSeries"),
    (lambda: reduce_step(S("x2"), ["x1"], Y, 1), r"rule set \['x1'\] is not a RuleSet"),
    (lambda: multiple_to_zero_chain(S("x1"), 1, ["x1"], 4),
     r"rule set \['x1'\] is not a RuleSet"),
    (lambda: multiple_to_zero_chain("x1", 1, GEOMETRIC, 4),
     "series 'x1' is not a TruncatedSeries"),
    (lambda: translate("x1", LIFT_G, LIFT_TRACE, GEOMETRIC),
     "series 'x1' is not a TruncatedSeries"),
    (lambda: translate(LIFT_F, LIFT_G, None, GEOMETRIC), "trace None is not a ReductionTrace"),
    (lambda: congruence_test("x1", S("x2"), GEOMETRIC, 4),
     "series 'x1' is not a TruncatedSeries"),
    (lambda: S("x2").scale_term(1, "x1"), "monomial 'x1' is not a Monomial"),
    (lambda: cofactors(_hand_trace(ReductionStep("x1", 1, "1", Fraction(1))), GEOMETRIC),
     "monomial 'x1' is not a Monomial"),
    (lambda: format_trace(_hand_trace(ReductionStep("x1", 1, "1", Fraction(1)))),
     "monomial 'x1' is not a Monomial"),
    (lambda: cofactors(_hand_trace(ReductionStep(Y, 1, "1", Fraction(1))), GEOMETRIC),
     "quotient '1' is not a Monomial"),
    (lambda: format_trace(_hand_trace(ReductionStep(Y, 1, "1", Fraction(1)))),
     "quotient '1' is not a Monomial"),
    (lambda: reduce_step(S("x2"), GEOMETRIC, "x1", 1), "monomial 'x1' is not a Monomial"),
    (lambda: confluence_probe(S("x2"), GEOMETRIC, 4, None),
     "strategy_seeds must be an iterable, got NoneType"),
    (lambda: cofactors(ReductionTrace(S("x2"), (), None, 4), GEOMETRIC),
     "end None is not a TruncatedSeries"),
    (lambda: translate(LIFT_F, LIFT_G, ReductionTrace(S("x2"), (), None, 4), GEOMETRIC),
     "end None is not a TruncatedSeries"),
    (lambda: cofactors(ReductionTrace("x2", (), S("x2"), 4), GEOMETRIC),
     "start 'x2' is not a TruncatedSeries"),
    (lambda: cofactors(_hand_trace((1, 1, 1, 1)), GEOMETRIC),
     r"step \(1, 1, 1, 1\) is not a ReductionStep"),
    (lambda: translate(LIFT_F, LIFT_G, _hand_trace((1, 1, 1, 1)), GEOMETRIC),
     r"step \(1, 1, 1, 1\) is not a ReductionStep"),
    (lambda: format_trace(_hand_trace((1, 1, 1, 1))),
     r"step \(1, 1, 1, 1\) is not a ReductionStep"),
    (lambda: format_trace(ReductionTrace(S("x2"), None, S("x2"), 4)),
     "steps must be an iterable, got NoneType"),
    (lambda: format_trace(_hand_trace(ReductionStep(Y, "one", ONE, Fraction(1)))),
     "rule index 'one' is not an int"),
    (lambda: cofactors(_hand_trace(ReductionStep(Y, True, ONE, Fraction(1))), GEOMETRIC),
     "rule index True is not an int"),
    (lambda: format_trace(_hand_trace(ReductionStep(Y, 1, ONE, "abc"))),
     "coeff 'abc' is not a Rational"),
    (lambda: cofactors(_hand_trace(ReductionStep(Y, 1, ONE, 1.0)), GEOMETRIC),
     "coeff 1.0 is not a Rational"),
    (lambda: format_trace(ReductionTrace(S("x2"), (), S("x2"), 4.0)),
     "end precision 4.0 is not an int"),
    (lambda: S("x1 + 2*x2").coefficient((1, 0)), r"monomial \(1, 0\) is not a Monomial"),
    (lambda: S("x1 + 2*x2").coefficient("x1"), "monomial 'x1' is not a Monomial"),
], ids=["normalize-series", "normalize-random-series", "reducible-series", "probe-series",
        "attractivity-alpha", "falsify-rules", "normalize-rules", "cofactors-trace",
        "congruence-g", "delta-g", "add", "subtract", "multiply", "reduce-step-series",
        "reduce-step-rules", "chain-rules", "chain-series", "translate-f", "translate-trace",
        "congruence-f", "scale-term", "cofactors-step-monomial", "format-trace-step-monomial",
        "cofactors-step-quotient", "format-trace-step-quotient", "reduce-step-monomial",
        "probe-seeds", "cofactors-no-end", "translate-no-end", "cofactors-str-start",
        "cofactors-tuple-step", "translate-tuple-step", "format-trace-tuple-step",
        "format-trace-no-steps", "format-trace-str-rule-index", "cofactors-bool-rule-index",
        "format-trace-str-coeff", "cofactors-float-coeff", "format-trace-float-end-precision",
        "coefficient-tuple", "coefficient-str"])
def test_wrong_argument_type_rejected(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


class TestStandardRepresentation:
    """The oracle's certificate, the per-pair payload of a standard-basis
    verifier, on the division it is built from."""

    def test_geometric(self):
        rep = naive.standard_representation(S("x2"), GEOMETRIC, 5)
        assert rep is not None
        assert rep.cofactors[0] == S("1 + x2 + x2^2 + x2^3")
        assert rep.no_cancellation and rep.min_summand_leading == Y

    def test_nonzero_normal_form_means_absent(self):
        assert naive.standard_representation(S("1"), GEOMETRIC, 5) is None

    def test_exact_telescoping(self):
        rep = naive.standard_representation(S("x2 - x2^5"), GEOMETRIC, 6)
        assert rep is not None
        assert rep.cofactors[0] == S("1 + x2 + x2^2 + x2^3")
        assert rep.trace.end.known_zero() and rep.trace.end.precision is None
        assert len(rep.trace.steps) == 4


class TestMultipleToZeroChain:
    def test_single_term(self):
        rules = rules_of("x1")
        trace = multiple_to_zero_chain(S("1"), 1, rules, 4)
        assert len(trace.steps) == 1 and trace.end.known_zero() and trace.end.precision is None
        assert trace.start == S("x1")

    def test_two_terms(self):
        rules = rules_of("x1")
        trace = multiple_to_zero_chain(S("1 + x2"), 1, rules, 5)
        assert trace.start == S("x1 + x1*x2")
        assert [s.monomial for s in trace.steps] == [X, Monomial((1, 1))]
        assert trace.end.known_zero() and trace.end.precision is None

    def test_truncated_geometric(self):
        q = S("1 + x2 + x2^2 + x2^3 + O(4)")
        trace = multiple_to_zero_chain(q, 1, GEOMETRIC, 4)
        assert trace.end.known_zero() and trace.end_precision == 5
        assert all(s.rule_index == 1 for s in trace.steps)
        quotients = [s.quotient for s in trace.steps]
        assert quotients == sorted(quotients, key=deglex_key)

    def test_unattainable(self):
        q = S("1 + x2 + O(2)")
        with pytest.raises(PrecisionUnattainableError):
            multiple_to_zero_chain(q, 1, GEOMETRIC, 8)


class TestTranslate:
    def test_empty_trace(self):
        f, g = S("x1 + x2"), S("x2")
        trace = normalize(S("x1"), rules_of("x2^5"), 4)   # no steps
        f2, g2, tf, tg = translate(f, g, trace, rules_of("x2^5"))
        assert f2 == f and g2 == g
        assert not tf.steps and not tg.steps

    def test_one_sided_lift(self):
        f, g = S("x2 + x1"), S("x1")
        trace = normalize(f.subtract(g), GEOMETRIC, 5)
        f2, g2, tf, tg = translate(f, g, trace, GEOMETRIC)
        assert g2 == g and not tg.steps
        assert len(tf.steps) == len(trace.steps)
        assert f2.subtract(g2).truncate(5) == trace.end.truncate(5)
        assert f2.truncate(5) == S("x1 + O(5)")

    def test_reduction_of_a_rule(self):
        f = GEOMETRIC.rule(1).body
        g = TruncatedSeries.zero(N)
        trace = normalize(f, GEOMETRIC, 6)
        f2, g2, tf, tg = translate(f, g, trace, GEOMETRIC)
        assert f2.known_zero() and f2.precision is None and g2.known_zero() and g2.precision is None
        assert len(tf.steps) == 1 and not tg.steps

    def test_wrong_start_rejected(self):
        trace = normalize(S("x2"), GEOMETRIC, 5)
        with pytest.raises(InvalidTraceError):
            translate(S("x2 + x1"), S("x2"), trace, GEOMETRIC)

    def test_random_lifts(self):
        rng = random.Random(37)
        for _ in range(40):
            f, rules, p = random_instance(rng)
            g = random_polynomial(rng, rules.n, max_degree=4)
            trace = normalize(f.subtract(g), rules, p)
            f2, g2, tf, tg = translate(f, g, trace, rules)
            c = trace.end_precision
            assert f2.subtract(g2).truncate(c) == trace.end.truncate(c)
            # the lifted traces are themselves valid chains: the division
            # identity holds on each side with the cofactors they carry
            for side, lifted in ((f, tf), (g, tg)):
                qs = cofactors(lifted, rules)
                residue = side.subtract(lifted.end).subtract(combination(qs, rules))
                assert residue.valuation() is None or residue.valuation() >= c


class TestCongruence:
    def test_member_with_cofactor(self):
        verdict = congruence_test(S("x2"), TruncatedSeries.zero(N), GEOMETRIC, 6,
                                  assume_standard_basis=True)
        assert isinstance(verdict, Member)
        assert verdict.cofactors[0] == S("1 + x2 + x2^2 + x2^3 + x2^4")

    def test_reflexive(self):
        f = S("3*x1 - x2^2")
        verdict = congruence_test(f, f, GEOMETRIC, 5)
        assert isinstance(verdict, Member)
        assert all(q.known_zero() for q in verdict.cofactors)

    def test_not_member_needs_assumption(self):
        one = S("1")
        zero = TruncatedSeries.zero(N)
        assert isinstance(congruence_test(one, zero, GEOMETRIC, 5,
                                          assume_standard_basis=True), NotMember)
        assert isinstance(congruence_test(one, zero, GEOMETRIC, 5), UnknownAtPrecision)

    def test_not_member_witness(self):
        verdict = congruence_test(S("1"), TruncatedSeries.zero(N), GEOMETRIC, 5,
                                  assume_standard_basis=True)
        assert isinstance(verdict, NotMember)
        assert verdict.witness == S("1")

    def test_member_soundness_random(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            _f, rules, p = random_instance(rng)
            qs = [random_polynomial(rng, rules.n, 2) for _ in rules.rules]
            f = combination(qs, rules)
            verdict = congruence_test(f, TruncatedSeries.zero(rules.n), rules, p)
            if not isinstance(verdict, Member):
                continue
            diff = f.subtract(combination(verdict.cofactors, rules))
            assert diff.valuation() is None or diff.valuation() >= p
            checked += 1

    def test_member_verdicts_agree_with_linear_span_oracle(self):
        # Independent oracle: trunc(f, p) lies in the truncation of the
        # ideal iff it is a rational linear combination of the truncated
        # monomial multiples m * s_i, decided by Gaussian elimination.
        # Member verdicts must land in the span; for a single rule (always
        # a standard basis of its ideal) the equivalence is two-sided.
        def reduce_vec(vec, basis):
            vec = dict(vec)
            while vec:
                pivot = min(vec, key=deglex_key)
                if pivot not in basis:
                    return vec, pivot
                c = vec[pivot]
                for m, b in basis[pivot].items():
                    s = vec.get(m, 0) - c * b
                    if s == 0:
                        vec.pop(m, None)
                    else:
                        vec[m] = s
            return vec, None

        def in_span(f, rules, p):
            basis = {}
            for rule in rules.rules:
                v = rule.body.valuation()
                for d in range(max(0, p - v)):
                    for m in monomials_of_degree(rules.n, d):
                        col = dict(rule.body.scale_term(1, m).truncate(p).items())
                        col, pivot = reduce_vec(col, basis)
                        if pivot is not None:
                            c = col[pivot]
                            basis[pivot] = {m2: c2 / c for m2, c2 in col.items()}
            remainder, _ = reduce_vec(dict(f.truncate(p).items()), basis)
            return not remainder

        rng = random.Random(61)
        member_seen = single_seen = 0
        for k in range(120):
            f, rules, p = random_instance(rng)
            if k % 2:
                f = combination([random_polynomial(rng, rules.n, 2)
                                 for _ in rules.rules], rules)
            verdict = congruence_test(f, TruncatedSeries.zero(rules.n), rules, p)
            spanned = in_span(f, rules, p)
            if isinstance(verdict, Member):
                assert spanned
                member_seen += 1
            if len(rules) == 1:
                assert isinstance(verdict, Member) == spanned
                single_seen += 1
        assert member_seen >= 20 and single_seen >= 20

    def test_univariate_verdicts_match_valuation_oracle(self):
        # In one variable the ring is a valuation ring: the ideal generated
        # by s is determined by val(s) alone, so membership of an exact f
        # is simply val(f) >= val(s).  A single rule is always a standard
        # basis, which makes NotMember verdicts conclusive.
        rng = random.Random(47)
        done = 0
        while done < 80:
            s = random_polynomial(rng, 1, max_degree=4, zero_ok=False)
            f = random_polynomial(rng, 1, max_degree=6)
            if s.known_zero() or f.known_zero():
                continue
            rules = RuleSet([s], 1)
            verdict = congruence_test(f, TruncatedSeries.zero(1), rules, 9,
                                      assume_standard_basis=True)
            should_be_member = f.valuation() >= s.valuation()
            assert isinstance(verdict, Member) == should_be_member
            done += 1


class TestFalsifyStandardBasis:
    def test_pairwise_cancellation_certificate(self):
        cert = falsify_standard_basis(PAIR, precision=4, trials=10, seed=1)
        assert cert is not None and cert.phase == "pairwise"
        assert cert.combination == S("2*x1")
        # the witness is irreducible: no rule leading monomial divides it
        for m in support(cert.normal_form):
            assert not naive.dividing_rules(PAIR, m)

    def test_principal_ideal_passes(self):
        assert falsify_standard_basis(GEOMETRIC, precision=5, trials=200, seed=3) is None

    def test_empty_rule_set(self):
        rules = RuleSet([], n=N)
        assert falsify_standard_basis(rules, precision=4, trials=5, seed=0) is None

    def test_reproducible(self):
        a = falsify_standard_basis(PAIR, precision=4, trials=50, seed=9)
        b = falsify_standard_basis(PAIR, precision=4, trials=50, seed=9)
        assert a == b

    # Exact rules skip the random phase and truncated ones run it: a bad
    # count must fail the same way on both, before either phase.
    @pytest.mark.parametrize("rules, precision", [
        (GEOMETRIC, 5), (rules_of("x1 + x2 + O(3)", "x1 - x2"), 4)])
    @pytest.mark.parametrize("trials", [1.5, "3", True])
    def test_non_int_trials_rejected(self, rules, precision, trials):
        with pytest.raises(TypeError, match=f"^trials {re.escape(repr(trials))} is not an int$"):
            falsify_standard_basis(rules, precision, trials=trials, seed=1)


class TestConfluenceProbe:
    def test_single_rule_agrees(self):
        report = confluence_probe(S("x2"), GEOMETRIC, 5, [0, 1, 2])
        assert report.max_delta <= Fraction(1, 32)
        assert not report.divergence_witnesses()

    def test_divergence_witness(self):
        report = confluence_probe(S("x1 + x2"), PAIR, 5, list(range(8)))
        witnesses = report.divergence_witnesses()
        assert witnesses and all(d == Fraction(1, 2) for _a, _b, d in witnesses)
        assert {e.truncate(5) for e in report.ends} == {
            TruncatedSeries(N, {}, 5), S("2*x1 + O(5)")}

    def test_normal_form_input(self):
        f = S("1 + x1")
        report = confluence_probe(f, rules_of("x2^2"), 5, [0, 1])
        assert all(e == f for e in report.ends)
        assert report.max_delta == 0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            confluence_probe(S("x2"), GEOMETRIC, 5, [])
        with pytest.raises(ValueError):
            confluence_probe(S("x2"), GEOMETRIC, 5, iter([]))

    def test_seeds_may_come_from_an_iterator(self):
        report = confluence_probe(S("x1 + x2"), PAIR, 5, iter(range(8)))
        assert report == confluence_probe(S("x1 + x2"), PAIR, 5, list(range(8)))
        assert report.seeds == tuple(range(8))

    def test_reproducible(self):
        a = normalize_random(S("x1 + x2 + x2^2"), PAIR, 5, seed=12)
        b = normalize_random(S("x1 + x2 + x2^2"), PAIR, 5, seed=12)
        assert a == b


def test_rule_set_keeps_no_state():
    """Compiled rule tables and divisor memos live for one call only:
    nothing is left on the rule set or its rules to hold memory after it."""
    rules = rules_of("x1 + x2", "x1 - x2", "x2^2 - x1^3 + O(6)")

    def state():
        return [dict(vars(rules))] + [dict(vars(rule)) for rule in rules.rules]

    before = state()
    normalize(S("x1 + x2^2"), rules, 4)
    assert falsify_standard_basis(rules, 4, trials=3, seed=1) is not None
    confluence_probe(S("x1 + x2^2"), rules, 4, [0, 1, 2])
    congruence_test(S("x2"), S("x1"), rules, 4)
    assert state() == before


UNIVARIATE = rules_of("x1 - x1^2", n=1)
TARGET_ENTRY_POINTS = {
    "normalize": lambda p: normalize(S("x1 + x1^3", 1), UNIVARIATE, p),
    "normalize_random": lambda p: normalize_random(S("x1 + x1^3", 1), UNIVARIATE, p, 0),
    "congruence_test": lambda p: congruence_test(S("x1", 1), S("x1^2", 1), UNIVARIATE, p),
    "confluence_probe": lambda p: confluence_probe(S("x1 + x1^3", 1), UNIVARIATE, p, [1, 2]),
    # one exact rule: no pair and no random phase, so no run checks it
    "falsify_standard_basis": lambda p: falsify_standard_basis(UNIVARIATE, p, 1, 0),
    "multiple_to_zero_chain": lambda p: multiple_to_zero_chain(S("x1", 1), 1, UNIVARIATE, p),
}


@pytest.mark.parametrize("entry", TARGET_ENTRY_POINTS)
@pytest.mark.parametrize("p", [2.5, True, -1])
def test_non_int_target_precision_rejected(entry, p):
    if p == -1:
        error, message = ValueError, "^target precision must be >= 0$"
    else:
        error, message = TypeError, f"^target precision {p!r} is not an int$"
    with pytest.raises(error, match=message):
        TARGET_ENTRY_POINTS[entry](p)


SEEDED_ENTRY_POINTS = {
    "normalize_random": lambda s: normalize_random(S("x1 + x2"), PAIR, 4, s),
    "falsify_standard_basis": lambda s: falsify_standard_basis(PAIR, 4, 1, s),
    "confluence_probe": lambda s: confluence_probe(S("x1 + x2"), PAIR, 4, [0, s]),
    "attractivity_check": lambda s: attractivity_check(S("x2"), GEOMETRIC,
                                                       TruncatedSeries.zero(N), 3, s),
}


@pytest.mark.parametrize("entry", SEEDED_ENTRY_POINTS)
@pytest.mark.parametrize("seed", [None, 1.5, True])
def test_non_int_seed_rejected(entry, seed):
    # random.Random(None) would draw from OS entropy: not reproducible
    with pytest.raises(TypeError, match=f"^seed {seed!r} is not an int$"):
        SEEDED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("i", [True, 1.0])
def test_non_int_rule_index_rejected(i):
    # both equal 1, so the range check alone would let them through
    for entry in (lambda: GEOMETRIC.rule(i),
                  lambda: multiple_to_zero_chain(S("1"), i, GEOMETRIC, 4),
                  lambda: reduce_step(S("x2"), GEOMETRIC, Y, i)):
        with pytest.raises(TypeError, match=f"^rule index {i!r} is not an int$"):
            entry()


@pytest.mark.parametrize("i", [0, 2])
def test_rule_index_out_of_range(i):
    with pytest.raises(NotReducibleError, match=f"^rule index {i} out of range 1..1$"):
        GEOMETRIC.rule(i)


class TestAttractivity:
    def test_geometric_distances_shrink(self):
        report = attractivity_check(S("x2"), GEOMETRIC,
                                    TruncatedSeries.zero(N), steps=6, seed=0)
        assert report.ok
        assert report.distances[0] == Fraction(1, 2)
        assert all(a >= b for a, b in zip(report.distances, report.distances[1:]))

    def test_alpha_equals_input(self):
        alpha = S("1 + x1")
        report = attractivity_check(alpha, rules_of("x2"), alpha, steps=5)
        assert report.ok and report.steps_taken == 0

    def test_reducible_alpha_rejected(self):
        with pytest.raises(PreconditionFailedError):
            attractivity_check(S("x2"), GEOMETRIC, S("x2 + x1"), steps=3)

    @pytest.mark.parametrize("steps, error, message", [
        (2.5, TypeError, "^steps 2.5 is not an int$"),
        (True, TypeError, "^steps True is not an int$"),
        (-1, ValueError, "^steps must be >= 0$")])
    def test_steps_checked(self, steps, error, message):
        with pytest.raises(error, match=message):
            attractivity_check(S("x2"), GEOMETRIC, TruncatedSeries.zero(N), steps)

    def test_one_step_attractivity_random(self):
        rng = random.Random(53)
        done = 0
        while done < 60:
            f, rules, p = random_instance(rng)
            alpha = normalize(f, rules, p).end
            candidates = sorted(reducible_monomials(f, rules), key=deglex_key)
            if not candidates:
                continue
            M = rng.choice(candidates)
            i = rng.choice(naive.dividing_rules(rules, M))
            g, _ = reduce_step(f, rules, M, i)
            assert delta(g, alpha)[0] <= delta(f, alpha)[0]
            done += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_end_is_irreducible_below_precision(seed):
    rng = random.Random(seed)
    f, rules, p = random_instance(rng)
    trace = normalize(f, rules, p)
    assert trace.end_precision >= p
    for m in reducible_monomials(trace.end, rules):
        assert m.degree >= trace.end_precision


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_is_idempotent(seed):
    rng = random.Random(seed)
    f, rules, p = random_instance(rng)
    end = normalize(f, rules, p).end
    again = normalize(end, rules, p)
    assert not again.steps and again.end == end
