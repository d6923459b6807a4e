from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import naive_textio
from helpers import support
from psrewrite import (
    BACKWARD,
    FORWARD,
    Conversion,
    DimensionMismatchError,
    Monomial,
    ParseError,
    ReductionStep,
    ReductionTrace,
    RewritingError,
    RuleSet,
    TruncatedSeries,
    format_conversion,
    format_series,
    format_trace,
    normalize,
    parse_ars_system,
    parse_conversion,
    parse_rules,
    parse_series,
)

N = 2
Y = Monomial((0, 1))


class TestParseSeries:
    def test_plain_polynomial(self):
        f = parse_series("x2 - x2^2", N)
        assert f.coefficient(Y) == 1
        assert f.coefficient(Monomial((0, 2))) == -1
        assert f.precision is None

    def test_rational_coefficient_and_precision(self):
        f = parse_series("3/2*x1^2*x2 + O(4)", N)
        assert f.coefficient(Monomial((2, 1))) == Fraction(3, 2)
        assert f.precision == 4

    def test_bare_precision(self):
        f = parse_series("O(0)", N)
        assert f.known_zero() and f.precision == 0

    def test_zero(self):
        f = parse_series("0", N)
        assert f.known_zero() and f.precision is None

    def test_leading_minus_and_constants(self):
        f = parse_series("-2 + 1/3*x1", N)
        assert f.coefficient(Monomial((0,) * N)) == -2
        assert f.coefficient(Monomial((1, 0))) == Fraction(1, 3)

    def test_like_terms_collected(self):
        assert parse_series("x2 + x2", N) == parse_series("2*x2", N)

    def test_terms_beyond_precision_absorbed(self):
        assert parse_series("x1^5 + O(2)", N) == TruncatedSeries(N, {}, 2)

    def test_repeated_variable_factors(self):
        assert parse_series("x1*x1^2", N) == parse_series("x1^3", N)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable x3"):
            parse_series("x3", N)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_series("1/0*x1", N)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_series("x1 + ?", N)
        assert err.value.line == 1 and err.value.column == 6

    def test_precision_must_be_last(self):
        with pytest.raises(ParseError, match="last"):
            parse_series("O(3) + x1", N)

    def test_precision_cannot_be_negative_addend(self):
        with pytest.raises(ParseError, match="subtracted"):
            parse_series("x1 - O(3)", N)

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_series("   ", N)


class TestFormatSeries:
    def test_canonical_examples(self):
        assert format_series(parse_series("x2 - x2^2", N)) == "x2 - x2^2"
        assert format_series(parse_series("3/2*x1^2*x2 + O(4)", N)) == "3/2*x1^2*x2 + O(4)"
        assert format_series(TruncatedSeries.zero(N)) == "0"
        assert format_series(TruncatedSeries(N, {}, 3)) == "O(3)"
        assert format_series(parse_series("-x1 + 2", N)) == "2 - x1"

    def test_monomial_form(self):
        assert str(Monomial((2, 1))) == "x1^2*x2"
        assert str(Monomial((0,) * N)) == "1"


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(Monomial)
series = st.builds(
    lambda d, p: TruncatedSeries(N, d, p),
    st.dictionaries(monomials, coefficients, max_size=5),
    st.one_of(st.none(), st.integers(0, 8)))


@given(series)
def test_round_trip(f):
    assert parse_series(format_series(f), N) == f


@given(st.text(alphabet="x12 +-*/^O()", max_size=40))
def test_series_parser_is_total(text):
    # arbitrary input either parses or raises ParseError, nothing else
    try:
        parse_series(text, N)
    except ParseError:
        pass


# Tokens and characters that reach every scanner rule: variables in and out
# of range, a bare `x`, leading zeros, every punctuator, whitespace, a
# character no token starts with, a non-ASCII decimal digit (`\d` and `int`
# accept it) and a superscript digit (neither does).
ATOMS = ["x1", "x2", "x3", "x", "x0", "x12", *"0123456789/*^+-O()", " ", "\t", "$",
         "\u0663", "\u00b2"]


def outcome(parse, text, n):
    """The parsed series, or the error's (message, line, column)."""
    try:
        return parse(text, n)
    except ParseError as err:
        return str(err), err.line, err.column


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(ATOMS), max_size=16).map("".join), st.integers(1, 3))
@example("x1 + 2 $", 2)            # the unknown character beats the grammar error
@example("-3/4*x2^2*x1 + x3 - O(4)", 3)
@example("2*x1*x2^3 + 1/\u0663 + O(5)", 2)
# An error at the end of the input, whose column is the one past the text.
@example("x1 +", 2)
@example("O(3", 2)
@example("2/", 2)
@example("x1^", 2)
@example("x1 - \t ", 2)
# Errors after runs of spaces and tabs, and bad characters after a valid prefix.
@example("x1 \t  \t x2", 2)
@example("3  *\t\t/x1", 2)
@example("x1 + 2*x2^3 \t $", 2)
@example("1/2*x1*x2?", 2)
# A literal one digit past Python's int-conversion limit, in each place.
@example("x1 + " + "7" * 4301 + "*x2", 2)
@example("x1 - 1/" + "7" * 4301, 2)
@example("2*x1*x" + "7" * 4301, 2)
@example("x1 + x2^" + "7" * 4301, 2)
@example("x1 + O(" + "7" * 4301 + ")", 2)
def test_parser_matches_the_naive_parser(text, n):
    assert outcome(parse_series, text, n) == outcome(naive_textio.parse_series, text, n)


@given(st.text(alphabet="x12 +-*/^O()0\n", max_size=40))
@example("x1\n0\n")
@example("x1\nO(3)\n")
def test_rule_parser_is_total(text):
    # arbitrary rule files, zero rules included, parse or raise ParseError
    try:
        parse_rules(text, N)
    except ParseError:
        pass


@given(st.text(alphabet="01234 ><-=n\n", max_size=40))
def test_system_parser_is_total(text):
    try:
        parse_ars_system(text)
    except ParseError:
        pass


@given(st.text(alphabet="012 -><", max_size=30))
def test_conversion_parser_is_total(text):
    try:
        parse_conversion(text)
    except ParseError:
        pass


class TestRuleFiles:
    def test_line_order_fixes_indices(self):
        rules = parse_rules("x1 + x2\n\nx1 - x2\n", N)
        assert len(rules) == 2
        assert rules.rule(1).body == parse_series("x1 + x2", N)
        assert rules.rule(2).body == parse_series("x1 - x2", N)

    # The variable count is checked before any text is read.
    @pytest.mark.parametrize("make, error, message", [
        (lambda: parse_series("x1", 2.5), TypeError, "^variable count 2.5 is not an int$"),
        (lambda: parse_series("x1", True), TypeError, "^variable count True is not an int$"),
        (lambda: parse_series("x1", 0), ValueError, "^variable count must be >= 1$"),
        (lambda: parse_rules("x1", 0), ValueError, "^variable count must be >= 1$"),
        (lambda: parse_rules("", 0), ValueError, "^variable count must be >= 1$"),
        (lambda: RuleSet([], 0), ValueError, "^variable count must be >= 1$"),
        (lambda: RuleSet([], 1.5), TypeError, "^variable count 1.5 is not an int$"),
        (lambda: RuleSet([]), ValueError, "^variable count required for an empty rule set$"),
        (lambda: RuleSet([parse_series("x1", 1), parse_series("x1", 2)]), DimensionMismatchError,
         "^rule over 2 variables in a 1-variable system$"),
    ])
    def test_variable_count_checked(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_error_carries_line_number(self):
        # an unknown variable, a zero rule, and rules with no known term
        for text in ("x1\nx9\n", "x1\n0\n", "x1\nO(3)\n", "x1\nx1^3 + O(2)\n"):
            with pytest.raises(ParseError) as err:
                parse_rules(text, N)
            assert err.value.line == 2


class TestTraceFormat:
    def test_line_records(self):
        rules = parse_rules("x2 - x2^2", N)
        trace = normalize(parse_series("x2", N), rules, 3)
        assert format_trace(trace) == [
            "step 1: M=x2 rule=1 m=1 c=1",
            "step 2: M=x2^2 rule=1 m=x2 c=1",
        ]


# Formatting something else, or parsing something that is not a str, is a
# TypeError naming the argument, not an error from inside the formatter,
# the parser or `re`.
@pytest.mark.parametrize("call, message", [
    (lambda: format_series(None), "^series None is not a TruncatedSeries$"),
    (lambda: format_series("x1"), "^series 'x1' is not a TruncatedSeries$"),
    (lambda: format_trace(None), "^trace None is not a ReductionTrace$"),
    (lambda: format_conversion(None), "^conversion None is not a Conversion$"),
    (lambda: parse_series(None, N), "^text None is not a str$"),
    (lambda: parse_series(b"x1", N), "^text b'x1' is not a str$"),
    (lambda: parse_rules(None, N), "^text None is not a str$"),
    (lambda: parse_ars_system(None), "^text None is not a str$"),
    (lambda: parse_conversion(None), "^text None is not a str$"),
], ids=["series-none", "series-str", "trace-none", "conversion-none", "parse-series-none",
        "parse-series-bytes", "parse-rules-none", "parse-ars-system-none",
        "parse-conversion-none"])
def test_format_rejects_wrong_argument_type(call, message):
    with pytest.raises(TypeError, match=message):
        call()


class TestUnprintableCoefficients:
    """A coefficient past Python's int-to-str limit is an error naming its
    term, not Python's own message."""

    BIG = Fraction(10 ** 5000)

    @pytest.mark.parametrize("m, name", [(Y, "x2"), (Monomial((0,) * N), "1")])
    @pytest.mark.parametrize("c", [BIG, -BIG, 1 / BIG, Fraction(3, 10 ** 5000)])
    def test_series(self, m, name, c):
        f = TruncatedSeries(N, {Monomial((1, 0)): 1, m: c}, 9)
        with pytest.raises(RewritingError, match=f"^the coefficient of {name} is past "):
            format_series(f)

    def test_trace(self):
        rules = parse_rules("x1 - 1" + "0" * 3999 + "*x1^2", 1)
        trace = normalize(parse_series("x1", 1), rules, 4)
        with pytest.raises(RewritingError, match="^the coefficient of x1\\^2 in step 3 is past "
                                                 "Python's int-to-str limit$"):
            format_trace(trace)


@pytest.mark.parametrize("text, n, name", [
    ("x1^{E}*x1^{E}", 1, "x1"),
    ("x1*x2^{E}*x2^{E}", 2, "x2"),
])
def test_an_exponent_past_the_int_to_str_limit(text, n, name):
    # Each literal is within the parser's digit limit, but their sum is not.
    f = parse_series(text.replace("{E}", "9" * 4300), n)
    (m,) = support(f)
    trace = ReductionTrace(f, (ReductionStep(m, 1, m, Fraction(1)),), f, 0)
    message = f"the exponent of {name} is past Python's int-to-str limit"
    for show in (lambda: format_series(f), lambda: str(m), lambda: format_trace(trace)):
        with pytest.raises(RewritingError, match=f"^{message}$"):
            show()
    assert repr(f) == f"<TruncatedSeries n={n} terms=1 precision=None: {message}>"


class TestArsFormats:
    def test_system_round_trip(self):
        sys = parse_ars_system("n=3\n0 -> 1\n1 -> 2\n")
        assert sys.size == 3 and sys.edges == frozenset({(0, 1), (1, 2)})

    def test_system_errors(self):
        for text, line, column, message in [
                ("3\n0 -> 1\n", 1, 1, "expected n=<size>"),
                ("n=x\n0 -> 1\n", 1, 3, "expected n=<size>"),
                ("  n = 3x\n", 1, 8, "expected n=<size>"),
                ("\nn 3\n", 2, 3, "expected n=<size>"),
                ("n=2\n0 -> 5\n", 2, 6, "edge 0 -> 5 outside 0..1"),
                ("n=3\n  9 -> 1\n", 2, 3, "edge 9 -> 1 outside 0..2"),
                ("n=3\n0 => 1\n", 2, 3, "expected <a> -> <b>"),
                ("n=3\n  x -> 1\n", 2, 3, "expected <a> -> <b>"),
                ("n=3\n0 -> 1 2\n", 2, 8, "expected <a> -> <b>"),
                ("n=3\n0 ->\n", 2, 5, "expected <a> -> <b>")]:
            with pytest.raises(ParseError, match=message) as err:
                parse_ars_system(text)
            assert (err.value.line, err.value.column) == (line, column)

    def test_conversion_round_trip(self):
        conv = parse_conversion("0 <- 1 -> 2")
        assert conv == Conversion(0, ((1, BACKWARD), (2, FORWARD)))
        assert format_conversion(conv) == "0 <- 1 -> 2"

    def test_conversion_errors(self):
        for text, column, message in [
                ("0 => 1", 3, "expected '->' or '<-', found '=>'"),
                ("0 ->", 5, "arrow must be followed by an element"),
                ("1 -> \u00b2", 6, "arrow must be followed by an element"),  # not a decimal
                ("0 <- 1  -> x", 12, "arrow must be followed by an element"),
                ("  a -> 1", 3, "expected an element, found 'a'")]:
            with pytest.raises(ParseError, match=message) as err:
                parse_conversion(text)
            assert (err.value.line, err.value.column) == (1, column)


LONG = "9" * 5000   # past Python's 4,300-digit limit on int conversion


class TestLongLiterals:
    """Literals too long for int conversion are parse errors at the literal."""

    @pytest.mark.parametrize("text, column", [
        (f"x1^{LONG}", 4),          # exponent
        (f"x{LONG}", 2),            # variable index
        (f"{'1' * 5000}*x1", 1),    # coefficient
        (f"x1 + 1/{LONG}", 8),      # denominator
        (f"x1 + O({LONG})", 8),     # precision
    ])
    def test_series(self, text, column):
        with pytest.raises(ParseError, match="number with 5000 digits is too long") as err:
            parse_series(text, N)
        assert (err.value.line, err.value.column) == (1, column)

    def test_rule_file(self):
        with pytest.raises(ParseError) as err:
            parse_rules(f"x1\n\nx2 - x2^{LONG}\n", N)
        assert (err.value.line, err.value.column) == (3, 9)

    @pytest.mark.parametrize("text, line, column", [
        (f"n={LONG}\n", 1, 3),
        (f"n = {LONG}\n0 -> 1\n", 1, 5),
        (f"n=3\n\n  0 -> {LONG}\n", 3, 8),
        (f"n=3\n{LONG}->0\n", 2, 1),
    ])
    def test_system(self, text, line, column):
        with pytest.raises(ParseError, match="5000 digits") as err:
            parse_ars_system(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, column", [(f"{LONG} -> 0", 1), (f"0 <-  {LONG}", 7)])
    def test_conversion(self, text, column):
        with pytest.raises(ParseError, match="5000 digits") as err:
            parse_conversion(text)
        assert (err.value.line, err.value.column) == (1, column)
