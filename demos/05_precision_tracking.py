"""How big-O precision moves through arithmetic and division.

A truncated series stores only coefficients of degree below its bound;
everything else is an unknown tail.  The operations compute the sharpest
bound that is still sound: sums keep the worse of the two bounds, while a
product gains slack from the valuation of the other factor (multiplying
by something of valuation v pushes the unknown tail up by v degrees).

Division inherits these rules.  With truncated rules the reachable
precision can fall short of the request, and the engine raises instead of
silently degrading.  The adic distance between values that agree below
the bound is only known as an upper bound, and it says so.
"""

from psrewrite import (
    PrecisionUnattainableError,
    RuleSet,
    TruncatedSeries,
    delta,
    format_series,
    normalize,
    parse_series,
)

n = 2
f = parse_series("x1 + O(3)", n)
g = parse_series("1 + x1 + O(2)", n)

print("f          =", format_series(f))
print("g          =", format_series(g))
print("f + g      =", format_series(f.add(g)), "   (min of the bounds)")
print("f * g      =", format_series(f.multiply(g)),
      "   (bound 3 = min(3 + val g, 2 + val f) = min(3+0, 2+1))")
print("f shifted  =", format_series(f.scale_term(2, parse_series("x2", n).leading()[0])),
      "(bound rises with the shift degree)")
print()

exact = parse_series("x2 - x2^2", n)
blurred = exact.truncate(2)
print("a rule known only below degree 2:", format_series(blurred))
rules = RuleSet([blurred])
try:
    normalize(parse_series("x2", n), rules, 3)
except PrecisionUnattainableError as exc:
    print("dividing x2 below degree 3 with it fails:", exc)
print()

a = parse_series("x1 + x2^4 + O(6)", n)
b = parse_series("x1 + O(5)", n)
value, upper_bound_only = delta(a, b)
print("a =", format_series(a), "  b =", format_series(b))
print("delta(a, b) =", value,
      "(exact: the difference shows x2^4)" if not upper_bound_only else "")
c = parse_series("x1 + O(5)", n)
value, upper_bound_only = delta(b, c)
print("delta(b, b') =", value,
      "flagged as an upper bound only" if upper_bound_only else "")
print("  (they agree below degree 5; beyond that nothing is known,")
print("   so the true distance is anywhere in [0, 1/32])")
