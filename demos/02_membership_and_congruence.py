"""Deciding congruence modulo an ideal of power series, up to precision.

Two series are congruent modulo the ideal generated by the rules exactly
when their difference normalizes to zero.  The verdict is three-valued:
Member comes with cofactor certificates, NotMember needs the caller to
assert the rules form a standard basis (only then are normal forms
unique), and otherwise the honest answer is UnknownAtPrecision.

The translation lift is shown at the end: a chain reducing f - g splits
into one chain on f and one on g with the same step monomials.
"""

from psrewrite import (
    Member,
    NotMember,
    RuleSet,
    TruncatedSeries,
    congruence_test,
    format_series,
    format_trace,
    multiple_to_zero_chain,
    normalize,
    parse_series,
    translate,
)

n = 2
rules = RuleSet([parse_series("x2 - x2^2", n)])
zero = TruncatedSeries.zero(n)


def show(verdict):
    if isinstance(verdict, Member):
        qs = ", ".join(format_series(q) for q in verdict.cofactors)
        return f"Member with cofactors ({qs})"
    if isinstance(verdict, NotMember):
        return f"NotMember, witness {format_series(verdict.witness)}"
    return f"UnknownAtPrecision, residual {format_series(verdict.residual)}"


print("rules: x2 - x2^2   (the ideal it generates is (x2))")
for text, assume in (("x2", True), ("x2^3 + x2^7", True), ("1", True), ("1", False)):
    verdict = congruence_test(parse_series(text, n), zero, rules, 8,
                              assume_standard_basis=assume)
    tag = "assuming standard basis" if assume else "no assumption"
    print(f"  {text} in the ideal? ({tag}) -> {show(verdict)}")
print()

print("every multiple q * s_1 rewrites to zero using rule 1 alone:")
q = parse_series("1 + x2 + 3*x1*x2", n)
chain = multiple_to_zero_chain(q, 1, rules, 6)
print("  start:", format_series(chain.start))
for line in format_trace(chain):
    print("   ", line)
print("  end  :", format_series(chain.end))
print()

print("translation lift of a chain on f - g:")
f = parse_series("x1 + x2", n)
g = parse_series("x1", n)
trace = normalize(f.subtract(g), rules, 6)
f2, g2, tf, tg = translate(f, g, trace, rules)
print("  f =", format_series(f), " g =", format_series(g))
print(f"  chain on f - g has {len(trace.steps)} steps; lifted:"
      f" {len(tf.steps)} on f, {len(tg.steps)} on g")
print("  f' =", format_series(f2), "  g' =", format_series(g2))
print("  f' - g' =", format_series(f2.subtract(g2)),
      " agrees with the chain end", format_series(trace.end), "below degree",
      trace.end_precision)
