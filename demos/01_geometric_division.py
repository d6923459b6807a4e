"""Dividing y by the single rule y - y^2, one precision at a time.

The rule rewrites y to y^2, that to y^3, and so on: the chain never
terminates exactly, but it converges in the adic metric, and below any
degree bound it is a finite computation.  The cofactor it accumulates is
the truncated geometric series 1 + y + y^2 + ..., i.e. the engine is
computing y/(y - y^2) = 1/(1 - y) by division.
"""

from psrewrite import (
    RuleSet,
    TruncatedSeries,
    cofactors,
    delta,
    format_series,
    format_trace,
    normalize,
    parse_series,
    reduce_step,
)

n = 2
f = parse_series("x2", n)
rules = RuleSet([parse_series("x2 - x2^2", n)])

print("input      :", format_series(f))
print("rule 1     :", format_series(rules.rule(1).body))
print("leading    :", rules.rule(1).leading_monomial,
      "with coefficient", rules.rule(1).leading_coefficient)
print()

for precision in (4, 8):
    trace = normalize(f, rules, precision)
    print(f"normalized below degree {precision}: {format_series(trace.end)}"
          f" in {len(trace.steps)} steps")
    for line in format_trace(trace):
        print("   ", line)
    (q1,) = cofactors(trace, rules)
    print("cofactor q1 :", format_series(q1))
    check = q1.multiply(rules.rule(1).body)
    print("q1 * rule   :", format_series(check), " (telescopes)")
    residue = f.subtract(check)
    print("f - q1*rule :", format_series(residue))
    print()

print("the distance to the normal form 0 shrinks step by step:")
h = f
zero = TruncatedSeries.zero(n)
for k, step in enumerate(normalize(f, rules, 7).steps):
    value, _ = delta(h, zero)
    print(f"  after {k} steps: h = {format_series(h):<18} delta(h, 0) = {value}")
    h, _ = reduce_step(h, rules, step.monomial, step.rule_index)
