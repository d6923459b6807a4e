"""Falsifying standard bases and probing confluence.

{x + y, x - y} generates the whole maximal ideal (x, y), but both rules
have leading monomial y for deglex: x itself is a combination whose
leading monomial neither rule divides, so the set is not a standard
basis.  The falsifier finds exactly that witness in its deterministic
leading-cancellation phase, and the confluence probe sees the same defect
dynamically: different reduction strategies on x + y end at normal forms
a distance 1/2 apart, instead of agreeing within the working precision.

A single rule always is a standard basis of the ideal it generates, so
there the probes stay silent, and reduction can only move a series closer
to any normal form (the attractivity check).
"""

from psrewrite import (
    RuleSet,
    TruncatedSeries,
    attractivity_check,
    confluence_probe,
    falsify_standard_basis,
    format_series,
    parse_series,
)

n = 2
pair = RuleSet([parse_series("x1 + x2", n), parse_series("x1 - x2", n)])
single = RuleSet([parse_series("x2 - x2^2", n)])

print("=== falsifier ===")
cert = falsify_standard_basis(pair, precision=4, trials=100, seed=0)
print("pair {x1+x2, x1-x2}:")
print("  phase      :", cert.phase)
print("  combination:", format_series(cert.combination),
      "=", " + ".join(f"({format_series(q)})*({format_series(r.body)})"
                      for q, r in zip(cert.cofactors, pair.rules)))
print("  normal form:", format_series(cert.normal_form), "(nonzero, so not a standard basis)")
print("single rule x2 - x2^2:",
      falsify_standard_basis(single, precision=5, trials=500, seed=0)
      or "no counterexample in 500 trials")
print()

print("=== confluence probe ===")
f = parse_series("x1 + x2", n)
report = confluence_probe(f, pair, precision=5, strategy_seeds=list(range(6)))
print("pair rules on x1 + x2, 6 random strategies:")
for end in dict.fromkeys(report.ends):
    print("  reachable normal form:", format_series(end))
print("  max pairwise delta:", report.max_delta, " threshold:", report.threshold)
print("  divergence witnesses:", len(report.divergence_witnesses()))
report = confluence_probe(f, single, precision=5, strategy_seeds=list(range(6)))
print("single rule on x1 + x2: max pairwise delta", report.max_delta,
      "<= threshold", report.threshold)
print()

print("=== attractivity ===")
alpha = TruncatedSeries.zero(n)
walk = attractivity_check(parse_series("x2 + x2^3", n), single, alpha,
                          steps=8, seed=1)
print("random walk from x2 + x2^3 towards 0:", "ok" if walk.ok else "violated")
print("  distances:", " -> ".join(str(d) for d in walk.distances))
