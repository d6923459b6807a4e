"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import random
import time
from fractions import Fraction

import naive_reduction as naive
from helpers import combination, deglex_key, random_instance, random_polynomial, support

from psrewrite import (
    Conversion,
    FiniteARS,
    Member,
    Monomial,
    NotMember,
    RuleSet,
    TruncatedSeries,
    check_properties,
    cofactors,
    confluence_probe,
    congruence_test,
    delta,
    eliminate_valleys,
    falsify_standard_basis,
    normal_forms,
    normalize,
    parse_series,
    reduce_step,
    reducible_monomials,
    validate_conversion,
)
from psrewrite.ars import BACKWARD, FORWARD
from psrewrite.cli import SessionConfig, run_command

N = 2
Y = Monomial((0, 1))


def S(text, n=N):
    return parse_series(text, n)


def rules_of(*texts, n=N):
    return RuleSet([parse_series(t, n) for t in texts], n)


GEOMETRIC = rules_of("x2 - x2^2")
PAIR = rules_of("x1 + x2", "x1 - x2")


def ok(criterion, message):
    print(f"criterion {criterion}: PASS - {message}")


def test_criterion_1_geometric_series_division():
    trace = normalize(S("x2"), GEOMETRIC, 8)
    assert len(trace.steps) == 7
    assert trace.end == TruncatedSeries(N, {}, 8)
    assert trace.end_precision == 8
    (q1,) = cofactors(trace, GEOMETRIC)
    assert q1 == S("1 + x2 + x2^2 + x2^3 + x2^4 + x2^5 + x2^6")
    # independent oracle: the telescoping product
    assert q1.multiply(GEOMETRIC.rule(1).body) == S("x2 - x2^8")
    ok(1, "7 steps to 0 + O(8), cofactor 1 + y + ... + y^6 verified by product")


def _traces_for_identity_suite():
    rng = random.Random(2026_08)
    out = []
    while len(out) < 500:
        f, rules, p = random_instance(rng, exact_input=False)
        trace = normalize(f, rules, p)
        out.append((trace, rules))
    return out


def test_criterion_2_cofactor_identity_suite():
    failures = 0
    suite = _traces_for_identity_suite()
    for trace, rules in suite:
        qs = cofactors(trace, rules)
        residue = trace.start.subtract(trace.end).subtract(combination(qs, rules))
        v = residue.valuation()
        if not (v is None or v >= trace.end_precision):
            failures += 1
    assert failures == 0
    ok(2, f"start - end - sum(q_i s_i) vanishes below end precision on {len(suite)} instances")


def test_criterion_3_strictly_increasing_reduced_monomials():
    failures = 0
    suite = _traces_for_identity_suite()
    for trace, rules in suite:
        ms = [s.monomial for s in trace.steps]
        if not all(deglex_key(a) < deglex_key(b) for a, b in zip(ms, ms[1:])):
            failures += 1
    assert failures == 0
    ok(3, f"reduced monomials strictly increase in all {len(suite)} traces")


def test_criterion_4_attractivity_of_normal_forms():
    rng = random.Random(2026_04)
    done = 0
    while done < 500:
        f, rules, p = random_instance(rng)
        candidates = sorted(reducible_monomials(f, rules), key=deglex_key)
        if not candidates:
            continue
        alpha = normalize(f, rules, p).end
        M = rng.choice(candidates)
        i = rng.choice(naive.dividing_rules(rules, M))
        g, _ = reduce_step(f, rules, M, i)
        assert delta(g, alpha)[0] <= delta(f, alpha)[0]
        done += 1
    ok(4, f"delta(g, alpha) <= delta(f, alpha) on {done} one-step reductions")


def test_criterion_5_distance_equals_leading_degree():
    rng = random.Random(2026_05)
    done = 0
    while done < 500:
        n = rng.randint(1, 3)
        f = random_polynomial(rng, n, max_degree=5)
        g = random_polynomial(rng, n, max_degree=5)
        if f == g:
            continue
        lm, _ = f.subtract(g).leading()
        assert delta(f, g) == (Fraction(1, 2 ** lm.degree), False)
        done += 1
    ok(5, f"delta(f, g) = 2^(-deg(LM(f-g))) exactly on {done} pairs")


def test_criterion_6_standard_basis_falsifier(tmp_path):
    cert = falsify_standard_basis(PAIR, precision=4, trials=1000, seed=6)
    assert cert is not None and cert.phase == "pairwise"
    for m in support(cert.normal_form):
        assert not naive.dividing_rules(PAIR, m)

    assert falsify_standard_basis(GEOMETRIC, precision=5, trials=1000, seed=6) is None
    rng = random.Random(2026_06)
    for _ in range(3):
        body = random_polynomial(rng, 2, max_degree=3, zero_ok=False)
        single = RuleSet([body], 2)
        assert falsify_standard_basis(single, precision=4, trials=1000, seed=6) is None

    # the same through the command line
    pair = tmp_path / "pair.txt"
    pair.write_text("x1 + x2\nx1 - x2\n")
    geo = tmp_path / "geo.txt"
    geo.write_text("x2 - x2^2\n")
    cfg = SessionConfig(n=2, precision=4, seed=6, rules_path=str(pair), report="kv")
    status, text = run_command(cfg, "check-sb", {"trials": 1000})
    assert status == 0 and "certificate=found\n" in text and "phase=pairwise\n" in text
    cfg = SessionConfig(n=2, precision=5, seed=6, rules_path=str(geo), report="kv")
    status, text = run_command(cfg, "check-sb", {"trials": 1000})
    assert status == 0 and "certificate=none\n" in text
    ok(6, "pairwise certificate on {x+y, x-y}; no certificate for single-rule sets in 1000 trials")


def test_criterion_7_confluence_probe():
    rng = random.Random(2026_07)
    for _ in range(5):
        body = random_polynomial(rng, 2, max_degree=3, zero_ok=False)
        single = RuleSet([body], 2)
        f = random_polynomial(rng, 2, max_degree=4)
        report = confluence_probe(f, single, 5, list(range(5)))
        assert report.max_delta <= Fraction(1, 2 ** 5)
        assert not report.divergence_witnesses()

    report = confluence_probe(S("x1 + x2"), PAIR, 5, list(range(8)))
    witnesses = report.divergence_witnesses()
    assert witnesses
    assert any(d == Fraction(1, 2) for _a, _b, d in witnesses)
    ok(7, "single rules agree within 2^-p over 5 strategies; {x+y, x-y} diverges at delta = 1/2")


def test_criterion_8_congruence_and_membership():
    zero = TruncatedSeries.zero(N)
    verdict = congruence_test(S("x2"), zero, GEOMETRIC, 10, assume_standard_basis=True)
    assert isinstance(verdict, Member)
    geometric_sum = TruncatedSeries(N, {Monomial((0, k)): 1 for k in range(9)})
    assert verdict.cofactors[0] == geometric_sum
    verdict = congruence_test(S("1"), zero, GEOMETRIC, 10, assume_standard_basis=True)
    assert isinstance(verdict, NotMember)
    assert verdict.witness == S("1")
    ok(8, "y is congruent to 0 (member with cofactor), 1 is not (witness 1)")


def _all_systems(size):
    slots = [(a, b) for a in range(size) for b in range(size)]
    for mask in range(2 ** len(slots)):
        yield FiniteARS(size, (e for k, e in enumerate(slots) if mask >> k & 1))


def _assert_implications(props):
    assert not props.unique_nf_property or props.unique_nf_reached
    assert not props.nf_property or props.unique_nf_property
    if props.normalising:
        assert not props.unique_nf_property or props.nf_property
        assert not props.unique_nf_reached or props.unique_nf_property


def _all_conversions(sys, max_len):
    nfs = normal_forms(sys)
    hops = {a: [] for a in range(sys.size)}
    for x, y in sys.edges:
        hops[x].append((y, FORWARD))
        hops[y].append((x, BACKWARD))

    def walk(start, at, steps):
        if at in nfs:
            yield Conversion(start, tuple(steps))
        if len(steps) == max_len:
            return
        for nxt in hops[at]:
            yield from walk(start, nxt[0], steps + [nxt])

    for start in sorted(nfs):
        yield from walk(start, start, [])


def test_criterion_9_finite_system_propositions():
    t0 = time.time()

    checked_systems = 0
    eliminated = 0
    for size in (0, 1, 2, 3):
        for sys in _all_systems(size):
            props = check_properties(sys)
            _assert_implications(props)
            checked_systems += 1
            if props.normalising and props.unique_nf_reached:
                for conv in _all_conversions(sys, max_len=4):
                    out = eliminate_valleys(sys, conv)
                    assert out.valley_indices() == []
                    assert out.start == out.end == conv.start
                    validate_conversion(sys, out)
                    eliminated += 1

    rng = random.Random(2026_09)
    slots = [(a, b) for a in range(4) for b in range(4)]
    sampled = 100_000
    for _ in range(sampled):
        mask = rng.getrandbits(16)
        sys = FiniteARS(4, (e for k, e in enumerate(slots) if mask >> k & 1))
        _assert_implications(check_properties(sys))

    rng = random.Random(2026_10)
    sampled_valleys = 0
    while sampled_valleys < 300:
        mask = rng.getrandbits(16)
        sys = FiniteARS(4, (e for k, e in enumerate(slots) if mask >> k & 1))
        props = check_properties(sys)
        if not (props.normalising and props.unique_nf_reached):
            continue
        for conv in _all_conversions(sys, max_len=4):
            out = eliminate_valleys(sys, conv)
            assert out.valley_indices() == [] and out.start == out.end
            sampled_valleys += 1
            if sampled_valleys >= 300:
                break

    elapsed = time.time() - t0
    assert elapsed < 300
    ok(9, f"implications on {checked_systems} small + {sampled} size-4 systems; "
          f"{eliminated} + {sampled_valleys} conversions made valley-free in {elapsed:.1f}s")


NF_GOLDEN = (
    "command=nf\n"
    "normal_form=O(5)\n"
    "steps=4\n"
    "end_precision=5\n"
    "step_1=M=x2 rule=1 m=1 c=1\n"
    "step_2=M=x2^2 rule=1 m=x2 c=1\n"
    "step_3=M=x2^3 rule=1 m=x2^2 c=1\n"
    "step_4=M=x2^4 rule=1 m=x2^3 c=1\n"
)
DELTA_GOLDEN = (
    "command=delta\n"
    "delta=1/2\n"
    "upper_bound_only=false\n"
)
CHECK_SB_GOLDEN = (
    "command=check-sb\n"
    "certificate=found\n"
    "phase=pairwise\n"
    "trial=1\n"
    "combination=2*x1\n"
    "normal_form=2*x1 + O(4)\n"
    "cofactor_1=1\n"
    "cofactor_2=1\n"
)


def test_criterion_10_cli_golden_files(tmp_path):
    geo = tmp_path / "geometric.txt"
    geo.write_text("x2 - x2^2\n")
    pair = tmp_path / "pair.txt"
    pair.write_text("x1 + x2\nx1 - x2\n")

    runs = []
    for _ in range(2):
        cfg = SessionConfig(n=2, precision=5, rules_path=str(geo), report="kv")
        runs.append(run_command(cfg, "nf", {"series": "x2"}))
        cfg = SessionConfig(n=2, precision=4, report="kv")
        runs.append(run_command(cfg, "delta", {"series": "x1", "series2": "0"}))
        cfg = SessionConfig(n=2, precision=4, seed=42, rules_path=str(pair), report="kv")
        runs.append(run_command(cfg, "check-sb", {"trials": 25}))

    assert runs[:3] == runs[3:]
    assert runs[0] == (0, NF_GOLDEN)
    assert runs[1] == (0, DELTA_GOLDEN)
    assert runs[2] == (0, CHECK_SB_GOLDEN)
    ok(10, "nf/delta/check-sb kv reports byte-identical across runs and equal to goldens")
