"""The compiled rule set kept between calls.

`rewrite._compile` keeps the last rule set's `_Compiled` (its table, and
the memo of its divisor index) in the module's slot, so calls on one
`RuleSet` in a row share it and a call with another rule set replaces
it.  The divisor index (masks and memo) is kept in `rewrite._indices`
under the variable count and the leading exponents in rule order, so
rule sets with the same leading monomials share it.  A memo entry
depends only on those and the monomial, so no result may depend on what
the slot or the indices held before a call: every result here must equal
the same call made with both emptied first.  Only the slot's memo grows
between compiles, so `_compile` checks that memo alone against
`rewrite._MEMO_LIMIT`: a call that finds it past the limit drops every
kept index.
"""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import psrewrite
from psrewrite import (
    Monomial,
    RuleSet,
    TruncatedSeries,
    cofactors,
    confluence_probe,
    congruence_test,
    falsify_standard_basis,
    normalize,
    normalize_random,
    parse_rules,
    parse_series,
    reducible_monomials,
)
from psrewrite import rewrite

N = 2
# Truncated bodies: the falsifier's random phase runs only when some rule
# is known below the precision alone.
A = parse_rules("x1 - x2^2 + O(5)\nx1 + x2^3 + O(6)", N)
B = parse_rules("x1*x2 - x1^3 + x2^4\nx2^2 + 2*x1^2*x2 + O(7)\nx1^2 - 3*x2^3", N)
F = parse_series("x1 + x2 + x1*x2 + 1/2*x2^3", N)
G = parse_series("x2^2 - x1^2*x2", N)
# A's leading monomials, x1 and x1, with other tails and precisions, and
# with its bodies scaled: both share A's divisor index.
A_TAILS = parse_rules("x1 + x1*x2 - 2*x2^4 + O(7)\n3*x1 - x2^2", N)
A_SCALED = parse_rules("-1/2*x1 + 1/2*x2^2 + O(5)\n2*x1 + 2*x2^3 + O(6)", N)
# B's rules in another order: other leading exponents in rule order.
B_PERMUTED = parse_rules("x1^2 - 3*x2^3\nx2^2 + 2*x1^2*x2 + O(7)\nx1*x2 - x1^3 + x2^4", N)


def calls(rules):
    """The seeded calls on one rule set: canonical runs (normalize, the
    cofactors replay, congruence, the falsifier's pairs) and random ones."""
    def replayed_cofactors():
        # `replace` drops the engine's cofactors, so this trace is replayed.
        return cofactors(dataclasses.replace(normalize(F, rules, 5)), rules)
    return [
        lambda: falsify_standard_basis(rules, 5, 6, 3),
        lambda: confluence_probe(F, rules, 5, [0, 1, 2, 7]),
        lambda: congruence_test(F, G, rules, 5),
        lambda: congruence_test(F, G, rules, 5, assume_standard_basis=True),
        lambda: normalize_random(F, rules, 5, 11),
        lambda: normalize_random(G, rules, 4, 12),
        replayed_cofactors,
        lambda: normalize(G, rules, 5),
    ]


def empty_slot():
    rewrite._slot = None
    rewrite._indices = {}


def fresh(call):
    """The call's result, made with an empty slot and no kept index."""
    empty_slot()
    return call()


def outcome(call):
    """The result and its repr, which also tells ints from Fractions."""
    result = call()
    return result, repr(result)


@pytest.fixture(autouse=True)
def _emptied():
    empty_slot()
    yield
    empty_slot()


def test_blocks_of_calls_match_fresh_calls():
    # Each block shares one slot; the switch compiles anew, and A's
    # variants take A's divisor index.
    for rules in (A, B, A_TAILS, B_PERMUTED, A_SCALED, A, B):
        for call in calls(rules):
            assert outcome(call) == fresh(lambda: outcome(call))


def test_alternating_calls_match_fresh_calls():
    for call_a, call_b, call_tails, call_scaled in zip(
            calls(A), calls(B), calls(A_TAILS), calls(A_SCALED)):
        for call in (call_a, call_b, call_tails, call_a, call_scaled, call_tails, call_b):
            assert outcome(call) == fresh(lambda: outcome(call))


def test_calls_after_a_filled_memo_match_fresh_calls():
    # Before each call the memo of A's leading monomials holds every
    # monomial below degree 11, and A's variants read it.
    below_11 = TruncatedSeries(N, {Monomial((i, d - i)): 1 for d in range(11) for i in range(d + 1)})
    for rules in (A, A_TAILS, A_SCALED):
        for call in calls(rules):
            expected = fresh(lambda: outcome(call))
            empty_slot()
            reducible_monomials(below_11, A)
            filled = rewrite._slot
            assert filled is not None and len(filled.memo) == 66
            assert outcome(call) == expected
            assert rewrite._slot.memo is filled.memo


def test_the_slot_keeps_only_the_last_rule_set():
    normalize(F, A, 5)
    compiled = rewrite._slot
    assert compiled.rules is A
    congruence_test(F, G, A, 5)
    assert rewrite._slot is compiled   # compiled once for both calls
    normalize(F, B, 5)
    assert rewrite._slot.rules is B and rewrite._slot is not compiled
    # An equal but distinct rule set is compiled anew: the slot tests identity.
    again = parse_rules("x1 - x2^2 + O(5)\nx1 + x2^3 + O(6)", N)
    assert again == A
    normalize(F, again, 5)
    assert rewrite._slot.rules is again
    assert rewrite._slot is not compiled and rewrite._slot.memo is compiled.memo


def test_equal_leading_monomials_share_one_index():
    compiled = [rewrite._compile(rules) for rules in (A, B, A_TAILS, B_PERMUTED, A_SCALED)]
    a, b, tails, permuted, scaled = compiled
    assert len({id(c) for c in compiled}) == 5   # each rule set has its own table
    assert a.memo is tails.memo is scaled.memo
    assert tails.table != a.table != scaled.table
    # The key holds the leading exponents in rule order.
    assert permuted.memo is not b.memo
    assert len(rewrite._indices) == 3


def test_empty_rule_sets_over_two_variable_counts_share_no_index():
    # Both have no leading exponents: the key holds the variable count.
    two, three = rewrite._compile(RuleSet([], 2)), rewrite._compile(RuleSet([], 3))
    assert two.memo is not three.memo
    assert set(rewrite._indices) == {(2, ()), (3, ())}
    assert reducible_monomials(parse_series("x1 + x2^3", 2), RuleSet([], 2)) == set()
    assert reducible_monomials(parse_series("x1*x3", 3), RuleSet([], 3)) == set()


def test_the_kept_indices_stay_at_most_the_cap():
    # One more set of leading monomials than the cap, twice over: a new
    # index that would pass the cap replaces the dict by one holding it.
    cap = rewrite._INDEX_LIMIT
    f = parse_series("x1 + x1^3", 1)
    sets = [parse_rules(f"x1^{k} - x1^{k + 1}", 1) for k in range(1, cap + 2)]
    expected = [fresh(lambda: outcome(lambda: normalize(f, rules, 6))) for rules in sets]
    empty_slot()
    sizes = []
    for rules, result in zip(sets + sets, expected + expected):
        assert outcome(lambda: normalize(f, rules, 6)) == result
        sizes.append(len(rewrite._indices))
    assert sizes == [*range(1, cap + 1), *range(1, cap + 1), 1, 2]


def test_the_kept_memo_stays_bounded(monkeypatch):
    # A call that finds the memo past the limit compiles anew before its
    # run starts; a run itself only adds to the memo it began with.
    limit = 20
    monkeypatch.setattr(rewrite, "_MEMO_LIMIT", limit)
    rules, f = parse_rules("x1 - x1^2", 1), parse_series("x1", 1)
    targets = [3, 9, 15, 6, 30, 4, 12, 25, 2, 18]
    results, dropped = [], 0
    for p in targets:
        before = rewrite._slot
        kept = before is not None and len(before.memo) <= limit
        results.append(outcome(lambda: normalize(f, rules, p)))
        after = rewrite._slot
        assert (after is before) == kept
        dropped += before is not None and not kept
        # A run of x1 below degree p tests the monomials x1^0..x1^p at most.
        assert len(after.memo) <= (limit if kept else 0) + p + 1
    assert dropped >= 2
    assert results == [fresh(lambda: outcome(lambda: normalize(f, rules, p))) for p in targets]


def test_each_memo_is_bounded_on_its_own(monkeypatch):
    # Two sets of leading monomials, x1 and x1^2, whose memos pass the
    # limit together long before either does alone: both are kept until a
    # run leaves one past it.  The next call, on the slot's rule set or on
    # another, finds the slot's memo past the limit and starts a new dict.
    limit = 20
    monkeypatch.setattr(rewrite, "_MEMO_LIMIT", limit)
    one, two = parse_rules("x1 - x1^2", 1), parse_rules("x1^2 - x1^3", 1)
    f = parse_series("x1 + x1^2", 1)
    steps = [(one, 12), (two, 12), (one, 18), (two, 19), (one, 30), (two, 9), (two, 25),
             (two, 5), (one, 26), (one, 8)]
    expected = [fresh(lambda: outcome(lambda: normalize(f, rules, p))) for rules, p in steps]
    empty_slot()
    together = dropped = 0
    for (rules, p), result in zip(steps, expected):
        over = rewrite._slot is not None and len(rewrite._slot.memo) > limit
        kept = rewrite._indices
        assert outcome(lambda: normalize(f, rules, p)) == result
        if over:
            dropped += 1
            # A run of f below degree p tests the monomials x1^0..x1^p at most.
            (index,) = rewrite._indices.values()
            assert len(index.memo) <= p + 1
        else:
            assert all(rewrite._indices.get(key) is index for key, index in kept.items())
            memos = [len(index.memo) for index in rewrite._indices.values()]
            together += sum(memos) > limit >= max(memos)
    assert together == 3 and dropped == 3


def test_a_failed_compile_leaves_the_slot():
    normalize(F, A, 5)
    slot = rewrite._slot
    with pytest.raises(TypeError):
        normalize(F, None, 5)
    assert rewrite._slot is slot


def first_call_message(code):
    """The TypeError message of `normalize(S("x2"), None, 4)` as the first
    call of a fresh interpreter, after running `code`."""
    env = dict(os.environ, PYTHONPATH=str(Path(psrewrite.__file__).resolve().parent.parent))
    script = ("from psrewrite import normalize, parse_series, parse_rules\n" + code + "\n"
              "try:\n"
              "    normalize(parse_series('x2', 2), None, 4)\n"
              "except TypeError as e:\n"
              "    print(e)\n")
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_a_non_rule_set_is_rejected_on_the_first_and_a_cached_call():
    expected = "rule set None is not a RuleSet"
    assert first_call_message("") == expected
    assert first_call_message("normalize(parse_series('x2', 2), "
                              "parse_rules('x1 - x2^2', 2), 4)") == expected
    for rules in (None, None):   # the slot starts empty, then holds A
        with pytest.raises(TypeError, match=f"^{expected}$"):
            normalize(parse_series("x2", N), rules, 4)
        normalize(F, A, 5)


@pytest.mark.parametrize("memo_limit", [rewrite._MEMO_LIMIT, 10])
def test_threads_rotating_four_rule_sets_match_a_sequential_run(monkeypatch, memo_limit):
    # More threads than cores, each switching rule sets every round, so
    # the slot changes hands inside the calls; three of the sets share
    # one divisor index.  Under the low limit the kept indices are
    # dropped while other threads run on them.
    monkeypatch.setattr(rewrite, "_MEMO_LIMIT", memo_limit)
    rounds, workers = 8, 4
    jobs = [calls(A), calls(B), calls(A_TAILS), calls(A_SCALED)]
    sequential = [[fresh(lambda: outcome(c)) for c in calls_] for calls_ in jobs]
    last = calls(A)[-1]
    fresh(last)
    added = len(rewrite._slot.memo)   # the entries one run of `last` adds at most
    empty_slot()
    results = [[] for _ in range(workers)]
    errors = []

    def worker(k):
        try:
            for r in range(rounds):
                # Thread k runs the sets k, k + 1, ... in turn, modulo 4.
                results[k].append([outcome(c) for c in jobs[(k + r) % 4]])
        except Exception as e:   # reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for k in range(workers):
        assert results[k] == [sequential[(k + r) % 4] for r in range(rounds)]
    # One more call, on one thread: the slot's memo is checked as it
    # compiles, so every kept memo holds at most the limit plus what the
    # call adds, except one grown by a call that ran while another thread
    # moved the slot, which stays until its rule set is next compiled and
    # left, or until the dict is replaced.
    slot = rewrite._slot
    grown = [index for index in rewrite._indices.values()
             if index.memo is not slot.memo and len(index.memo) > memo_limit]
    last()
    assert all(len(index.memo) <= memo_limit + added
               for index in rewrite._indices.values() if index not in grown)
