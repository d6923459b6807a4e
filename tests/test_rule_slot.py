"""The compiled rule set kept between calls.

`rewrite._compile` keeps the last rule set's `_Compiled` (its table,
divisor masks and memo) in the module's slot, so calls on one `RuleSet`
in a row share it and a call with another rule set replaces it.  A memo
entry depends only on the rule set and the monomial, so no result may
depend on what the slot held before a call: every result here must equal
the same call made with the slot emptied first.
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


def fresh(call):
    """The call's result, made with an empty slot."""
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
    # A, B, A, B: each block shares one slot; the switch compiles anew.
    for rules in (A, B, A, B):
        for call in calls(rules):
            assert outcome(call) == fresh(lambda: outcome(call))


def test_alternating_calls_match_fresh_calls():
    for call_a, call_b in zip(calls(A), calls(B)):
        for call in (call_a, call_b, call_a, call_b):
            assert outcome(call) == fresh(lambda: outcome(call))


def test_calls_after_a_filled_memo_match_fresh_calls():
    # The memo already holds every monomial below degree 11.
    reducible_monomials(TruncatedSeries(N, {Monomial((i, d - i)): 1
                                            for d in range(11) for i in range(d + 1)}), A)
    filled = rewrite._slot
    assert filled is not None and filled.memo
    for call in calls(A):
        assert outcome(call) == fresh(lambda: outcome(call))


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


def test_threads_alternating_two_rule_sets_match_a_sequential_run():
    # More threads than cores, each switching rule sets every round, so
    # the slot changes hands inside the calls.
    rounds, workers = 8, 4
    jobs = [calls(A), calls(B)]
    sequential = [[fresh(lambda: outcome(c)) for c in calls_] for calls_ in jobs]
    results = [[] for _ in range(workers)]
    errors = []

    def worker(k):
        try:
            for r in range(rounds):
                # Even threads run A, B, A, ...; odd ones B, A, B, ...
                results[k].append([outcome(c) for c in jobs[(k + r) % 2]])
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
        assert results[k] == [sequential[(k + r) % 2] for r in range(rounds)]
