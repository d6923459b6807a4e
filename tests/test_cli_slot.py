"""The parsed input file kept between `run_command` calls.

`cli._load` reads the file on every call and hands its bytes, the parser
and the parser's extra arguments to `cli._parsed`, a one-entry
`functools.lru_cache`: the file is parsed again only when the bytes or the
parser and its arguments differ, so consecutive calls on one unchanged
file get one `RuleSet`, and `rewrite._compile` then compiles it once.
Content alone decides a hit: no output may depend on what either slot,
or `rewrite._indices`, held before a call, so every output here must
equal the same call made with all three emptied first.
"""

import os
import sys
import threading

import pytest

from psrewrite import cli, rewrite
from psrewrite.cli import SessionConfig, run_command

RULES = {"A": "x1 - x2^2 + O(5)\nx1 + x2^3 + O(6)\n",
         "B": "x1*x2 - x1^3 + x2^4\nx2^2 + 2*x1^2*x2 + O(7)\nx1^2 - 3*x2^3\n"}
# Each system with a conversion along its edges.
SYSTEMS = {"A": ("n=4\n1 -> 0\n1 -> 2\n3 -> 2\n3 -> 0\n2 -> 0\n",
                  "0 <- 1 -> 2 <- 3 -> 0"),
           "B": ("n=5\n1 -> 0\n1 -> 2\n2 -> 0\n3 -> 2\n4 -> 3\n",
                 "0 <- 2 <- 3 <- 4 -> 3 -> 2 -> 0")}
F, G = "x1 + x2 + x1*x2 + 1/2*x2^3", "x2^2 - x1^2*x2"
RULE_COMMANDS = [
    ("nf", {"series": F}),
    ("cofactors", {"series": G}),
    ("member", {"series": F, "assume_sb": False}),
    ("congruent", {"series": F, "series2": G, "assume_sb": True}),
    ("check-sb", {"trials": 4}),
    ("probe", {"series": F, "strategies": 3}),
]


@pytest.fixture
def files(tmp_path):
    """name -> (rules path, system path, conversion) for files A and B."""
    out = {}
    for name in RULES:
        rules, system = tmp_path / f"rules_{name}.txt", tmp_path / f"system_{name}.txt"
        rules.write_text(RULES[name], encoding="utf-8")
        system.write_text(SYSTEMS[name][0], encoding="utf-8")
        out[name] = (str(rules), str(system), SYSTEMS[name][1])
    return out


def config(rules_path, n=2):
    return SessionConfig(n=n, precision=5, seed=3, rules_path=rules_path, report="kv")


def calls(file):
    """The nine commands, each as a call on one file's rules and system."""
    rules, system, conversion = file
    cfg = config(rules)
    out = [lambda command=command, args=args: run_command(cfg, command, args)
           for command, args in RULE_COMMANDS]
    out.append(lambda: run_command(cfg, "delta", {"series": F, "series2": G}))
    out.append(lambda: run_command(cfg, "ars", {"action": "check", "system": system}))
    out.append(lambda: run_command(cfg, "ars", {"action": "valleys", "system": system,
                                                "conversion": conversion}))
    return out


def empty_slots():
    cli._parsed.cache_clear()
    rewrite._slot = None
    rewrite._indices = {}


def fresh(call):
    """The call's output, made with both slots and the kept indices empty."""
    empty_slots()
    return call()


def run_in_a_row(sequence):
    """The outputs of the calls made one after another from empty slots,
    each paired with the output of the same call made fresh."""
    expected = [fresh(call) for call in sequence]
    empty_slots()
    return [call() for call in sequence], expected


@pytest.fixture(autouse=True)
def _emptied():
    empty_slots()
    yield
    empty_slots()


def test_alternating_files_match_fresh_calls(files):
    for call_a, call_b in zip(calls(files["A"]), calls(files["B"])):
        got, expected = run_in_a_row([call_a, call_b, call_a, call_b])
        assert got == expected
        assert all(status == 0 for status, _text in got), got
        assert got[0] != got[1] or got[0][1].startswith("command=delta\n")


def test_rounds_of_nine_commands_match_fresh_calls(files):
    # As a batch client sends them: each round's six rule commands share
    # one parse, then the system file takes the slot.
    got, expected = run_in_a_row([call for name in "ABAB" for call in calls(files[name])])
    assert got == expected


def test_a_file_rewritten_in_place_is_parsed_again(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x1 - x2^2\n", encoding="utf-8")
    stat = os.stat(path)
    nf = lambda: run_command(config(str(path)), "nf", {"series": "x1"})   # noqa: E731
    before = nf()
    # Same size, and the old modification time put back.
    path.write_text("x1 + x2^2\n", encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    after = nf()
    assert after != before and after == fresh(nf)
    assert "normal_form=x2^2\n" in before[1] and "normal_form=-x2^2\n" in after[1]


def test_the_same_bytes_under_another_n_are_parsed_again(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x2 - x2^2\n", encoding="utf-8")
    sequence = [lambda n=n: run_command(config(str(path), n), "nf", {"series": "x1"})
                for n in (2, 3, 1, 2)]
    got, expected = run_in_a_row(sequence)
    assert got == expected
    assert got[2] == (1, f"error: {path}: line 1, column 1: unknown variable x2 (have x1..x1)\n")
    # The slot holds n=2's rule set now: each call hits only when n is
    # the one before it.
    for n, parsed in ((2, 0), (3, 1), (3, 0), (2, 1)):
        before = cli._parsed.cache_info()
        run_command(config(str(path), n), "nf", {"series": "x1"})
        after = cli._parsed.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (parsed, 1 - parsed)


def test_a_parse_error_is_never_kept(tmp_path, files):
    bad, other = tmp_path / "bad.txt", tmp_path / "other.txt"
    bad.write_text("x1\nx2 + 1/*x1\n", encoding="utf-8")
    other.write_text(bad.read_text(encoding="utf-8"), encoding="utf-8")
    nf = lambda path: run_command(config(str(path)), "nf", {"series": "x1"})   # noqa: E731
    message = f"error: {bad}: line 2, column 8: expected a number\n"
    assert nf(bad) == (1, message)
    assert nf(files["A"][0])[0] == 0
    before = cli._parsed.cache_info()
    assert nf(bad) == (1, message)
    # The failed parse is a miss that left file A in the slot.
    assert nf(files["A"][0])[0] == 0
    after = cli._parsed.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert after.currsize == 1
    # The same bad bytes under another path name that path.
    assert nf(other) == (1, message.replace(str(bad), str(other)))


class CountingCompiled(rewrite._Compiled):
    built = 0

    def __init__(self, *args):
        CountingCompiled.built += 1
        super().__init__(*args)


def test_one_compile_per_run_of_calls_on_one_file(monkeypatch, files):
    monkeypatch.setattr(rewrite, "_Compiled", CountingCompiled)
    parses = []
    parse_rules = cli.parse_rules

    def counting_parse(text, n):
        parses.append(n)
        return parse_rules(text, n)
    monkeypatch.setattr(cli, "parse_rules", counting_parse)

    def run_of(name):
        cfg = config(files[name][0])
        for command, args in RULE_COMMANDS:
            assert run_command(cfg, command, args)[0] == 0

    # A run continues across blocks on one file and ends at another file,
    # the system file included: the slot holds one file.
    for name in "ABBA":
        run_of(name)
    assert (CountingCompiled.built, len(parses)) == (3, 3)
    calls(files["A"])[-2]()   # ars check on system A
    run_of("A")
    assert (CountingCompiled.built, len(parses)) == (4, 4)


def test_threads_alternating_two_files_match_a_sequential_run(files):
    rounds, workers = 4, 4
    jobs = [calls(files["A"]), calls(files["B"])]
    sequential = [[fresh(call) for call in job] for job in jobs]
    empty_slots()
    results = [[] for _ in range(workers)]
    errors = []

    def worker(k):
        try:
            for r in range(rounds):
                # Even threads run A, B, A, ...; odd ones B, A, B, ...
                results[k].append([call() for call in jobs[(k + r) % 2]])
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
