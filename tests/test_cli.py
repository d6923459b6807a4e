import re
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from psrewrite.cli import COMMANDS, SessionConfig, main, run_command


@pytest.fixture
def geometric_rules(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x2 - x2^2\n")
    return str(path)


@pytest.fixture
def one_variable_rule(tmp_path):
    path = tmp_path / "rule.txt"
    path.write_text("x1 - x1^2\n")
    return str(path)


@pytest.fixture
def truncated_rule(tmp_path):
    # At --vars 1 --prec 4 every random trial is untestable: the rule is
    # known below degree 3 only, so check-sb runs all its trials.
    path = tmp_path / "truncated.txt"
    path.write_text("x1 - x1^2 + O(3)\n")
    return str(path)


@pytest.fixture
def probe_rules(tmp_path):
    path = tmp_path / "probe.txt"
    path.write_text("x1 - x2^2\nx2 + x1^3\n")
    return str(path)


@pytest.fixture
def pair_rules(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x1 + x2\nx1 - x2\n")
    return str(path)


def kv(n=2, prec=4, seed=None, rules=None):
    return SessionConfig(n=n, precision=prec, seed=seed, rules_path=rules, report="kv")


class TestRunCommand:
    def test_nf(self, geometric_rules):
        status, text = run_command(kv(prec=5, rules=geometric_rules), "nf",
                                   {"series": "x2"})
        assert status == 0
        assert text == (
            "command=nf\n"
            "normal_form=O(5)\n"
            "steps=4\n"
            "end_precision=5\n"
            "step_1=M=x2 rule=1 m=1 c=1\n"
            "step_2=M=x2^2 rule=1 m=x2 c=1\n"
            "step_3=M=x2^3 rule=1 m=x2^2 c=1\n"
            "step_4=M=x2^4 rule=1 m=x2^3 c=1\n"
        )

    def test_delta(self):
        status, text = run_command(kv(), "delta", {"series": "x1", "series2": "0"})
        assert status == 0
        assert "delta=1/2\n" in text and "upper_bound_only=false\n" in text

    def test_cofactors(self, geometric_rules):
        status, text = run_command(kv(prec=5, rules=geometric_rules), "cofactors",
                                   {"series": "x2"})
        assert status == 0
        assert "cofactor_1=1 + x2 + x2^2 + x2^3\n" in text

    def test_member(self, geometric_rules):
        status, text = run_command(kv(prec=6, rules=geometric_rules), "member",
                                   {"series": "x2", "assume_sb": True})
        assert status == 0
        assert "verdict=member\n" in text
        status, text = run_command(kv(prec=6, rules=geometric_rules), "member",
                                   {"series": "1", "assume_sb": True})
        assert "verdict=not_member\n" in text and "witness=1\n" in text

    def test_congruent_unknown_without_assumption(self, geometric_rules):
        status, text = run_command(kv(prec=5, rules=geometric_rules), "congruent",
                                   {"series": "1", "series2": "0"})
        assert status == 0
        assert "verdict=unknown_at_precision\n" in text

    def test_check_sb_certificate(self, pair_rules):
        status, text = run_command(kv(rules=pair_rules, seed=0), "check-sb",
                                   {"trials": 10})
        assert status == 0
        assert "certificate=found\n" in text
        assert "phase=pairwise\n" in text
        assert "combination=2*x1\n" in text

    def test_check_sb_requires_seed(self, pair_rules):
        status, text = run_command(kv(rules=pair_rules), "check-sb", {"trials": 10})
        assert (status, text) == (1, "error: randomized commands need an explicit --seed\n")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_check_sb_rejects_trials_below_one(self, trials):
        # checked before the rule file, which here does not exist
        status, text = run_command(kv(rules="missing.txt", seed=0), "check-sb",
                                   {"trials": trials})
        assert (status, text) == (1, "error: --trials must be >= 1\n")

    def test_check_sb_takes_at_most_10000_trials(self, truncated_rule):
        cfg = kv(n=1, seed=1, rules=truncated_rule)
        status, text = run_command(cfg, "check-sb", {"trials": 10_000})
        assert (status, text) == (0, "command=check-sb\ncertificate=none\n")
        # checked before the rule file, which here does not exist
        status, text = run_command(kv(rules="missing.txt", seed=0), "check-sb",
                                   {"trials": 10_001})
        assert (status, text) == (1, "error: --trials must be <= 10000\n")

    @pytest.mark.parametrize("strategies", [0, -1])
    def test_probe_rejects_strategies_below_one(self, strategies):
        status, text = run_command(kv(rules="missing.txt", seed=0), "probe",
                                   {"series": "x1", "strategies": strategies})
        assert (status, text) == (1, "error: --strategies must be >= 1\n")

    def test_probe_takes_at_most_100_strategies(self, probe_rules):
        cfg = kv(prec=6, seed=1, rules=probe_rules)
        status, text = run_command(cfg, "probe", {"series": "x1 + x2", "strategies": 100})
        # five rows before the pairs, then one row per pair of strategies
        assert status == 0 and "strategies=100\n" in text
        assert text.count("\n") == 5 + 100 * 99 // 2
        # checked before the rule file, which here does not exist
        status, text = run_command(kv(rules="missing.txt", seed=0), "probe",
                                   {"series": "x1", "strategies": 101})
        assert (status, text) == (1, "error: --strategies must be <= 100\n")

    def test_probe_divergence(self, pair_rules):
        status, text = run_command(kv(prec=5, rules=pair_rules, seed=0), "probe",
                                   {"series": "x1 + x2", "strategies": 8})
        assert status == 0
        assert "max_delta=1/2\n" in text

    def test_parse_error_is_reported(self, geometric_rules):
        status, text = run_command(kv(rules=geometric_rules), "nf", {"series": "x9"})
        assert status == 1 and "unknown variable" in text

    def test_rule_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("x1\nx2 + 1/*x1\n")
        status, text = run_command(kv(rules=str(path)), "nf", {"series": "x1"})
        assert status == 1
        assert text == f"error: {path}: line 2, column 8: expected a number\n"

    def test_zero_rule_names_the_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("x2 - x2^2\n\n0\n")
        status, text = run_command(kv(rules=str(path)), "nf", {"series": "x1"})
        assert status == 1
        assert text.startswith(f"error: {path}: line 3, column 1: ")

    @pytest.mark.parametrize("text, column", [
        ("x1^" + "9" * 5000, 4), ("x" + "9" * 5000, 2), ("1" * 5000 + "*x1", 1)])
    def test_long_literal_is_a_parse_error(self, text, column):
        status, out = run_command(kv(n=1), "delta", {"series": text, "series2": "0"})
        assert status == 1
        assert out == f"error: line 1, column {column}: number with 5000 digits is too long\n"

    def test_missing_rules(self):
        status, text = run_command(kv(), "nf", {"series": "x1"})
        assert (status, text) == (1, "error: this command needs --rules <path>\n")

    def test_unknown_command(self):
        status, text = run_command(kv(), "frobnicate", {})
        assert status == 1


FULL_ARGS = {"series": "x1", "series2": "x2", "action": "check"}


def positionals(command):
    return [dest for dest, flags, _kwargs in COMMANDS[command][1]
            if not flags[0].startswith("-")]


class TestArgumentChecks:
    """A missing or mistyped argument is one `error:` line, never a Python error."""

    @pytest.fixture
    def cfg(self, geometric_rules):
        return kv(rules=geometric_rules, seed=0)

    @pytest.mark.parametrize("command, dropped", [
        (command, dest) for command in COMMANDS for dest in positionals(command)])
    def test_missing_positional(self, cfg, tmp_path, command, dropped):
        path = tmp_path / "sys.txt"
        path.write_text("n=2\n0 -> 1\n")
        args = dict(FULL_ARGS, system=str(path))
        del args[dropped]
        status, text = run_command(cfg, command, args)
        assert status == 1
        assert text.startswith("error: ") and text.count("error:") == 1
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == f"error: {command} needs <{dropped}>\n"

    @pytest.mark.parametrize("value", ["3", 1.5, None, True])
    @pytest.mark.parametrize("command, option", [("check-sb", "trials"),
                                                 ("probe", "strategies")])
    def test_count_must_be_an_integer(self, cfg, command, option, value):
        status, text = run_command(cfg, command, {"series": "x1", option: value})
        assert (status, text) == (1, f"error: --{option} must be an integer\n")

    @pytest.mark.parametrize("field, value", [("n", "2"), ("n", 2.0), ("precision", 1.5),
                                              ("precision", True), ("seed", "x"),
                                              ("seed", 1.5), ("seed", False)])
    def test_session_config_rejects_a_non_int(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            SessionConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("n", 0, "need at least one variable"), ("n", 1001, "at most 1000 variables, got 1001"),
        ("precision", 0, "precision must be >= 1"),
        ("report", "json", "unknown report mode 'json'")])
    def test_session_config_rejects_a_bad_value(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SessionConfig(**{field: value})

    @pytest.mark.parametrize("value", [3, 1.5, b"rules.txt"])
    def test_session_config_rejects_a_non_path(self, value):
        with pytest.raises(ValueError, match="^rules_path must be a str or os.PathLike"):
            SessionConfig(rules_path=value)

    @pytest.mark.parametrize("config, command, args, message", [
        (None, "delta", {"series": "x1", "series2": "x2"}, "config None is not a SessionConfig"),
        ({"n": 2}, "nf", {"series": "x1"}, r"config \{'n': 2\} is not a SessionConfig"),
        ("cfg", ["nf"], {}, r"command \['nf'\] is not a str"),
        ("cfg", None, {}, "command None is not a str"),
        ("cfg", "nf", None, "args None is not a dict"),
        ("cfg", "nf", [("series", "x1")], r"args \[\('series', 'x1'\)\] is not a dict"),
    ], ids=["no-config", "dict-config", "list-command", "no-command", "no-args", "list-args"])
    def test_run_command_rejects_a_caller_bug(self, cfg, config, command, args, message):
        # Not a report line: a malformed call is the caller's bug, and it
        # is caught before any argument is read.
        with pytest.raises(TypeError, match=f"^{message}$"):
            run_command(cfg if config == "cfg" else config, command, args)

    def test_session_config_cannot_be_changed_past_its_checks(self):
        from dataclasses import FrozenInstanceError
        cfg = SessionConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.rules_path = 3

    def test_rules_path_may_be_path_like(self, geometric_rules):
        from pathlib import Path
        as_path = SessionConfig(rules_path=Path(geometric_rules), report="kv")
        assert run_command(as_path, "nf", {"series": "x2"}) == run_command(
            kv(rules=geometric_rules), "nf", {"series": "x2"})

    def test_a_file_descriptor_is_not_a_path(self, tmp_path):
        # An int would reach open() as a descriptor, and the command would
        # read the caller's file and close it.
        log = tmp_path / "log.txt"
        with open(log, "w", encoding="utf-8") as fh:
            fd = fh.fileno()
            with pytest.raises(ValueError, match="^rules_path must be"):
                SessionConfig(rules_path=fd)
            status, text = run_command(kv(), "ars", {"action": "check", "system": fd})
            assert (status, text) == (1, "error: --system must be a string\n")
            fh.write("still open\n")
        assert log.read_text(encoding="utf-8") == "still open\n"

    @pytest.mark.parametrize("command, dest", [("nf", "series"), ("congruent", "series2"),
                                               ("delta", "series"), ("delta", "series2")])
    @pytest.mark.parametrize("value", [None, 7, b"x1"])
    def test_series_must_be_text(self, cfg, command, dest, value):
        args = dict(FULL_ARGS, **{dest: value})
        status, text = run_command(cfg, command, args)
        assert (status, text) == (1, f"error: <{dest}> must be a string\n")

    @pytest.mark.parametrize("dest, flag", [("action", "<action>"), ("system", "--system"),
                                            ("conversion", "--conversion")])
    def test_ars_arguments_must_be_text(self, cfg, tmp_path, dest, flag):
        path = tmp_path / "sys.txt"
        path.write_text("n=2\n0 -> 1\n")
        args = {"action": "valleys", "system": str(path), "conversion": "1", dest: 0}
        status, text = run_command(cfg, "ars", args)
        assert (status, text) == (1, f"error: {flag} must be a string\n")

    @pytest.mark.parametrize("value", ["no", 0, None])
    @pytest.mark.parametrize("command", ["member", "congruent"])
    def test_assume_sb_must_be_a_bool(self, cfg, command, value):
        status, text = run_command(cfg, command, dict(FULL_ARGS, assume_sb=value))
        assert (status, text) == (1, "error: --assume-sb must be true or false\n")

    def test_undeclared_keys_are_ignored(self, cfg):
        with_extra = run_command(cfg, "member", {"series": "x2", "series2": None,
                                                 "trials": "x"})
        assert with_extra == run_command(cfg, "member", {"series": "x2"})
        assert with_extra[0] == 0

    @pytest.mark.parametrize("command, option, default", [("check-sb", "trials", 100),
                                                          ("probe", "strategies", 5)])
    def test_a_missing_count_takes_its_declared_default(self, cfg, command, option, default):
        args = {"series": "x2"}
        assert run_command(cfg, command, args) == run_command(
            cfg, command, dict(args, **{option: default}))


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """(rules path, system path) of two small valid files."""
    root = tmp_path_factory.mktemp("inputs")
    rules, system = root / "rules.txt", root / "system.txt"
    rules.write_text("x1 + x2\nx1 - x2\n", encoding="utf-8")
    system.write_text("n=3\n1 -> 0\n1 -> 2\n", encoding="utf-8")
    return str(rules), str(system)


# Small values of every kind a caller might pass; each count is at most 3.
SHORT_TEXT = st.one_of(st.text(alphabet="x12+-*/^O() <>", max_size=6),
                       st.sampled_from(["x1", "x2 - x1^2", "check", "valleys", "1 -> 0"]))
VALUES = st.one_of(st.integers(-2, 3), SHORT_TEXT, st.booleans(), st.none(),
                   st.floats(-3, 3), st.lists(st.integers(-2, 3), max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_declared_arguments_give_one_report(input_files, data):
    # Each declared argument is left out or given a value of any kind: the
    # call returns a report or exactly one `error:` line, and never raises.
    # A positional that is missing, or that comes first and is not a str,
    # is the error, before any file is read.
    rules, system = input_files
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    cfg = SessionConfig(n=2, precision=3, seed=0, rules_path=rules,
                        report=data.draw(st.sampled_from(["kv", "plain"])))
    args = {}
    for dest, _flags, kwargs in COMMANDS[command][1]:
        if data.draw(st.booleans()):
            # A text argument draws a text at least half the time.
            texts = st.just(system) if dest == "system" else SHORT_TEXT
            typed = "type" in kwargs or "action" in kwargs   # a count or a flag
            args[dest] = data.draw(texts if not typed and data.draw(st.booleans()) else VALUES)
    status, text = run_command(cfg, command, args)
    assert status in (0, 1) and text.endswith("\n")
    if status == 0:
        assert "error:" not in text
    else:
        assert text.startswith("error: ") and text.count("\n") == 1
    for dest in positionals(command):
        if dest not in args:
            assert text == f"error: {command} needs <{dest}>\n"
            break
        if not isinstance(args[dest], str):
            assert text == f"error: <{dest}> must be a string\n"
            break


NF_X1_X2 = """
    command=nf
    normal_form=O(3)
    steps=4
    end_precision=3
    step_1=M=x2 rule=1 m=1 c=1
    step_2=M=x1 rule=2 m=1 c=1
    step_3=M=x2^2 rule=1 m=x2 c=1
    step_4=M=x1^2 rule=2 m=x1 c=1"""

CHECK_3 = """
    command=ars check
    size=3
    edges=2
    normalising=true
    nf_property=true
    unique_nf_property=true
    unique_nf_reached=true
    confluent=true"""

# Rule and system files are decoded as UTF-8, and `\n`, `\r\n` and a lone
# `\r` each end one line; a byte-order mark is a character of line 1.  Each
# case is the file's bytes and its whole report, or its `error:` line.
DECODING = [
    ("nf", b"x2 - x2^2\r\nx1 - x1^2\r\n", NF_X1_X2),
    ("nf", b"x2 - x2^2\rx1 - x1^2\r", NF_X1_X2),
    ("nf", b"x2\r\n\r\nx1 + x3\r\n", "{path}: line 3, column 6: unknown variable x3 (have x1..x2)"),
    ("nf", b"x2\r\rx1 + x3\r", "{path}: line 3, column 6: unknown variable x3 (have x1..x2)"),
    ("nf", b"\xef\xbb\xbfx2 - x2^2\n", "{path}: line 1, column 1: unexpected character '\\ufeff'"),
    ("nf", b"x2 - x2^2\n\xff\n",
     "{path}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ("nf", b"x2 - x2^2\n" * 1000 + b"\xff\n",
     "{path}: 'utf-8' codec can't decode byte 0xff in position 10000: invalid start byte"),
    ("nf", b"x2 - x2^2\n\xe2\x82",
     "{path}: 'utf-8' codec can't decode bytes in position 10-11: unexpected end of data"),
    ("ars", b"n=3\r\n0 -> 2\r\n1 -> 2\r\n", CHECK_3),
    ("ars", b"n=3\r0 -> 2\r1 -> 2\r", CHECK_3),
    ("ars", b"n=2\r\n0 -> 1\r\n1 -> 5\r\n", "{path}: line 3, column 6: edge 1 -> 5 outside 0..1"),
    ("ars", b"\xef\xbb\xbfn=3\n0 -> 2\n", "{path}: line 1, column 1: expected n=<size>"),
    ("ars", b"n=3\n0 -> \xff\n",
     "{path}: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
]


@pytest.mark.parametrize("mode", ["kv", "plain"])
@pytest.mark.parametrize("command, data, golden", DECODING)
def test_file_decoding(tmp_path, mode, command, data, golden):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    if command == "nf":
        cfg = SessionConfig(n=2, precision=3, rules_path=str(path), report=mode)
        status, text = run_command(cfg, "nf", {"series": "x1 + x2"})
    else:
        status, text = run_command(SessionConfig(report=mode), "ars",
                                   {"action": "check", "system": str(path)})
    if golden.startswith("\n"):
        kv_text, plain_text = rows(golden)
        assert (status, text) == (0, kv_text if mode == "kv" else plain_text)
    else:
        assert (status, text) == (1, f"error: {golden.format(path=path)}\n")


class TestArsCommands:
    def test_check(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=3\n0 -> 2\n1 -> 2\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert status == 0
        assert "normalising=true\n" in text and "confluent=true\n" in text

    def test_missing_flags_are_diagnosed(self, tmp_path):
        status, text = run_command(kv(), "ars", {"action": "check"})
        assert (status, text) == (1, "error: ars commands need --system <path>\n")
        path = tmp_path / "sys.txt"
        path.write_text("n=1\n")
        status, text = run_command(kv(), "ars",
                                   {"action": "valleys", "system": str(path)})
        assert (status, text) == (1, "error: ars valleys needs --conversion <text>\n")

    @pytest.mark.parametrize("readable", [True, False], ids=["readable", "nonexistent"])
    def test_unknown_action_is_reported_before_the_file_is_read(self, tmp_path, readable):
        path = tmp_path / "sys.txt"
        if readable:
            path.write_text("n=2\n0 -> 1\n")
        status, text = run_command(SessionConfig(), "ars",
                                   {"action": "frob", "system": str(path)})
        assert (status, text) == (1, "error: unknown ars action 'frob'\n")

    def test_system_edge_out_of_range_names_the_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=2\n0 -> 1\n1 -> 5\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert status == 1
        assert text == f"error: {path}: line 3, column 6: edge 1 -> 5 outside 0..1\n"

    def test_system_size_error_column_names_the_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("  n = 3x\n0 -> 1\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert (status, text) == (1, f"error: {path}: line 1, column 8: expected n=<size>\n")

    def test_conversion_error_columns(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=3\n0 -> 1\n")
        for conversion, message in [
                ("1 -> \u00b2", "line 1, column 6: arrow must be followed by an element"),
                ("0 => 1", "line 1, column 3: expected '->' or '<-', found '=>'")]:
            status, text = run_command(kv(), "ars", {"action": "valleys", "system": str(path),
                                                     "conversion": conversion})
            assert (status, text) == (1, f"error: {message}\n")

    def test_long_size_names_the_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=" + "9" * 5000 + "\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert status == 1
        assert text == f"error: {path}: line 1, column 3: number with 5000 digits is too long\n"

    def test_valleys(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=4\n1 -> 0\n1 -> 2\n3 -> 2\n3 -> 0\n2 -> 0\n")
        status, text = run_command(
            kv(), "ars",
            {"action": "valleys", "system": str(path),
             "conversion": "0 <- 1 -> 2 <- 3 -> 0"})
        assert status == 0
        assert "conversion=0 <- 1 -> 2 -> 0\n" in text
        assert "valleys=0\n" in text and "endpoints_equal=true\n" in text

    def test_sparse_labels_in_a_huge_carrier(self, tmp_path):
        # Nothing may be allocated per element of the declared size.
        path = tmp_path / "sys.txt"
        path.write_text("n=1000000000000\n999999999999 -> 7\n3 -> 7\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert status == 0
        assert "size=1000000000000\n" in text and "edges=2\n" in text
        assert "normalising=true\n" in text and "confluent=true\n" in text
        status, text = run_command(
            kv(), "ars",
            {"action": "valleys", "system": str(path),
             "conversion": "7 <- 999999999999 -> 7 <- 3 -> 7"})
        assert status == 0
        assert "conversion=7 <- 999999999999 -> 7\n" in text and "valleys=0\n" in text


class TestMain:
    def test_exit_status_zero_on_success(self, geometric_rules, capsys):
        code = main(["--vars", "2", "--prec", "5", "--rules", geometric_rules,
                     "--report", "kv", "nf", "x2"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out.startswith("command=nf\n")
        assert out.err == ""

    def test_exit_status_nonzero_on_error(self, geometric_rules, capsys):
        code = main(["--rules", geometric_rules, "nf", "x9"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == "" and "error" in out.err

    def test_bad_session_is_an_error(self, capsys):
        assert main(["--vars", "0", "delta", "x1", "x1"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: need at least one variable\n"

    def test_variable_count_limit(self, one_variable_rule, capsys):
        assert main(["--vars", "1000", "--prec", "3", "--rules", one_variable_rule,
                     "--report", "kv", "nf", "x1"]) == 0
        assert capsys.readouterr().out.startswith("command=nf\nnormal_form=O(3)\n")
        assert main(["--vars", "1001", "delta", "x1", "0"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: at most 1000 variables, got 1001\n"

    def test_strategy_count_limit(self, probe_rules, capsys):
        assert main(["--vars", "2", "--prec", "6", "--seed", "1", "--rules", probe_rules,
                     "probe", "x1 + x2", "--strategies", "101"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: --strategies must be <= 100\n"

    def test_trial_count_limit(self, truncated_rule, capsys):
        argv = ["--vars", "1", "--prec", "4", "--seed", "1", "--rules", truncated_rule,
                "--report", "kv", "check-sb", "--trials"]
        assert main([*argv, "10000"]) == 0
        assert capsys.readouterr().out == "command=check-sb\ncertificate=none\n"
        assert main([*argv, "10001"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: --trials must be <= 10000\n"

    @pytest.mark.parametrize("argv, line", [
        (["--rules", "{rules}", "check-sb"],
         "error: randomized commands need an explicit --seed"),
        (["nf", "x1"], "error: this command needs --rules <path>"),
        (["ars", "valleys", "--system", "{system}"],
         "error: ars valleys needs --conversion <text>"),
    ])
    def test_requirement_errors(self, tmp_path, pair_rules, argv, line, capsys):
        system = tmp_path / "sys.txt"
        system.write_text("n=1\n")
        argv = [a.format(rules=pair_rules, system=system) for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == line + "\n"

    def test_plain_report(self, geometric_rules, capsys):
        code = main(["--prec", "5", "--rules", geometric_rules, "nf", "x2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "normal form: O(5)\n" in out
        assert "step 1: M=x2 rule=1 m=1 c=1\n" in out

    def test_byte_identical_reports(self, pair_rules, capsys):
        argv = ["--vars", "2", "--prec", "4", "--rules", pair_rules,
                "--seed", "42", "--report", "kv", "check-sb", "--trials", "25"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


def rows(text):
    """Golden rows as kv text and as the plain rendering of the same rows."""
    pairs = [line.strip().split("=", 1) for line in text.strip().splitlines()]
    return ("".join(f"{k}={v}\n" for k, v in pairs),
            "".join(f"{k.replace('_', ' ')}: {v}\n" for k, v in pairs))


GOLDENS = [
    ("--prec 5 --rules {geo} nf x2", """
        command=nf
        normal_form=O(5)
        steps=4
        end_precision=5
        step_1=M=x2 rule=1 m=1 c=1
        step_2=M=x2^2 rule=1 m=x2 c=1
        step_3=M=x2^3 rule=1 m=x2^2 c=1
        step_4=M=x2^4 rule=1 m=x2^3 c=1"""),
    ("--prec 5 --rules {geo} cofactors x2+x1", """
        command=cofactors
        residual=x1 + O(5)
        steps=4
        cofactor_1=1 + x2 + x2^2 + x2^3"""),
    ("--prec 6 --rules {geo} member x2 --assume-sb", """
        command=member
        verdict=member
        cofactor_1=1 + x2 + x2^2 + x2^3 + x2^4"""),
    ("--prec 6 --rules {geo} member 1 --assume-sb", """
        command=member
        verdict=not_member
        witness=1"""),
    ("--prec 5 --rules {geo} congruent 1 0", """
        command=congruent
        verdict=unknown_at_precision
        residual=1"""),
    ("delta x1 0", """
        command=delta
        delta=1/2
        upper_bound_only=false"""),
    # past Python's int-to-str digit limit a distance prints as 2^-v
    ("delta x1^20000 0", """
        command=delta
        delta=2^-20000
        upper_bound_only=false"""),
    ("--prec 20000 --seed 1 --rules {geo} probe 'x1 + O(20000)' --strategies 2", """
        command=probe
        strategies=2
        threshold=2^-20000
        max_delta=2^-20000
        divergent_pairs=0
        delta_1_2=<=2^-20000"""),
    ("--seed 42 --rules {pair} check-sb --trials 25", """
        command=check-sb
        certificate=found
        phase=pairwise
        trial=1
        combination=2*x1
        normal_form=2*x1 + O(4)
        cofactor_1=1
        cofactor_2=1"""),
    ("--seed 42 --rules {geo} check-sb", """
        command=check-sb
        certificate=none"""),
    ("--prec 5 --seed 0 --rules {pair} probe x1+x2 --strategies 3", """
        command=probe
        strategies=3
        threshold=1/32
        max_delta=1/2
        divergent_pairs=2
        delta_0_1=1/2
        delta_0_2=1/2
        delta_1_2=0"""),
    ("ars check --system {sys}", """
        command=ars check
        size=4
        edges=5
        normalising=true
        nf_property=true
        unique_nf_property=true
        unique_nf_reached=true
        confluent=true"""),
    ("ars valleys --system {sys} --conversion '0 <- 1 -> 2 <- 3 -> 0'", """
        command=ars valleys
        conversion=0 <- 1 -> 2 -> 0
        valleys=0
        endpoints_equal=true"""),
]


# Whole error reports: each is one `error:` line on standard error.
ERROR_GOLDENS = [
    # a coefficient past Python's int-to-str limit names its term
    ("--vars 1 --prec 4 --rules {big} nf x1",
     "error: the coefficient of x1^2 in step 3 is past Python's int-to-str limit"),
    ("--vars 1 --prec 4 --rules {big} cofactors x1",
     "error: the coefficient of x1^2 is past Python's int-to-str limit"),
]


class TestGoldens:
    @pytest.fixture
    def files(self, tmp_path):
        texts = {"geo": "x2 - x2^2\n", "pair": "x1 + x2\nx1 - x2\n",
                 "sys": "n=4\n1 -> 0\n1 -> 2\n3 -> 2\n3 -> 0\n2 -> 0\n",
                 "big": "x1 - 1" + "0" * 3999 + "*x1^2\n"}
        for name, text in texts.items():
            (tmp_path / f"{name}.txt").write_text(text)
        return {name: str(tmp_path / f"{name}.txt") for name in texts}

    @pytest.mark.parametrize("mode", ["kv", "plain"])
    @pytest.mark.parametrize("command, golden", GOLDENS, ids=[c for c, _g in GOLDENS])
    def test_whole_report(self, files, capsys, command, golden, mode):
        argv = ["--report", mode] + shlex.split(command.format(**files))
        assert main(argv) == 0
        out = capsys.readouterr()
        kv_text, plain_text = rows(golden)
        assert out.out == (kv_text if mode == "kv" else plain_text)
        assert out.err == ""

    @pytest.mark.parametrize("mode", ["kv", "plain"])
    @pytest.mark.parametrize("command, golden", ERROR_GOLDENS, ids=[c for c, _g in ERROR_GOLDENS])
    def test_whole_error_report(self, files, capsys, command, golden, mode):
        argv = ["--report", mode] + shlex.split(command.format(**files))
        assert main(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", golden + "\n")
