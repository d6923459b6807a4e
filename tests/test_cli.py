import pytest

from psrewrite.cli import SessionConfig, main, run_command


@pytest.fixture
def geometric_rules(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("x2 - x2^2\n")
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
        assert status == 1 and "seed" in text

    @pytest.mark.parametrize("trials", [0, -3])
    def test_check_sb_rejects_trials_below_one(self, trials):
        # checked before the rule file, which here does not exist
        status, text = run_command(kv(rules="missing.txt", seed=0), "check-sb",
                                   {"trials": trials})
        assert (status, text) == (1, "error: --trials must be >= 1\n")

    @pytest.mark.parametrize("strategies", [0, -1])
    def test_probe_rejects_strategies_below_one(self, strategies):
        status, text = run_command(kv(rules="missing.txt", seed=0), "probe",
                                   {"series": "x1", "strategies": strategies})
        assert (status, text) == (1, "error: --strategies must be >= 1\n")

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
        assert status == 1 and "--rules" in text

    def test_unknown_command(self):
        status, text = run_command(kv(), "frobnicate", {})
        assert status == 1


class TestArsCommands:
    def test_check(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("n=3\n0 -> 2\n1 -> 2\n")
        status, text = run_command(kv(), "ars", {"action": "check", "system": str(path)})
        assert status == 0
        assert "normalising=true\n" in text and "confluent=true\n" in text

    def test_missing_flags_are_diagnosed(self, tmp_path):
        status, text = run_command(kv(), "ars", {"action": "check"})
        assert status == 1 and "--system" in text
        path = tmp_path / "sys.txt"
        path.write_text("n=1\n")
        status, text = run_command(kv(), "ars",
                                   {"action": "valleys", "system": str(path)})
        assert status == 1 and "--conversion" in text

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
