"""Batch command-line front-end.

Every command reads series/rule files in the canonical text grammar, runs
one engine operation and prints a report, either human-readable (plain)
or machine-readable (kv: one key=value per line, byte-stable for a fixed
seed).  Randomized commands refuse to run without an explicit --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import ars as ars_mod
from .errors import RewritingError
from .rewrite import (
    Member,
    NotMember,
    RuleSet,
    cofactors,
    confluence_probe,
    congruence_test,
    falsify_standard_basis,
    normalize,
)
from .series import TruncatedSeries, delta as delta_metric
from .textio import (
    format_conversion,
    format_series,
    format_trace,
    parse_ars_system,
    parse_conversion,
    parse_rules,
    parse_series,
)


@dataclass
class SessionConfig:
    n: int = 2
    precision: int = 4
    seed: Optional[int] = None
    rules_path: Optional[str] = None
    report: str = "plain"  # or "kv"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.report not in ("plain", "kv"):
            raise ValueError(f"unknown report mode {self.report!r}")


class _Report:
    """Collects (key, value) pairs; renders either mode."""

    def __init__(self, mode: str):
        self.mode = mode
        self.rows: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.rows.append((key, str(value)))

    def text(self) -> str:
        if self.mode == "kv":
            return "".join(f"{k}={v}\n" for k, v in self.rows)
        return "".join(f"{k.replace('_', ' ')}: {v}\n" for k, v in self.rows)


def _load(path: str, parse: Callable[[str], object]):
    """Parse the file at path; an error in its text names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except RewritingError as exc:
            raise RewritingError(f"{path}: {exc}") from exc


def _load_rules(cfg: SessionConfig) -> RuleSet:
    if cfg.rules_path is None:
        raise RewritingError("this command needs --rules <path>")
    return _load(cfg.rules_path, lambda text: parse_rules(text, cfg.n))


def _require_seed(cfg: SessionConfig) -> int:
    if cfg.seed is None:
        raise RewritingError("randomized commands need an explicit --seed")
    return cfg.seed


def _count(args: dict, option: str, default: int) -> int:
    value = args.get(option, default)
    if value < 1:
        raise RewritingError(f"--{option} must be >= 1")
    return value


def _bool(b: bool) -> str:
    return "true" if b else "false"


def run_command(cfg: SessionConfig, command: str, args: dict) -> tuple[int, str]:
    """Dispatch one command; returns (exit status, report text).

    A nonzero status carries the diagnostic as the report text.
    """
    rep = _Report(cfg.report)
    try:
        if command == "nf":
            rules = _load_rules(cfg)
            f = parse_series(args["series"], cfg.n)
            trace = normalize(f, rules, cfg.precision)
            rep.add("command", "nf")
            rep.add("normal_form", format_series(trace.end))
            rep.add("steps", len(trace))
            rep.add("end_precision", trace.end_precision)
            for k, line in enumerate(format_trace(trace), start=1):
                if cfg.report == "kv":
                    rep.add(f"step_{k}", line.split(": ", 1)[1])
                else:
                    rep.rows.append((line.split(":")[0], line.split(": ", 1)[1]))

        elif command == "cofactors":
            rules = _load_rules(cfg)
            f = parse_series(args["series"], cfg.n)
            trace = normalize(f, rules, cfg.precision)
            qs = cofactors(trace, rules)
            rep.add("command", "cofactors")
            rep.add("residual", format_series(trace.end))
            rep.add("steps", len(trace))
            for i, q in enumerate(qs, start=1):
                rep.add(f"cofactor_{i}", format_series(q))

        elif command in ("member", "congruent"):
            rules = _load_rules(cfg)
            f = parse_series(args["series"], cfg.n)
            g = (parse_series(args["series2"], cfg.n) if command == "congruent"
                 else TruncatedSeries.zero(cfg.n))
            verdict = congruence_test(f, g, rules, cfg.precision,
                                      assume_standard_basis=args.get("assume_sb", False))
            rep.add("command", command)
            if isinstance(verdict, Member):
                rep.add("verdict", "member")
                for i, q in enumerate(verdict.cofactors, start=1):
                    rep.add(f"cofactor_{i}", format_series(q))
            elif isinstance(verdict, NotMember):
                rep.add("verdict", "not_member")
                rep.add("witness", format_series(verdict.witness))
            else:
                rep.add("verdict", "unknown_at_precision")
                rep.add("residual", format_series(verdict.residual))

        elif command == "delta":
            f = parse_series(args["series"], cfg.n)
            g = parse_series(args["series2"], cfg.n)
            value, upper = delta_metric(f, g)
            rep.add("command", "delta")
            rep.add("delta", value)
            rep.add("upper_bound_only", _bool(upper))

        elif command == "check-sb":
            trials = _count(args, "trials", 100)
            rules = _load_rules(cfg)
            seed = _require_seed(cfg)
            cert = falsify_standard_basis(rules, cfg.precision, trials=trials, seed=seed)
            rep.add("command", "check-sb")
            if cert is None:
                rep.add("certificate", "none")
            else:
                rep.add("certificate", "found")
                rep.add("phase", cert.phase)
                rep.add("trial", cert.trial)
                rep.add("combination", format_series(cert.combination))
                rep.add("normal_form", format_series(cert.normal_form))
                for i, q in enumerate(cert.cofactors, start=1):
                    rep.add(f"cofactor_{i}", format_series(q))

        elif command == "probe":
            strategies = _count(args, "strategies", 5)
            rules = _load_rules(cfg)
            seed = _require_seed(cfg)
            f = parse_series(args["series"], cfg.n)
            seeds = [seed + t for t in range(strategies)]
            report = confluence_probe(f, rules, cfg.precision, seeds)
            rep.add("command", "probe")
            rep.add("strategies", len(seeds))
            rep.add("threshold", report.threshold)
            rep.add("max_delta", report.max_delta)
            rep.add("divergent_pairs", len(report.divergence_witnesses()))
            for a, b, d, upper in report.pairwise:
                rep.add(f"delta_{a}_{b}", f"<={d}" if upper else d)

        elif command == "ars":
            system_path = args.get("system")
            if system_path is None:
                raise RewritingError("ars commands need --system <path>")
            sys_ = _load(system_path, parse_ars_system)
            rep.add("command", f"ars {args.get('action')}")
            if args.get("action") == "check":
                props = ars_mod.check_properties(sys_)
                rep.add("size", sys_.size)
                rep.add("edges", len(sys_.edges))
                rep.add("normalising", _bool(props.normalising))
                rep.add("nf_property", _bool(props.nf_property))
                rep.add("unique_nf_property", _bool(props.unique_nf_property))
                rep.add("unique_nf_reached", _bool(props.unique_nf_reached))
                rep.add("confluent", _bool(props.confluent))
            elif args.get("action") == "valleys":
                if args.get("conversion") is None:
                    raise RewritingError("ars valleys needs --conversion <text>")
                conv = parse_conversion(args["conversion"])
                out = ars_mod.eliminate_valleys(sys_, conv)
                rep.add("conversion", format_conversion(out))
                rep.add("valleys", len(out.valley_indices()))
                rep.add("endpoints_equal", _bool(out.start == out.end))
            else:
                raise RewritingError(f"unknown ars action {args.get('action')!r}")

        else:
            raise RewritingError(f"unknown command {command!r}")

    except (RewritingError, OSError, ValueError) as exc:
        return 1, f"error: {exc}\n"
    return 0, rep.text()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="psrewrite",
        description="Exact rewriting on truncated multivariate power series.")
    p.add_argument("--vars", type=int, default=2, metavar="N",
                   help="number of variables x1..xN (default 2)")
    p.add_argument("--prec", type=int, default=4, metavar="P",
                   help="working precision: degrees < P are decided (default 4)")
    p.add_argument("--seed", type=int, default=None, metavar="S",
                   help="seed for randomized commands (required by them)")
    p.add_argument("--rules", metavar="PATH", default=None,
                   help="rule file, one series per line; line order = rule index")
    p.add_argument("--report", choices=["plain", "kv"], default="plain")

    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("nf", help="normal form and reduction trace")
    sp.add_argument("series")
    sp = sub.add_parser("cofactors", help="division cofactors")
    sp.add_argument("series")
    sp = sub.add_parser("member", help="ideal membership of a series")
    sp.add_argument("series")
    sp.add_argument("--assume-sb", action="store_true",
                    help="rules are asserted to be a standard basis")
    sp = sub.add_parser("congruent", help="congruence of two series modulo the ideal")
    sp.add_argument("series")
    sp.add_argument("series2")
    sp.add_argument("--assume-sb", action="store_true")
    sp = sub.add_parser("delta", help="adic distance between two series")
    sp.add_argument("series")
    sp.add_argument("series2")
    sp = sub.add_parser("check-sb", help="search for a standard-basis counterexample")
    sp.add_argument("--trials", type=int, default=100)
    sp = sub.add_parser("probe", help="compare normal forms across random strategies")
    sp.add_argument("series")
    sp.add_argument("--strategies", type=int, default=5)
    sp = sub.add_parser("ars", help="finite abstract rewriting system tools")
    sp.add_argument("action", choices=["check", "valleys"])
    sp.add_argument("--system", required=True, metavar="PATH")
    sp.add_argument("--conversion", default=None,
                    help="conversion text for `valleys`, e.g. '0 <- 1 -> 0'")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = SessionConfig(n=ns.vars, precision=ns.prec,
                            seed=ns.seed, rules_path=ns.rules, report=ns.report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = {k: v for k, v in vars(ns).items()
            if k not in ("vars", "prec", "seed", "rules", "report", "command")}
    status, text = run_command(cfg, ns.command, args)
    if status == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
