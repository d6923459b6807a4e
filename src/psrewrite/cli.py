"""Batch command-line front-end.

Every command reads series/rule files in the canonical text grammar, runs
one engine operation and prints a report, either human-readable (plain)
or machine-readable (kv: one key=value per line, byte-stable for a fixed
seed).  Randomized commands refuse to run without an explicit --seed.
Each command is one row of COMMANDS: argparse specs and a row handler.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, Optional, Sequence

from . import ars as ars_mod
from .errors import RewritingError
from .monomials import require_int, require_type
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

Rows = Iterator[tuple[str, object]]  # (key, value) report rows
_MAX_VARS = 1000   # every exponent tuple of a run holds one int per variable
# The most an int option may take: `check-sb` runs up to one reduction per
# trial, and `probe` prints one row per pair of strategies.
_MOST = {"trials": 10_000, "strategies": 100}


@dataclass(frozen=True)  # checked once, in __post_init__
class SessionConfig:
    n: int = 2
    precision: int = 4
    seed: Optional[int] = None
    rules_path: Optional[str] = None
    report: str = "plain"  # or "kv"

    def __post_init__(self):
        for name in ("n", "precision", "seed"):
            value = getattr(self, name)
            if name == "seed" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.rules_path is not None and not isinstance(self.rules_path, (str, os.PathLike)):
            raise ValueError(f"rules_path must be a str or os.PathLike, got {self.rules_path!r}")
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.n > _MAX_VARS:
            raise ValueError(f"at most {_MAX_VARS} variables, got {self.n}")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.report not in ("plain", "kv"):
            raise ValueError(f"unknown report mode {self.report!r}")


@functools.lru_cache(maxsize=1)
def _parsed(data: bytes, parse: Callable[..., object], *extra):
    """`parse(text, *extra)` of the UTF-8 text `data`.  The last value is
    kept: a call with equal bytes, the same parser and equal arguments gets
    the same frozen value back, so `rewrite._compile` finds the same rule
    set.  An error is never kept."""
    return parse(data.decode("utf-8"), *extra)


def _load(path: str, parse: Callable[..., object], *extra):
    """`_parsed` of the file at path, which is read on every call; an error
    in its bytes or its text names the file."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return _parsed(data, parse, *extra)
    except (RewritingError, UnicodeDecodeError) as exc:
        raise RewritingError(f"{path}: {exc}") from exc


def _load_rules(cfg: SessionConfig) -> RuleSet:
    if cfg.rules_path is None:
        raise RewritingError("this command needs --rules <path>")
    return _load(cfg.rules_path, parse_rules, cfg.n)


def _require_seed(cfg: SessionConfig) -> int:
    if cfg.seed is None:
        raise RewritingError("randomized commands need an explicit --seed")
    return cfg.seed


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _distance(d) -> str:
    """str(d), or `2^-v` for a distance 2^-v past Python's int-to-str limit."""
    try:
        return str(d)
    except ValueError:
        return f"2^-{d.denominator.bit_length() - 1}"


def _nf(cfg: SessionConfig, args: dict) -> Rows:
    rules = _load_rules(cfg)
    trace = normalize(parse_series(args["series"], cfg.n), rules, cfg.precision)
    yield "normal_form", format_series(trace.end)
    yield "steps", len(trace)
    yield "end_precision", trace.end_precision
    for k, line in enumerate(format_trace(trace), start=1):
        yield f"step_{k}", line.split(": ", 1)[1]


def _cofactors(cfg: SessionConfig, args: dict) -> Rows:
    rules = _load_rules(cfg)
    trace = normalize(parse_series(args["series"], cfg.n), rules, cfg.precision)
    yield "residual", format_series(trace.end)
    yield "steps", len(trace)
    for i, q in enumerate(cofactors(trace, rules), start=1):
        yield f"cofactor_{i}", format_series(q)


def _verdict(cfg: SessionConfig, args: dict) -> Rows:
    """`member` tests the series against 0, `congruent` against series2."""
    rules = _load_rules(cfg)
    f = parse_series(args["series"], cfg.n)
    g = (parse_series(args["series2"], cfg.n) if "series2" in args
         else TruncatedSeries.zero(cfg.n))
    verdict = congruence_test(f, g, rules, cfg.precision,
                              assume_standard_basis=args["assume_sb"])
    if isinstance(verdict, Member):
        yield "verdict", "member"
        for i, q in enumerate(verdict.cofactors, start=1):
            yield f"cofactor_{i}", format_series(q)
    elif isinstance(verdict, NotMember):
        yield "verdict", "not_member"
        yield "witness", format_series(verdict.witness)
    else:
        yield "verdict", "unknown_at_precision"
        yield "residual", format_series(verdict.residual)


def _delta(cfg: SessionConfig, args: dict) -> Rows:
    f = parse_series(args["series"], cfg.n)
    value, upper = delta_metric(f, parse_series(args["series2"], cfg.n))
    yield "delta", _distance(value)
    yield "upper_bound_only", _bool(upper)


def _check_sb(cfg: SessionConfig, args: dict) -> Rows:
    cert = falsify_standard_basis(_load_rules(cfg), cfg.precision, trials=args["trials"],
                                  seed=_require_seed(cfg))
    yield "certificate", "none" if cert is None else "found"
    if cert is not None:
        yield "phase", cert.phase
        yield "trial", cert.trial
        yield "combination", format_series(cert.combination)
        yield "normal_form", format_series(cert.normal_form)
        for i, q in enumerate(cert.cofactors, start=1):
            yield f"cofactor_{i}", format_series(q)


def _probe(cfg: SessionConfig, args: dict) -> Rows:
    rules = _load_rules(cfg)
    seed = _require_seed(cfg)
    seeds = [seed + t for t in range(args["strategies"])]
    report = confluence_probe(parse_series(args["series"], cfg.n), rules, cfg.precision, seeds)
    yield "strategies", len(seeds)
    yield "threshold", _distance(report.threshold)
    yield "max_delta", _distance(report.max_delta)
    yield "divergent_pairs", len(report.divergence_witnesses())
    for a, b, d, upper in report.pairwise:
        yield f"delta_{a}_{b}", f"<={_distance(d)}" if upper else _distance(d)


def _ars(cfg: SessionConfig, args: dict) -> Rows:
    if args["system"] is None:
        raise RewritingError("ars commands need --system <path>")
    system = _load(args["system"], parse_ars_system)
    if args["action"] == "check":
        props = ars_mod.check_properties(system)
        yield "size", system.size
        yield "edges", len(system.tails)
        for field in fields(props):
            yield field.name, _bool(getattr(props, field.name))
    else:
        if args["conversion"] is None:
            raise RewritingError("ars valleys needs --conversion <text>")
        out = ars_mod.eliminate_valleys(system, parse_conversion(args["conversion"]))
        yield "conversion", format_conversion(out)
        yield "valleys", len(out.valley_indices())
        yield "endpoints_equal", _bool(out.start == out.end)


def _arg(*flags: str, **kwargs) -> tuple[str, tuple[str, ...], dict]:
    """(dest, flags, kwargs) of `ArgumentParser.add_argument(*flags, **kwargs)`."""
    return flags[0].lstrip("-").replace("-", "_"), flags, kwargs


_KINDS = {str: "a string", int: "an integer", bool: "true or false"}


def _checked(command: str, dest: str, flags: tuple[str, ...], kwargs: dict, args: dict):
    """args[dest], or the default, if it has the type its spec gives argparse
    and is one of its choices, and an int lies in 1.._MOST[dest].  A missing
    positional is an error; an option left out (None where the default is
    None) passes."""
    option = flags[0].startswith("-")
    if not option and dest not in args:
        raise RewritingError(f"{command} needs <{dest}>")
    value = args.get(dest, kwargs.get("default"))
    if option and value is None and kwargs.get("default") is None:
        return value
    kind = bool if kwargs.get("action") == "store_true" else kwargs.get("type", str)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise RewritingError(f"{flags[0] if option else f'<{dest}>'} must be {_KINDS[kind]}")
    if value not in kwargs.get("choices", (value,)):
        raise RewritingError(f"unknown {command} {dest} {value!r}")
    if kind is int:
        require_int(value, flags[0], 1)
        if value > _MOST[dest]:
            raise RewritingError(f"{flags[0]} must be <= {_MOST[dest]}")
    return value


_SERIES = _arg("series")
_SERIES2 = _arg("series2")
_ASSUME_SB = _arg("--assume-sb", action="store_true", default=False,
                  help="rules are asserted to be a standard basis")

# name -> (help, argument specs, handler yielding the rows after `command`)
COMMANDS = {
    "nf": ("normal form and reduction trace", (_SERIES,), _nf),
    "cofactors": ("division cofactors", (_SERIES,), _cofactors),
    "member": ("ideal membership of a series", (_SERIES, _ASSUME_SB), _verdict),
    "congruent": ("congruence of two series modulo the ideal",
                  (_SERIES, _SERIES2, _ASSUME_SB), _verdict),
    "delta": ("adic distance between two series", (_SERIES, _SERIES2), _delta),
    "check-sb": ("search for a standard-basis counterexample",
                 (_arg("--trials", type=int, default=100),), _check_sb),
    "probe": ("compare normal forms across random strategies",
              (_SERIES, _arg("--strategies", type=int, default=5)), _probe),
    "ars": ("finite abstract rewriting system tools", (
        _arg("action", choices=["check", "valleys"]),
        _arg("--system", required=True, metavar="PATH"),
        _arg("--conversion", help="conversion text for `valleys`, e.g. '0 <- 1 -> 0'"),
    ), _ars),
}


def run_command(cfg: SessionConfig, command: str, args: dict) -> tuple[int, str]:
    """Dispatch one command; returns (exit status, report text).

    A nonzero status carries the diagnostic as the report text.  Only declared
    arguments are read; a missing option takes its default, a missing positional
    is an error, and so is a value of another type than argparse would give.
    A `cfg`, `command` or `args` of another type is a TypeError naming it.
    """
    require_type(cfg, SessionConfig, "config")
    require_type(command, str, "command")
    require_type(args, dict, "args")
    try:
        if command not in COMMANDS:
            raise RewritingError(f"unknown command {command!r}")
        _help, specs, handler = COMMANDS[command]
        values = {dest: _checked(command, dest, flags, kwargs, args)
                  for dest, flags, kwargs in specs}
        name = f"ars {values['action']}" if command == "ars" else command
        rows = [("command", name), *handler(cfg, values)]
    except (RewritingError, OSError, ValueError) as exc:
        return 1, f"error: {exc}\n"
    if cfg.report == "kv":
        return 0, "".join(f"{k}={v}\n" for k, v in rows)
    return 0, "".join(f"{k.replace('_', ' ')}: {v}\n" for k, v in rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="psrewrite",
        description="Exact rewriting on truncated multivariate power series.")
    # Each dest is a SessionConfig field, and takes its default from there.
    p.set_defaults(**asdict(SessionConfig()))
    p.add_argument("--vars", dest="n", type=int, metavar="N",
                   help="number of variables x1..xN (default %(default)s)")
    p.add_argument("--prec", dest="precision", type=int, metavar="P",
                   help="working precision: degrees < P are decided (default %(default)s)")
    p.add_argument("--seed", type=int, metavar="S",
                   help="seed for randomized commands (required by them)")
    p.add_argument("--rules", dest="rules_path", metavar="PATH",
                   help="rule file, one series per line; line order = rule index")
    p.add_argument("--report", choices=["plain", "kv"])

    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, specs, _handler) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for _dest, flags, kwargs in specs:
            sp.add_argument(*flags, **kwargs)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = SessionConfig(**{f.name: getattr(ns, f.name) for f in fields(SessionConfig)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = {dest: getattr(ns, dest) for dest, _flags, _kwargs in COMMANDS[ns.command][1]}
    status, text = run_command(cfg, ns.command, args)
    (sys.stdout if status == 0 else sys.stderr).write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
