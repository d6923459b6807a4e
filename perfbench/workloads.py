"""The four seeded workloads: inputs, the timed operation, checks, digests.

Each workload builds a pool of instances during set-up.  Instance i is
drawn from its own generator, seeded with (seed, workload, i), so the
first k instances do not depend on the pool size.  A run takes the pool
in order and starts again at the front when it runs out.

A workload supplies four things for an instance:

- ``run`` is the timed call into the library.
- ``check`` re-derives the result with the code in ``oracle`` and returns
  a list of errors.
- ``render`` is the canonical text that the seeded-output digest covers.
- ``count`` adds the exact work counts.

Op kinds follow a fixed pattern, and sizes follow a fixed ladder.  The
seed draws everything else.  So the mix of cheap and costly operations
is the same for every seed, and seeds differ only in content.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Terms


def instance_rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{i}")


def nonzero(rng: random.Random, k: int = 3) -> int:
    return rng.choice([c for c in range(-k, k + 1) if c])


def random_monomial(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e)


def random_terms(rng: random.Random, n: int, degrees) -> Terms:
    t: Terms = {}
    for d in degrees:
        oracle.add_into(t, {random_monomial(rng, n, d): Fraction(nonzero(rng))})
    return t


def format_terms(t: Terms) -> str:
    """Render terms in the series grammar; the benchmark's own formatter,
    so the program receives only text it did not produce."""
    if not t:
        return "0"
    out = []
    for k, e in enumerate(sorted(t, key=lambda e: (sum(e), e))):
        c = t[e]
        mono = "*".join(f"x{v + 1}^{p}" if p > 1 else f"x{v + 1}"
                        for v, p in enumerate(e) if p)
        mag = str(abs(c))
        body = f"{mag}*{mono}" if mono else mag
        sign = "-" if c < 0 else "+"
        out.append(f"-{body}" if k == 0 and c < 0 else body if k == 0 else f" {sign} {body}")
    return "".join(out)


def kv_rows(text: str) -> list[tuple[str, str]]:
    return [tuple(line.split("=", 1)) for line in text.splitlines()]


@dataclass
class Rules:
    """A rule set as the library holds it, next to the benchmark's own copy."""

    parsed: object
    bodies: list[Terms]
    lms: list[tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        self.lms = [oracle.leading(b) for b in self.bodies]


def parse_rules(lib, bodies: list[Terms], n: int) -> Rules:
    text = "".join(format_terms(b) + "\n" for b in bodies)
    return Rules(lib.textio.parse_rules(text, n), bodies)


def bump(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def peak(counts: dict, key: str, value: int) -> None:
    counts[key] = max(counts.get(key, 0), value)


# -- reduce -------------------------------------------------------------------

DEGREE_TWO = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
LM_TRIPLES = list(itertools.combinations(DEGREE_TWO, 3))


@dataclass
class ReduceInstance:
    kind: str
    f: object
    start: Terms
    rules: Rules
    p: int


class Reduce:
    """Canonical normalize followed by cofactors.

    Wide instances: 3 variables, 3 rules whose leading monomials are
    distinct degree-2 monomials, each with a degree-3 and a degree-4
    tail term, and an input with a linear and a quartic term, at p=12.
    They take the 20 triples of leading monomials in turn.  Every 21st
    instance is deep: x2 divided by x2 - x2^2 at p=400.
    """

    name = "reduce"
    prefix = 100
    pool_size = 2100
    wide_precision = 12
    deep_precision = 400
    deep_every = 21

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        deep_start = {(0, 1): Fraction(1)}
        deep = ReduceInstance(
            "deep", lib.textio.parse_series(format_terms(deep_start), 2), deep_start,
            parse_rules(lib, [{(0, 1): Fraction(1), (0, 2): Fraction(-1)}], 2),
            self.deep_precision)
        self.pool = [deep if i % self.deep_every == self.deep_every - 1
                     else self._wide(instance_rng(seed, self.name, i),
                                     LM_TRIPLES[(i - i // self.deep_every) % len(LM_TRIPLES)])
                     for i in range(self.pool_size)]

    def _wide(self, rng: random.Random, lms) -> ReduceInstance:
        bodies = []
        for lm in lms:
            body = {lm: Fraction(nonzero(rng))}
            bodies.append(oracle.add_into(body, random_terms(rng, 3, (3, 4))))
        start = random_terms(rng, 3, (1, 4))
        return ReduceInstance("wide", self.lib.textio.parse_series(format_terms(start), 3),
                              start, parse_rules(self.lib, bodies, 3), self.wide_precision)

    def run(self, inst: ReduceInstance):
        trace = self.lib.rewrite.normalize(inst.f, inst.rules.parsed, inst.p)
        return trace, self.lib.rewrite.cofactors(trace, inst.rules.parsed)

    def check(self, inst: ReduceInstance, out) -> list[str]:
        trace, qs = out
        end = oracle.terms(trace.end)
        errors = []
        if trace.end_precision < inst.p:
            errors.append(f"end precision {trace.end_precision} below target {inst.p}")
        if len(qs) != len(inst.rules.bodies):
            errors.append(f"{len(qs)} cofactors for {len(inst.rules.bodies)} rules")
        errors += oracle.check_irreducible("normal form", end, inst.rules.lms, inst.p)
        errors += oracle.check_cofactor_identity(
            inst.start, end, [oracle.terms(q) for q in qs], inst.rules.bodies,
            trace.end_precision)
        return errors

    def render(self, inst: ReduceInstance, out) -> str:
        trace, qs = out
        return f"{inst.kind}|{oracle.render_trace(trace)}|" + \
            "".join(oracle.render_series(q) for q in qs)

    def count(self, inst: ReduceInstance, out, counts: dict) -> None:
        trace, qs = out
        outputs = [oracle.terms(trace.end)] + [oracle.terms(q) for q in qs]
        bump(counts, "steps", len(trace.steps))
        peak(counts, "peak_support", max(len(t) for t in outputs))
        peak(counts, "coeff_bits", max(oracle.coeff_bits(t) for t in outputs))


# -- verdicts -----------------------------------------------------------------

def _coprime(lms) -> bool:
    return all(not any(x and y for x, y in zip(a, b))
               for a, b in itertools.combinations(lms, 2))


STANDARD_BASIS_LMS = [c for k in (2, 3) for c in itertools.combinations(DEGREE_TWO, k)
                      if _coprime(c)]
OVERLAPPING_LMS = [c for k in (2, 3) for c in itertools.combinations(DEGREE_TWO, k)
                   if not _coprime(c)]


@dataclass
class VerdictInstance:
    kind: str
    standard_basis: bool
    rules: Rules
    p: int
    seed: int = 0
    f: object = None
    g: object = None
    g_terms: Terms | None = None
    qs: list = field(default_factory=list)
    q_terms: list[Terms] = field(default_factory=list)


class Verdicts:
    """Falsifier, confluence probe and congruence test, in groups of three
    operations that share one rule set.

    Rule sets alternate by group between pairwise-coprime leading
    monomials (a standard basis: the falsifier runs every trial and the
    probe's normal forms agree) and overlapping ones (the falsifier
    mostly stops early).  Each family takes its patterns of leading
    monomials in turn; bodies are as in `reduce`.  All three run at p=8,
    the falsifier with 4 random trials and the probe with 3 strategies.
    """

    name = "verdicts"
    prefix = 120
    pool_size = 2400
    precision = 8
    trials = 4
    strategies = 3
    kinds = ("falsify", "probe", "congruence")

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.pool = []
        for group in range(self.pool_size // len(self.kinds)):
            rng = instance_rng(seed, f"{self.name}-rules", group)
            standard_basis = group % 2 == 0
            patterns = STANDARD_BASIS_LMS if standard_basis else OVERLAPPING_LMS
            lms = patterns[group // 2 % len(patterns)]
            bodies = [oracle.add_into({lm: Fraction(nonzero(rng))},
                                      random_terms(rng, 3, (3, 4))) for lm in lms]
            rules = parse_rules(lib, bodies, 3)
            for k, kind in enumerate(self.kinds):
                i = group * len(self.kinds) + k
                self.pool.append(self._instance(instance_rng(seed, self.name, i), kind,
                                                standard_basis, rules))

    def _instance(self, rng, kind, standard_basis, rules) -> VerdictInstance:
        inst = VerdictInstance(kind, standard_basis, rules, self.precision,
                               seed=rng.randrange(1 << 30))
        parse = self.lib.textio.parse_series
        if kind == "probe":
            inst.f = parse(format_terms(random_terms(rng, 3, (1, 2, 3))), 3)
        elif kind == "congruence":
            inst.g_terms = random_terms(rng, 3, (0, 2, 3))
            inst.g = parse(format_terms(inst.g_terms), 3)
            inst.q_terms = [random_terms(rng, 3, (0, 1, 2)) for _ in rules.bodies]
            inst.qs = [parse(format_terms(q), 3) for q in inst.q_terms]
        return inst

    def run(self, inst: VerdictInstance):
        rw = self.lib.rewrite
        rules = inst.rules.parsed
        if inst.kind == "falsify":
            return rw.falsify_standard_basis(rules, inst.p, self.trials, inst.seed)
        if inst.kind == "probe":
            seeds = [inst.seed + t for t in range(self.strategies)]
            return rw.confluence_probe(inst.f, rules, inst.p, seeds)
        combo = self.lib.series.TruncatedSeries.zero(3)
        for q, rule in zip(inst.qs, rules.rules):
            combo = combo.add(q.multiply(rule.body))
        f = inst.g.add(combo)
        return f, rw.congruence_test(f, inst.g, rules, inst.p)

    def check(self, inst: VerdictInstance, out) -> list[str]:
        return getattr(self, f"_check_{inst.kind}")(inst, out)

    def _check_falsify(self, inst, cert) -> list[str]:
        if cert is None:
            return []
        if inst.standard_basis:
            return ["certificate found for a standard basis"]
        errors = []
        if cert.phase not in ("pairwise", "random") or cert.trial < 1:
            errors.append(f"bad certificate position {cert.phase} {cert.trial}")
        combo = oracle.combination([oracle.terms(q) for q in cert.cofactors],
                                   inst.rules.bodies)
        if oracle.terms(cert.combination) != combo:
            errors.append("certificate combination differs from sum q_i s_i")
        nf = oracle.terms(cert.normal_form)
        if not oracle.truncate(nf, inst.p):
            errors.append("certificate normal form is zero below the precision")
        return errors + oracle.check_irreducible("certificate normal form", nf,
                                                 inst.rules.lms, inst.p)

    def _check_probe(self, inst, report) -> list[str]:
        errors = []
        ends = [(oracle.terms(e), e.precision) for e in report.ends]
        for k, (t, _p) in enumerate(ends):
            errors += oracle.check_irreducible(f"probe end {k}", t, inst.rules.lms, inst.p)
        seeds = [inst.seed + t for t in range(self.strategies)]
        expected = [(seeds[a], seeds[b]) + oracle.valuation_distance(*ends[a], *ends[b])
                    for a, b in itertools.combinations(range(len(seeds)), 2)]
        if list(report.pairwise) != expected:
            errors.append("probe distances differ from the oracle")
        threshold = Fraction(1, 2 ** inst.p)
        if inst.standard_basis and any(d > threshold for _a, _b, d, _u in expected):
            errors.append("normal forms diverge under a standard basis")
        return errors

    def _check_congruence(self, inst, out) -> list[str]:
        f, verdict = out
        rw = self.lib.rewrite
        errors = []
        difference = oracle.combination(inst.q_terms, inst.rules.bodies)
        if oracle.terms(f) != oracle.add_into(dict(inst.g_terms), difference):
            errors.append("f differs from g + sum q_i s_i")
        if isinstance(verdict, rw.Member):
            errors += oracle.check_cofactor_identity(
                difference, {}, [oracle.terms(q) for q in verdict.cofactors],
                inst.rules.bodies, inst.p)
        elif isinstance(verdict, rw.UnknownAtPrecision) and not inst.standard_basis:
            residual = oracle.terms(verdict.residual)
            if not oracle.truncate(residual, inst.p):
                errors.append("unknown verdict with a zero residual")
            errors += oracle.check_irreducible("residual", residual, inst.rules.lms, inst.p)
        else:
            errors.append(f"verdict {type(verdict).__name__} for a combination "
                          f"(standard basis: {inst.standard_basis})")
        return errors

    def render(self, inst: VerdictInstance, out) -> str:
        if inst.kind == "falsify":
            if out is None:
                return "falsify|none"
            return (f"falsify|{out.phase}|{out.trial}|{oracle.render_series(out.combination)}|"
                    f"{oracle.render_series(out.normal_form)}|"
                    + "".join(oracle.render_series(q) for q in out.cofactors))
        if inst.kind == "probe":
            return (f"probe|{out.seeds}|{[(a, b, str(d), u) for a, b, d, u in out.pairwise]}|"
                    + "".join(oracle.render_series(e) for e in out.ends))
        f, verdict = out
        rw = self.lib.rewrite
        parts = (verdict.cofactors if isinstance(verdict, rw.Member)
                 else [verdict.residual if isinstance(verdict, rw.UnknownAtPrecision)
                       else verdict.witness])
        return f"congruence|{oracle.render_series(f)}|{type(verdict).__name__}|" + \
            "".join(oracle.render_series(s) for s in parts)

    def count(self, inst: VerdictInstance, out, counts: dict) -> None:
        if inst.kind == "falsify":
            outputs = [] if out is None else [out.combination, out.normal_form, *out.cofactors]
            bump(counts, "certificates", out is not None)
        elif inst.kind == "probe":
            outputs = list(out.ends)
            bump(counts, "divergent_pairs", len(out.divergence_witnesses()))
        else:
            f, verdict = out
            outputs = [f, *getattr(verdict, "cofactors", ())]
            bump(counts, "members", isinstance(verdict, self.lib.rewrite.Member))
        ts = [oracle.terms(s) for s in outputs]
        peak(counts, "peak_support", max((len(t) for t in ts), default=0))
        peak(counts, "coeff_bits", max((oracle.coeff_bits(t) for t in ts), default=0))


# -- ars ----------------------------------------------------------------------

@dataclass
class SystemInstance:
    kind: str
    size: int
    edges: list[tuple[int, int]]
    system: object
    conversion: object = None
    conversion_start: int = 0
    expected_flags: tuple | None = None


def basin_system(rng: random.Random, size: int, family: str
                 ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Disjoint basins of 12-24 elements, relabelled at random.

    Within a basin, element k points to one or two of the next six, and
    the last element is its only sink, so every element reaches exactly
    that sink.  The families bend this:

    - "acyclic" keeps it.
    - "two-sinks" cuts the edges of the last-but-one element in some
      basins; both sinks are then reachable from one element, so the
      system is not confluent.
    - "back-edges" adds edges to earlier elements, which makes cycles
      but keeps the single sink.
    - "bottom-cycle" closes the sink onto its predecessor in some
      basins, so those basins have no normal form.

    Returns the edges and, per basin, its elements in topological order.
    """
    labels = list(range(size))
    rng.shuffle(labels)
    edges, basins = set(), []
    start = 0
    while start < size:
        m = min(rng.randint(12, 24), size - start)
        if size - start - m < 12:
            m = size - start
        nodes = labels[start:start + m]
        start += m
        basins.append(nodes)
        cut = family == "two-sinks" and rng.random() < 0.5
        for k in range(m - 1):
            if cut and k == m - 2:
                break
            for t in rng.sample(range(k + 1, min(m, k + 7)), min(rng.randint(1, 2), m - 1 - k)):
                edges.add((nodes[k], nodes[t]))
            if family == "back-edges" and k > 0 and rng.random() < 0.15:
                edges.add((nodes[k], nodes[rng.randrange(k)]))
        if family == "bottom-cycle" and rng.random() < 0.5:
            edges.add((nodes[m - 1], nodes[m - 2]))
    return sorted(edges), basins


def zigzag(rng: random.Random, edges: list[tuple[int, int]], basin: list[int],
           length: int) -> tuple[int, list[tuple[int, str]]]:
    """A random conversion from the basin's sink back to itself: `length`
    hops along edges in either direction, then straight down to the sink."""
    members = set(basin)
    succ = {a: [b for x, b in edges if x == a] for a in members}
    pred = {a: [x for x, b in edges if b == a] for a in members}
    sink = basin[-1]
    x, steps = sink, []
    for _ in range(length):
        moves = [(y, "forward") for y in succ[x]] + [(y, "backward") for y in pred[x]]
        x, d = rng.choice(moves)
        steps.append((x, d))
    while x != sink:
        x = rng.choice(succ[x])
        steps.append((x, "forward"))
    return sink, steps


class Ars:
    """check_properties on systems of 60-150 elements, interleaved with
    eliminate_valleys on normalising systems with unique normal forms.

    Every third operation is a valley elimination, on an acyclic basin
    system of 60-100 elements with a 20-40 hop conversion.  The others
    check systems from the four `basin_system` families, acyclic and
    cyclic in turn, over a ladder of seven sizes.
    """

    name = "ars"
    prefix = 126
    pool_size = 1260
    ladder = (60, 75, 90, 105, 120, 135, 150)
    families = (("acyclic", "two-sinks"), ("back-edges", "bottom-cycle"))

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.pool = [self._instance(instance_rng(seed, self.name, i), i)
                     for i in range(self.pool_size)]

    def _instance(self, rng: random.Random, i: int) -> SystemInstance:
        slot, phase = divmod(i, 3)
        if phase == 2:
            size = 60 + 10 * (slot % 5)
            edges, basins = basin_system(rng, size, "acyclic")
            start, steps = zigzag(rng, edges, rng.choice(basins), rng.randint(20, 40))
            conv_text = " ".join([str(start)] + [f"{'->' if d == 'forward' else '<-'} {e}"
                                                 for e, d in steps])
            inst = SystemInstance("valleys", size, edges, self._parse(size, edges),
                                  self.lib.textio.parse_conversion(conv_text), start)
        else:
            size = self.ladder[slot % len(self.ladder)]
            family = self.families[phase][slot // len(self.ladder) % 2]
            edges, _ = basin_system(rng, size, family)
            inst = SystemInstance("check", size, edges, self._parse(size, edges))
        return inst

    def _parse(self, size: int, edges: list[tuple[int, int]]):
        text = f"n={size}\n" + "".join(f"{a} -> {b}\n" for a, b in edges)
        return self.lib.textio.parse_ars_system(text)

    def run(self, inst: SystemInstance):
        if inst.kind == "check":
            return self.lib.ars.check_properties(inst.system)
        return self.lib.ars.eliminate_valleys(inst.system, inst.conversion)

    def check(self, inst: SystemInstance, out) -> list[str]:
        if inst.kind == "valleys":
            return oracle.check_valley_free(set(inst.edges), out.start, list(out.steps),
                                            inst.conversion_start)
        if inst.expected_flags is None:
            inst.expected_flags = oracle.ars_flags(inst.size, inst.edges)
        got = (out.normalising, out.nf_property, out.unique_nf_property,
               out.unique_nf_reached, out.confluent)
        return [] if got == inst.expected_flags else [
            f"flags {got} differ from the oracle's {inst.expected_flags}"]

    def render(self, inst: SystemInstance, out) -> str:
        if inst.kind == "check":
            return f"check|{inst.size}|{out.normalising}|{out.nf_property}|" \
                   f"{out.unique_nf_property}|{out.unique_nf_reached}|{out.confluent}"
        return f"valleys|{out.start}|{list(out.steps)}"

    def count(self, inst: SystemInstance, out, counts: dict) -> None:
        bump(counts, "ars_elements", inst.size)
        bump(counts, "ars_edges", len(inst.edges))
        if inst.kind == "valleys":
            bump(counts, "conversion_hops", len(out.steps))


# -- cli ----------------------------------------------------------------------

@dataclass
class Request:
    command: str
    config: object
    args: dict
    rule_count: int = 0


class Cli:
    """A stream of small `run_command` requests in kv mode, cycling over
    all nine commands, on tiny rule and system files written in set-up.

    Each round of nine requests takes the next rule file and system file
    in turn, and each pass over the rule files the next precision, 3 to
    5.  The rule files take the ten pairs of leading monomials in turn.
    Every system is one 14-element basin.
    """

    name = "cli"
    prefix = 900
    pool_size = 1620
    commands = ("nf", "cofactors", "member", "congruent", "delta", "check-sb",
                "probe", "ars check", "ars valleys")
    rule_files = 60
    leading_monomials = ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1))
    system_files = 30

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = instance_rng(seed, f"{self.name}-files", 0)
        self.rules = []
        pairs = list(itertools.combinations(self.leading_monomials, 2))
        for k in range(self.rule_files):
            bodies = []
            for lm in pairs[k % len(pairs)]:
                tail = random_terms(rng, 2, (sum(lm) + 1,))
                bodies.append(oracle.add_into({lm: Fraction(nonzero(rng))}, tail))
            path = workdir / f"rules_{k}.txt"
            path.write_text("".join(format_terms(b) + "\n" for b in bodies), encoding="utf-8")
            self.rules.append((str(path), len(bodies)))
        self.systems = []
        for k in range(self.system_files):
            size = 14
            edges, basins = basin_system(rng, size, "acyclic")
            path = workdir / f"system_{k}.txt"
            path.write_text(f"n={size}\n" + "".join(f"{a} -> {b}\n" for a, b in edges),
                            encoding="utf-8")
            conversions = []
            for _ in range(4):
                start, steps = zigzag(rng, edges, rng.choice(basins), rng.randint(4, 10))
                conversions.append(" ".join([str(start)] + [
                    f"{'->' if d == 'forward' else '<-'} {e}" for e, d in steps]))
            self.systems.append((str(path), conversions))
        self.pool = [self._request(instance_rng(seed, self.name, i), i)
                     for i in range(self.pool_size)]

    def _request(self, rng: random.Random, i: int) -> Request:
        command = self.commands[i % len(self.commands)]
        turn = i // len(self.commands)
        rules_path, rule_count = self.rules[turn % len(self.rules)]
        config = self.lib.cli.SessionConfig(n=2, precision=3 + turn // len(self.rules) % 3,
                                            seed=rng.randrange(1000),
                                            rules_path=rules_path, report="kv")

        def series() -> str:
            return format_terms(random_terms(rng, 2, sorted(rng.sample(range(3), 2))))

        if command.startswith("ars"):
            system_path, conversions = self.systems[turn % len(self.systems)]
            action = command.split()[1]
            args = {"action": action, "system": system_path}
            if action == "valleys":
                args["conversion"] = rng.choice(conversions)
            return Request("ars", config, args)
        args = {"nf": lambda: {"series": series()},
                "cofactors": lambda: {"series": series()},
                "member": lambda: {"series": series(), "assume_sb": rng.random() < 0.5},
                "congruent": lambda: {"series": series(), "series2": series(),
                                      "assume_sb": rng.random() < 0.5},
                "delta": lambda: {"series": series(), "series2": series()},
                "check-sb": lambda: {"trials": 2},
                "probe": lambda: {"series": series(), "strategies": 3}}[command]()
        return Request(command, config, args, rule_count)

    def run(self, req: Request):
        return self.lib.cli.run_command(req.config, req.command, req.args)

    def expected_keys(self, req: Request, rows: dict) -> list[str]:
        cofactors = [f"cofactor_{i}" for i in range(1, req.rule_count + 1)]
        if req.command == "ars":
            if req.args["action"] == "check":
                return ["command", "size", "edges", "normalising", "nf_property",
                        "unique_nf_property", "unique_nf_reached", "confluent"]
            return ["command", "conversion", "valleys", "endpoints_equal"]
        if req.command == "nf":
            steps = int(rows.get("steps", 0))
            return ["command", "normal_form", "steps", "end_precision"] + \
                [f"step_{k}" for k in range(1, steps + 1)]
        if req.command == "cofactors":
            return ["command", "residual", "steps"] + cofactors
        if req.command in ("member", "congruent"):
            tail = {"member": cofactors, "not_member": ["witness"],
                    "unknown_at_precision": ["residual"]}.get(rows.get("verdict"), ["?"])
            return ["command", "verdict"] + tail
        if req.command == "delta":
            return ["command", "delta", "upper_bound_only"]
        if req.command == "check-sb":
            found = ["phase", "trial", "combination", "normal_form"] + cofactors
            return ["command", "certificate"] + (found if rows.get("certificate") == "found"
                                                 else [])
        seeds = [req.config.seed + t for t in range(req.args["strategies"])]
        return ["command", "strategies", "threshold", "max_delta", "divergent_pairs"] + \
            [f"delta_{a}_{b}" for a, b in itertools.combinations(seeds, 2)]

    def check(self, req: Request, out) -> list[str]:
        status, text = out
        if status != 0:
            return [f"exit status {status}: {text.strip()}"]
        rows = kv_rows(text)
        keys, values = [k for k, _v in rows], dict(rows)
        errors = []
        if keys != self.expected_keys(req, values):
            errors.append(f"keys {keys} differ from {self.expected_keys(req, values)}")
        if req.args.get("action") == "valleys" and (
                values.get("valleys") != "0" or values.get("endpoints_equal") != "true"):
            errors.append(f"valley elimination left {values.get('valleys')} valleys")
        return errors

    def render(self, req: Request, out) -> str:
        status, text = out
        return f"{req.command}|{status}|{[k for k, _v in kv_rows(text)]}"

    def count(self, req: Request, out, counts: dict) -> None:
        values = dict(kv_rows(out[1]))
        bump(counts, "steps", int(values.get("steps", 0)))
        bump(counts, "ars_elements", int(values.get("size", 0)))
        bump(counts, "ars_edges", int(values.get("edges", 0)))


WORKLOADS = {w.name: w for w in (Reduce, Verdicts, Ars, Cli)}
