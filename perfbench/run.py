"""Seeded closed-loop benchmark of the psrewrite engine.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports the package from ``src/``
and calls the library in one process with one client: the next operation
starts only after the previous one has returned and been checked.

The seed builds a pool of inputs (see ``workloads``).  The run takes
operations from the pool in order until ``--seconds`` have passed, and
always does at least the workload's first ``prefix`` operations.  Every
output is checked by the benchmark's own code, outside the timed
interval.  An exception or a failed check counts as a failed operation,
and is never dropped or retried.

The seeded-output digest and the exact work counts cover the first
``prefix`` operations.  When ``reference.json`` holds them for the seed,
a mismatch fails those operations.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

- ``ops_per_s``: operations per second of time spent inside them.
- ``latency_p50_ms`` and ``latency_p90_ms``: per-operation wall time.
- ``peak_rss_mb``: this process's ``ru_maxrss``.
- ``setup_s``: the median of five set-ups, this one plus four in fresh
  processes.  Each covers import, input generation, rule parsing and
  writing the rule and system files.

Times are rescaled to a reference speed.  On a shared 2-core x86 host
with Python 3.11, the interpreter's speed swung by up to a half between
20-second runs, and the swing hit every process alike.  Over ten seeds
the raw wall-time metrics spread 13-31% (quartile distance over median),
and the rescaled ones 1-5%.  So after each 50 ms of operations the run
times a fixed kernel of the benchmark's own code (`kernel_ns`).  Each
operation's wall time is multiplied by the kernel's reference time
(``kernel_ns`` in ``reference.json``: 1 ms) over the kernel time
measured around it.  Each set-up is scaled by the kernel timed just
before and after it.  The raw wall-time figures go to standard error.

With ``--trace 1`` it holds the per-layer metrics.  The run alternates
plain and traced passes over the first ``prefix`` operations.  Counts
come from one traced pass, and self times are medians over the traced
passes.  The spans of the first traced pass are written to
``perfbench/out/spans-<workload>.jsonl``.  Details (sample count,
digest, work counts, the first errors) go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracle
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 5
SHOWN_ERRORS = 5
CALIBRATE_EVERY_NS = 50_000_000
KERNEL_SERIES = {(i, j, k): Fraction(i + 2 * j - k + 1, 1 + k)
                 for i in range(3) for j in range(2) for k in range(2)}
KERNEL_EDGES = [(a, (7 * a + 3) % 24) for a in range(24)] + [(a, a + 1) for a in range(0, 23, 3)]


def kernel_ns() -> int:
    """Time one run of a fixed kernel: an exact product of two series and
    the flags of a small finite system, both in the benchmark's own code,
    so no change to the program moves it."""
    start = time.perf_counter_ns()
    oracle.multiply(KERNEL_SERIES, KERNEL_SERIES, 7)
    oracle.ars_flags(24, KERNEL_EDGES)
    return time.perf_counter_ns() - start


def load_library() -> SimpleNamespace:
    """Import psrewrite from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import psrewrite
    from psrewrite import ars, cli, monomials, rewrite, series, textio
    if not Path(psrewrite.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"psrewrite came from {psrewrite.__file__}, not {src}")
    return SimpleNamespace(ars=ars, cli=cli, monomials=monomials, rewrite=rewrite,
                           series=series, textio=textio)


class Record:
    """Seeded-output digest and work counts of one pass over the prefix."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.counts: dict[str, int] = {}

    def summary(self) -> dict:
        return {"digest": self.sha.hexdigest(), "counts": dict(sorted(self.counts.items()))}


class Checker:
    """Checks every output and compares each input's rendering with its
    earlier runs in this process."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._hashes: dict[int, bytes] = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < SHOWN_ERRORS:
            self.errors.append(message)

    def settle(self, i: int, inst, out, exc: Exception | None, record: Record | None) -> None:
        wl = self.workload
        self.attempted += 1
        if exc is not None:
            errors, rendering = [f"{type(exc).__name__}: {exc}"], f"raised {type(exc).__name__}"
        else:
            try:
                errors, rendering = wl.check(inst, out), wl.render(inst, out)
            except Exception as check_exc:  # a malformed output is a failed operation
                errors, rendering = [f"check raised {check_exc!r}"], "unreadable"
        h = hashlib.sha256(rendering.encode()).digest()
        if self._hashes.setdefault(i % len(wl.pool), h) != h:
            errors.append("output differs from an earlier run of the same input")
        if record is not None:
            record.sha.update(h)
            if not errors:
                wl.count(inst, out, record.counts)
        if errors:
            self.fail(1, f"op {i}: {'; '.join(errors)}")


def call(workload, inst, tracer: Tracer | None, i: int):
    """One operation: (output, exception, nanoseconds)."""
    out = exc = None
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            out = workload.run(inst)
        else:
            out = tracer.run_op(i, f"op.{workload.name}", workload.run, inst)
    except Exception as err:  # counted as a failed operation
        exc = err
    return out, exc, time.perf_counter_ns() - start


def timed_run(workload, checker: Checker, seconds: float, kernel_ref: float):
    """Closed loop over the pool; returns raw and rescaled latencies (ns),
    the kernel times and the prefix record."""
    record = Record()
    raw = array("q")        # compact, so the run's length barely moves peak_rss_mb
    block_of = array("l")
    kernels = [kernel_ns()]
    since = 0
    pool = workload.pool
    begin = time.perf_counter()
    i = 0
    while i < workload.prefix or time.perf_counter() - begin < seconds:
        inst = pool[i % len(pool)]
        out, exc, ns = call(workload, inst, None, i)
        raw.append(ns)
        block_of.append(len(kernels) - 1)
        checker.settle(i, inst, out, exc, record if i < workload.prefix else None)
        i += 1
        since += ns
        if since >= CALIBRATE_EVERY_NS:
            kernels.append(kernel_ns())
            since = 0
    kernels.append(kernel_ns())
    scale = [2 * kernel_ref / (a + b) for a, b in zip(kernels, kernels[1:])]
    scaled = array("d", (ns * scale[k] for ns, k in zip(raw, block_of)))
    return raw, scaled, kernels, record


def latency_metrics(latencies) -> tuple[float, float, float]:
    """(operations per second, p50 ms, p90 ms) of per-operation times in ns."""
    return (len(latencies) / (sum(latencies) / 1e9), statistics.median(latencies) / 1e6,
            statistics.quantiles(latencies, n=10)[8] / 1e6)


def prefix_pass(workload, checker: Checker, tracer: Tracer | None) -> tuple[int, Record]:
    record = Record()
    busy = 0
    for i in range(workload.prefix):
        inst = workload.pool[i % len(workload.pool)]
        out, exc, ns = call(workload, inst, tracer, i)
        busy += ns
        checker.settle(i, inst, out, exc, record)
    return busy, record


def traced_run(workload, checker: Checker, seconds: float):
    plain, traced, tracers, records = [], [], [], []
    begin = time.perf_counter()
    while not tracers or time.perf_counter() - begin < seconds:
        busy, record = prefix_pass(workload, checker, None)
        plain.append(busy)
        records.append(record)
        tracer = Tracer(keep_spans=not tracers)
        tracer.install()
        try:
            busy, record = prefix_pass(workload, checker, tracer)
        finally:
            tracer.uninstall()
        traced.append(busy)
        records.append(record)
        tracers.append(tracer)
    return plain, traced, tracers, records


def layer_metrics(tracers: list[Tracer], plain: list[int], traced: list[int]) -> dict:
    first = tracers[0]

    def calls(name):
        return first.calls[name], "count"

    def self_ms(name):
        return statistics.median(t.self_ns[name] for t in tracers) / 1e6, "ms"

    def ratio(a, b):
        return a / b if b else 0.0

    normalize_ns = statistics.median(t.total_ns["rewrite.normalize"] for t in tracers)
    cofactors_ns = statistics.median(t.total_ns["rewrite.cofactors"] for t in tracers)
    metrics = {}
    for name in ("monomials.divides", "monomials.multiply", "monomials.order_key",
                 "series.construct", "series.add", "series.scale_term", "series.multiply",
                 "rewrite.reduce_step", "rewrite.reducible_monomials", "ars.successors",
                 "ars.reachable", "textio.parse", "textio.format", "cli.run_command"):
        metrics[f"{name}.calls"] = calls(name)
    for name in ("series.add", "series.scale_term", "series.multiply", "rewrite.reduce_step",
                 "rewrite.reducible_monomials", "rewrite.normalize", "rewrite.cofactors",
                 "rewrite.normalize_random", "rewrite.falsify", "rewrite.probe",
                 "rewrite.congruence_test", "ars.check_properties", "ars.successors",
                 "ars.eliminate_valleys", "textio.parse", "textio.format",
                 "cli.run_command"):
        metrics[f"{name}.self_ms"] = self_ms(name)
    metrics["series.coeff_bits.max"] = first.coeff_bits, "bits"
    metrics["rewrite.peak_support"] = first.peak_support, "count"
    metrics["rewrite.cofactors_per_normalize"] = ratio(cofactors_ns, normalize_ns), "ratio"
    metrics["rewrite.falsify.found_share"] = (
        ratio(first.found, first.calls["rewrite.falsify"]), "share")
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "share")
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, op, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")


def compare_reference(expected_outputs: dict, workload, seed: int, summary: dict,
                      checker: Checker) -> None:
    """Fail the prefix when the stored digest or counts for this seed differ."""
    expected = expected_outputs.get(workload.name, {}).get(str(seed))
    if expected is not None and expected != summary:
        checker.fail(workload.prefix, f"seed {seed}: digest or counts {summary} "
                                      f"differ from reference.json {expected}")


def setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time in seconds and exit")
    return p.parse_args(argv)


def kernel_median(runs: int = 5) -> float:
    return statistics.median(kernel_ns() for _ in range(runs))


def main(argv=None) -> int:
    kernel_before = kernel_median()
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"error: cannot import psrewrite from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](lib, args.seed, workdir)
        setup_raw = time.perf_counter() - started
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        kernel_ref = ref["kernel_ns"]
        setup_s = setup_raw * 2 * kernel_ref / (kernel_before + kernel_median())
        if args.setup_only:
            print(repr(setup_s))
            return 0
        checker = Checker(workload)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "python": sys.version.split()[0], "cores": os.cpu_count()}
        if args.trace:
            plain, traced, tracers, records = traced_run(workload, checker, args.seconds)
            summaries = [r.summary() for r in records]
            if any(s != summaries[0] for s in summaries):
                checker.fail(workload.prefix, "digest or counts differ between passes")
            if any(t.calls != tracers[0].calls for t in tracers):
                checker.fail(workload.prefix, "call counts differ between traced passes")
            spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
            write_spans(tracers[0], spans_path)
            metrics = layer_metrics(tracers, plain, traced)
            detail.update(passes=len(traced), spans=str(spans_path.relative_to(ROOT)),
                          unhooked=tracers[0].missing)
        else:
            samples = [setup_s] + [setup_in_fresh_process(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            raw, scaled, kernels, record = timed_run(workload, checker, args.seconds,
                                                     kernel_ref)
            summaries = [record.summary()]
            ops, p50, p90 = latency_metrics(scaled)
            metrics = {
                "ops_per_s": (ops, "1/s"),
                "latency_p50_ms": (p50, "ms"),
                "latency_p90_ms": (p90, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
                "setup_s": (statistics.median(samples), "s"),
            }
            detail.update(samples=len(raw), setup_samples=samples, setup_raw_s=setup_raw,
                          kernel_median_ns=statistics.median(kernels),
                          raw=dict(zip(("ops_per_s", "latency_p50_ms", "latency_p90_ms"),
                                       latency_metrics(raw))))
        compare_reference(ref["outputs"], workload, args.seed, summaries[0], checker)
        detail.update(summaries[0], failed_share=checker.failed / checker.attempted,
                      errors=checker.errors)
        print(json.dumps(detail), file=sys.stderr)
        print(json.dumps({
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
