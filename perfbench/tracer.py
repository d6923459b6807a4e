"""Spans and counts at psrewrite's layer boundaries, recorded from outside.

`Tracer.install` replaces each hooked function, in every module of the
package that binds it and in every class attribute that aliases it, with
a wrapper; `uninstall` puts the originals back.  Sub-microsecond
monomial and constructor calls only count, since a timer around them
would mostly time itself.  Every other hook records a span: name, start,
end, parent span and operation id.

Self time is a span's duration minus the durations of its child spans
and minus the wrappers' own post-processing inside it.  The counting
wrappers' cost still lands in their caller's self time, and
`trace.overhead_share` reports what the hooks cost in total.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _series_bits(tracer: Tracer, series) -> None:
    for _m, c in series.items():
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > tracer.coeff_bits:
            tracer.coeff_bits = bits


def _step_support(tracer: Tracer, result) -> None:
    tracer.peak_support = max(tracer.peak_support, len(result[0].items()))


def _falsify_found(tracer: Tracer, result) -> None:
    tracer.found += result is not None


# (metric name, module, owner class or None, attribute, records a span, post-hook)
HOOKS = [
    ("monomials.divides", "monomials", "Monomial", "divides", False, None),
    ("monomials.multiply", "monomials", "Monomial", "multiply", False, None),
    ("monomials.order_key", "monomials", "MonomialOrder", "key", False, None),
    ("series.construct", "series", "TruncatedSeries", "__init__", False, None),
    ("series.add", "series", "TruncatedSeries", "add", True, _series_bits),
    ("series.scale_term", "series", "TruncatedSeries", "scale_term", True, _series_bits),
    ("series.multiply", "series", "TruncatedSeries", "multiply", True, _series_bits),
    ("rewrite.reduce_step", "rewrite", None, "reduce_step", True, _step_support),
    ("rewrite.reducible_monomials", "rewrite", None, "reducible_monomials", True, None),
    ("rewrite.normalize", "rewrite", None, "normalize", True, None),
    ("rewrite.normalize_random", "rewrite", None, "normalize_random", True, None),
    ("rewrite.cofactors", "rewrite", None, "cofactors", True, None),
    ("rewrite.falsify", "rewrite", None, "falsify_standard_basis", True, _falsify_found),
    ("rewrite.probe", "rewrite", None, "confluence_probe", True, None),
    ("rewrite.congruence_test", "rewrite", None, "congruence_test", True, None),
    ("ars.check_properties", "ars", None, "check_properties", True, None),
    ("ars.successors", "ars", "FiniteARS", "successors", True, None),
    ("ars.reachable", "ars", None, "reachable", True, None),
    ("ars.eliminate_valleys", "ars", None, "eliminate_valleys", True, None),
    ("textio.parse", "textio", None, "parse_series", True, None),
    ("textio.parse", "textio", None, "parse_rules", True, None),
    ("textio.parse", "textio", None, "parse_ars_system", True, None),
    ("textio.parse", "textio", None, "parse_conversion", True, None),
    ("textio.format", "textio", None, "format_series", True, None),
    ("textio.format", "textio", None, "format_trace", True, None),
    ("textio.format", "textio", None, "format_conversion", True, None),
    ("cli.run_command", "cli", None, "run_command", True, None),
]


class Tracer:
    """Collects spans and counts for one traced pass; spans stay in memory
    until the caller writes them out."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []   # (id, parent, op, name, start_ns, end_ns)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.peak_support = 0
        self.coeff_bits = 0
        self.found = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []   # [span id, ns covered by children]
        self._next_id = 0
        self._op = None
        self._patches: list[tuple] = []

    def _counting(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, name: str, fn, post=None):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                tracer.total_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans:
                    tracer.spans.append((sid, parent, tracer._op, name, start, end))
            if post is not None:
                post_start = clock()
                post(tracer, result)
                if stack:
                    stack[-1][1] += clock() - post_start
            return result
        return wrapper

    def run_op(self, op_id: int, name: str, fn, arg):
        """Call fn(arg) as the root span of operation op_id."""
        self._op = op_id
        try:
            return self._spanning(name, fn)(arg)
        finally:
            self._op = None

    def install(self, package: str = "psrewrite") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for name, module, owner, attr, spans, post in HOOKS:
            home = sys.modules.get(f"{package}.{module}")
            holder = getattr(home, owner, None) if owner else home
            original = vars(holder).get(attr) if holder is not None else None
            if original is None:
                self.missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
                continue
            wrapper = (self._spanning(name, original, post) if spans
                       else self._counting(name, original))
            for namespace in [holder] if owner else modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._patches.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            setattr(namespace, key, original)
        self._patches.clear()
