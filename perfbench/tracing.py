"""In-memory spans around calls into fsclass modules.

A span records its name, start, end, parent span and command id, plus the
tracemalloc peak reached inside it (above the traced memory at its start).
Spans are only ever recorded inside a forked command child, so patching the
library there leaves the parent process and later commands untouched.
"""
from __future__ import annotations

import json
import time
import tracemalloc

# Library names that fsclass.cli calls, by the span they belong to.  The
# patch follows whatever cli.py imports: a name it stops calling simply
# records no span.
CLI_SPANS = {
    "build_algebra": "algebra.build_algebra",
    "check_cstar": "algebra.check_cstar",
    "separability_idempotent": "algebra.separability_idempotent",
    "real_form_from_S": "algebra.real_form",
    "group_algebra": "constructors.build",
    "drinfeld_double": "constructors.build",
    "groupoid_weak_hopf": "constructors.build",
    "scheme_from_matrices": "constructors.build",
    "table_algebra": "constructors.build",
    "FDStarCoalgebra": "constructors.build",
    "regular_representation": "reps.regular_representation",
    "decompose": "reps.decompose",
    "canonical_g": "indicators.canonical_g",
    "full_report": "indicators.full_report",
    "classify_sigma": "indicators.classify_sigma",
    "dualize": "coalgebra.dualize",
    "compact_decompose": "coalgebra.compact_decompose",
    "corep_indicator": "coalgebra.corep_indicator",
}
# Objects cli.py reaches through an attribute: (cli global, attribute
# prefix, span).
CLI_ATTR_SPANS = [
    ("fio", "load_", "io.load"),
    ("GroupTable", "validated", "constructors.build"),
    ("GroupoidData", "validated", "constructors.build"),
    ("TableAlgebraData", "validated", "constructors.build"),
    ("json", "dumps", "cli.format"),
]
ROOT = "cli.self"   # one per command; its self time is the CLI's own work

SPANS = ["io.load", "constructors.build", "algebra.build_algebra",
         "algebra.check_cstar", "algebra.separability_idempotent",
         "algebra.real_form", "reps.regular_representation", "reps.decompose",
         "indicators.canonical_g", "indicators.full_report",
         "indicators.classify_sigma", "coalgebra.dualize",
         "coalgebra.compact_decompose", "coalgebra.corep_indicator",
         "cli.format", ROOT]
# Spans that run on every workload report their own self time; the rest
# are reported through the groups below, which run everywhere too, so that
# no per-layer time is a constant zero on some workload.
TIME_SPANS = ["io.load", "algebra.separability_idempotent", "algebra.real_form",
              "reps.regular_representation", "reps.decompose",
              "indicators.full_report", "indicators.classify_sigma",
              "coalgebra.dualize", "coalgebra.compact_decompose",
              "coalgebra.corep_indicator", "cli.format", ROOT]
TIME_GROUPS = {
    "build": ["constructors.build", "algebra.build_algebra"],
    "algebra": [s for s in SPANS if s.startswith("algebra.")],
    "indicators": [s for s in SPANS if s.startswith("indicators.")],
}


class Tracer:
    """Collects spans of one command; nothing is written until dump().

    With memory=True each span also gets its tracemalloc peak, which slows
    Python-heavy code several times over, so span times are taken from
    passes run with memory=False.
    """

    def __init__(self, command_id: int, memory: bool):
        self.command_id = command_id
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [index, traced at start, peak so far]
        if memory:
            tracemalloc.start()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        traced.__wrapped__ = fn
        return traced

    def _enter(self, name: str) -> None:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": self._stack[-1][0] if self._stack else None,
                           "command": self.command_id, "peak_mb": None})
        self._stack.append([len(self.spans) - 1, cur, cur])

    def _exit(self) -> None:
        end = time.perf_counter()
        i, base, peak = self._stack.pop()
        self.spans[i]["end"] = end
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.spans[i]["peak_mb"] = (peak - base) / 2**20
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _Proxy:
    """Forwards every attribute to obj, wrapping those starting with prefix."""

    def __init__(self, obj, prefix: str, tracer: Tracer, span: str):
        self._obj, self._prefix = obj, prefix
        self._tracer, self._span = tracer, span

    def __getattr__(self, attr):
        val = getattr(self._obj, attr)
        if attr.startswith(self._prefix) and callable(val):
            return self._tracer.wrap(self._span, val)
        return val


def patch_cli(tracer: Tracer) -> None:
    """Puts spans at the CLI -> module boundary of this (child) process."""
    from fsclass import cli
    from fsclass.indicators import IndicatorReport
    for name, span in CLI_SPANS.items():
        if hasattr(cli, name):
            setattr(cli, name, tracer.wrap(span, getattr(cli, name)))
    for name, prefix, span in CLI_ATTR_SPANS:
        if hasattr(cli, name):
            setattr(cli, name, _Proxy(getattr(cli, name), prefix, tracer, span))
    for meth in ("to_json", "to_csv"):
        setattr(IndicatorReport, meth,
                tracer.wrap("cli.format", getattr(IndicatorReport, meth)))


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover
    (spans of one command never overlap, since nothing runs concurrently)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
