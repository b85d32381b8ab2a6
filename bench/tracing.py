"""Spans around dpcolor's layer functions, recorded from outside the package.

Tracer.install() replaces each layer function with a wrapper in every
dpcolor module that holds a reference to it, so a call is traced whichever
name its caller resolves (dpcolor.cli.cycle_spectrum and
dpcolor.discharging.cycle_spectrum are the same function imported twice).
Tracer.restore() puts the originals back.  Spans stay in memory; the
per-layer metrics are computed from them after the traced passes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass

#: (span name, module, attribute): the layer functions that get spans.
LAYERS = (
    ("graphs.parse_graph6", "dpcolor.graphs", "parse_graph6"),
    ("graphs.is_connected", "dpcolor.graphs", "is_connected"),
    ("graphs.cycle_spectrum", "dpcolor.graphs", "cycle_spectrum"),
    ("planar.brute_force_embed", "dpcolor.planar", "brute_force_embed"),
    ("planar.trace_faces", "dpcolor.planar", "trace_faces"),
    ("dp.find_coloring", "dpcolor.dp", "find_coloring"),
    ("solver.chi", "dpcolor.solver", "chi"),
    ("solver.chi_list", "dpcolor.solver", "chi_list"),
    ("solver.is_k_choosable", "dpcolor.solver", "is_k_choosable"),
    ("solver.chi_dp", "dpcolor.solver", "chi_dp"),
    ("solver.is_dp_k_colorable", "dpcolor.solver", "is_dp_k_colorable"),
    ("reducibility.find_pattern", "dpcolor.reducibility", "find_pattern"),
    ("discharging.audit", "dpcolor.discharging", "audit"),
    ("discharging.apply_rules", "dpcolor.discharging", "apply_rules"),
    ("discharging.classify_face_roles", "dpcolor.discharging",
     "classify_face_roles"),
)

#: The span the harness opens around each dpcolor.cli.main call.
ROOT = "cli"


def _adversary_attrs(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return (g, k, result is True)


def _audit_attrs(args, kwargs, result):
    return len(result.state.log)


#: Per-span data kept from a call's arguments and result.
ATTRS = {
    "solver.is_dp_k_colorable": _adversary_attrs,
    "discharging.audit": _audit_attrs,
}


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    trace: int  # one trace per CLI command
    name: str
    start: float
    end: float = 0.0
    attrs: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trace = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._trace += 1
        span = Span(len(self.spans), parent, self._trace, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dpcolor" or name.startswith("dpcolor.")]
        for span_name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Analysis.

def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    at = start
    for s, e in sorted(intervals):
        s, e = max(s, at), min(e, end)
        if e > s:
            total += e - s
            at = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - _covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span], assignment_count,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    assignment_count(g, k) gives the size of the adversary space for one
    is_dp_k_colorable call (dpcolor.solver.normalized_assignment_count).
    Every time is multiplied by scale, the pass's ratio of speed-scaled to
    unscaled time, so that times compare across runs like wall_s does.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + scale * own[s.id]
        durations.setdefault(s.name, []).append(scale * (s.end - s.start))
    wall = sum(d for d in durations.get(ROOT, ()))

    def per_call_us(name: str) -> float:
        n = calls.get(name, 0)
        return 1e6 * sum(durations.get(name, ())) / n if n else 0.0

    adversary = [s for s in spans if s.name == "solver.is_dp_k_colorable"]
    cases = [assignment_count(g, k) for g, k, _ in (s.attrs for s in adversary)]
    dp_s = durations.get("solver.is_dp_k_colorable", [])
    passed = [(d, c) for s, d, c in zip(adversary, dp_s, cases) if s.attrs[2]]
    passed_cases = sum(c for _, c in passed)
    dp_ms = [1e3 * d for d in dp_s]

    return {
        "graphs.cycle_spectrum.calls": calls.get("graphs.cycle_spectrum", 0),
        "graphs.cycle_spectrum.self_s": self_s.get("graphs.cycle_spectrum", 0.0),
        "graphs.cycle_spectrum.us_per_call": per_call_us("graphs.cycle_spectrum"),
        "graphs.cycle_spectrum.share":
            self_s.get("graphs.cycle_spectrum", 0.0) / wall if wall else 0.0,
        "graphs.parse_graph6.calls": calls.get("graphs.parse_graph6", 0),
        "graphs.parse_graph6.self_s": self_s.get("graphs.parse_graph6", 0.0),
        "graphs.is_connected.self_s": self_s.get("graphs.is_connected", 0.0),
        "planar.brute_force_embed.calls": calls.get("planar.brute_force_embed", 0),
        "planar.brute_force_embed.self_s":
            self_s.get("planar.brute_force_embed", 0.0),
        "planar.trace_faces.calls": calls.get("planar.trace_faces", 0),
        "planar.trace_faces.self_s": self_s.get("planar.trace_faces", 0.0),
        "solver.is_dp_k_colorable.calls": len(adversary),
        "solver.is_dp_k_colorable.self_s":
            self_s.get("solver.is_dp_k_colorable", 0.0),
        "solver.is_dp_k_colorable.p50_ms": _percentile(dp_ms, 50),
        "solver.is_dp_k_colorable.p99_ms": _percentile(dp_ms, 99),
        "solver.is_dp_k_colorable.share":
            self_s.get("solver.is_dp_k_colorable", 0.0) / wall if wall else 0.0,
        "solver.space_cases": sum(cases),
        "solver.us_per_case":
            1e6 * sum(d for d, _ in passed) / passed_cases if passed_cases else 0.0,
        "solver.is_k_choosable.calls": calls.get("solver.is_k_choosable", 0),
        "solver.is_k_choosable.self_s": self_s.get("solver.is_k_choosable", 0.0),
        "solver.chi.self_s": self_s.get("solver.chi", 0.0),
        "dp.find_coloring.calls": calls.get("dp.find_coloring", 0),
        "dp.find_coloring.us_per_call": per_call_us("dp.find_coloring"),
        "discharging.audit.self_s": self_s.get("discharging.audit", 0.0),
        "discharging.apply_rules.self_s": self_s.get("discharging.apply_rules", 0.0),
        "discharging.classify_face_roles.self_s":
            self_s.get("discharging.classify_face_roles", 0.0),
        "discharging.transfers": sum(s.attrs for s in spans
                                     if s.name == "discharging.audit"),
        "reducibility.find_pattern.calls": calls.get("reducibility.find_pattern", 0),
        "reducibility.find_pattern.self_s":
            self_s.get("reducibility.find_pattern", 0.0),
        "cli.self_s": self_s.get(ROOT, 0.0),
        "trace.wall_s": wall,
    }


UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us", "share": "ratio",
    "p50_ms": "ms", "p99_ms": "ms", "space_cases": "count",
    "us_per_case": "us", "transfers": "count", "wall_s": "s",
    "untraced_wall_s": "s", "overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes (counts repeat exactly)."""
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
