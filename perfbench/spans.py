"""Tracing of perprop from outside: wrappers installed on the names callers
look up, spans kept in memory, and the per-layer metrics derived from them.

Nothing in perprop knows about this module.  `Tracer.install` replaces each
target function with a wrapper on every perprop module attribute bound to it
(so `perprop.dynamics.reduce_cyclotomic`, which dynamics imported by name,
is wrapped as well as `perprop.residue_fields.reduce_cyclotomic`), and
`Tracer.uninstall` puts the originals back.  Hot scalar functions are only
counted; everything else records a span: name, start, end and parent.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _image_passes(counts, args, result) -> None:
    # one forward-image pass per entry after the first, each gathering the
    # previous image
    counts["dynamics.image_passes"] += len(result) - 1
    counts["dynamics.image_pass_elems"] += sum(result[:-1])


def _doubling_passes(counts, args, result) -> None:
    steps, passes = 1, 0
    while steps < args[0].size:
        steps *= 2
        passes += 1
    counts["dynamics.doubling_passes"] += passes


def _graph_built(counts, args, result) -> None:
    counts[f"dynamics.points.f{args[0].field.f}"] += result.size
    counts["dynamics.graph_bytes_max"] = max(
        counts["dynamics.graph_bytes_max"], result.successor.nbytes
    )


def _add_len(name):
    def hook(counts, args, result) -> None:
        counts[name] += len(result)
    return hook


def _orbit_steps(counts, args, result) -> None:
    counts["powermap.orbit_steps"] += result.steps


# (module, attribute, kind, extra).  kind "span" records a span named
# "<module>.<attribute>" and passes the result to the hook in extra; kind
# "count" only counts calls under the name in extra; kind "radius" counts
# radius checks and those settled without an interval enclosure.
TARGETS = [
    ("cli", "compute_row", "span", None),
    ("residue_fields", "prime_stream", "span", _add_len("residue_fields.primes")),
    ("residue_fields", "make_field", "span", None),
    ("residue_fields", "reduce_cyclotomic", "span", None),
    ("residue_fields", "ResidueField.mul", "count", "residue_fields.field_mul_calls"),
    ("dynamics", "reduce_map", "span", None),
    ("dynamics", "build_graph", "span", _graph_built),
    ("dynamics", "periodic_count", "span", _doubling_passes),
    ("dynamics", "image_size_sequence", "span", _image_passes),
    ("dynamics", "is_bijective", "span", None),
    ("powermap", "zero_orbit_report", "span", _orbit_steps),
    ("powermap", "classify_regime", "span", None),
    ("powermap", "build_B1", "span", None),
    ("powermap", "b_n_permset", "span", None),
    ("powermap", "_exceeds_radius", "radius", None),
    ("cyclotomic", "cyc_pow", "span", None),
    ("cyclotomic", "embedding_abs_floats", "count", "cyclotomic.float_checks"),
    ("cyclotomic", "embedding_abs_sq_intervals", "count", "cyclotomic.interval_checks"),
    ("indicatrix", "indicatrix_of", "span", None),
    ("indicatrix", "iterate_at_zero", "span", None),
    ("indicatrix", "epsilon_index", "span", None),
    ("indicatrix", "value_at", "count", "indicatrix.horner_evals"),
    ("perms", "fpp", "span", None),
    ("wreath", "iterated_wreath", "span", _add_len("wreath.elements")),
    ("bounds", "fix_class_count", "span", None),
    ("bounds", "error_term", "span", None),
]


class Tracer:
    """Spans and counters of one traced pass, kept per thread and merged at
    the end, so the sweep's worker threads never share a counter."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[tuple[list[Span], defaultdict]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.counts = [], defaultdict(int)
            is_main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if is_main else []
            with self._lock:
                self._buffers.append((local.spans, local.counts))
        return local

    @contextlib.contextmanager
    def span(self, name: str):
        local = self._state()
        stack = local.stack
        if stack:
            parent = stack[-1]
        else:  # a worker thread's first span hangs under the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            local.spans.append(Span(span_id, parent, name, start, end))

    def _span_wrapper(self, name, fn, hook):
        tracer = self
        by_degree = name == "dynamics.build_graph"  # one span name per residue degree

        def wrapper(*args, **kwargs):
            with tracer.span(f"{name}.f{args[0].field.f}" if by_degree else name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer._state().counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _radius_wrapper(self, fn):
        # a radius check is settled in floats when it made no interval call
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer._state().counts
            before = counts["cyclotomic.interval_checks"]
            result = fn(*args, **kwargs)
            counts["powermap.radius_checks"] += 1
            if counts["cyclotomic.interval_checks"] == before:
                counts["powermap.radius_float_decided"] += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "perprop" or n.startswith("perprop.")}
        for mod_name, attr, kind, extra in TARGETS:
            module = modules.get(f"perprop.{mod_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if kind == "span":
                wrapper = self._span_wrapper(f"{mod_name}.{leaf}", original, extra)
            elif kind == "count":
                wrapper = self._count_wrapper(extra, original)
            else:
                wrapper = self._radius_wrapper(original)
            if owner_name:  # a method: wrap it on its class
                self._bind(owner, leaf, original, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, original, wrapper)

    def _bind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def collect(self) -> tuple[list[Span], dict[str, int]]:
        spans: list[Span] = []
        counts: dict[str, int] = defaultdict(int)
        for buf_spans, buf_counts in self._buffers:
            spans.extend(buf_spans)
            for key, value in buf_counts.items():
                if key == "dynamics.graph_bytes_max":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        spans.sort(key=lambda s: s.start)
        return spans, counts


def union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, ())) for s in spans}


# Per-layer metric names, units and directions, in report order.  A metric
# in seconds sums the spans named by dropping its last "_s"
# (dynamics.build_graph_s.f2 sums the spans dynamics.build_graph.f2); the
# cli.* metrics and the fractions are derived in layer_metrics.
LAYER_METRICS = [
    ("cli.compute_row_s", "s", "lower"),
    ("cli.output_s", "s", "lower"),
    ("cli.pool_busy_frac", "ratio", "higher"),
    ("residue_fields.prime_stream_s", "s", "lower"),
    ("residue_fields.primes", "count", "higher"),
    ("residue_fields.make_field_s", "s", "lower"),
    ("residue_fields.reduce_cyclotomic_s", "s", "lower"),
    ("residue_fields.field_mul_calls", "count", "lower"),
    ("dynamics.build_graph_s.f1", "s", "lower"),
    ("dynamics.build_graph_s.f2", "s", "lower"),
    ("dynamics.build_graph_s.f4", "s", "lower"),
    ("dynamics.points.f1", "count", "higher"),
    ("dynamics.points.f2", "count", "higher"),
    ("dynamics.points.f4", "count", "higher"),
    ("dynamics.image_size_sequence_s", "s", "lower"),
    ("dynamics.image_passes", "count", "lower"),
    ("dynamics.image_pass_elems", "count", "lower"),
    ("dynamics.periodic_count_s", "s", "lower"),
    ("dynamics.doubling_passes", "count", "lower"),
    ("dynamics.is_bijective_s", "s", "lower"),
    ("dynamics.reduce_map_s", "s", "lower"),
    ("dynamics.graph_bytes_max", "bytes", "lower"),
    ("powermap.zero_orbit_report_s", "s", "lower"),
    ("powermap.orbit_steps", "count", "lower"),
    ("powermap.classify_regime_s", "s", "lower"),
    ("powermap.build_B1_s", "s", "lower"),
    ("powermap.b_n_permset_s", "s", "lower"),
    ("cyclotomic.cyc_pow_s", "s", "lower"),
    ("cyclotomic.float_checks", "count", "lower"),
    ("cyclotomic.interval_checks", "count", "lower"),
    ("cyclotomic.float_decided_frac", "ratio", "higher"),
    ("indicatrix.indicatrix_of_s", "s", "lower"),
    ("indicatrix.iterate_at_zero_s", "s", "lower"),
    ("indicatrix.epsilon_index_s", "s", "lower"),
    ("indicatrix.horner_evals", "count", "lower"),
    ("perms.fpp_s", "s", "lower"),
    ("wreath.iterated_wreath_s", "s", "lower"),
    ("wreath.elements", "count", "lower"),
    ("bounds.fix_class_count_s", "s", "lower"),
    ("bounds.error_term_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

SWEEP_SPANS = ("cli.main.sweep", "bench.inert_sweep")


def layer_metrics(spans: list[Span], counts: dict[str, int], threads: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (without the trace.* ones)."""
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
    out: dict[str, float] = {}
    for name, unit, _ in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        if unit == "s":
            head, _, tail = name.rpartition("_s")
            out[name] = total[head + tail]
        elif unit in ("count", "bytes"):
            out[name] = counts.get(name, 0)
    sweep_wall = sum(total[n] for n in SWEEP_SPANS)
    busy = union_length((s.start, s.end) for s in spans if s.name == "cli.compute_row")
    if sweep_wall:
        out["cli.output_s"] = sweep_wall - total["residue_fields.prime_stream"] - busy
        out["cli.pool_busy_frac"] = total["cli.compute_row"] / (threads * sweep_wall)
    else:
        out["cli.output_s"] = out["cli.pool_busy_frac"] = 0.0
    checks = counts.get("powermap.radius_checks", 0)
    decided = counts.get("powermap.radius_float_decided", 0)
    out["cyclotomic.float_decided_frac"] = decided / checks if checks else 0.0
    return out
