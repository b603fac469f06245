"""Layer tracing installed from the benchmark's own code.

:class:`Tracer` wraps the public functions of the wallcross modules (listed
in :data:`TARGETS`) for the duration of a ``with tracer.installed():`` block
and restores the originals afterwards.  Each wrapped call adds to its
function's ``calls``, inclusive time ``s`` and ``self_s`` (``s`` minus the
time covered by wrapped calls made inside it).  Calls of the coarse layers
are also recorded as spans ``(id, parent, trace, name, start, end)`` kept in
memory; the hot series kernels are only aggregated, as counters on the span
that encloses them.

Names bound at import time are patched where they are looked up:
``scattering`` imports ``exp``/``log``/``compose``/``bch`` by name, so those
are wrapped both in ``vertexlie`` and in ``scattering``, under one metric.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute path, metric name, hot): hot functions get no spans.
TARGETS = (
    ("wallcross.cli", "main", "cli.main", False),
    ("wallcross.serialize", "diagram_from_json", "serialize.diagram_from_json", False),
    ("wallcross.serialize", "bps_from_json", "serialize.bps_from_json", False),
    ("wallcross.serialize", "diagram_to_json", "serialize.diagram_to_json", False),
    ("wallcross.serialize", "dumps", "serialize.dumps", False),
    ("wallcross.report", "completion_report", "report.completion_report", False),
    ("wallcross.report", "wcf_report", "report.wcf_report", False),
    ("wallcross.scattering", "complete", "scattering.complete", False),
    ("wallcross.scattering", "path_ordered_product", "scattering.path_ordered_product", False),
    ("wallcross.scattering", "merge_wall", "scattering.merge_wall", False),
    ("wallcross.scattering", "is_consistent", "scattering.is_consistent", False),
    ("wallcross.vertexlie", "exp", "vertexlie.exp", False),
    ("wallcross.vertexlie", "compose", "vertexlie.compose", False),
    ("wallcross.vertexlie", "log", "vertexlie.log", False),
    ("wallcross.vertexlie", "bch", "vertexlie.bch", False),
    ("wallcross.scattering", "exp", "vertexlie.exp", False),
    ("wallcross.scattering", "compose", "vertexlie.compose", False),
    ("wallcross.scattering", "log", "vertexlie.log", False),
    ("wallcross.scattering", "bch", "vertexlie.bch", False),
    ("wallcross.vertexlie", "AutPair.apply_ring", "vertexlie.AutPair.apply_ring", True),
    ("wallcross.vertexlie", "AutPair.apply_matrix", "vertexlie.AutPair.apply_matrix", True),
    ("wallcross.series", "SeriesElem.__mul__", "series.SeriesElem.mul", True),
    ("wallcross.series", "SeriesMatrix.__mul__", "series.SeriesMatrix.mul", True),
    ("wallcross.series", "SeriesElem.invert_unit", "series.SeriesElem.invert_unit", True),
    ("wallcross.groupoid", "solve_wcf", "groupoid.solve_wcf", False),
    ("wallcross.groupoid", "build_initial_diagram", "groupoid.build_initial_diagram", False),
)

FUNCTIONS = tuple(dict.fromkeys(metric for _m, _a, metric, _h in TARGETS))

# Exact counts derived by the wrappers, besides each function's ``calls``.
COUNTS = (
    "scattering.rounds",  # path_ordered_product calls made by complete
    "scattering.walls_inserted",  # merge_wall calls inside complete on a new direction
    "scattering.walls_merged",  # merge_wall calls inside complete on an existing wall
    "scattering.walls_out",  # walls of the diagrams complete returns
    "scattering.defect_terms",  # terms of the defect logs complete reads
    "series.SeriesElem.mul.term_pairs",  # len(a) * len(b) over all products
    "series.SeriesElem.mul.kept_pairs",  # term pairs with t-degree <= N
)

# Functions whose arguments or results feed COUNTS.
_OBSERVED = frozenset({
    "series.SeriesElem.mul",
    "scattering.merge_wall",
    "scattering.path_ordered_product",
    "scattering.complete",
    "vertexlie.log",
})


def _degree_histogram(coeffs) -> Counter:
    return Counter(key[2] for key in coeffs)


class Tracer:
    """Per-function timings, derived counts and spans of the wrapped layers."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in FUNCTIONS}  # calls, s, self_s
        self.counts = Counter({name: 0 for name in COUNTS})
        self.spans: list[tuple] = []
        self.trace_id = 0
        self._stack: list[list] = []  # frames: [name, child_s, span_id, hot counters]
        self._next_span = 1

    # -- wrappers ----------------------------------------------------------------

    def _observe_before(self, name: str, args) -> None:
        if name == "series.SeriesElem.mul":
            a, b = args[0].coeffs, args[1].coeffs
            self.counts["series.SeriesElem.mul.term_pairs"] += len(a) * len(b)
            order = args[0].ctx.order
            hb = _degree_histogram(b)
            self.counts["series.SeriesElem.mul.kept_pairs"] += sum(
                ca * cb
                for ja, ca in _degree_histogram(a).items()
                for jb, cb in hb.items()
                if ja + jb <= order
            )
        elif name == "scattering.merge_wall" and self._inside("scattering.complete"):
            d, w = args
            key = "walls_inserted" if d.wall_in_direction(w.direction) is None else "walls_merged"
            self.counts["scattering." + key] += 1
        elif name == "scattering.path_ordered_product" and self._parent() == "scattering.complete":
            self.counts["scattering.rounds"] += 1

    def _observe_after(self, name: str, result) -> None:
        if name == "scattering.complete":
            self.counts["scattering.walls_out"] += len(result.walls)
        elif name == "vertexlie.log" and self._parent() == "scattering.complete":
            self.counts["scattering.defect_terms"] += len(result.terms)

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, hot: bool):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observed = name in _OBSERVED

        def wrapper(*args, **kwargs):
            if observed:
                self._observe_before(name, args)
            parent_span = stack[-1][2] if stack else 0
            if hot:
                frame = [name, 0.0, parent_span, None]
            else:
                frame = [name, 0.0, self._next_span, {}]
                self._next_span += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if hot:
                    # aggregate under the nearest enclosing span
                    for outer in reversed(stack):
                        if outer[3] is not None:
                            agg = outer[3].setdefault(name, [0, 0.0])
                            agg[0] += 1
                            agg[1] += dt
                            break
                else:
                    self.spans.append(
                        (frame[2], parent_span, self.trace_id, name, t0, t1, frame[3])
                    )
            if observed:
                self._observe_after(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = []
        try:
            for module_name, path, metric, hot in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(metric, original, hot))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines (times relative to the first span)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for sid, parent, trace, name, t0, t1, hot in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "trace": trace,
                    "name": name,
                    "start_s": t0 - origin,
                    "end_s": t1 - origin,
                }
                if hot:
                    record["hot"] = {k: {"calls": c, "s": s} for k, (c, s) in sorted(hot.items())}
                f.write(json.dumps(record, sort_keys=True) + "\n")
