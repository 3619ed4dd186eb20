"""Span tracer that wraps the cross-module names the program calls.

Wrappers are installed by patching module and class attributes of the
imported ``dpmean`` package inside the benchmark process only; ``src/`` is
never edited.  Each wrapped call becomes a span (name, layer, start, end,
parent).  Aggregates (calls, total and self time and direct child spans per
span name) are kept for every span; the span records themselves are kept in
memory up to ``SPAN_CAP`` (root spans always) and written out once, when the
benchmark ends.  ``calibrate`` measures what one span costs, so the caller
can take the tracer's own time out of each layer's self time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

SPAN_CAP = 20_000  # span records kept in memory, besides every root span
CALIBRATION_CALLS = 20_000  # wrapped no-op calls timed per calibration
LAYERS = ("noise", "mechanisms", "harness", "cli", "geometry", "bounds")

# (owner, attribute, layer of the callee).  The owner is the module (or
# class) through which the caller looks the name up, so patching it catches
# exactly the calls that cross into the callee's layer.
CROSS_MODULE_NAMES = (
    # entry points the benchmark itself calls: the root spans
    ("cli", "main", "cli"),
    ("harness", "worst_case_over_family", "harness"),
    ("harness", "preset_family_k", "harness"),
    # calls from one package module into another
    ("cli", "preset_config", "harness"),
    ("cli", "config_from_json", "harness"),
    ("cli", "sweep", "harness"),
    ("cli", "reports_to_csv", "harness"),
    ("cli", "write_metadata", "harness"),
    ("cli", "BoundedDataset", "mechanisms"),
    ("cli", "PrivacyBudget", "mechanisms"),
    ("cli", "run_mechanism", "mechanisms"),
    ("cli", "RandomStream", "noise"),
    ("cli", "shifted_mse_bound_from_stats", "bounds"),
    ("cli", "transformed_mse_bound_from_stats", "bounds"),
    ("cli", "ball_polygon", "geometry"),
    ("cli", "l1_sensitivity_under", "geometry"),
    ("harness", "BoundedDataset", "mechanisms"),
    ("harness", "PrivacyBudget", "mechanisms"),
    ("harness", "run_mechanism", "mechanisms"),
    ("harness", "true_mean", "mechanisms"),
    ("harness", "Cursor", "noise"),
    ("harness", "RandomStream", "noise"),
    ("harness", "GeometricParams", "noise"),
    ("harness", "two_sided_geometric_sample", "noise"),
    ("mechanisms", "LaplaceParams", "noise"),
    ("mechanisms", "laplace_sample", "noise"),
    ("Cursor", "jump_to", "noise"),
)


class Tracer:
    """Records spans for calls made through wrapped callables."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.names: dict[str, str] = {}  # span name -> layer
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s, direct children]
        self.root_s = 0.0  # total duration of spans without a parent
        self._stack: list[list] = []  # [span id, child time, stats of the span's name]
        self._next_id = 0

    def wrap(self, layer: str, name: str, fn):
        self.names[name] = layer
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0, stat]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2][3] += 1
                else:
                    self.root_s += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if span_id < SPAN_CAP or parent is None:
                    spans.append((span_id, parent, name, start, end))

        return traced

    def snapshot(self) -> dict:
        """Copy of the aggregates, for per-pass differences."""
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "root_s": self.root_s}

    def layer_totals(self, before: dict, after: dict) -> dict[str, dict[str, float]]:
        """Calls, self time and direct child spans per layer between two
        snapshots."""
        out = {layer: {"calls": 0, "self_s": 0.0, "children": 0} for layer in LAYERS}
        for name, (calls, _total, self_s, children) in after["stats"].items():
            prev = before["stats"].get(name, [0, 0.0, 0.0, 0])
            layer = out[self.names[name]]
            layer["calls"] += calls - prev[0]
            layer["self_s"] += self_s - prev[2]
            layer["children"] += children - prev[3]
        return out

    def write(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        record = {
            "meta": meta,
            "layers": self.names,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, round(start - t0, 9), round(end - t0, 9)]
                for sid, parent, name, start, end in sorted(self.spans)
            ],
            "spans_total": self._next_id,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record) + "\n")


def calibrate() -> dict[str, float]:
    """Seconds that one span adds, measured on ``CALIBRATION_CALLS`` calls of
    a wrapped no-op of two arguments in this process.

    ``inner_s`` lies between the span's start and end, so it is charged to
    the callee's self time; ``outer_s`` (the wrapper's bookkeeping before the
    start and after the end) is charged to the caller's.  ``inner_s`` is the
    no-op span's self time minus a bare call of the no-op; ``outer_s`` is the
    rest of the difference between a loop of wrapped and a loop of bare
    calls.  The tracer is past ``SPAN_CAP``, as it is for most spans of a
    pass.
    """

    def noop(a, b):
        return None

    calls = CALIBRATION_CALLS
    clock = time.perf_counter
    tracer = Tracer()
    tracer._next_id = SPAN_CAP
    leaf = tracer.wrap("calibration", "leaf", noop)

    def wrapped_loop():
        for i in range(calls):
            leaf(i, calls)

    root = tracer.wrap("calibration", "root", wrapped_loop)
    t0 = clock()
    for i in range(calls):
        pass
    t1 = clock()
    for i in range(calls):
        noop(i, calls)
    t2 = clock()
    root()
    t3 = clock()
    bare_call = (t2 - t1 - (t1 - t0)) / calls
    inner_s = tracer.stats["leaf"][2] / calls - bare_call
    total_s = (t3 - t2 - (t2 - t1)) / calls
    return {"inner_s": inner_s, "outer_s": total_s - inner_s, "total_s": total_s}


def _patched(patches) -> list:
    """Set (owner, attribute, value) triples; return the originals."""
    saved = []
    for owner, attr, value in patches:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
    return saved


def _restore(saved: list) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)


@contextmanager
def installed(tracer: Tracer, dp) -> None:
    """Patch span wrappers into the package namespace ``dp`` and restore the
    original attributes on exit."""
    patches = []
    for owner_name, attr, layer in CROSS_MODULE_NAMES:
        owner = getattr(dp, owner_name)
        patches.append((owner, attr, tracer.wrap(layer, f"{layer}.{attr}", getattr(owner, attr))))
    saved = _patched(patches)
    try:
        yield
    finally:
        _restore(saved)


@contextmanager
def counting(dp):
    """Count uniforms drawn and clip calls (``mechanisms.clip.hit``: the
    value lay outside the range) while patched in.  Yields the dict of
    counts.  No spans: a counting pass is not timed."""
    counts = {"noise.uniforms": 0, "mechanisms.clip": 0, "mechanisms.clip.hit": 0}
    cursor, mech = dp.Cursor, dp.mechanisms
    uniform_open, uniforms_open, clip = cursor.uniform_open, cursor.uniforms_open, mech.clip

    def one(self):
        counts["noise.uniforms"] += 1
        return uniform_open(self)

    def batch(self, size):
        counts["noise.uniforms"] += size
        return uniforms_open(self, size)

    def counted_clip(x, lo, hi):
        counts["mechanisms.clip"] += 1
        if not lo <= x <= hi:
            counts["mechanisms.clip.hit"] += 1
        return clip(x, lo, hi)

    saved = _patched([(cursor, "uniform_open", one), (cursor, "uniforms_open", batch), (mech, "clip", counted_clip)])
    try:
        yield counts
    finally:
        _restore(saved)
