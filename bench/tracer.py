"""Per-layer spans for the traced benchmark run.

The tracer wraps each traced function wherever a `coxangle` module binds it
(for example `fold_tits` in both `coxangle.fold` and `coxangle.tits`), so
every call site goes through the wrapper. Spans (name, start, end, parent,
request id) are kept in memory; `metrics()` derives calls, total time and
self time per function, plus a few counts read off arguments and results.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs, named as in `coxangle.<module>.<function>`
TRACED = (
    ("cli", "run"),
    ("dsl", "parse_spec"),
    ("tits", "validate"),
    ("tits", "minimal_angle_report"),
    ("tits", "angular_distance"),
    ("tits", "relative_rank"),
    ("tits", "enumerate_indices"),
    ("fold", "fold"),
    ("fold", "fold_tits"),
    ("weyl", "opposition"),
    ("weyl", "longest_element"),
    ("weyl", "element_order"),
    ("weyl", "weyl_orbit"),
    ("geometry", "realize"),
    ("diagram", "classify"),
    ("diagram", "restrict"),
)
# the Angle ordering dunders, all reported as one span name
COMPARE = "angle.compare"
COMPARE_DUNDERS = ("__lt__", "__le__", "__gt__", "__ge__")

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (COMPARE,)
DERIVED = (
    ("tits.validate.per_op", "1/op"),
    ("tits.validate.ok_ratio", "ratio"),
    ("tits.validate.repeats", "count"),
    ("fold.fold.trivial_calls", "count"),
    ("weyl.weyl_orbit.vectors", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self) -> None:
        # finished spans: (name, start, end, parent index, request id, child time)
        self.spans: list = []
        self._open: list[list] = []  # [index, child time] of each open span
        self.request_id = 0
        self.counts: Counter = Counter()
        self._validated: set = set()

    def start_request(self) -> None:
        self.request_id += 1
        self._validated = set()

    def _wrap(self, name: str, fn, note=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else None
            frame = [index, 0.0]
            open_.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                if open_:
                    open_[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.request_id, frame[1])
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _note_validate(self, args, kwargs, report) -> None:
        t = args[0] if args else kwargs["t"]
        key = (t.diagram, t.gamma, t.anisotropic)
        if report.ok:
            self.counts["validate_ok"] += 1
        if key in self._validated:
            self.counts["validate_repeats"] += 1
        self._validated.add(key)

    def _note_fold(self, args, kwargs, result) -> None:
        g = args[1] if len(args) > 1 else kwargs["g"]
        if g.is_trivial:
            self.counts["fold_trivial"] += 1

    def _note_orbit(self, args, kwargs, result) -> None:
        self.counts["orbit_vectors"] += len(result)

    def install(self) -> None:
        """Wrap the traced functions in the currently imported `coxangle`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "coxangle" or n.startswith("coxangle."))]
        notes = {
            "tits.validate": self._note_validate,
            "fold.fold": self._note_fold,
            "weyl.weyl_orbit": self._note_orbit,
        }
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"coxangle.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, notes.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        angle_cls = sys.modules["coxangle.angle"].Angle
        for dunder in COMPARE_DUNDERS:
            setattr(angle_cls, dunder, self._wrap(COMPARE, getattr(angle_cls, dunder)))

    def metrics(self, requests: int, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metric values of the traced pass."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, _parent, _request, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        validations = calls["tits.validate"]
        out["tits.validate.per_op"] = validations / requests
        out["tits.validate.ok_ratio"] = (
            self.counts["validate_ok"] / validations if validations else 0.0
        )
        out["tits.validate.repeats"] = self.counts["validate_repeats"]
        out["fold.fold.trivial_calls"] = self.counts["fold_trivial"]
        out["weyl.weyl_orbit.vectors"] = self.counts["orbit_vectors"]
        out["trace.wall_s"] = wall_s
        out["trace.overhead_ratio"] = wall_s / untraced_wall_s
        return out
