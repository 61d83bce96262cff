"""Spans around the public functions of each blaschkepick module.

The tracer replaces a function with a timing wrapper in every loaded
``blaschkepick`` module that holds a reference to it, so calls are caught
wherever callers look the name up (``schwarz_pick.mul_trunc2`` inside
``kernel_jet``, ``hermitian.eigen_h`` inside ``make_report``, the package
re-exports used by the benchmark).  A span records (op id, span id, parent
span id, name, start, end); a layer's self time is its span minus the time
covered by its child spans.

A function missing from the program under test is skipped and reads as
zero calls, so the benchmark keeps working after code is deleted.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module.function, end-to-end metric and workload the layer should move).
LAYERS = (
    ("blaschke.taylor_jet", "p50_ms, ok_per_s on decide-mix; p50_ms on crosscheck-radial (one jet per radius)"),
    ("series.mul_trunc", "p50_ms, ok_per_s on decide-mix (inside taylor_jet)"),
    ("series.divide_trunc", "p50_ms, ok_per_s on decide-mix (one per zero in taylor_jet)"),
    ("series.mul_trunc2", "p50_ms, p99_ms on crosscheck-radial; no change on decide-mix"),
    ("series.recip_trunc2", "p50_ms, p99_ms on crosscheck-radial; no change on decide-mix"),
    ("schwarz_pick.kernel_jet", "p50_ms, p99_ms on crosscheck-radial; no change on decide-mix"),
    ("schwarz_pick.sp_interior", "p50_ms, p99_ms on crosscheck-radial; no change on decide-mix"),
    ("schwarz_pick.sp_boundary_radial", "p50_ms, p99_ms on crosscheck-radial; no change on decide-mix"),
    ("schwarz_pick.sp_boundary_structured", "p50_ms, ok_per_s on decide-mix (via build_pick); crosscheck-radial"),
    ("realization.realize", "p50_ms on crosscheck-radial; p50_ms on cli-cold (analyze route residuals)"),
    ("realization.resolvent_rows", "p50_ms on crosscheck-radial; p50_ms on cli-cold"),
    ("realization.sp_via_realization", "p50_ms on crosscheck-radial; p50_ms on cli-cold"),
    ("hermitian.make_hermitian", "p50_ms on decide-mix (non-unique part)"),
    ("hermitian.eigen_h", "p50_ms on decide-mix (non-unique part)"),
    ("hermitian.make_report", "p50_ms on decide-mix"),
    ("hermitian.schur_complement", "p50_ms on decide-mix (non-unique part)"),
    ("pick.extract_data", "p50_ms, ok_per_s on decide-mix (largest share on the high-degree tail, p99_ms)"),
    ("pick.build_pick", "p50_ms, ok_per_s on decide-mix"),
    ("pick.extend_pick", "p50_ms, ok_per_s on decide-mix (non-unique part)"),
    ("pick.complete_to_pd", "p50_ms on decide-mix (non-unique part)"),
    ("pick.solve_supplementary", "p50_ms on decide-mix (non-unique part)"),
    ("uniqueness.decide", "p50_ms, p99_ms, ok_per_s on decide-mix; p50_ms on cli-cold (analyze)"),
)
SPAN_OPS = 20  # ops whose full span trees are kept for the run file
DECIDE = "uniqueness.decide"
EIGEN = "hermitian.eigen_h"
PACKAGE = "blaschkepick"


class Tracer:
    """In-memory span recorder; keeps full spans for the first SPAN_OPS ops."""

    def __init__(self):
        self.op = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.eigen_in_decide = 0
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._active: Counter = Counter()
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            if name == EIGEN and self._active[DECIDE]:
                self.eigen_in_decide += 1
            self._active[name] += 1
            self._stack.append(sid)
            self._child_time.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                children = self._child_time.pop()
                self._active[name] -= 1
                if self._child_time:
                    self._child_time[-1] += t1 - t0
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - children
                if self.op < SPAN_OPS:
                    self.spans.append((self.op, sid, parent, name, t0, t1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every LAYERS function in every loaded blaschkepick module."""
        importlib.import_module(PACKAGE)
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for qualified, _ in LAYERS:
            mod_name, fn_name = qualified.split(".")
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            except (ImportError, AttributeError):
                continue
            wrapper = self.wrap(qualified, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def state(self) -> dict:
        """JSON-ready aggregates and kept spans (for passing between processes)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "eigen_in_decide": self.eigen_in_decide,
            "spans": [list(s) for s in self.spans],
        }


def merge_states(states) -> dict:
    calls, self_s, eigen, spans = Counter(), Counter(), 0, []
    for op, st in states:
        calls.update(st["calls"])
        self_s.update(st["self_s"])
        eigen += st["eigen_in_decide"]
        if op < SPAN_OPS:
            spans.extend([op] + s[1:] for s in st["spans"])
    return {"calls": dict(calls), "self_s": dict(self_s), "eigen_in_decide": eigen, "spans": spans}


def layer_metrics(state: dict, ops: int) -> dict:
    """Per-op calls and self time for every LAYERS entry, plus eigen_h per decide."""
    out = {}
    for name, _ in LAYERS:
        out[f"{name}.calls"] = (state["calls"].get(name, 0) / ops, "count")
        out[f"{name}.self_ms"] = (1e3 * state["self_s"].get(name, 0.0) / ops, "ms")
    decides = state["calls"].get(DECIDE, 0)
    out[f"{EIGEN}.calls_per_decide"] = (state["eigen_in_decide"] / decides if decides else 0.0, "count")
    return out
