"""Outside-in tracing: wrap each ``repro`` layer's entry points.

The wrappers are installed from the benchmark's own files, at the name
the caller looks up.  ``repro.core.ge``, ``repro.core.planner`` and
``repro.mixed.scheduler`` bind their imports by name, so a function is
patched in the module that *calls* it, and a method on the class that
defines it.

A timed boundary records one span per call: its label, start, end and
the span that was open when it began.  Spans stay in memory during the
run and are folded into per-label counts and self times after it ends.
A counted boundary only increments a counter: the hottest leaves
(``QualityFunction.derivative`` and ``inverse_marginal``) are called
millions of times, and timing them would inflate their parents' self
time with clock reads.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(label, owner, attribute, timed)``.  ``owner`` is a module path, or
#: ``module:Class`` for a method.  One label may cover several owners.
BOUNDARIES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("sim.step", "repro.sim.engine:Simulator", "step", True),
    ("sim.push", "repro.sim.events:EventQueue", "push", True),
    ("sim.pop", "repro.sim.events:EventQueue", "pop", True),
    ("server.checkpoint", "repro.server.core:Core", "checkpoint", True),
    ("server.set_plan", "repro.server.core:Core", "set_plan", True),
    ("server.settle", "repro.server.harness:SimulationHarness", "settle_job", True),
    ("core.round", "repro.core.ge:GEScheduler", "reschedule", True),
    ("core.cut_lf", "repro.core.ge", "lf_cut_waterline", True),
    ("core.plan", "repro.core.ge", "build_core_plan", True),
    ("core.quality_opt", "repro.core.planner", "quality_opt", True),
    ("core.yds", "repro.core.planner", "yds_schedule", True),
    ("core.assign", "repro.core.assignment:CumulativeRoundRobin", "assign", True),
    ("core.mode", "repro.core.modes:ModeController", "decide", True),
    ("power.es", "repro.power.distribution:EqualSharing", "distribute", True),
    ("power.wf", "repro.power.distribution:WaterFilling", "distribute", True),
    # The harness settles every job through ``monitor.record_job``; the
    # class-aware monitor overrides it without calling the base.
    ("quality.record", "repro.quality.monitor:QualityMonitor", "record_job", True),
    ("quality.record", "repro.mixed.monitor:ClassAwareMonitor", "record_job", True),
    ("quality.derivative", "repro.quality.functions:QualityFunction", "derivative", False),
    ("mixed.cut", "repro.mixed.scheduler", "lf_cut_mixed", True),
    ("mixed.quality_opt", "repro.mixed.scheduler", "quality_opt_mixed", True),
    ("mixed.inverse_marginal", "repro.core.cutting_general", "inverse_marginal", False),
    ("mixed.inverse_marginal", "repro.mixed.quality_opt", "inverse_marginal", False),
) + tuple(
    ("obs.sink", "repro.obs.stream:StreamingTracer", method, True)
    for method in (
        "begin_span",
        "end_span",
        "event",
        "job_settled",
        "exec_end",
        "sample_cores",
        "run_started",
        "run_finished",
    )
)

#: Every label, in table order.
LABELS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))
TIMED_LABELS: Tuple[str, ...] = tuple(
    dict.fromkeys(b[0] for b in BOUNDARIES if b[3])
)
COUNTED_LABELS: Tuple[str, ...] = tuple(
    dict.fromkeys(b[0] for b in BOUNDARIES if not b[3])
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class SpanRecorder:
    """In-memory span store with wrapper factories and an undo log."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(label, start, end, parent index or -1)`` per span.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []

    def timed(self, label: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so that every call records one span."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)

        return wrapper

    def counted(self, label: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so that every call increments ``counts[label]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every boundary of :data:`BOUNDARIES`."""
        for label, owner, attr, timed in BOUNDARIES:
            target = _resolve(owner)
            original = target.__dict__[attr]
            if not callable(original):
                raise TypeError(f"{owner}.{attr} is not a function")
            self._undo.append((target, attr, original))
            factory = self.timed if timed else self.counted
            setattr(target, attr, factory(label, original))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per-label ``calls``, ``self_s`` and ``total_s`` of all spans.

        A span's self time is its duration minus the durations of its
        direct children; wrapped calls nest strictly, so the children
        lie inside the parent's interval.
        """
        def empty() -> Dict[str, float]:
            return {"calls": 0, "self_s": 0.0, "total_s": 0.0}

        child_time = [0.0] * len(self.spans)
        table = {label: empty() for label in TIMED_LABELS}
        for span in self.spans:
            if span is None:
                raise RuntimeError("a traced call was still open when the run ended")
            _, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        for index, span in enumerate(self.spans):
            label, start, end, _ = span  # type: ignore[misc]
            row = table.setdefault(label, empty())
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        for label in COUNTED_LABELS:
            table[label] = {"calls": self.counts[label]}
        return table

    def durations(self, label: str) -> List[float]:
        """Inclusive duration of every span of ``label``, in call order."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == label]
