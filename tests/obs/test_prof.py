"""Tests for the hot-path phase profiler (repro.obs.prof)."""

from __future__ import annotations

import pytest

from repro.obs import NULL_PROFILER, NullProfiler, PhaseProfiler, PhaseTimer
from repro.obs.prof import PHASE_PREFIX, _NULL_PHASE
from repro.obs.registry import MetricsRegistry


def test_phase_records_count_total_max():
    prof = PhaseProfiler()
    for _ in range(3):
        with prof.phase("unit.work"):
            pass
    timer = prof.timer("unit.work")
    assert timer.count == 3
    assert timer.total >= 0.0
    assert timer.max >= timer.mean >= 0.0


def test_phase_handle_exposes_elapsed():
    prof = PhaseProfiler()
    with prof.phase("unit.work") as handle:
        assert handle.elapsed == 0.0
    assert handle.elapsed >= 0.0
    assert handle.elapsed == prof.timer("unit.work").max


def test_phases_nest_inclusively():
    prof = PhaseProfiler()
    with prof.phase("outer"):
        with prof.phase("inner"):
            pass
    outer, inner = prof.timer("outer"), prof.timer("inner")
    assert outer.count == inner.count == 1
    # Outer time includes the inner phase (inclusive semantics).
    assert outer.total >= inner.total


def test_recursive_phase_entries_each_count():
    prof = PhaseProfiler()

    def fib(n: int) -> int:
        with prof.phase("recurse"):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

    assert fib(5) == 5
    assert prof.timer("recurse").count == 15  # every recursive entry


def test_snapshot_strips_prefix_and_filters_kinds():
    registry = MetricsRegistry()
    prof = PhaseProfiler(registry)
    registry.counter("unrelated.counter").inc()
    with prof.phase("a.b"):
        pass
    snap = prof.snapshot()
    assert set(snap) == {"a.b"}
    assert snap["a.b"]["kind"] == "phase"
    assert snap["a.b"]["count"] == 1
    for key in ("total_s", "max_s", "mean_s"):
        assert key in snap["a.b"]


def test_phase_timers_ride_the_shared_registry():
    registry = MetricsRegistry()
    prof = PhaseProfiler(registry)
    with prof.phase("x"):
        pass
    assert PHASE_PREFIX + "x" in registry.names()
    assert isinstance(registry.phase_timer(PHASE_PREFIX + "x"), PhaseTimer)


def test_phase_timer_mean_of_empty_timer_is_zero():
    assert PhaseTimer("t").mean == 0.0


def test_null_profiler_is_disabled_and_allocation_free():
    assert NULL_PROFILER.enabled is False
    assert isinstance(NULL_PROFILER, NullProfiler)
    # One shared handle: no allocation per phase entry.
    assert NULL_PROFILER.phase("a") is NULL_PROFILER.phase("b") is _NULL_PHASE
    with NULL_PROFILER.phase("a") as handle:
        assert handle.elapsed == 0.0
    assert NULL_PROFILER.snapshot() == {}


def test_profiler_enabled_flag():
    assert PhaseProfiler().enabled is True


def test_exception_inside_phase_still_records():
    prof = PhaseProfiler()
    with pytest.raises(RuntimeError):
        with prof.phase("boom"):
            raise RuntimeError("x")
    assert prof.timer("boom").count == 1
