"""Wrapper-reach self-check of the traced run.

A wrapper patched into the wrong namespace sees nothing and silently
reports zero.  Each boundary must therefore see calls on the workload it
belongs to, and none where its layer is bypassed.  Inputs are shortened
versions of the benchmark's own workloads.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses

import pytest

from tracing import BOUNDARIES, LABELS, SpanRecorder, _resolve
from workloads import WORKLOADS, build

#: Short horizons: long enough that ``ge_heavy`` turns heavy (WF) and
#: ``ge_light`` settles discards, short enough for a unit test.
HORIZONS = {"ge_light": 3.0, "ge_heavy": 2.0, "mixed_nominal": 0.15, "ge_streamed": 2.0}

#: Boundaries every GE round crosses, on every workload.
ALWAYS = (
    "sim.step", "sim.push", "sim.pop", "server.checkpoint", "server.set_plan",
    "core.round", "core.plan", "core.yds", "core.assign", "core.mode",
    "quality.record",
)
MIXED = ("mixed.cut", "mixed.quality_opt", "mixed.inverse_marginal")

#: ``workload -> (boundaries that must see calls, boundaries that must not)``.
EXPECTED = {
    "ge_light": (
        ("core.cut_lf", "core.quality_opt", "power.es", "server.settle"),
        MIXED + ("obs.sink", "power.wf"),
    ),
    "ge_heavy": (("core.quality_opt", "power.wf"), MIXED + ("obs.sink",)),
    "mixed_nominal": (
        MIXED + ("quality.derivative", "power.es"),
        ("obs.sink", "core.quality_opt", "core.cut_lf"),
    ),
    "ge_streamed": (("obs.sink", "core.quality_opt", "core.cut_lf"), MIXED),
}


def traced_run(name: str):
    """Run a shortened workload with every boundary wrapped."""
    workload = dataclasses.replace(WORKLOADS[name], horizon=HORIZONS[name])
    recorder = SpanRecorder()
    recorder.install()
    try:
        _, harness = build(workload, 7)
        result = harness.run()
    finally:
        recorder.uninstall()
    return recorder.fold(), result, harness


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, traced_run(request.param)


def test_every_label_has_expectations():
    covered = set(ALWAYS)
    for must, must_not in EXPECTED.values():
        covered |= set(must) | set(must_not)
    assert covered == set(LABELS)


def test_boundaries_reach_their_layer(traced):
    name, (table, _, _) = traced
    must, must_not = EXPECTED[name]
    for label in ALWAYS + must:
        assert table[label]["calls"] > 0, f"{label} saw no calls on {name}"
    for label in must_not:
        assert table[label]["calls"] == 0, f"{label} saw calls on {name}"


def test_wrappers_only_observe(traced):
    name, (_, result, harness) = traced
    workload = dataclasses.replace(WORKLOADS[name], horizon=HORIZONS[name])
    _, plain = build(workload, 7)
    expected = plain.run()
    assert result.quality.hex() == expected.quality.hex()
    assert result.energy.hex() == expected.energy.hex()
    assert harness.sim.events_processed == plain.sim.events_processed
    assert result.outcomes == expected.outcomes


def test_uninstall_restores_every_attribute():
    recorder = SpanRecorder()
    before = [(_resolve(o).__dict__[a]) for _, o, a, _ in BOUNDARIES]
    recorder.install()
    recorder.uninstall()
    after = [(_resolve(o).__dict__[a]) for _, o, a, _ in BOUNDARIES]
    assert all(x is y for x, y in zip(before, after))


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.timed("inner", lambda: None)
    outer = recorder.timed("outer", lambda: (inner(), inner()))
    outer()
    # outer spans 0..5 and holds inner at 1..2 and 3..4: self = 5 - 2.
    table = recorder.fold()
    assert table["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert table["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert recorder.durations("inner") == [1.0, 1.0]
