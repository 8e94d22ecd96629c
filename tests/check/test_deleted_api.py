"""Deleted API stays deleted.

Each name here was removed because nothing in the package called it:
the DES resource primitives (``Resource``/``Store``) and the
generator-process layer (``Process``/``Timeout``/``Signal``/
``Interrupt``) of :mod:`repro.sim`, the heap-compaction helpers, the
waterline memo of the LF cut, the hybrid ES/WF policy wrapper (GE
holds ES and WF directly), the record-iterator form of the trace
analyzers, the profiler's decorator form, and two options no caller
set.  These guards keep them from creeping back unnoticed.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro.core.cutting
import repro.obs.analyze
import repro.power
import repro.sim
from repro.check.sanitizer import SanitizingTracer
from repro.obs.prof import NullProfiler, PhaseProfiler
from repro.quality.functions import ExponentialQuality
from repro.quality.monitor import QualityMonitor
from repro.sim import EventQueue, Simulator


@pytest.mark.parametrize("name", ["Resource", "Store"])
def test_sim_does_not_expose_resource_primitives(name):
    assert not hasattr(repro.sim, name)
    assert name not in repro.sim.__all__


def test_sim_has_no_resources_module():
    modules = {m.name for m in pkgutil.iter_modules(repro.sim.__path__)}
    assert "resources" not in modules


@pytest.mark.parametrize("name", ["Process", "Timeout", "Signal", "Interrupt"])
def test_sim_does_not_expose_process_primitives(name):
    assert not hasattr(repro.sim, name)
    assert name not in repro.sim.__all__


def test_sim_has_no_process_module():
    modules = {m.name for m in pkgutil.iter_modules(repro.sim.__path__)}
    assert "process" not in modules


@pytest.mark.parametrize(
    "cls, attr",
    [
        (Simulator, "process"),
        (Simulator, "compact"),
        (EventQueue, "discard_cancelled"),
        (PhaseProfiler, "wrap"),
        (NullProfiler, "wrap"),
    ],
)
def test_removed_methods_stay_removed(cls, attr):
    assert not hasattr(cls, attr)


def test_cutting_exposes_no_memo():
    assert repro.core.cutting.__all__ == ["lf_cut_waterline", "lf_cut_stepwise"]
    assert not [name for name in dir(repro.core.cutting) if name.endswith("Memo")]


def test_power_has_no_hybrid_wrapper():
    assert not hasattr(repro.power, "HybridDistribution")
    assert "HybridDistribution" not in repro.power.__all__


def test_analyze_takes_traces_only():
    assert not hasattr(repro.obs.analyze, "TraceLike")


def test_monitor_has_no_history_option():
    with pytest.raises(TypeError):
        QualityMonitor(ExponentialQuality(), history=0.5)


def test_sanitizer_has_no_energy_check_stride():
    with pytest.raises(TypeError):
        SanitizingTracer(energy_check_every=2)
