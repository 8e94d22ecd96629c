"""``BENCHMARK.json`` names exactly the metrics ``run.py`` prints."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def table(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_match_run_py():
    assert table("end_to_end") == run.END_TO_END_UNITS


def test_per_layer_metrics_match_run_py():
    assert table("per_layer") == run.PER_LAYER_UNITS


def test_workloads_match_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_input_seeds_stay_within_one_benchmark_seed():
    for workload in WORKLOADS.values():
        seeds = workload.config_seeds(3)
        assert seeds == sorted(set(seeds))
        assert seeds[-1] - seeds[0] < 1000
        assert sum(workload.batches(3), []) == seeds


def test_round_tail_needs_ten_samples_beyond_it():
    assert run.round_tail([1e-6] * 99)[2] == 50.0
    assert run.round_tail([1e-6] * 100)[2] == 90.0
    assert run.round_tail([1e-6] * 1000)[2] == 99.0
    p50, tail, pct = run.round_tail([i * 1e-6 for i in range(1, 1001)])
    assert (p50, tail, pct) == (pytest.approx(501.0), pytest.approx(991.0), 99.0)
