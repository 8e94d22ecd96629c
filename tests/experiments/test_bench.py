"""Tests for the bench snapshot/regression harness (repro.experiments.bench)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import main
from repro.experiments.bench import (
    BENCH_SCHEMA,
    SUITE,
    collect_snapshot,
    compare_snapshots,
    load_snapshot,
    run_scenario,
    write_snapshot,
)

# One tiny simulated run (~1.2 s of arrivals) keeps this module fast.
_SCALE = 0.002


@pytest.fixture(scope="module")
def snapshot():
    return collect_snapshot(
        "test", scale=_SCALE, scenarios=["ge_nominal", "fcfs_nominal"]
    )


def test_suite_covers_required_scenarios():
    assert len(SUITE) >= 5
    assert {"ge_light", "ge_nominal", "ge_heavy", "ge_discrete"} <= set(SUITE)
    for scenario in SUITE.values():
        assert scenario.description


def test_run_scenario_record_shape():
    record = run_scenario(SUITE["ge_nominal"], scale=_SCALE)
    assert record["name"] == "ge_nominal"
    assert record["scheduler"] == "GE"
    assert record["wall_s"] > 0
    assert record["events"] > 0
    assert record["events_per_sec"] > 0
    assert record["counters"]["reschedules"] > 0
    assert record["counters"]["jobs"] == sum(record["counters"]["outcomes"].values())
    assert 0 <= record["quality"] <= 1
    assert record["energy"] > 0
    assert len(record["config_fingerprint"]) == 12
    # The profiler was on: the GE hot-path phases are populated.
    for phase in ("scheduler.round", "cut.lf", "planner.quality_opt", "sim.run"):
        assert record["phases"][phase]["count"] > 0


def test_run_scenario_repeats_keep_deterministic_counters():
    one = run_scenario(SUITE["ge_nominal"], scale=_SCALE, repeats=1)
    two = run_scenario(SUITE["ge_nominal"], scale=_SCALE, repeats=2)
    assert one["counters"] == two["counters"]
    assert one["quality"] == two["quality"]
    assert one["energy"] == two["energy"]


def test_run_scenario_rejects_bad_repeats():
    with pytest.raises(ValueError):
        run_scenario(SUITE["ge_nominal"], scale=_SCALE, repeats=0)


def test_run_scenario_mem_records_tracemalloc_peak():
    record = run_scenario(SUITE["fcfs_nominal"], scale=_SCALE, mem=True)
    assert record["tracemalloc_peak_kb"] > 0


def test_collect_snapshot_metadata(snapshot):
    assert snapshot["schema"] == BENCH_SCHEMA
    assert snapshot["label"] == "test"
    assert snapshot["seed"] == 1
    assert snapshot["scale"] == _SCALE
    assert snapshot["python"]
    # The revision carries a dirty flag beside it (both None outside git).
    assert "git_rev" in snapshot and "git_dirty" in snapshot
    if snapshot["git_rev"] is None:
        assert snapshot["git_dirty"] is None
    else:
        assert isinstance(snapshot["git_dirty"], bool)
    assert [s["name"] for s in snapshot["scenarios"]] == [
        "ge_nominal",
        "fcfs_nominal",
    ]


def test_collect_snapshot_rejects_unknown_scenario():
    with pytest.raises(KeyError, match="no_such"):
        collect_snapshot("test", scale=_SCALE, scenarios=["no_such"])


def test_snapshot_round_trip(tmp_path, snapshot):
    path = tmp_path / "BENCH_rt.json"
    write_snapshot(snapshot, path)
    assert load_snapshot(path) == snapshot


def test_load_snapshot_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "repro.bench/999", "scenarios": []}))
    with pytest.raises(ValueError, match="repro.bench/999"):
        load_snapshot(path)


def test_self_compare_passes(snapshot):
    comparison = compare_snapshots(snapshot, snapshot)
    assert comparison.ok
    assert "no regressions" in comparison.render()


def test_compare_header_marks_dirty_tree(snapshot):
    clean = dict(snapshot, git_rev="abc1234", git_dirty=False)
    dirty = dict(snapshot, git_rev="abc1234", git_dirty=True)
    lines = compare_snapshots(clean, dirty).render().splitlines()
    assert lines[0].startswith("old: test (abc1234, python")
    assert lines[1].startswith("new: test (abc1234-dirty, python")


def test_compare_detects_wall_time_regression(snapshot):
    slow = copy.deepcopy(snapshot)
    slow["scenarios"][0]["wall_s"] *= 10.0
    comparison = compare_snapshots(snapshot, slow, threshold=1.5)
    assert not comparison.ok
    assert any("wall time" in r for r in comparison.regressions)


def test_compare_detects_phase_regression(snapshot):
    slow = copy.deepcopy(snapshot)
    phases = slow["scenarios"][0]["phases"]
    phases["scheduler.round"]["total_s"] = (
        max(0.02, phases["scheduler.round"]["total_s"]) * 10.0
    )
    base = copy.deepcopy(snapshot)
    base["scenarios"][0]["phases"]["scheduler.round"]["total_s"] = max(
        0.02, base["scenarios"][0]["phases"]["scheduler.round"]["total_s"]
    )
    comparison = compare_snapshots(base, slow, threshold=1.5)
    assert any("phase scheduler.round" in r for r in comparison.regressions)


def test_compare_ignores_noise_phases(snapshot):
    # A 10x blowup of a sub-10ms phase is noise, not a regression.
    slow = copy.deepcopy(snapshot)
    base = copy.deepcopy(snapshot)
    base["scenarios"][0]["phases"]["scheduler.round"]["total_s"] = 0.001
    slow["scenarios"][0]["phases"]["scheduler.round"]["total_s"] = 0.009
    slow["scenarios"][0]["wall_s"] = base["scenarios"][0]["wall_s"]
    comparison = compare_snapshots(base, slow, threshold=1.5)
    assert not any("phase scheduler.round" in r for r in comparison.regressions)


def test_compare_detects_fidelity_drift(snapshot):
    drifted = copy.deepcopy(snapshot)
    drifted["scenarios"][0]["quality"] += 0.01
    comparison = compare_snapshots(snapshot, drifted)
    assert any("quality drifted" in r for r in comparison.regressions)


def test_compare_detects_determinism_break(snapshot):
    broken = copy.deepcopy(snapshot)
    broken["scenarios"][0]["counters"]["events"] += 1
    comparison = compare_snapshots(snapshot, broken)
    assert any("determinism break" in r for r in comparison.regressions)


def test_compare_skips_fidelity_across_configs(snapshot):
    other = copy.deepcopy(snapshot)
    other["scenarios"][0]["config_fingerprint"] = "ffffffffffff"
    other["scenarios"][0]["quality"] += 0.5
    comparison = compare_snapshots(snapshot, other)
    assert comparison.ok


def test_compare_detects_missing_scenario(snapshot):
    partial = copy.deepcopy(snapshot)
    partial["scenarios"] = partial["scenarios"][:1]
    comparison = compare_snapshots(snapshot, partial)
    assert any("missing" in r for r in comparison.regressions)


def test_compare_rejects_bad_threshold(snapshot):
    with pytest.raises(ValueError):
        compare_snapshots(snapshot, snapshot, threshold=1.0)


def test_compare_scenarios_filter_ignores_absent(snapshot):
    """A filtered compare of a partial snapshot must not flag the
    unselected scenarios as missing (the smoke-bench CI contract)."""
    partial = copy.deepcopy(snapshot)
    partial["scenarios"] = [
        s for s in partial["scenarios"] if s["name"] == "ge_nominal"
    ]
    unfiltered = compare_snapshots(snapshot, partial)
    assert any("missing" in r for r in unfiltered.regressions)
    filtered = compare_snapshots(snapshot, partial, scenarios=["ge_nominal"])
    assert filtered.ok
    assert "fcfs_nominal" not in filtered.render()


def test_compare_scenarios_filter_rejects_unknown(snapshot):
    with pytest.raises(ValueError, match="unknown scenario"):
        compare_snapshots(snapshot, snapshot, scenarios=["nope"])


# ---------------------------------------------------------------- CLI


def test_cli_bench_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "BENCH_cli.json"
    code = main([
        "bench", "--out", str(out), "--label", "cli",
        "--scale", str(_SCALE), "--scenarios", "fcfs_nominal",
    ])
    assert code == 0
    snap = load_snapshot(out)
    assert snap["label"] == "cli"
    assert [s["name"] for s in snap["scenarios"]] == ["fcfs_nominal"]
    assert "wrote bench snapshot" in capsys.readouterr().out


def test_cli_bench_unknown_scenario_is_usage_error(tmp_path):
    code = main([
        "bench", "--out", str(tmp_path / "x.json"), "--scenarios", "nope",
    ])
    assert code == 2


def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "ge_nominal" in out and "fcfs_nominal" in out


def test_cli_compare_exit_codes(tmp_path, snapshot, capsys):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    write_snapshot(snapshot, good)
    slow = copy.deepcopy(snapshot)
    slow["scenarios"][0]["wall_s"] *= 10.0
    write_snapshot(slow, bad)

    assert main(["bench", "compare", str(good), str(good)]) == 0
    assert main(["bench", "compare", str(good), str(bad)]) == 1
    assert main(["bench", "compare", str(good), str(tmp_path / "none.json")]) == 2
    capsys.readouterr()  # drain


def test_cli_compare_threshold_flag(tmp_path, snapshot, capsys):
    good = tmp_path / "good.json"
    mild = tmp_path / "mild.json"
    write_snapshot(snapshot, good)
    slower = copy.deepcopy(snapshot)
    for record in slower["scenarios"]:
        record["wall_s"] *= 2.0
    write_snapshot(slower, mild)
    assert main(["bench", "compare", str(good), str(mild), "--threshold", "3"]) == 0
    assert main(["bench", "compare", str(good), str(mild), "--threshold", "1.5"]) == 1
    capsys.readouterr()
