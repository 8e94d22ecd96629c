"""The repository benchmark: host cost and simulated Q/E of the GE simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ge_light --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics (``run_s``, ``setup_s``, ``peak_rss_mb``, ``sim_quality``,
``sim_energy_j``).  ``--trace 1`` pairs every input with a traced run
that wraps each ``repro`` layer's entry points from outside the program
and prints the per-layer counts and self times.  Every run is one
single-threaded child process (``worker.py``); runs go one at a time.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a report with the provenance and every run's figures.  A human-readable
table goes to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTED_LABELS, TIMED_LABELS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: No batch starts after this many seconds of a measurement, and a batch
#: still running at ``STOP_S`` is killed and fails, so that the benchmark
#: ends within three minutes even on a much slower commit.  Inputs left
#: unrun make the result incorrect.
DEADLINE_S = 140.0
STOP_S = 165.0
#: Round-latency percentiles, each reported only with at least ten
#: samples beyond it (p90 from 100 rounds, p99 from 1000).
TAIL_PERCENTILES = (99.0, 90.0, 50.0)

#: Unit of every end-to-end metric (``--trace 0``).  Host times are in
#: reference seconds (see ``worker.py``); ``sim_`` units are simulated.
END_TO_END_UNITS: Dict[str, str] = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_quality": "sim_Q",
    "sim_energy_j": "sim_J",
}

#: Unit of every per-layer metric (``--trace 1``).
PER_LAYER_UNITS: Dict[str, str] = {
    **{
        f"{label}.{key}": unit
        for label in TIMED_LABELS
        for key, unit in (("calls", "count"), ("self_s", "s"))
    },
    **{f"{label}.calls": "count" for label in COUNTED_LABELS},
    "core.round.p50_us": "us",
    "core.round.tail_us": "us",
    "core.round.tail_pct": "pct",
    "core.round.samples": "count",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "workload.jobs": "count",
    "workload.materialize_s": "s",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: ``(result, process outputs, per-input records)`` of one measurement.
Measured = Tuple[Dict[str, Any], List[Dict[str, Any]], List[Dict[str, Any]]]


def child_env() -> Dict[str, str]:
    """Environment of a run: the program on the path, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(
    workload: Workload, seed: int, batch: int, trace: bool, timeout: float
) -> Dict[str, Any]:
    """One batch in its own process; ``{"error": ...}`` when it failed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload.name,
        "--seed", str(seed),
        "--batch", str(batch),
        "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"batch killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    if proc.returncode != 0 or not out or "error" in out:
        detail = out.get("error") or proc.stderr.strip()[-2000:]
        return {"error": f"exit {proc.returncode}: {detail}"}
    return out


def check(record: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why one input's run failed its output checks, or ``None``."""
    if "error" in record:
        return record["error"]
    if not record["valid"]:
        return "validate_run: " + "; ".join(record["violations"])
    if reference is not None and record["sim"] != reference["sim"]:
        return f"simulated results differ from an earlier run: {record['sim']} != {reference['sim']}"
    return None


def batch_inputs(out: Dict[str, Any], config_seeds: List[int]) -> List[Dict[str, Any]]:
    """The per-input records of a batch; a failed batch fails every input."""
    if "error" in out:
        return [{"config_seed": s, "error": out["error"]} for s in config_seeds]
    return out["inputs"]


def git_provenance() -> Dict[str, Any]:
    """Revision and dirty flag of the tree, when it is a git checkout."""
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return {"git_rev": None, "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def provenance(workload: Workload, seed: int, fingerprints: Dict[int, str]) -> Dict[str, Any]:
    return {
        **git_provenance(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": {
            "name": workload.name,
            "kind": workload.kind,
            "rate": workload.rate,
            "horizon": workload.horizon,
            "config_seeds": workload.config_seeds(seed),
            "batch": workload.batch,
            "fingerprints": [fingerprints.get(s) for s in workload.config_seeds(seed)],
        },
    }


def result_object(
    correct: bool, attempted: int, failed: int, values: Dict[str, float], units: Dict[str, str]
) -> Dict[str, Any]:
    """The result line: every metric of ``units``, in its order."""
    if set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(values) ^ set(units))} mismatch their units")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def measure_untraced(workload: Workload, seed: int, seconds: float) -> Measured:
    """Cycle over the batches until ``seconds`` pass, every batch ran once
    and the first batch twice (so that a rerun checks determinism)."""
    batches = workload.batches(seed)
    references: Dict[int, Dict[str, Any]] = {}
    processes: List[Dict[str, Any]] = []
    inputs: List[Dict[str, Any]] = []
    start = time.monotonic()
    while len(processes) <= len(batches) or time.monotonic() - start < seconds:
        if time.monotonic() - start > DEADLINE_S:
            break
        index = len(processes) % len(batches)
        out = run_child(workload, seed, index, False, start + STOP_S - time.monotonic())
        processes.append(out)
        for record in batch_inputs(out, batches[index]):
            record["failure"] = check(record, references.get(record["config_seed"]))
            if record["failure"] is None:
                references.setdefault(record["config_seed"], record)
            inputs.append(record)

    ok = [r for r in inputs if r["failure"] is None]
    setups = [p for p in processes if "error" not in p]
    if not ok or not setups:
        raise SystemExit("every run failed:\n" + "\n".join(str(r["failure"]) for r in inputs))
    per_input = [
        statistics.median(r["run_s"] for r in ok if r["config_seed"] == s) for s in references
    ]
    values = {
        "run_s": statistics.fmean(per_input),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in setups),
        "sim_quality": statistics.fmean(r["quality"] for r in references.values()),
        "sim_energy_j": statistics.fmean(r["energy"] for r in references.values()),
    }
    failed = len(inputs) - len(ok)
    correct = failed == 0 and len(references) == workload.inputs
    return result_object(correct, len(inputs), failed, values, END_TO_END_UNITS), processes, inputs


def round_tail(durations_s: List[float]) -> Tuple[float, float, float]:
    """``(p50 µs, tail µs, tail percentile)``: the tail is the highest of
    :data:`TAIL_PERCENTILES` with at least ten samples beyond it."""
    n = len(durations_s)
    if n == 0:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations_s)

    def pct(p: float) -> float:
        return ordered[min(n - 1, int(p / 100.0 * n))] * 1e6

    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10 or p == 50.0:
            return pct(50.0), pct(p), p
    raise AssertionError("unreachable")


def measure_traced(workload: Workload, seed: int) -> Measured:
    """Run every batch untraced, then traced; fold the per-layer table."""
    processes: List[Dict[str, Any]] = []
    inputs: List[Dict[str, Any]] = []
    plain_ok: List[Dict[str, Any]] = []
    traced_ok: List[Dict[str, Any]] = []
    start = time.monotonic()
    for index, config_seeds in enumerate(workload.batches(seed)):
        if time.monotonic() - start > DEADLINE_S:
            break
        plain = run_child(workload, seed, index, False, start + STOP_S - time.monotonic())
        traced = run_child(workload, seed, index, True, start + STOP_S - time.monotonic())
        processes += [plain, traced]
        plain_inputs = batch_inputs(plain, config_seeds)
        traced_inputs = batch_inputs(traced, config_seeds)
        for record in plain_inputs:
            record["failure"] = check(record, None)
        for record, reference in zip(traced_inputs, plain_inputs):
            record["traced"] = True
            record["failure"] = check(record, None if reference["failure"] else reference)
        inputs += plain_inputs + traced_inputs
        if all(r["failure"] is None for r in plain_inputs + traced_inputs):
            plain_ok += plain_inputs
            traced_ok += traced_inputs
    if not traced_ok:
        raise SystemExit("every traced batch failed:\n" + "\n".join(str(r["failure"]) for r in inputs))

    def layer_sum(label: str, key: str) -> float:
        return sum(r["layers"][label][key] for r in traced_ok)

    values: Dict[str, float] = {}
    for label in TIMED_LABELS:
        values[f"{label}.calls"] = layer_sum(label, "calls")
        values[f"{label}.self_s"] = layer_sum(label, "self_s")
    for label in COUNTED_LABELS:
        values[f"{label}.calls"] = layer_sum(label, "calls")
    events = sum(r["sim"]["events"] for r in plain_ok)
    plain_s = sum(r["run_s"] for r in plain_ok)
    traced_s = sum(r["run_s"] for r in traced_ok)
    self_total = sum(values[f"{label}.self_s"] for label in TIMED_LABELS)
    rounds = [d for r in traced_ok for d in r.pop("round_s")]
    for record in traced_ok:
        del record["layers"]  # summed above; keeps the report line small
    values["core.round.p50_us"], values["core.round.tail_us"], values["core.round.tail_pct"] = (
        round_tail(rounds)
    )
    values.update({
        "core.round.samples": len(rounds),
        "sim.events": events,
        "sim.host_us_per_event": plain_s / events * 1e6,
        "workload.jobs": sum(r["jobs"] for r in plain_ok),
        "workload.materialize_s": sum(r["materialize_s"] for r in plain_ok),
        "unattributed_s": traced_s - self_total,
        "trace_overhead_ratio": traced_s / plain_s,
    })
    failed = sum(r["failure"] is not None for r in inputs)
    correct = failed == 0 and len(plain_ok) == workload.inputs
    return result_object(correct, len(inputs), failed, values, PER_LAYER_UNITS), processes, inputs


def describe(result: Dict[str, Any], traced_s: Optional[float]) -> str:
    """Human-readable metric table; shares are of the traced run time."""
    lines = [f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        share = ""
        if traced_s and name.endswith(("self_s", "unattributed_s")):
            share = f"  {100.0 * m['value'] / traced_s:6.2f}%"
        lines.append(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6}{share}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        result, processes, inputs = measure_traced(workload, args.seed)
    else:
        result, processes, inputs = measure_untraced(workload, args.seed, args.seconds)
    for record in inputs:
        if record["failure"] is not None:
            print(f"FAILED config_seed={record['config_seed']}: {record['failure']}", file=sys.stderr)
    traced_s = sum(r["run_s"] for r in inputs if r.get("traced") and "run_s" in r)
    print(describe(result, traced_s), file=sys.stderr)
    fingerprints = {r["config_seed"]: r["fingerprint"] for r in inputs if "fingerprint" in r}
    report = {
        "report": "perfbench",
        "trace": bool(args.trace),
        "provenance": provenance(workload, args.seed, fingerprints),
        "processes": [{k: v for k, v in p.items() if k != "inputs"} for p in processes],
        "inputs": inputs,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
