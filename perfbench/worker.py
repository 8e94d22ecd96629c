"""One batch of simulation runs in its own process.

Usage::

    python perfbench/worker.py --workload ge_light --seed 1 --batch 0 --trace 0

Sets the batch's inputs up (imports, configs, harnesses, materialized
jobs), then times ``SimulationHarness.run()`` of each input and,
outside the timed region, validates it.  Prints one JSON line with the
timings, the simulated results and, with ``--trace 1``, the per-layer
span table.  ``PYTHONPATH`` must make ``repro`` importable; the runner
``run.py`` sets it.

Host times are reported in reference seconds: the measured wall time
multiplied by ``CAL_REF_S`` over the time a fixed pure-Python kernel
takes around the measurement.  On a shared host the speed of a vCPU
drifts by ±20% over seconds; the kernel drifts with it, and the ratio
does not.  The raw wall times are reported beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Tuple

from tracing import SpanRecorder
from workloads import WORKLOADS, build

#: About the typical time of :func:`calibrate`'s kernel on the 2-vCPU
#: 2.1 GHz Xeon host the benchmark was defined on, so that a reference
#: second is close to a wall second there.
CAL_REF_S = 0.0025
_CAL_ITEMS = 3_000


def calibrate() -> float:
    """Seconds of a fixed pure-Python kernel (heap, tuples, floats)."""
    start = time.perf_counter()
    heap: List[Any] = []
    acc = 0.0
    for i in range(_CAL_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return time.perf_counter() - start


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(fn(), wall seconds, reference seconds)``, with the kernel timed
    right before and right after ``fn`` to track the host's speed."""
    before = calibrate()
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    after = calibrate()
    return value, wall, wall * CAL_REF_S / ((before + after) / 2)


def outcome_digest(jobs: Any) -> str:
    """SHA-256 over every job's id, outcome and processed volume (hex)."""
    h = hashlib.sha256()
    for job in jobs:
        outcome = job.outcome.value if job.outcome is not None else "-"
        h.update(f"{job.jid}:{outcome}:{float(job.processed).hex()};".encode())
    return h.hexdigest()


def run_input(config: Any, harness: Any, trace: bool) -> Dict[str, Any]:
    """Time one input's run (traced when ``trace``), then check it outside
    the timed and traced region; returns its record."""
    from repro.validation import validate_run

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        recorder.install()
    try:
        result, wall, ref = timed(harness.run)
    finally:
        if recorder is not None:
            recorder.uninstall()
    report = validate_run(harness)
    record = {
        "config_seed": config.seed,
        "fingerprint": config.fingerprint(),
        "run_s": ref,
        "run_wall_s": wall,
        "rounds": int(getattr(harness.scheduler, "reschedules", 0)),
        "valid": report.ok,
        "violations": report.violations[:5],
        "sim": {
            "quality": result.quality.hex(),
            "energy": result.energy.hex(),
            "events": harness.sim.events_processed,
            "outcomes": dict(sorted(result.outcomes.items())),
            "jobs_digest": outcome_digest(harness.workload.materialize()),
        },
        "quality": result.quality,
        "energy": result.energy,
    }
    if recorder is not None:
        scale = ref / wall
        table = recorder.fold()
        for row in table.values():
            for key in ("self_s", "total_s"):
                if key in row:
                    row[key] *= scale
        record["layers"] = table
        record["round_s"] = [d * scale for d in recorder.durations("core.round")]
    return record


def run_batch(workload_name: str, seed: int, batch: int, trace: bool) -> Dict[str, Any]:
    """Set up, run and check every input of one batch."""
    workload = WORKLOADS[workload_name]

    def setup() -> List[Tuple[Any, Any, int, float]]:
        prepared = []
        for config_seed in workload.batches(seed)[batch]:
            config, harness = build(workload, config_seed)
            start = time.perf_counter()
            jobs = len(harness.workload.materialize())
            prepared.append((config, harness, jobs, time.perf_counter() - start))
        return prepared

    prepared, setup_wall, setup_ref = timed(setup)
    inputs = []
    for config, harness, jobs, materialize_wall in prepared:
        try:
            record = run_input(config, harness, trace)
        except Exception:  # one input's failure is its result
            record = {"config_seed": config.seed, "error": traceback.format_exc(limit=8)}
        record.update(jobs=jobs, materialize_s=materialize_wall * setup_ref / setup_wall)
        inputs.append(record)
    return {
        "setup_s": setup_ref,
        "setup_wall_s": setup_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": inputs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run_batch(args.workload, args.seed, args.batch, bool(args.trace))
    except Exception:  # a set-up failure fails the whole batch
        print(json.dumps({"error": traceback.format_exc(limit=8)}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
