"""The ``repro bench`` performance harness: snapshots and regression gates.

A *bench snapshot* (``BENCH_<label>.json``) is one measured point of the
project's performance trajectory: a fixed suite of scenarios (the GE
scheduler and its baselines at reduced horizon, reusing
:mod:`repro.experiments.runner` machinery) is run with tracing and the
hot-path profiler on, and for every scenario the snapshot records

* host wall time (best of ``repeats``) and the derived **events/sec**
  and **µs/reschedule** rates, so perf is normalised to work done;
* the per-phase wall-time profile from :mod:`repro.obs.prof`
  (``scheduler.round``, ``cut.lf``, ``power.distribute``,
  ``planner.quality_opt``, ``planner.energy_opt``, ``sim.run``);
* the deterministic simulator counters (events processed, reschedules,
  AES↔BQ mode switches, per-outcome job counts) — these must be
  bit-identical across hosts for the same config+seed, so a mismatch in
  ``compare`` flags a determinism break, not noise;
* the paper-fidelity metrics **Q** (service quality) and **E** (energy),
  so performance work cannot silently change results;
* peak RSS (and optionally the tracemalloc peak from a second, untimed
  run) plus enough metadata — git revision, python/platform, RNG seed,
  config fingerprints, schema version — to reproduce the snapshot from
  the artifact alone.

``compare_snapshots`` renders a per-scenario / per-phase delta table
and reports regressions: wall time past a configurable threshold,
fidelity drift, counter mismatches, and scenarios that disappeared.
CI runs the reduced suite and compares against
``benchmarks/baseline.json`` with a generous threshold so the gate
catches crashes and step-change regressions, not host jitter.
"""

from __future__ import annotations

import gc
import json
import platform
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.queue_order import FCFS
from repro.config import SimulationConfig
from repro.core.ge import make_be, make_ge, make_oq
from repro.experiments.fig12_discrete_speed import DEFAULT_LADDER
from repro.experiments.runner import SchedulerFactory, scaled_config
from repro.obs import StreamingTracer, Tracer, fold_records
from repro.server.harness import SimulationHarness

__all__ = [
    "BENCH_SCHEMA",
    "BenchComparison",
    "BenchScenario",
    "SUITE",
    "TRACERS",
    "collect_snapshot",
    "compare_snapshots",
    "load_snapshot",
    "run_scenario",
    "write_snapshot",
]

#: Version tag of the snapshot layout.  Bump on incompatible changes so
#: ``compare`` can refuse to diff artifacts it does not understand.
BENCH_SCHEMA = "repro.bench/1"

#: Default horizon scale (fraction of the paper's 600 s) — ~12 s of
#: simulated arrivals per scenario keeps the full suite under a minute.
DEFAULT_SCALE = 0.02

#: Phases cheaper than this (old-snapshot total seconds) are exempt from
#: the per-phase regression gate; their ratios are pure noise.
_PHASE_FLOOR_S = 0.010

#: Tracer sinks the bench can drive (``repro bench --tracer``): the
#: buffering tracer (the historical default) or the constant-memory
#: streaming sink of :mod:`repro.obs.stream`.
TRACERS: Dict[str, Callable[[], Tracer]] = {
    "full": Tracer,
    "stream": StreamingTracer,
}


@dataclass(frozen=True)
class BenchScenario:
    """One named benchmark scenario of the fixed suite.

    Attributes
    ----------
    name:
        Stable snapshot key (``compare`` matches scenarios by it).
    description:
        What the scenario exercises (shown by ``repro bench --list``).
    factory:
        Zero-argument scheduler factory (fresh instance per run).
    config:
        ``(scale, seed) -> SimulationConfig`` builder.
    """

    name: str
    description: str
    factory: SchedulerFactory
    config: Callable[[float, int], SimulationConfig]


def _cfg(**overrides: Any) -> Callable[[float, int], SimulationConfig]:
    def build(scale: float, seed: int) -> SimulationConfig:
        return scaled_config(scale, seed, **overrides)

    return build


#: The fixed bench suite.  Scenarios are chosen to cover the distinct
#: hot paths: ES vs WF power distribution (light vs heavy load), AES
#: cutting vs permanent BQ (GE vs BE), compensation off (OQ), the
#: discrete-DVFS planner arm, and the non-GE harness path (FCFS).
SUITE: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            name="ge_light",
            description="GE below the critical load (λ=100/s): ES distribution path",
            factory=make_ge,
            config=_cfg(arrival_rate=100.0),
        ),
        BenchScenario(
            name="ge_nominal",
            description="GE at the paper's nominal λ=150/s (web-search defaults)",
            factory=make_ge,
            config=_cfg(arrival_rate=150.0),
        ),
        BenchScenario(
            name="ge_heavy",
            description="GE overloaded (λ=250/s): WF distribution + deep cutting",
            factory=make_ge,
            config=_cfg(arrival_rate=250.0),
        ),
        BenchScenario(
            name="be_nominal",
            description="BE baseline (permanent BQ, water-filling) at λ=150/s",
            factory=make_be,
            config=_cfg(arrival_rate=150.0),
        ),
        BenchScenario(
            name="oq_nominal",
            description="OQ baseline (no compensation, Q_GE+2%) at λ=150/s",
            factory=make_oq,
            config=_cfg(arrival_rate=150.0),
        ),
        BenchScenario(
            name="ge_discrete",
            description="GE on the 0.25 GHz DVFS ladder: discrete Energy-OPT path",
            factory=make_ge,
            config=_cfg(arrival_rate=150.0, discrete_levels=DEFAULT_LADDER),
        ),
        BenchScenario(
            name="fcfs_nominal",
            description="FCFS queue-order baseline at λ=150/s: harness fast path",
            factory=FCFS,
            config=_cfg(arrival_rate=150.0),
        ),
    )
}


def _git(*args: str) -> Optional[str]:
    """Output of a git command run beside this file, or ``None``."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_provenance() -> Dict[str, Any]:
    """Short revision and dirty flag of the working tree, if available.

    ``git_dirty`` is true when tracked files differ from ``git_rev``, so
    a snapshot measured on an uncommitted tree says so.
    """
    rev = _git("rev-parse", "--short", "HEAD")
    if not rev:
        return {"git_rev": None, "git_dirty": None}
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": rev, "git_dirty": None if status is None else bool(status)}


def _peak_rss_kb() -> Optional[float]:
    """Process peak RSS in KiB (monotone high-water mark), if available."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _slo_summary(tracer: Tracer) -> Dict[str, Any]:
    """The run's SLO compliance summary, whichever sink recorded it.

    A :class:`StreamingTracer` evaluated the SLOs online; a buffering
    :class:`Tracer` recorded the raw streams, which fold to the
    bit-identical summary offline.
    """
    if isinstance(tracer, StreamingTracer):
        slo = tracer.summary().get("slo", {})
    else:
        slo = fold_records(tracer.to_trace()).snapshot().get("slo", {})
    return dict(slo)


def run_scenario(
    scenario: BenchScenario,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    repeats: int = 1,
    mem: bool = False,
    tracer_factory: Callable[[], Tracer] = Tracer,
) -> Dict[str, Any]:
    """Measure one scenario; returns its snapshot record.

    Each repeat builds a fresh config/scheduler/harness with tracing and
    profiling enabled; the reported wall time and phase profile come
    from the fastest repeat (the one least disturbed by the host).
    Simulated results are asserted identical across repeats — the run is
    deterministic, so any divergence is a real bug.  ``tracer_factory``
    selects the telemetry sink under test (see :data:`TRACERS`); every
    record carries the run's SLO compliance summary either way.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    config = scenario.config(scale, seed)
    best: Optional[Dict[str, Any]] = None
    reference: Optional[Tuple[float, float, int, int]] = None
    for _ in range(repeats):
        tracer = tracer_factory()
        harness = SimulationHarness(config, scenario.factory(), tracer=tracer)
        wall_start = time.perf_counter()
        result = harness.run()
        wall = time.perf_counter() - wall_start

        events = harness.sim.events_processed
        fidelity = (result.quality, result.energy, result.jobs, events)
        if reference is None:
            reference = fidelity
        elif fidelity != reference:
            raise RuntimeError(
                f"bench scenario {scenario.name!r} is non-deterministic across "
                f"repeats: {reference} != {fidelity}"
            )
        if best is not None and wall >= best["wall_s"]:
            continue

        scheduler = harness.scheduler
        reschedules = int(getattr(scheduler, "reschedules", 0))
        controller = getattr(scheduler, "controller", None)
        mode_switches = int(getattr(controller, "switches", 0))
        best = {
            "name": scenario.name,
            "scheduler": scheduler.name,
            "arrival_rate": config.arrival_rate,
            "horizon": config.horizon,
            "seed": config.seed,
            "config_fingerprint": config.fingerprint(),
            "wall_s": wall,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "us_per_reschedule": (
                wall / reschedules * 1e6 if reschedules else None
            ),
            "counters": {
                "events": events,
                "reschedules": reschedules,
                "mode_switches": mode_switches,
                "jobs": result.jobs,
                "outcomes": dict(sorted(result.outcomes.items())),
            },
            "quality": result.quality,
            "energy": result.energy,
            "phases": tracer.profiler.snapshot(),
            "slo": _slo_summary(tracer),
            "peak_rss_kb": _peak_rss_kb(),
            "tracemalloc_peak_kb": None,
            "telemetry_kb": None,
        }

    assert best is not None
    if mem:
        # Separate, untimed run: tracemalloc roughly doubles wall time,
        # so the allocation peak must never contaminate the timings.
        tracemalloc.start()
        try:
            mem_tracer = tracer_factory()
            SimulationHarness(config, scenario.factory(), tracer=mem_tracer).run()
            _, peak = tracemalloc.get_traced_memory()
            # Telemetry memory in isolation: live allocations made by
            # repro.obs code at run end, while the tracer still holds
            # its buffers/aggregates.  The global peak is dominated by
            # the materialized workload (linear in the horizon for any
            # sink); this filtered view is what the flat-vs-horizon
            # memory test pins for the streaming sink.  Collect first:
            # dropped records awaiting cycle collection are not
            # retained memory.
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_traces = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/*")]
        )
        telemetry = sum(stat.size for stat in obs_traces.statistics("filename"))
        del mem_tracer  # keep the buffers alive through take_snapshot
        best["tracemalloc_peak_kb"] = peak / 1024.0
        best["telemetry_kb"] = telemetry / 1024.0
    return best


def _progress_line(record: Dict[str, Any]) -> str:
    """One status line per finished scenario (shared by both paths)."""
    slo = record.get("slo", {})
    verdict = "-"
    if "compliant" in slo:
        verdict = "ok" if slo["compliant"] else f"{slo['violations']}!"
    return (
        f"{record['name']:<14} wall={record['wall_s']:8.3f} s  "
        f"{record['events_per_sec']:10.0f} ev/s  "
        f"Q={record['quality']:.4f}  E={record['energy']:.1f} J  "
        f"slo={verdict}"
    )


def _scenario_cell(args: Tuple[str, float, int, int, bool, str]) -> Dict[str, Any]:
    """One scenario run for the parallel path.

    Module-level and keyed by scenario *name* (the suite's config
    builders are closures and do not pickle) so the spawn start method
    can ship it to a pool worker.
    """
    name, scale, seed, repeats, mem, tracer = args
    return run_scenario(
        SUITE[name], scale=scale, seed=seed, repeats=repeats, mem=mem,
        tracer_factory=TRACERS[tracer],
    )


def collect_snapshot(
    label: str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: int = 1,
    repeats: int = 1,
    scenarios: Optional[Sequence[str]] = None,
    mem: bool = False,
    tracer: str = "full",
    parallel: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the bench suite and assemble the snapshot dict.

    ``scenarios`` selects a subset of :data:`SUITE` by name (default:
    all); ``tracer`` selects the telemetry sink (see :data:`TRACERS`);
    ``progress`` is called with a one-line status per scenario (the CLI
    passes ``print``).  ``parallel > 1`` fans scenarios across a
    spawn-context process pool — simulated results and counters are
    unchanged (each scenario is a pure function of config + seed), but
    wall times then measure *contended* hosts: never compare a parallel
    snapshot against a sequential baseline.
    """
    names = list(scenarios) if scenarios is not None else list(SUITE)
    unknown = [n for n in names if n not in SUITE]
    if unknown:
        raise KeyError(
            f"unknown bench scenario(s): {', '.join(unknown)}; "
            f"available: {', '.join(SUITE)}"
        )
    if tracer not in TRACERS:
        raise KeyError(
            f"unknown tracer {tracer!r}; available: {', '.join(TRACERS)}"
        )
    records: List[Dict[str, Any]] = []
    if parallel > 1:
        from repro.experiments.fleet import parallel_map  # local: avoid cycle

        cells = [(name, scale, seed, repeats, mem, tracer) for name in names]
        records = parallel_map(_scenario_cell, cells, workers=parallel)
        if progress is not None:
            for record in records:
                progress(_progress_line(record))
    else:
        for name in names:
            record = _scenario_cell((name, scale, seed, repeats, mem, tracer))
            records.append(record)
            if progress is not None:
                progress(_progress_line(record))
    return {
        "schema": BENCH_SCHEMA,
        "label": label,
        "created_unix": time.time(),
        **_git_provenance(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "tracer": tracer,
        "parallel": parallel,
        "scenarios": records,
    }


_PathLike = Union[str, Path]


def write_snapshot(snapshot: Dict[str, Any], path: _PathLike) -> None:
    """Write a snapshot as stable, diff-friendly JSON."""
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_snapshot(path: _PathLike) -> Dict[str, Any]:
    """Load and schema-check one ``BENCH_*.json`` snapshot."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(this reader understands {BENCH_SCHEMA!r})"
        )
    return data


@dataclass
class BenchComparison:
    """Outcome of ``compare_snapshots``: the report and the verdict."""

    lines: List[str]
    regressions: List[str]

    @property
    def ok(self) -> bool:
        """True when no regression was detected."""
        return not self.regressions

    def render(self) -> str:
        """The full report, regressions summarised at the end."""
        out = list(self.lines)
        if self.regressions:
            out.append("")
            out.append(f"REGRESSIONS ({len(self.regressions)}):")
            out.extend(f"  - {r}" for r in self.regressions)
        else:
            out.append("")
            out.append("no regressions")
        return "\n".join(out)


def _by_name(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {s["name"]: s for s in snapshot.get("scenarios", [])}


def _ratio(old: float, new: float) -> Optional[float]:
    return new / old if old > 0 else None


def compare_snapshots(
    old: Dict[str, Any],
    new: Dict[str, Any],
    *,
    threshold: float = 1.25,
    fidelity_tol: float = 1e-6,
    check_fidelity: bool = True,
    scenarios: Optional[Sequence[str]] = None,
) -> BenchComparison:
    """Diff two snapshots; regressions gate the CLI exit code.

    A scenario regresses when its wall time grows past ``threshold``×
    the old value, when an individually expensive phase does (phases
    cheaper than 10 ms are noise-exempt), when quality/energy drift
    beyond ``fidelity_tol`` (relative) under an identical config
    fingerprint, when deterministic counters diverge (a determinism
    break), or when it vanished from the new snapshot (a crash gate).
    Comparing a snapshot to itself always passes.

    ``scenarios`` restricts the comparison to the named scenarios — the
    smoke-bench CI job records a one-scenario snapshot, and without the
    filter every other baseline scenario would count as "missing".
    Unknown names raise ``ValueError``.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold!r}")
    lines: List[str] = []
    regressions: List[str] = []
    old_s, new_s = _by_name(old), _by_name(new)
    if scenarios is not None:
        wanted = list(dict.fromkeys(scenarios))
        unknown = [n for n in wanted if n not in old_s and n not in new_s]
        if unknown:
            raise ValueError(f"unknown scenario(s): {', '.join(unknown)}")
        old_s = {n: s for n, s in old_s.items() if n in wanted}
        new_s = {n: s for n, s in new_s.items() if n in wanted}

    for side, snap in (("old", old), ("new", new)):
        rev = snap.get("git_rev") or "no rev"
        if snap.get("git_dirty"):
            rev += "-dirty"
        lines.append(
            f"{side}: {snap.get('label', '?')} ({rev}, python {snap.get('python', '?')})"
        )
    lines.append(f"wall-time regression threshold: x{threshold:g}")
    lines.append("")

    for name, o in old_s.items():
        n = new_s.get(name)
        if n is None:
            regressions.append(f"{name}: missing from the new snapshot")
            lines.append(f"{name}: MISSING from new snapshot")
            continue
        ratio = _ratio(float(o["wall_s"]), float(n["wall_s"]))
        ratio_txt = f"x{ratio:.2f}" if ratio is not None else "n/a"
        lines.append(
            f"{name}: wall {o['wall_s']:.3f} s -> {n['wall_s']:.3f} s "
            f"({ratio_txt})  events/s {o['events_per_sec']:.0f} -> "
            f"{n['events_per_sec']:.0f}"
        )
        if ratio is not None and ratio > threshold:
            regressions.append(
                f"{name}: wall time x{ratio:.2f} (threshold x{threshold:g})"
            )

        same_setup = o.get("config_fingerprint") == n.get("config_fingerprint")
        if check_fidelity and same_setup:
            for key in ("quality", "energy"):
                ov, nv = float(o[key]), float(n[key])
                if abs(nv - ov) > fidelity_tol * max(1.0, abs(ov)):
                    regressions.append(
                        f"{name}: {key} drifted {ov!r} -> {nv!r} "
                        "(perf change altered simulated results)"
                    )
            oc, nc = o.get("counters", {}), n.get("counters", {})
            for key in ("events", "reschedules", "jobs"):
                if key in oc and key in nc and oc[key] != nc[key]:
                    regressions.append(
                        f"{name}: deterministic counter {key} changed "
                        f"{oc[key]} -> {nc[key]} (determinism break)"
                    )
        elif check_fidelity and not same_setup:
            lines.append(
                "  (config fingerprints differ — fidelity/counters not compared)"
            )

        # Per-phase delta table (inclusive wall time).
        phases = sorted(set(o.get("phases", {})) | set(n.get("phases", {})))
        for phase in phases:
            op = o.get("phases", {}).get(phase)
            np_ = n.get("phases", {}).get(phase)
            o_total = float(op["total_s"]) if op else 0.0
            n_total = float(np_["total_s"]) if np_ else 0.0
            p_ratio = _ratio(o_total, n_total)
            p_txt = f"x{p_ratio:.2f}" if p_ratio is not None else "  new"
            lines.append(
                f"    {phase:<22} {o_total * 1e3:9.2f} ms -> "
                f"{n_total * 1e3:9.2f} ms  ({p_txt})"
            )
            if (
                p_ratio is not None
                and p_ratio > threshold
                and o_total >= _PHASE_FLOOR_S
            ):
                regressions.append(
                    f"{name}: phase {phase} x{p_ratio:.2f} "
                    f"({o_total * 1e3:.1f} ms -> {n_total * 1e3:.1f} ms)"
                )

    for name in new_s:
        if name not in old_s:
            lines.append(f"{name}: new scenario (no baseline)")

    return BenchComparison(lines=lines, regressions=regressions)
