"""Trace summary & analysis: the questions a trace exists to answer.

Works on a :class:`repro.obs.tracer.Trace` (live from a
:class:`~repro.obs.tracer.Tracer` or reloaded via
:func:`repro.obs.export.read_jsonl`):

* :func:`mode_intervals` — the AES/BQ occupancy timeline (compensation
  episodes are the BQ intervals);
* :func:`core_utilization` — per-core busy time, slice count, executed
  volume and final energy, from exec spans + timeline samples;
* :func:`job_stats` — per-outcome counts, sojourn times and processed
  fractions from job spans;
* :func:`summarize` — a human-readable digest of all of the above
  (what ``repro-cli trace`` prints).

To analyze a large trace file without loading it wholesale, fold it in
one pass with constant memory instead:
``fold_records(iter_jsonl(path))`` (:mod:`repro.obs.stream`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.tracer import Trace

__all__ = [
    "ModeInterval",
    "core_utilization",
    "job_stats",
    "mode_intervals",
    "summarize",
]


@dataclass(frozen=True)
class ModeInterval:
    """A maximal stretch of one execution mode."""

    start: float
    end: float
    mode: str  # "aes" | "bq"

    @property
    def duration(self) -> float:
        """Interval length in simulated seconds."""
        return self.end - self.start


def _trace_end(trace: Trace) -> Optional[float]:
    if "end" in trace.meta:
        return float(trace.meta["end"])
    times = [e.time for e in trace.events]
    times.extend(s.time for s in trace.samples)
    return max(times) if times else None


def mode_intervals(trace: Trace) -> List[ModeInterval]:
    """AES/BQ intervals reconstructed from the per-round decisions.

    Each ``decision`` event carries the mode chosen for the round;
    consecutive rounds with the same mode merge into one interval.  The
    last interval extends to the run end (``meta["end"]``).
    """
    decisions = trace.events_of("decision")
    if not decisions:
        return []
    out: List[ModeInterval] = []
    start = decisions[0].time
    mode = decisions[0].attrs["mode"]
    for d in decisions[1:]:
        if d.attrs["mode"] != mode:
            out.append(ModeInterval(start=start, end=d.time, mode=mode))
            start, mode = d.time, d.attrs["mode"]
    end = _trace_end(trace)
    out.append(ModeInterval(start=start, end=end if end is not None else start, mode=mode))
    return out


def core_utilization(trace: Trace) -> Dict[int, Dict[str, float]]:
    """Per-core execution breakdown.

    Returns ``{core: {"busy": s, "slices": n, "volume": units,
    "energy": J, "utilization": fraction}}``.  Busy time and volume come
    from closed exec spans; energy is the final timeline sample's
    cumulative value; utilization divides busy time by the run duration
    (0 when the duration is unknown).
    """
    out: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "slices": 0.0, "volume": 0.0, "energy": 0.0,
                 "utilization": 0.0}
    )
    for span in trace.spans_named("exec"):
        if span.end is None:
            continue
        core = int(span.attrs["core"])
        row = out[core]
        row["busy"] += span.duration
        row["slices"] += 1
        row["volume"] += float(span.attrs.get("done", 0.0))
    for sample in trace.samples:  # samples are chronological: last wins
        out[sample.core]["energy"] = sample.energy
    end = _trace_end(trace)
    start = float(trace.meta.get("start", 0.0))
    span_len = (end - start) if end is not None else 0.0
    if span_len > 0:
        for row in out.values():
            row["utilization"] = row["busy"] / span_len
    return dict(sorted(out.items()))


def job_stats(trace: Trace) -> Dict[str, Dict[str, float]]:
    """Per-outcome job statistics from closed job spans.

    Returns ``{outcome: {"count": n, "mean_sojourn": s,
    "mean_processed_fraction": f}}``.
    """
    grouped: Dict[str, List] = defaultdict(list)
    for span in trace.spans_named("job"):
        if span.end is None:
            continue
        grouped[span.attrs.get("outcome", "open")].append(span)
    out: Dict[str, Dict[str, float]] = {}
    for outcome, spans in sorted(grouped.items()):
        sojourns = [s.duration for s in spans]
        fractions = [
            float(s.attrs.get("processed", 0.0)) / float(s.attrs["demand"])
            for s in spans
            if float(s.attrs.get("demand", 0.0)) > 0
        ]
        out[outcome] = {
            "count": float(len(spans)),
            "mean_sojourn": sum(sojourns) / len(sojourns) if sojourns else 0.0,
            "mean_processed_fraction": (
                sum(fractions) / len(fractions) if fractions else 0.0
            ),
        }
    return out


def summarize(trace: Trace) -> str:
    """Multi-line human-readable digest of the trace."""
    lines: List[str] = []
    meta = trace.meta
    head = meta.get("scheduler", "?")
    if "arrival_rate" in meta:
        head += f"  λ={meta['arrival_rate']:g}/s"
    if "seed" in meta:
        head += f"  seed={meta['seed']}"
    end = _trace_end(trace)
    if end is not None:
        head += f"  span=[{meta.get('start', 0.0):g}, {end:g}] s"
    lines.append(f"trace: {head}")
    lines.append(
        f"records: {len(trace.spans)} spans, {len(trace.events)} events, "
        f"{len(trace.samples)} samples, {len(trace.metrics)} metrics"
    )

    stats = job_stats(trace)
    if stats:
        total = int(sum(row["count"] for row in stats.values()))
        lines.append(f"jobs ({total} settled):")
        for outcome, row in stats.items():
            lines.append(
                f"  {outcome:<10} n={int(row['count']):<6} "
                f"sojourn={row['mean_sojourn'] * 1e3:8.2f} ms  "
                f"processed={row['mean_processed_fraction'] * 100:5.1f} %"
            )

    intervals = mode_intervals(trace)
    if intervals:
        total_t = sum(i.duration for i in intervals)
        aes_t = sum(i.duration for i in intervals if i.mode == "aes")
        switches = max(0, len(intervals) - 1)
        share = (aes_t / total_t * 100) if total_t > 0 else 100.0
        lines.append(
            f"modes: {len(intervals)} intervals, {switches} switches, "
            f"AES {share:.1f} % of decided time"
        )
        for interval in intervals[:12]:
            lines.append(
                f"  [{interval.start:9.4f} → {interval.end:9.4f}] "
                f"{interval.mode} ({interval.duration:.4f} s)"
            )
        if len(intervals) > 12:
            lines.append(f"  ... {len(intervals) - 12} more intervals")

    cores = core_utilization(trace)
    if cores:
        lines.append("cores:")
        for core, row in cores.items():
            lines.append(
                f"  core {core:<3} util={row['utilization'] * 100:5.1f} %  "
                f"slices={int(row['slices']):<5} vol={row['volume']:10.1f}  "
                f"E={row['energy']:10.2f} J"
            )

    if trace.metrics:
        lines.append("metrics:")
        for name, snap in trace.metrics.items():
            if snap["kind"] == "counter":
                lines.append(f"  {name:<32} {snap['value']:g}")
            elif snap["kind"] == "gauge":
                lines.append(f"  {name:<32} {snap['value']:g} (last)")
            elif snap["kind"] == "phase":
                lines.append(
                    f"  {name:<32} n={snap['count']} "
                    f"total={snap['total_s'] * 1e3:.2f} ms "
                    f"mean={snap['mean_s'] * 1e6:.1f} µs "
                    f"max={snap['max_s'] * 1e6:.1f} µs"
                )
            elif snap["kind"] == "quantiles":
                estimates = " ".join(
                    f"{label}={value:g}" if value is not None else f"{label}=-"
                    for label, value in snap["estimates"].items()
                )
                lines.append(f"  {name:<32} n={snap['count']} {estimates}")
            else:
                line = (
                    f"  {name:<32} n={snap['count']} mean={snap['mean']:g} "
                    f"min={snap['min']:g} max={snap['max']:g}"
                )
                # Out-of-range observations mean the bucket bound is
                # mis-sized — make that visible, not just recorded.
                overflow = snap.get("overflow", 0)
                underflow = snap.get("underflow", 0)
                if overflow or underflow:
                    line += f"  [overflow={overflow} underflow={underflow}]"
                lines.append(line)
    return "\n".join(lines)
