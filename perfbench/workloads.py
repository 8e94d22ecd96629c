"""The benchmark's workloads and the code that sets one input up.

A workload is a fixed scheduler/traffic mix.  One benchmark seed expands
to ``inputs`` independent simulation inputs, with config seeds
``seed * 1000 + k`` for ``k < inputs``.  Each input is a Poisson arrival
stream of ``horizon * rate`` expected jobs, simulated to completion.
The inputs are split into batches of ``batch`` inputs; each batch runs
in its own process.

Several inputs per seed instead of one long run keep the seed-to-seed
spread of host time low: the cost of a run depends on its draw of
arrivals and demands, and averaging over inputs shrinks that dependence
while every input still repeats exactly under its own config seed.

This module imports nothing from ``repro`` at import time, so the
benchmark runner can read the workload table without the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Config seeds of one benchmark seed are ``seed * SEED_STRIDE + k``.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name:
        The ``--workload`` name.
    kind:
        ``"ge"`` (GE on the null tracer), ``"stream"`` (GE with a
        ``StreamingTracer`` attached as the program's own sink) or
        ``"mixed"`` (mixed-class GE on a 50/50 two-class workload).
    rate:
        Arrival rate λ in requests per simulated second.
    horizon:
        Simulated seconds of arrivals per input.
    inputs:
        Simulation inputs per benchmark seed (below ``SEED_STRIDE``).
    batch:
        Inputs run one after another in one process.
    """

    name: str
    kind: str
    rate: float
    horizon: float
    inputs: int
    batch: int = 1

    def config_seeds(self, seed: int) -> List[int]:
        """The config seed of every input of benchmark seed ``seed``."""
        return [seed * SEED_STRIDE + k for k in range(self.inputs)]

    def batches(self, seed: int) -> List[List[int]]:
        """The config seeds of benchmark seed ``seed``, one list per process."""
        seeds = self.config_seeds(seed)
        return [seeds[i : i + self.batch] for i in range(0, len(seeds), self.batch)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Below the critical load: every round takes the Equal-Sharing
        # branch; many small rounds, dominated by the LF cut.
        Workload("ge_light", "ge", rate=100.0, horizon=8.0, inputs=16),
        # Overloaded: Water-Filling rounds with long per-core queues,
        # dominated by Quality-OPT; the LF cut is nearly idle.
        Workload("ge_heavy", "ge", rate=250.0, horizon=8.0, inputs=10),
        # The slowest path in the repository (mixed-class cut and
        # Quality-OPT), which no other workload reaches.  Its host cost
        # per input is heavy-tailed (coefficient of variation 0.43 at a
        # 1 s horizon, 0.9 at 0.05 s), yet per host second many short
        # episodes shrink the spread of the mean fastest.
        Workload("mixed_nominal", "mixed", rate=120.0, horizon=0.05, inputs=200, batch=20),
        # The streaming sink every --stream/--store run and fleet task
        # pays; the only workload where the telemetry layer does work.
        Workload("ge_streamed", "stream", rate=150.0, horizon=6.0, inputs=16),
    )
}


def build(workload: Workload, config_seed: int) -> Tuple[Any, Any]:
    """Set one input up: returns ``(config, harness)``.

    This is part of the benchmark's set-up time, so the imports of the
    program happen here and not at module import.
    """
    from repro.config import SimulationConfig
    from repro.core.ge import make_ge
    from repro.server.harness import SimulationHarness

    config = SimulationConfig(
        arrival_rate=workload.rate, horizon=workload.horizon, seed=config_seed
    )
    if workload.kind == "mixed":
        from repro.mixed import MixedClassWorkload, make_mixed_ge
        from repro.quality.functions import ExponentialQuality, LinearQuality
        from repro.sim.rng import RandomStreams

        scheduler, monitor = make_mixed_ge(
            [ExponentialQuality(c=0.009, x_max=1000.0), LinearQuality(x_max=1000.0)]
        )
        jobs_source = MixedClassWorkload(
            config.workload(), [0.5, 0.5], streams=RandomStreams(seed=config_seed)
        )
        harness = SimulationHarness(
            config, scheduler, workload=jobs_source, monitor=monitor
        )
    elif workload.kind == "stream":
        from repro.obs import StreamingTracer

        harness = SimulationHarness(config, make_ge(), tracer=StreamingTracer())
    elif workload.kind == "ge":
        harness = SimulationHarness(config, make_ge())
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    return config, harness
