"""White-box tests of GE's trigger handling and bookkeeping."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_ge
from repro.core.modes import ExecutionMode
from repro.server.harness import SimulationHarness
from repro.workload.generator import StaticWorkload
from repro.workload.job import Job


def harness_with(jobs, scheduler=None, **overrides):
    cfg = SimulationConfig(arrival_rate=100.0, horizon=2.0, m=2, seed=1).with_overrides(
        **overrides
    )
    sched = scheduler or make_ge()
    return SimulationHarness(cfg, sched, workload=StaticWorkload(jobs)), sched


def burst(n, at=0.0, demand=150.0, window=0.15, start_jid=0):
    return [
        Job(jid=start_jid + i, arrival=at + i * 1e-4, deadline=at + i * 1e-4 + window, demand=demand)
        for i in range(n)
    ]


class TestTriggers:
    def test_counter_trigger_fires_at_threshold(self):
        """With all cores busy, the queue must reach the counter
        threshold before a batch reschedule happens."""
        jobs = burst(12, window=0.5)
        h, sched = harness_with(jobs, counter_threshold=8)
        reschedules = []
        original = sched.reschedule

        def spy():
            reschedules.append((h.sim.now, len(h.queue)))
            original()

        sched.reschedule = spy
        h.run()
        assert reschedules, "no reschedule happened"
        # The first trigger is the idle-arrival one (cores start idle).
        assert reschedules[0][1] >= 1

    def test_idle_arrival_trigger(self):
        """A single job arriving to an all-idle machine is scheduled
        immediately, not after the quantum."""
        job = Job(jid=0, arrival=0.3, deadline=0.45, demand=150.0)
        h, sched = harness_with([job])
        h.run()
        # Scheduled at arrival: completed or cut well before deadline.
        assert job.settled
        assert job.processed > 0

    def test_quantum_trigger_reschedules_periodically(self):
        jobs = burst(4, window=1.8)
        h, sched = harness_with(jobs, quantum=0.25)
        h.run()
        # At least horizon/quantum quantum ticks plus arrival triggers.
        assert sched.reschedules >= 6

    def test_jobs_never_migrate(self):
        jobs = burst(20, window=0.4)
        h, _ = harness_with(jobs)
        h.run()
        # Job.assign raises on migration, so reaching the end settled
        # with a core set proves single-core execution.
        for job in jobs:
            assert job.settled
            if job.processed > 0:
                assert job.core is not None

    def test_crr_spreads_batch_across_cores(self):
        jobs = burst(8, window=0.5)
        h, _ = harness_with(jobs, m=4)
        h.run()
        used_cores = {j.core for j in jobs if j.core is not None}
        assert len(used_cores) == 4


class TestCompensation:
    def test_mode_switches_after_quality_crash(self):
        """A burst too large to serve forces expirations; the next
        trigger must switch to BQ."""
        # 30 big jobs into 2 cores with 150 ms deadlines: hopeless.
        jobs = burst(30, demand=900.0, window=0.15)
        # Follow-up trickle the scheduler can complete in BQ mode.
        jobs += burst(10, at=1.0, demand=150.0, window=0.4, start_jid=100)
        ge = make_ge()
        h, sched = harness_with(jobs, scheduler=ge)
        h.run()
        assert sched.controller.switches >= 1
        # After the crash the monitor is below target, so the last jobs
        # ran in BQ mode: the trickle must be fully completed.
        late = [j for j in jobs if j.arrival >= 1.0]
        assert all(j.outcome.value == "completed" for j in late)

    def test_no_compensation_stays_aes_after_crash(self):
        jobs = burst(30, demand=900.0, window=0.15)
        sched = GEScheduler(name="NC", compensated=False)
        h, _ = harness_with(jobs, scheduler=sched)
        h.run()
        assert sched.controller.mode is ExecutionMode.AES
        assert sched.controller.switches == 0


class TestDiscreteGE:
    def test_ge_with_ladder_serves_jobs(self):
        jobs = burst(10, window=0.4)
        h, _ = harness_with(jobs, discrete_levels=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
        result = h.run()
        assert result.quality > 0.8
        # Every executed speed sits on the ladder.
        for core in h.machine.cores:
            _, values = core.speed_timeline.as_arrays(h.sim.now)
            for v in values:
                assert v == 0.0 or v in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


class TestReporting:
    def test_describe_mentions_knobs(self):
        sched = GEScheduler(name="X", compensated=False, distribution="wf")
        h, _ = harness_with(burst(1), scheduler=sched)
        text = sched.describe()
        assert "no-comp" in text and "wf" in text

    def test_aes_fraction_none_before_bind(self):
        assert GEScheduler().aes_fraction() is None

    def test_core_loads_tracks_active_jobs(self):
        jobs = burst(6, window=1.0)
        sched = make_ge()
        h, _ = harness_with(jobs, scheduler=sched, m=2)
        h.run()
        # After the run everything settled: loads are zero.
        assert sched._core_loads() == [0.0, 0.0]


class _CacheClearingGE(GEScheduler):
    """GE with its cross-round cap memo wiped at the top of each round:
    the control experiment proving the memo is pure memoization."""

    def _run_round(self, tracer):
        self._cap_memo = [None] * len(self._cap_memo)
        super()._run_round(tracer)


def _run(scheduler, **overrides):
    cfg = SimulationConfig(arrival_rate=150.0, horizon=5.0, seed=3).with_overrides(
        **overrides
    )
    return SimulationHarness(cfg, scheduler).run()


_CONFIGS = [
    {},                              # paper defaults (hybrid ES/WF)
    {"arrival_rate": 400.0},         # heavy load -> WF branch
    {"m": 4, "budget": 80.0},        # small machine, tight budget
]
_CONFIG_IDS = ["nominal", "heavy", "tight"]


class TestPlanCacheSoundness:
    """The per-core cap memo must never change a simulated result: a GE
    whose memo is cleared every round produces the identical outcome."""

    @pytest.mark.parametrize("overrides", _CONFIGS, ids=_CONFIG_IDS)
    def test_cached_run_matches_cache_free_run(self, overrides):
        cached = _run(GEScheduler(name="GE"), **overrides)
        cleared = _run(_CacheClearingGE(name="GE"), **overrides)
        assert cached == cleared

    def test_cap_memo_hits_on_traced_light_load_run(self):
        from repro.obs import Tracer

        cfg = SimulationConfig(arrival_rate=100.0, horizon=2.0, seed=1)
        tracer = Tracer()
        SimulationHarness(cfg, GEScheduler(name="GE"), tracer=tracer).run()
        metrics = tracer.to_trace().metrics
        assert metrics["planner.cap_memo_hits"]["value"] > 0


def _pin(harness):
    result = harness.run()
    return (
        result.quality.hex(),
        result.energy.hex(),
        harness.sim.events_processed,
        dict(sorted(result.outcomes.items())),
    )


class TestGoldenResults:
    """Exact results recorded before the plan cache, waterline memo and
    ES/WF decision caches were deleted: (quality and energy as
    ``float.hex``, simulator events, outcome counts).  Any drift means a
    change altered a simulated bit."""

    @pytest.mark.parametrize("overrides, expected", [
        ({}, ("0x1.cd3e0e1030946p-1", "0x1.f11d232c0d139p+9", 1942,
              {"completed": 449, "cut": 157, "expired": 158})),
        ({"arrival_rate": 400.0}, ("0x1.0703d06838a8dp-1", "0x1.9652a7f8d0676p+10", 5573,
                                   {"cut": 1609, "expired": 383})),
        ({"m": 4, "budget": 80.0}, ("0x1.6398cbb359d9bp-2", "0x1.974770e54f99cp+8", 2188,
                                    {"cut": 669, "expired": 95})),
    ], ids=_CONFIG_IDS)
    def test_ge_run(self, overrides, expected):
        cfg = SimulationConfig(arrival_rate=150.0, horizon=5.0, seed=3).with_overrides(
            **overrides
        )
        assert _pin(SimulationHarness(cfg, GEScheduler(name="GE"))) == expected

    def test_same_instant_burst(self):
        """Eight arrivals at one instant fire several rounds at t=0.2."""
        jobs = [Job(jid=i, arrival=0.2, deadline=1.4, demand=400.0) for i in range(8)]
        cfg = SimulationConfig(arrival_rate=100.0, horizon=2.0, m=2, seed=1)
        harness = SimulationHarness(cfg, GEScheduler(name="GE"), workload=StaticWorkload(jobs))
        assert _pin(harness) == (
            "0x1.ccccdb6170887p-1", "0x1.14a260a9a9955p+4", 26, {"cut": 6, "expired": 2}
        )

    def test_mixed_class_run(self):
        from repro.mixed import MixedClassWorkload, make_mixed_ge
        from repro.quality.functions import ExponentialQuality, LinearQuality
        from repro.sim.rng import RandomStreams

        functions = [ExponentialQuality(c=0.009, x_max=1000.0), LinearQuality(x_max=1000.0)]
        cfg = SimulationConfig(arrival_rate=120.0, horizon=1.0, seed=5)
        scheduler, monitor = make_mixed_ge(functions)
        workload = MixedClassWorkload(
            cfg.workload(), [0.5, 0.5], streams=RandomStreams(seed=99)
        )
        harness = SimulationHarness(cfg, scheduler, workload=workload, monitor=monitor)
        assert _pin(harness) == (
            "0x1.e01fa59a8572cp-1", "0x1.29c41b6b178cfp+7", 304,
            {"completed": 98, "cut": 11, "dropped": 10, "expired": 12},
        )
