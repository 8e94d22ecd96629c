"""Integration tests for the GE scheduler."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.ge import GEScheduler, make_be, make_ge, make_oq
from repro.server.harness import SimulationHarness
from repro.workload.job import JobOutcome


def run(scheduler, **overrides):
    cfg = SimulationConfig(arrival_rate=120.0, horizon=6.0, seed=7).with_overrides(
        **overrides
    )
    return SimulationHarness(cfg, scheduler).run()


class TestGE:
    def test_holds_quality_target_under_light_load(self):
        result = run(make_ge())
        assert result.quality == pytest.approx(0.9, abs=0.02)

    def test_all_jobs_settle(self):
        result = run(make_ge())
        assert sum(result.outcomes.values()) == result.jobs

    def test_cut_jobs_exist_in_aes(self):
        result = run(make_ge())
        assert result.outcomes.get(JobOutcome.CUT.value, 0) > 0

    def test_aes_fraction_in_unit_interval(self):
        result = run(make_ge())
        assert 0.0 < result.aes_fraction <= 1.0

    def test_aes_fraction_decreases_with_load(self):
        """Fig. 1's shape at miniature scale."""
        light = run(make_ge(), arrival_rate=100.0)
        heavy = run(make_ge(), arrival_rate=200.0)
        assert heavy.aes_fraction < light.aes_fraction

    def test_deterministic_given_seed(self):
        a = run(make_ge())
        b = run(make_ge())
        assert a.quality == b.quality
        assert a.energy == b.energy
        assert a.outcomes == b.outcomes

    def test_different_seeds_differ(self):
        a = run(make_ge(), seed=1)
        b = run(make_ge(), seed=2)
        assert a.energy != b.energy

    def test_quality_degrades_gracefully_when_overloaded(self):
        result = run(make_ge(), arrival_rate=250.0)
        assert 0.5 < result.quality < 0.9

    def test_custom_quality_target(self):
        result = run(make_ge(), q_ge=0.8)
        assert result.quality == pytest.approx(0.8, abs=0.02)

    def test_respects_power_budget_on_average(self):
        result = run(make_ge(), arrival_rate=250.0)
        # Energy over the measured window can never exceed budget × time.
        assert result.energy <= 320.0 * result.duration * (1 + 1e-6)

    def test_reschedules_counted(self):
        scheduler = make_ge()
        run(scheduler)
        assert scheduler.reschedules > 10


class TestGEvsBE:
    def test_ge_saves_energy_vs_be(self):
        """The headline claim at miniature scale."""
        ge = run(make_ge())
        be = run(make_be())
        assert ge.energy < be.energy * 0.9  # ≥10 % saving at light load

    def test_be_has_higher_quality(self):
        ge = run(make_ge())
        be = run(make_be())
        assert be.quality > ge.quality
        assert be.quality > 0.97

    def test_be_rarely_cuts(self):
        """BE never cuts for quality; the only CUT outcomes come from
        the power-bound second cut (Quality-OPT), which should touch a
        tiny fraction of jobs at light load."""
        be = run(make_be())
        cut_fraction = be.outcomes.get(JobOutcome.CUT.value, 0) / be.jobs
        assert cut_fraction < 0.05

    def test_be_aes_fraction_is_zero(self):
        be = run(make_be())
        assert be.aes_fraction == pytest.approx(0.0, abs=0.01)


class TestOQ:
    def test_oq_targets_two_percent_more(self):
        oq = run(make_oq())
        assert oq.quality == pytest.approx(0.92, abs=0.02)

    def test_oq_never_compensates(self):
        scheduler = make_oq()
        run(scheduler)
        assert scheduler.controller.switches == 0


class TestVariants:
    def test_no_compensation_quality_below_compensated(self):
        comp = run(make_ge(), arrival_rate=150.0)
        nocomp = run(GEScheduler(name="NC", compensated=False), arrival_rate=150.0)
        assert nocomp.quality <= comp.quality + 1e-9
        assert nocomp.energy <= comp.energy

    def test_es_saves_energy_at_light_load(self):
        wf = run(GEScheduler(name="WF", distribution="wf"), arrival_rate=100.0)
        es = run(GEScheduler(name="ES", distribution="es"), arrival_rate=100.0)
        assert es.energy <= wf.energy
        assert es.quality == pytest.approx(wf.quality, abs=0.02)

    def test_wf_variance_exceeds_es(self):
        wf = run(GEScheduler(name="WF", distribution="wf"), arrival_rate=100.0)
        es = run(GEScheduler(name="ES", distribution="es"), arrival_rate=100.0)
        assert wf.speed_variance > es.speed_variance

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            GEScheduler(distribution="nope")  # type: ignore[arg-type]

    @pytest.mark.parametrize("mode", ["hybrid", "es", "wf"])
    def test_distribution_switches_on_estimated_load(self, mode):
        """Hybrid picks WF exactly when the estimator reports heavy load
        and ES otherwise; "es"/"wf" return their policy at any load."""
        sched = GEScheduler(distribution=mode)
        SimulationHarness(SimulationConfig(seed=7), sched)  # binds
        critical = sched._critical_rate
        seen = set()
        # Arrivals at twice the critical rate for 4 s, then none: the
        # 2 s window sees the estimate climb past critical and drain.
        arrivals = [i / (2.0 * critical) for i in range(int(8.0 * critical))]
        now, k = 0.0, 0
        while now <= 7.0:
            while k < len(arrivals) and arrivals[k] <= now:
                sched.estimator.observe(arrivals[k])
                k += 1
            heavy = sched.estimator.is_heavy(now, critical)
            seen.add(heavy)
            policy = sched._policy_for(now)
            wants_wf = mode == "wf" or (mode == "hybrid" and heavy)
            assert policy.name == ("WF" if wants_wf else "ES")
            now += 0.25
        assert seen == {False, True}

    def test_cut_with_history_cuts_deeper(self):
        plain = run(make_ge(), arrival_rate=100.0)
        hist = run(GEScheduler(name="GE-H", cut_with_history=True), arrival_rate=100.0)
        assert hist.completed_volume <= plain.completed_volume
