"""Tests for Quality-OPT (partial processing under capacity limits)."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality_opt import prefix_feasible, quality_opt
from repro.errors import InfeasibleError
from repro.quality.functions import ExponentialQuality

F = ExponentialQuality(c=0.003, x_max=1000.0)


def brute_force(bounds, deadlines, now, capacity, offsets=None, grid=12):
    """Grid-search reference optimum of Σ f(offset + x)."""
    n = len(bounds)
    offsets = offsets or [0.0] * n
    capacities = [capacity * (d - now) for d in deadlines]
    best_val, best_x = -1.0, None
    axes = [np.linspace(0.0, b, grid) for b in bounds]
    for xs in itertools.product(*axes):
        if not prefix_feasible(np.asarray(xs), np.asarray(capacities)):
            continue
        val = sum(float(F(o + x)) for o, x in zip(offsets, xs))
        if val > best_val:
            best_val, best_x = val, xs
    return best_val, best_x


class TestQualityOpt:
    def test_plenty_of_capacity_grants_everything(self):
        out = quality_opt([100.0, 200.0], [10.0, 20.0], 0.0, 1000.0)
        assert out == pytest.approx([100.0, 200.0])

    def test_zero_capacity_grants_nothing(self):
        out = quality_opt([100.0, 200.0], [1.0, 2.0], 0.0, 0.0)
        assert out == pytest.approx([0.0, 0.0])

    def test_empty_input(self):
        assert quality_opt([], [], 0.0, 100.0).size == 0

    def test_equalizes_volumes_under_shared_deadline(self):
        """With one shared deadline and concave f, the optimum levels
        total volumes (water-filling)."""
        out = quality_opt([300.0, 300.0, 50.0], [1.0, 1.0, 1.0], 0.0, 250.0)
        # 250 units to split; job 2 takes its full 50, jobs 0/1 get 100 each.
        assert out[2] == pytest.approx(50.0)
        assert out[0] == pytest.approx(100.0)
        assert out[1] == pytest.approx(100.0)

    def test_offsets_shift_the_waterline(self):
        """A job with prior progress receives less extra volume."""
        out = quality_opt(
            [300.0, 300.0], [1.0, 1.0], 0.0, 200.0, offsets=[100.0, 0.0]
        )
        # Levels total volumes: job0 at 100+50=150, job1 at 150.
        assert out[0] == pytest.approx(50.0)
        assert out[1] == pytest.approx(150.0)

    def test_binding_prefix_limits_early_jobs(self):
        """An early tight deadline caps the first job independently."""
        out = quality_opt([500.0, 500.0], [0.1, 10.0], 0.0, 1000.0)
        assert out[0] == pytest.approx(100.0)  # 1000 u/s · 0.1 s
        assert out[1] == pytest.approx(500.0)

    def test_unused_early_capacity_flows_to_later_jobs(self):
        out = quality_opt([10.0, 500.0], [1.0, 1.0], 0.0, 300.0)
        assert out == pytest.approx([10.0, 290.0])

    def test_result_is_prefix_feasible(self):
        bounds = [400.0, 300.0, 200.0, 100.0]
        dls = [0.2, 0.5, 0.6, 1.0]
        out = quality_opt(bounds, dls, 0.0, 800.0)
        capacities = 800.0 * (np.array(dls) - 0.0)
        assert prefix_feasible(out, capacities)
        assert np.all(out <= np.array(bounds) + 1e-9)

    def test_matches_brute_force_two_jobs(self):
        bounds = [300.0, 200.0]
        dls = [0.4, 1.0]
        out = quality_opt(bounds, dls, 0.0, 400.0, offsets=[0.0, 50.0])
        val = sum(float(F(o + x)) for o, x in zip([0.0, 50.0], out))
        ref, _ = brute_force(bounds, dls, 0.0, 400.0, offsets=[0.0, 50.0], grid=60)
        assert val >= ref - 1e-3

    def test_matches_brute_force_three_jobs(self):
        bounds = [250.0, 150.0, 350.0]
        dls = [0.3, 0.6, 0.9]
        out = quality_opt(bounds, dls, 0.0, 600.0)
        val = sum(float(F(x)) for x in out)
        ref, _ = brute_force(bounds, dls, 0.0, 600.0, grid=25)
        assert val >= ref - 1e-3

    def test_negative_capacity_raises(self):
        with pytest.raises(InfeasibleError):
            quality_opt([10.0], [1.0], 0.0, -5.0)

    def test_past_deadline_raises(self):
        with pytest.raises(InfeasibleError):
            quality_opt([10.0], [1.0], 2.0, 100.0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            quality_opt([10.0, 20.0], [1.0], 0.0, 100.0)
        with pytest.raises(ValueError):
            quality_opt([-1.0], [1.0], 0.0, 100.0)
        with pytest.raises(ValueError):
            quality_opt([1.0, 1.0], [2.0, 1.0], 0.0, 100.0)

    @settings(max_examples=60, deadline=None)
    @given(
        bounds=st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=6),
        gaps=st.lists(st.floats(min_value=0.05, max_value=0.5), min_size=6, max_size=6),
        capacity=st.floats(min_value=0.0, max_value=2000.0),
    )
    def test_property_feasible_and_bounded(self, bounds, gaps, capacity):
        dls = list(np.cumsum(gaps[: len(bounds)]))
        out = quality_opt(bounds, dls, 0.0, capacity)
        assert np.all(out >= -1e-9)
        assert np.all(out <= np.asarray(bounds) + 1e-9)
        assert prefix_feasible(out, capacity * np.asarray(dls), rel_tol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=2, max_size=4),
        capacity=st.floats(min_value=50.0, max_value=1500.0),
    )
    def test_property_beats_proportional_truncation(self, bounds, capacity):
        """The optimum is at least as good as naively scaling everything
        to fit the total capacity (a natural but suboptimal scheme)."""
        n = len(bounds)
        dls = [1.0] * n
        out = quality_opt(bounds, dls, 0.0, capacity)
        opt_val = sum(float(F(x)) for x in out)
        total = sum(bounds)
        scale = min(1.0, capacity / total)
        naive = sum(float(F(b * scale)) for b in bounds)
        assert opt_val >= naive - 1e-6


# ---------------------------------------------------------------------------
# Bitwise equivalence of the list-based hot path against the original
# all-numpy formulation it replaced (see the comments in quality_opt.py:
# the rewrite must not change simulated results by even an ulp).
# ---------------------------------------------------------------------------

_EPS = 1e-12


def _waterline_ref(offsets, bounds, budget):
    """Verbatim copy of the pre-optimization `_waterline_for_budget`."""
    tops = offsets + bounds
    if float(np.sum(bounds)) <= budget + _EPS:
        return float("inf")
    points = np.unique(np.concatenate([offsets, tops]))

    def allocated(w):
        return float(np.sum(np.clip(w - offsets, 0.0, bounds)))

    lo = float(points[0])
    hi = float(points[-1])
    for p in points:
        if allocated(float(p)) >= budget - _EPS:
            hi = float(p)
            break
        lo = float(p)
    alloc_lo = allocated(lo)
    active = np.sum((offsets <= lo + _EPS) & (tops > lo + _EPS))
    if active <= 0:
        return hi
    return lo + (budget - alloc_lo) / float(active)


def _quality_opt_ref(bounds, deadlines, now, capacity_per_second, offsets=None):
    """Verbatim copy of the pre-optimization `quality_opt` main path."""
    bounds_arr = np.asarray(bounds, dtype=float)
    dls = np.asarray(deadlines, dtype=float)
    n = bounds_arr.size
    if n == 0:
        return np.zeros(0)
    offs = np.zeros(n) if offsets is None else np.asarray(offsets, dtype=float)
    capacities = capacity_per_second * (dls - now)
    capacities = np.maximum(capacities, 0.0)
    if n == 1:
        return np.array([min(bounds_arr[0], capacities[0])])
    result = np.zeros(n)
    start = 0
    consumed = 0.0
    while start < n:
        best_k = None
        best_w = float("inf")
        sub_off = offs[start:]
        sub_bnd = bounds_arr[start:]
        for k in range(n - start):
            budget = capacities[start + k] - consumed
            if budget <= _EPS:
                w = -float("inf") if np.any(sub_bnd[: k + 1] > _EPS) else float("inf")
                if w < best_w:
                    best_w = w
                    best_k = k
                continue
            w = _waterline_ref(sub_off[: k + 1], sub_bnd[: k + 1], budget)
            if w < best_w - _EPS:
                best_w = w
                best_k = k
        if best_k is None or best_w == float("inf"):
            result[start:] = bounds_arr[start:]
            break
        block = slice(start, start + best_k + 1)
        if best_w == -float("inf"):
            alloc = np.zeros(best_k + 1)
        else:
            alloc = np.clip(best_w - offs[block], 0.0, bounds_arr[block])
        result[block] = alloc
        consumed += float(np.sum(alloc))
        start = start + best_k + 1
    return result


class TestBitwiseAgainstReference:
    """The optimized quality_opt must match the original algorithm bit
    for bit on random batches covering every regime: all-fits fast path,
    binding prefixes, zero-capacity prefixes, nonzero offsets, and
    duplicate deadlines."""

    def _random_case(self, rng):
        n = int(rng.integers(1, 12))
        bounds = rng.uniform(0.0, 300.0, n)
        # Occasionally zero out bounds to exercise the pos_idx pointer.
        bounds[rng.uniform(size=n) < 0.15] = 0.0
        gaps = rng.uniform(0.0, 2.0, n)
        # Duplicate-deadline clusters with probability ~1/3.
        gaps[rng.uniform(size=n) < 0.3] = 0.0
        now = float(rng.uniform(0.0, 5.0))
        deadlines = now + 1e-3 + np.cumsum(gaps)
        capacity = float(rng.uniform(0.0, 400.0))
        offsets = None
        if rng.uniform() < 0.5:
            offsets = rng.uniform(0.0, 150.0, n)
        return bounds, deadlines, now, capacity, offsets

    def test_random_batches_bitwise_equal(self):
        rng = np.random.default_rng(1234)
        for _ in range(400):
            bounds, dls, now, cap, offs = self._random_case(rng)
            got = quality_opt(bounds, dls, now, cap, offsets=offs)
            ref = _quality_opt_ref(bounds, dls, now, cap, offsets=offs)
            assert got.tolist() == ref.tolist()

    def test_generous_capacity_hits_fast_path_bitwise(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            bounds = rng.uniform(0.1, 50.0, n)
            deadlines = 1.0 + np.cumsum(rng.uniform(0.1, 1.0, n))
            cap = float(np.sum(bounds)) * 10.0  # every prefix fits
            got = quality_opt(bounds, deadlines, 0.0, cap)
            ref = _quality_opt_ref(bounds, deadlines, 0.0, cap)
            assert got.tolist() == ref.tolist() == bounds.tolist()

    def test_list_and_array_inputs_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            bounds, dls, now, cap, offs = self._random_case(rng)
            from_arrays = quality_opt(bounds, dls, now, cap, offsets=offs)
            from_lists = quality_opt(
                bounds.tolist(),
                dls.tolist(),
                now,
                cap,
                offsets=None if offs is None else offs.tolist(),
            )
            assert from_arrays.tolist() == from_lists.tolist()

    def test_row_reduction_matches_per_point_scan(self):
        """numpy's row-wise 2-D `np.sum(..., axis=1)` is bitwise equal to
        the per-point 1-D scan of `_waterline_ref`.  The list-based
        waterline no longer batches rows; this keeps the reference
        interchangeable with the batched form an earlier version used."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 16))
            offsets = rng.uniform(0.0, 200.0, n)
            bounds = rng.uniform(0.0, 200.0, n)
            points = np.unique(np.concatenate([offsets, offsets + bounds]))
            rows = np.sum(np.clip(points[:, None] - offsets, 0.0, bounds), axis=1)
            scan = [float(np.sum(np.clip(p - offsets, 0.0, bounds))) for p in points]
            assert rows.tolist() == scan

    def test_single_job_edge_cases(self):
        assert quality_opt([5.0], [2.0], 0.0, 10.0).tolist() == [5.0]
        assert quality_opt([5.0], [1.0], 0.0, 2.0).tolist() == [2.0]
        assert quality_opt([5.0], [1.0], 1.0, 2.0).tolist() == [0.0]
        with pytest.raises(ValueError, match="non-negative"):
            quality_opt([-1.0], [1.0], 0.0, 2.0)
        with pytest.raises(InfeasibleError):
            quality_opt([5.0], [0.5], 1.0, 2.0)
        with pytest.raises(InfeasibleError):
            quality_opt([5.0], [1.0], 0.0, -2.0)
        with pytest.raises(ValueError, match="offsets"):
            quality_opt([5.0], [1.0], 0.0, 2.0, offsets=[-0.5])


class TestScalarWaterlineBitwise:
    """The list-based waterline decides every comparison on a Python
    sequential sum and re-decides it with the exact ``np.sum`` only
    inside an error band.  These generators push it where the two sums
    differ and where the band fallback must run: batches past numpy's
    8-element pairwise threshold, tied offsets and tops, magnitudes from
    1e-3 to 1e3, and budgets equal to an allocation at a breakpoint."""

    def _batch(self, rng, n_max=40):
        n = int(rng.integers(2, n_max + 1))
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        # Values on a coarse grid (then scaled) tie offsets with each
        # other and with tops of other jobs.
        grid = float(rng.choice([1.0, 0.5, 0.1, 1e-3]))
        offsets = np.round(rng.uniform(0.0, 20.0, n) / grid) * grid * scale
        bounds = np.round(rng.uniform(0.0, 20.0, n) / grid) * grid * scale
        offsets[rng.uniform(size=n) < 0.3] = 0.0
        bounds[rng.uniform(size=n) < 0.1] = 0.0
        return offsets, bounds

    @staticmethod
    def _breakpoint_budgets(offsets, bounds):
        """Allocations at every breakpoint, each nudged so that the
        waterline's ``≥ budget − _EPS`` test (or its ``Σ bounds ≤
        budget + _EPS`` exit) lands on the exact ``np.sum`` value."""
        points = np.unique(np.concatenate([offsets, offsets + bounds]))
        allocs = [float(np.sum(np.clip(p - offsets, 0.0, bounds))) for p in points]
        total = float(np.sum(bounds))
        return [a + _EPS for a in allocs if a > 0.0] + [total - _EPS, total]

    def test_waterline_matches_reference_on_breakpoint_budgets(self, monkeypatch):
        qo = importlib.import_module("repro.core.quality_opt")
        exact_calls = []
        real = qo._np_sum
        monkeypatch.setattr(qo, "_np_sum", lambda v: exact_calls.append(1) or real(v))
        rng = np.random.default_rng(2024)
        cases = finite = 0
        for _ in range(150):
            offsets, bounds = self._batch(rng)
            budgets = self._breakpoint_budgets(offsets, bounds)
            picks = rng.choice(len(budgets), size=min(6, len(budgets)), replace=False)
            for i in picks:
                budget = budgets[int(i)]
                got = qo._waterline_for_budget(offsets.tolist(), bounds.tolist(), budget)
                ref = _waterline_ref(offsets, bounds, budget)
                assert got.hex() == ref.hex(), (offsets, bounds, budget)
                cases += 1
                finite += got != float("inf")
        # Every finite waterline takes one exact sum (its ``alloc_lo``);
        # the rest are band fallbacks, which this generator must reach.
        assert len(exact_calls) - finite > cases // 4

    def test_quality_opt_matches_reference_on_large_tied_batches(self):
        """With ``now = 0`` and unit capacity, each prefix budget is its
        deadline, so deadlines taken from breakpoint allocations put the
        first block's decisions inside the band."""
        rng = np.random.default_rng(77)
        for _ in range(120):
            offsets, bounds = self._batch(rng)
            n = len(bounds)
            deadlines = []
            floor = 0.0
            for k in range(n):
                options = [
                    b
                    for b in self._breakpoint_budgets(offsets[: k + 1], bounds[: k + 1])
                    if b >= floor
                ]
                if options and rng.uniform() < 0.7:
                    floor = float(rng.choice(options))
                else:
                    floor += float(rng.uniform(0.0, 2.0)) * float(np.max(bounds) + 1e-3)
                deadlines.append(floor)
            offs = offsets if rng.uniform() < 0.8 else None
            got = quality_opt(bounds.tolist(), deadlines, 0.0, 1.0, offsets=offs)
            ref = _quality_opt_ref(bounds, deadlines, 0.0, 1.0, offsets=offs)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]

    def test_random_capacity_batches_past_pairwise_threshold(self):
        rng = np.random.default_rng(4321)
        for _ in range(150):
            offsets, bounds = self._batch(rng)
            n = len(bounds)
            gaps = rng.uniform(0.0, 1.0, n)
            gaps[rng.uniform(size=n) < 0.3] = 0.0
            now = float(rng.uniform(0.0, 5.0))
            deadlines = now + 1e-3 + np.cumsum(gaps)
            cap = float(np.sum(bounds)) * float(rng.uniform(0.05, 1.5)) + 1e-3
            got = quality_opt(bounds, deadlines, now, cap, offsets=offsets)
            ref = _quality_opt_ref(bounds, deadlines, now, cap, offsets=offsets)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in ref.tolist()]
