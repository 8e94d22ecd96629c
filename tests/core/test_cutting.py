"""Tests for Longest-First job cutting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutting import lf_cut_stepwise, lf_cut_waterline
from repro.quality.functions import ExponentialQuality, LinearQuality

F = ExponentialQuality(c=0.003, x_max=1000.0)


def batch_quality(targets, demands, base_a=0.0, base_p=0.0):
    a = base_a + float(np.sum(F(np.asarray(targets))))
    p = base_p + float(np.sum(F(np.asarray(demands))))
    return a / p


CUTTERS = [lf_cut_waterline, lf_cut_stepwise]


@pytest.mark.parametrize("cut", CUTTERS, ids=["waterline", "stepwise"])
class TestCutContract:
    def test_hits_target_quality(self, cut):
        demands = [900.0, 620.0, 380.0, 180.0]
        targets = cut(F, demands, 0.9)
        assert batch_quality(targets, demands) == pytest.approx(0.9, abs=1e-3)

    def test_never_exceeds_demand(self, cut):
        demands = [900.0, 620.0, 380.0, 180.0]
        targets = cut(F, demands, 0.85)
        assert np.all(targets <= np.asarray(demands) + 1e-9)
        assert np.all(targets >= 0.0)

    def test_longest_cut_first(self, cut):
        """Shorter jobs keep their full demand while longer ones are cut."""
        demands = np.array([1000.0, 100.0])
        targets = cut(F, demands, 0.95)
        assert targets[1] == pytest.approx(100.0)
        assert targets[0] < 1000.0

    def test_cut_jobs_share_a_level(self, cut):
        demands = np.array([1000.0, 900.0, 800.0, 50.0])
        targets = cut(F, demands, 0.8)
        cut_mask = targets < demands - 1e-6
        levels = targets[cut_mask]
        assert levels.size >= 2
        assert np.allclose(levels, levels[0], atol=1e-2)

    def test_target_one_means_no_cut(self, cut):
        demands = [500.0, 300.0]
        targets = cut(F, demands, 1.0)
        assert targets == pytest.approx(demands)

    def test_empty_batch(self, cut):
        assert cut(F, [], 0.9).size == 0

    def test_preserves_input_order(self, cut):
        demands = [100.0, 1000.0, 500.0]
        targets = cut(F, demands, 0.9)
        # Job 0 is shortest: never cut below longer jobs' level.
        assert targets[0] == pytest.approx(100.0)
        assert targets[1] <= 1000.0

    def test_invalid_inputs(self, cut):
        with pytest.raises(ValueError):
            cut(F, [0.0], 0.9)
        with pytest.raises(ValueError):
            cut(F, [10.0], 0.0)
        with pytest.raises(ValueError):
            cut(F, [10.0], 1.5)

    def test_underwater_history_disables_cutting(self, cut):
        """If history already sank the quality below target, the cut
        returns full demands (BQ handles the rest)."""
        demands = [500.0, 500.0]
        base_p = 100 * float(F(500.0))
        base_a = 0.5 * base_p  # history quality 0.5 << 0.9
        targets = cut(F, demands, 0.9, base_achieved=base_a, base_potential=base_p)
        assert targets == pytest.approx(demands)

    def test_surplus_history_cuts_deeper(self, cut):
        demands = [500.0, 500.0]
        plain = cut(F, demands, 0.9)
        base_p = 100 * float(F(500.0))
        subsidized = cut(F, demands, 0.9, base_achieved=base_p, base_potential=base_p)
        assert float(np.sum(subsidized)) < float(np.sum(plain))


def test_waterline_and_stepwise_agree():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = rng.integers(1, 12)
        demands = rng.uniform(50.0, 1000.0, n)
        q = rng.uniform(0.5, 0.99)
        a = lf_cut_waterline(F, demands, q)
        b = lf_cut_stepwise(F, demands, q)
        assert np.allclose(a, b, atol=0.5), (demands, q, a, b)


def test_linear_quality_cut_is_proportionalish():
    """With linear f the cut still hits the target exactly."""
    f = LinearQuality(x_max=1000.0)
    demands = [1000.0, 500.0]
    targets = lf_cut_waterline(f, demands, 0.8)
    achieved = (targets[0] + targets[1]) / (1000.0 + 500.0)
    assert achieved == pytest.approx(0.8, abs=1e-3)


def test_concavity_saves_work():
    """At Q=0.9 the concave cut removes much more than 10% of volume —
    the whole premise of the paper."""
    demands = np.full(20, 800.0)
    targets = lf_cut_waterline(F, demands, 0.9)
    volume_kept = float(np.sum(targets)) / float(np.sum(demands))
    assert volume_kept < 0.75


@settings(max_examples=80, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=25),
    q=st.floats(min_value=0.05, max_value=0.999),
)
def test_property_quality_hits_target(demands, q):
    targets = lf_cut_waterline(F, demands, q)
    achieved = batch_quality(targets, demands)
    assert achieved == pytest.approx(q, abs=5e-3) or achieved >= q


@settings(max_examples=50, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=2, max_size=15),
    q=st.floats(min_value=0.3, max_value=0.99),
)
def test_property_monotone_in_demand_order(demands, q):
    """Longer jobs never end up with smaller targets than shorter ones
    get cut to — the LF (longest-first) property."""
    targets = lf_cut_waterline(F, demands, q)
    order = np.argsort(demands)
    sorted_targets = np.asarray(targets)[order]
    assert np.all(np.diff(sorted_targets) >= -1e-6)


# ---------------------------------------------------------------------------
# S1: the waterline cut must land on the *feasible* side of the target —
# returned targets never leave aggregate quality below q_target when
# cutting actually happened.
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=20),
    q=st.floats(min_value=0.05, max_value=0.999),
)
def test_property_waterline_feasible_side(demands, q):
    targets = lf_cut_waterline(F, demands, q)
    full_q = batch_quality(demands, demands)
    if full_q <= q:
        # Cannot afford cutting: targets must be the full demands.
        assert np.asarray(targets).tolist() == [float(d) for d in demands]
    else:
        assert batch_quality(targets, demands) >= q - 1e-9


@settings(max_examples=80, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=12),
    q=st.floats(min_value=0.3, max_value=0.99),
    base_a=st.floats(min_value=0.0, max_value=50.0),
    base_extra=st.floats(min_value=0.0, max_value=30.0),
)
def test_property_waterline_feasible_side_with_history(demands, q, base_a, base_extra):
    """The guarantee holds on top of monitor history (base terms)."""
    base_p = base_a + base_extra  # potential >= achieved, as the monitor keeps it
    targets = lf_cut_waterline(
        F, demands, q, base_achieved=base_a, base_potential=base_p
    )
    full_q = batch_quality(demands, demands, base_a=base_a, base_p=base_p)
    if full_q > q:
        assert batch_quality(targets, demands, base_a=base_a, base_p=base_p) >= q - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=2, max_size=12),
    q=st.floats(min_value=0.3, max_value=0.99),
)
def test_property_waterline_vs_stepwise_agree(demands, q):
    """Regression vs the paper-literal procedure: same quality outcome
    and near-identical targets."""
    wl = lf_cut_waterline(F, demands, q)
    sw = lf_cut_stepwise(F, demands, q)
    assert batch_quality(wl, demands) == pytest.approx(
        batch_quality(sw, demands), abs=5e-3
    )
    assert np.allclose(wl, sw, atol=1e-2 * max(demands))


# ---------------------------------------------------------------------------
# S3: the _batch_quality empty/zero-potential convention, pinned.
# ---------------------------------------------------------------------------


class TestBatchQualityConvention:
    def test_empty_batch_zero_history_is_vacuous_one(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        empty = np.zeros(0)
        assert quality_ratio(0.0, 0.0) == 1.0
        assert _batch_quality(F, empty, empty, 0.0, 0.0) == 1.0

    def test_empty_batch_with_history_is_the_history_ratio(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        empty = np.zeros(0)
        assert _batch_quality(F, empty, empty, 3.0, 4.0) == quality_ratio(3.0, 4.0)
        assert _batch_quality(F, empty, empty, 3.0, 4.0) == pytest.approx(0.75)

    def test_matches_quality_ratio_on_real_batches(self):
        from repro.core.cutting import _batch_quality
        from repro.quality.aggregate import quality_ratio

        demands = np.array([500.0, 200.0])
        targets = np.array([300.0, 200.0])
        expected = quality_ratio(
            1.0 + float(np.sum(F(targets))), 2.0 + float(np.sum(F(demands)))
        )
        assert _batch_quality(F, targets, demands, 1.0, 2.0) == expected
