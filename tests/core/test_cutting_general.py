"""Tests for the mixed-class (per-job quality function) cut kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutting import lf_cut_waterline
from repro.core.cutting_general import (
    _bisect_inverse_marginal,
    group_by_function,
    inverse_marginal,
    lf_cut_mixed,
)
from repro.quality.functions import (
    ExponentialQuality,
    LinearQuality,
    LogQuality,
    PowerQuality,
    QualityFunction,
)

F_SEARCH = ExponentialQuality(c=0.003, x_max=1000.0)
F_VIDEO = ExponentialQuality(c=0.0009, x_max=1000.0)
F_LOG = LogQuality(k=0.01, x_max=1000.0)


def aggregate(functions, targets, demands):
    a = sum(float(f(c)) for f, c in zip(functions, targets))
    p = sum(float(f(d)) for f, d in zip(functions, demands))
    return a / p


class TestInverseMarginal:
    def test_round_trip(self):
        for x in (10.0, 200.0, 700.0):
            slope = float(F_SEARCH.derivative(x))
            assert inverse_marginal(F_SEARCH, slope) == pytest.approx(x, abs=1e-3)

    def test_zero_slope_returns_xmax(self):
        assert inverse_marginal(F_SEARCH, 0.0) == F_SEARCH.x_max

    def test_huge_slope_returns_zero(self):
        assert inverse_marginal(F_SEARCH, 1e9) == 0.0

    def test_linear_function_is_all_or_nothing(self):
        f = LinearQuality(x_max=1000.0)
        slope = 1.0 / 1000.0
        assert inverse_marginal(f, slope * 2) == 0.0
        assert inverse_marginal(f, slope / 2) == f.x_max


TOL = 1e-9  # inverse_marginal's default bisection tolerance

x_maxes = st.floats(min_value=1.0, max_value=5000.0)
shipped_functions = st.one_of(
    st.builds(ExponentialQuality, c=st.floats(min_value=1e-4, max_value=0.02), x_max=x_maxes),
    st.builds(LogQuality, k=st.floats(min_value=1e-4, max_value=1.0), x_max=x_maxes),
    # Closer to γ=1 than 1e-9, f' is flat to within rounding and the
    # inverse is ill-conditioned for the bisection and the algebra alike.
    st.builds(
        PowerQuality,
        gamma=st.one_of(st.floats(min_value=1e-3, max_value=1 - 1e-9), st.just(1.0)),
        x_max=x_maxes,
    ),
    st.builds(LinearQuality, x_max=x_maxes),
)


def slope_span(f):
    """Slopes from half ``f'(x_max)`` to twice ``f'(0)`` (finite stand-in
    for ``f'(0) = ∞``)."""
    low = float(f.derivative(f.x_max * (1 - 1e-12))) / 2
    head = float(f.derivative(0.0))
    if not np.isfinite(head):
        head = float(f.derivative(f.x_max * 1e-9))
    return low, 2 * head


class TestClosedFormInverse:
    """Each shipped function's ``inverse_derivative`` against the
    bisection it replaces on the hot path."""

    @settings(max_examples=300, deadline=None)
    @given(f=shipped_functions, t=st.floats(min_value=0.0, max_value=1.0))
    def test_agrees_with_bisection(self, f, t):
        low, high = slope_span(f)
        slope = low * (high / low) ** t
        closed = f.inverse_derivative(slope)
        assert 0.0 <= closed <= f.x_max
        reference = _bisect_inverse_marginal(f, slope)
        assert closed == pytest.approx(reference, abs=TOL * max(1.0, f.x_max))
        assert inverse_marginal(f, slope) == closed

    @settings(max_examples=100, deadline=None)
    @given(f=shipped_functions, slope=st.sampled_from([0.0, -0.0, -1e-300, -1.0]))
    def test_non_positive_slope_keeps_everything(self, f, slope):
        assert f.inverse_derivative(slope) == f.x_max
        assert _bisect_inverse_marginal(f, slope) == f.x_max

    @pytest.mark.parametrize(
        "f",
        [F_SEARCH, F_VIDEO, F_LOG, ExponentialQuality(c=0.02, x_max=37.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-15, 3.0, float("inf")])
    def test_slope_at_or_above_head_keeps_nothing(self, f, factor):
        slope = float(f.derivative(0.0)) * factor
        assert f.inverse_derivative(slope) == 0.0
        assert _bisect_inverse_marginal(f, slope) == 0.0

    def test_tiny_positive_slope_keeps_everything(self):
        for f in (F_SEARCH, F_LOG, PowerQuality(gamma=0.5, x_max=1000.0)):
            assert f.inverse_derivative(5e-324) == f.x_max

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_power_infinite_head_slope(self, gamma):
        """``f'(0) = ∞``: every finite slope keeps a positive volume, and
        only an infinite slope keeps nothing."""
        f = PowerQuality(gamma=gamma, x_max=1000.0)
        assert f.derivative(0.0) == float("inf")
        for slope in (1e3, 1e8):
            closed = f.inverse_derivative(slope)
            assert 0.0 < closed < f.x_max
            assert closed == pytest.approx(
                _bisect_inverse_marginal(f, slope), abs=TOL * f.x_max
            )
        assert f.inverse_derivative(float("inf")) == 0.0

    @pytest.mark.parametrize(
        "f",
        [LinearQuality(x_max=1000.0), LinearQuality(x_max=3.0), PowerQuality(gamma=1.0)],
        ids=repr,
    )
    def test_linear_tie_keeps_nothing(self, f):
        """At exactly ``slope == 1/x_max`` the bisection keeps nothing."""
        tie = 1.0 / f.x_max
        below = np.nextafter(tie, 0.0)
        for slope, expected in ((tie, 0.0), (below, f.x_max), (tie * 2, 0.0)):
            assert f.inverse_derivative(slope) == expected
            assert _bisect_inverse_marginal(f, slope) == expected

    def test_custom_function_falls_back_to_bisection(self):
        class SquashedLinear(QualityFunction):
            """``f(x) = 1 - (1 - x/x_max)^2``: concave, no closed form hook."""

            def __init__(self, x_max):
                super().__init__(x_max)
                self.derivative_calls = 0

            def _value(self, x):
                return 1.0 - (1.0 - x / self.x_max) ** 2

            def _slope(self, x):
                self.derivative_calls += 1
                return 2.0 * (1.0 - x / self.x_max) / self.x_max

        f = SquashedLinear(500.0)
        assert f.inverse_derivative(1e-3) is None
        for slope in (1e-4, 1e-3, 3e-3):
            f.derivative_calls = 0
            got = inverse_marginal(f, slope)
            assert f.derivative_calls > 10  # bisected, not closed form
            assert got == _bisect_inverse_marginal(f, slope)
            # f'(x) = 2(1 - x/x_max)/x_max  =>  x = x_max(1 - slope·x_max/2)
            assert got == pytest.approx(500.0 * (1 - slope * 250.0), abs=TOL * 500.0)

    def test_group_by_function_is_by_identity(self):
        twin = ExponentialQuality(c=0.003, x_max=1000.0)  # equal, not identical
        distinct, index = group_by_function([F_SEARCH, F_VIDEO, F_SEARCH, twin])
        assert distinct == [F_SEARCH, F_VIDEO, twin]
        assert index == [0, 1, 0, 2]


class TestMixedCut:
    def test_reduces_to_shared_waterline(self):
        """With identical functions the mixed cut equals the paper's."""
        demands = [900.0, 620.0, 380.0, 180.0]
        functions = [F_SEARCH] * 4
        mixed = lf_cut_mixed(functions, demands, 0.9)
        classic = lf_cut_waterline(F_SEARCH, demands, 0.9)
        assert np.allclose(mixed, classic, atol=1.0)

    def test_hits_target(self):
        functions = [F_SEARCH, F_VIDEO, F_LOG, F_SEARCH]
        demands = [800.0, 900.0, 500.0, 300.0]
        targets = lf_cut_mixed(functions, demands, 0.85)
        q = aggregate(functions, targets, demands)
        assert q == pytest.approx(0.85, abs=5e-3)

    def test_respects_bounds(self):
        functions = [F_SEARCH, F_VIDEO]
        demands = [500.0, 500.0]
        targets = lf_cut_mixed(functions, demands, 0.7)
        assert np.all(targets >= 0)
        assert np.all(targets <= np.asarray(demands) + 1e-9)

    def test_steeper_class_is_cut_less(self):
        """Equal demands, different concavity: the class whose marginal
        quality stays higher (larger c) keeps more volume... wait — a
        larger c means the head is worth more and the tail less, so the
        *less* concave class keeps MORE volume at the common λ."""
        functions = [F_SEARCH, F_VIDEO]  # c=0.003 vs c=0.0009
        demands = [800.0, 800.0]
        targets = lf_cut_mixed(functions, demands, 0.8)
        # F_VIDEO's marginal quality decays slower, so at the common λ
        # it is cut less deeply than the sharply-saturating F_SEARCH.
        assert targets[1] > targets[0]

    def test_mixed_beats_naive_common_waterline_in_volume(self):
        """The KKT cut keeps no more volume than cutting both classes
        with a single common volume waterline at the same quality."""
        functions = [F_SEARCH] * 3 + [F_VIDEO] * 3
        demands = [700.0, 500.0, 300.0] * 2
        q_target = 0.85
        mixed = lf_cut_mixed(functions, demands, q_target)

        # Naive: one volume level L for everyone, solved to hit target.
        lo, hi = 0.0, 1000.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            q = aggregate(functions, np.minimum(demands, mid), demands)
            if q < q_target:
                lo = mid
            else:
                hi = mid
        naive = np.minimum(demands, hi)
        assert float(np.sum(mixed)) <= float(np.sum(naive)) + 1.0

    def test_target_one_keeps_everything(self):
        functions = [F_SEARCH, F_VIDEO]
        demands = [500.0, 400.0]
        targets = lf_cut_mixed(functions, demands, 1.0)
        assert targets == pytest.approx(demands)

    def test_empty_input(self):
        assert lf_cut_mixed([], [], 0.9).size == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lf_cut_mixed([F_SEARCH], [100.0, 200.0], 0.9)
        with pytest.raises(ValueError):
            lf_cut_mixed([F_SEARCH], [0.0], 0.9)
        with pytest.raises(ValueError):
            lf_cut_mixed([F_SEARCH], [100.0], 1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        demands=st.lists(st.floats(min_value=50.0, max_value=1000.0), min_size=1, max_size=8),
        q=st.floats(min_value=0.3, max_value=0.99),
        split=st.integers(min_value=0, max_value=8),
    )
    def test_property_target_met_with_mixed_classes(self, demands, q, split):
        functions = [F_SEARCH if i < split else F_VIDEO for i in range(len(demands))]
        targets = lf_cut_mixed(functions, demands, q)
        achieved = aggregate(functions, targets, demands)
        assert achieved >= q - 1e-2
        assert np.all(targets <= np.asarray(demands) + 1e-9)


class TestMixedCutEdgeShapes:
    """S4 edge shapes: the KKT bisection must behave on the degenerate
    batches the scheduler actually produces — a single job, and a batch
    of identical jobs (where the problem collapses to one variable)."""

    def test_single_job_hits_target_exactly(self):
        # One job: the constraint is f(c) = q · f(p), directly invertible.
        p, q = 800.0, 0.8
        targets = lf_cut_mixed([F_SEARCH], [p], q)
        assert targets.shape == (1,)
        expected = F_SEARCH.inverse(q * float(F_SEARCH(p)))
        assert float(targets[0]) == pytest.approx(expected, abs=1e-2)
        assert aggregate([F_SEARCH], targets, [p]) == pytest.approx(q, abs=1e-3)

    def test_single_job_generous_target_keeps_demand(self):
        # f(p)/f(p) = 1 >= q for any q <= 1, but only q == 1 forbids
        # cutting entirely; below that the cut trims the free tail.
        targets = lf_cut_mixed([F_SEARCH], [300.0], 1.0)
        assert float(targets[0]) == pytest.approx(300.0)

    def test_all_equal_demands_get_equal_targets(self):
        n, p, q = 6, 750.0, 0.85
        targets = lf_cut_mixed([F_SEARCH] * n, [p] * n, q)
        assert np.max(targets) - np.min(targets) < 1e-6
        assert aggregate([F_SEARCH] * n, targets, [p] * n) == pytest.approx(
            q, abs=5e-3
        )

    def test_all_equal_demands_match_shared_waterline(self):
        n, p, q = 5, 900.0, 0.8
        mixed = lf_cut_mixed([F_SEARCH] * n, [p] * n, q)
        classic = lf_cut_waterline(F_SEARCH, [p] * n, q)
        assert np.allclose(mixed, classic, atol=1.0)
