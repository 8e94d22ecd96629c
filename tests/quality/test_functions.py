"""Unit and property tests for quality functions (paper Eq. 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.quality.functions import (
    ExponentialQuality,
    LinearQuality,
    LogQuality,
    PowerQuality,
)

ALL_FUNCTIONS = [
    ExponentialQuality(c=0.003, x_max=1000.0),
    ExponentialQuality(c=0.009, x_max=1000.0),
    LinearQuality(x_max=1000.0),
    LogQuality(k=0.01, x_max=1000.0),
    PowerQuality(gamma=0.5, x_max=1000.0),
]


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: repr(f))
class TestContract:
    def test_zero_maps_to_zero(self, f):
        assert f(0.0) == pytest.approx(0.0)

    def test_xmax_maps_to_one(self, f):
        assert f(f.x_max) == pytest.approx(1.0)

    def test_clamps_above_xmax(self, f):
        assert f(f.x_max * 3) == pytest.approx(1.0)

    def test_monotone_nondecreasing(self, f):
        xs = np.linspace(0, f.x_max, 200)
        ys = f(xs)
        assert np.all(np.diff(ys) >= -1e-12)

    def test_concave_midpoint(self, f):
        xs = np.linspace(0, f.x_max, 50)
        for a, b in zip(xs[:-1], xs[1:]):
            assert f((a + b) / 2) >= 0.5 * (f(a) + f(b)) - 1e-12

    def test_derivative_nonincreasing(self, f):
        xs = np.linspace(1.0, f.x_max - 1.0, 100)
        ds = f.derivative(xs)
        assert np.all(np.diff(ds) <= 1e-12)

    def test_derivative_zero_beyond_xmax(self, f):
        assert f.derivative(f.x_max + 1) == 0.0

    def test_inverse_round_trip(self, f):
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            x = f.inverse(q)
            assert f(x) == pytest.approx(q, abs=1e-6)

    def test_negative_input_rejected(self, f):
        with pytest.raises(ValueError):
            f(-1.0)
        with pytest.raises(ValueError):
            f.derivative(-1.0)

    def test_vectorized_matches_scalar(self, f):
        xs = np.array([0.0, 10.0, 500.0, 1000.0])
        vec = f(xs)
        assert vec == pytest.approx([f(float(x)) for x in xs])


SCALAR_PATH_FUNCTIONS = ALL_FUNCTIONS + [
    ExponentialQuality(c=1e-4, x_max=250.0),
    LogQuality(k=0.5, x_max=40.0),
    PowerQuality(gamma=1.0, x_max=1000.0),
    PowerQuality(gamma=0.2, x_max=3.0),
]


@pytest.mark.parametrize("f", SCALAR_PATH_FUNCTIONS, ids=lambda f: repr(f))
def test_scalar_derivative_matches_array_path_bitwise(f):
    """The scalar fast path of ``derivative`` returns the array path's bits."""
    points = [0.0, 0, 1e-9, 0.37 * f.x_max, 0.5 * f.x_max, f.x_max, f.x_max * 2]
    for x in points:
        scalar = f.derivative(x)
        array = f.derivative(np.array([x], dtype=float))[0]
        zero_d = f.derivative(np.float64(x))
        assert type(scalar) is float
        assert scalar.hex() == float(array).hex() == zero_d.hex(), x
    with pytest.raises(ValueError):
        f.derivative(-1e-12)
    with pytest.raises(ValueError):
        f.derivative(-1)


def test_linear_scalar_value_matches_array_path_bitwise():
    f = LinearQuality(x_max=1000.0)
    for x in (0.0, 1e-9, 333.3, 999.999, 1000.0, 2500.0):
        assert f(x).hex() == float(f(np.array([x]))[0]).hex()


@pytest.mark.parametrize(
    "f",
    [f for f in ALL_FUNCTIONS if hasattr(f, "inverse_exact")],
    ids=lambda f: repr(f),
)
@pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.9, 0.999])
def test_binary_search_matches_closed_form(f, q):
    """The paper's binary-search inverse agrees with the algebra."""
    assert f.inverse(q) == pytest.approx(f.inverse_exact(q), abs=1e-5)


def test_exponential_matches_formula():
    f = ExponentialQuality(c=0.003, x_max=1000.0)
    x = 250.0
    expected = (1 - math.exp(-0.003 * x)) / (1 - math.exp(-0.003 * 1000.0))
    assert f(x) == pytest.approx(expected)


def test_larger_c_is_more_concave():
    """Fig. 9b: larger c yields higher quality for the same volume."""
    small = ExponentialQuality(c=0.0005, x_max=1000.0)
    large = ExponentialQuality(c=0.009, x_max=1000.0)
    for x in (50.0, 200.0, 500.0):
        assert large(x) > small(x)


def test_invalid_parameters_raise():
    with pytest.raises(ConfigurationError):
        ExponentialQuality(c=-1.0)
    with pytest.raises(ConfigurationError):
        ExponentialQuality(c=0.003, x_max=0.0)
    with pytest.raises(ConfigurationError):
        LogQuality(k=0.0)
    with pytest.raises(ConfigurationError):
        PowerQuality(gamma=1.5)


def test_inverse_rejects_out_of_range():
    f = ExponentialQuality()
    with pytest.raises(ValueError):
        f.inverse(1.5)
    with pytest.raises(ValueError):
        f.inverse(-0.1)


@given(
    c=st.floats(min_value=1e-4, max_value=0.02),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_inverse_property_exponential(c, q):
    """inverse(q) always lands within tolerance of q, any concavity."""
    f = ExponentialQuality(c=c, x_max=1000.0)
    x = f.inverse(q)
    assert 0.0 <= x <= f.x_max
    assert f(x) == pytest.approx(q, abs=1e-5)


@given(x=st.floats(min_value=0.0, max_value=1000.0))
def test_head_beats_tail_property(x):
    """Diminishing returns: the head of a job is worth more than the tail.

    f(x) ≥ f(1000) − f(1000 − x): processing the first x units gains at
    least as much quality as the last x units.
    """
    f = ExponentialQuality(c=0.003, x_max=1000.0)
    assert f(x) >= f(1000.0) - f(1000.0 - x) - 1e-12
