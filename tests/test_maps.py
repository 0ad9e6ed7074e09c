"""Map-iteration contracts: hand-derived iterates, clamping, overflow, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosnet.analysis import poincare_pairs
from chaosnet.maps import (
    CLAMP_LIMIT,
    MAP_PARAM_NAMES,
    MapOverflowError,
    MapParams,
    iterate_series,
)

# Fig-style coefficient set used for the hand-derived iterates below
FIXED = dict(a1=1.0, a2=1.0, a3=1.51, a4=0.74, A=-0.81, B=0.51)

# Expected iterates recomputed independently at 40-digit precision
# (mpmath) from (x0, y0) = (-0.81, 0.51) with the FIXED coefficients.
HAND_ITERATES = [-0.010019, 0.037916012261, -0.74790737605769082958]


class TestHenonStep:
    """One step of the map, read through ``iterate_series`` (the new y) and
    ``poincare_pairs`` (the whole (x, y) state)."""

    def test_hand_derived_step(self):
        params = MapParams(**FIXED)  # (A, B) = (-0.81, 0.51)
        ((x1, y1),) = poincare_pairs(params, 1)
        assert x1 == 0.51
        assert abs(y1 - (-0.010019)) < 1e-12

    def test_degenerates_to_swap_when_coefficients_vanish(self):
        params = MapParams(a1=0, a2=0, a3=0, a4=0, A=0.3, B=0.7)
        assert poincare_pairs(params, 1).tolist() == [[0.7, 0.3]]
        # applying it twice returns the original state
        params = params.replace(A=-1.25, B=4.0)
        assert poincare_pairs(params, 2)[1].tolist() == [-1.25, 4.0]

    def test_clamp_replaces_large_y_with_one(self):
        # raw y' = 12 via x=12, all coefficients zero except a4=0
        params = MapParams(a1=0, a2=0, a3=0, a4=0, A=0, B=0, clamp_enabled=True)
        assert iterate_series(params, 12.0, 0.0, 1).tolist() == [1.0]
        # negative side clamps to +1 as well
        assert iterate_series(params, -12.0, 0.0, 1).tolist() == [1.0]

    def test_clamp_boundary_is_exclusive(self):
        params = MapParams(a1=0, a2=0, a3=0, a4=0, A=0, B=0, clamp_enabled=True)
        assert iterate_series(params, 10.0, 0.0, 1).tolist() == [10.0]

    def test_overflow_raises_without_clamp(self):
        params = MapParams(a1=1.0, a2=0, a3=0, a4=0, A=0, B=0)
        with pytest.raises(MapOverflowError) as exc:
            iterate_series(params, 1e200, 0.0, 1)
        assert exc.value.iteration == 1

    def test_x_is_never_clamped(self):
        params = MapParams(a1=0, a2=0, a3=0, a4=0, A=0, B=25.0, clamp_enabled=True)
        ((x1, _),) = poincare_pairs(params, 1)
        assert x1 == 25.0


class TestIterateSeries:
    def test_first_recorded_value_is_first_new_y(self):
        params = MapParams(a1=0, a2=0, a3=0, a4=0, A=0, B=0)
        series = iterate_series(params, 0.3, 0.7, count=1)
        assert series.tolist() == [0.3]

    def test_hand_derived_iterates(self):
        params = MapParams(**FIXED)
        series = iterate_series(params, -0.81, 0.51, count=3)
        np.testing.assert_allclose(series, HAND_ITERATES, rtol=0, atol=1e-12)

    def test_matches_repeated_single_steps(self):
        params = MapParams(**FIXED)
        a1, a2, a3, a4 = params.a1, params.a2, params.a3, params.a4
        x, y = -0.81, 0.51
        expected = []
        for _ in range(50):
            x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
            expected.append(y)
        np.testing.assert_array_equal(iterate_series(params, -0.81, 0.51, 50), expected)

    def test_deterministic(self):
        params = MapParams(**FIXED, clamp_enabled=True)
        a = iterate_series(params, -0.81, 0.51, 500)
        b = iterate_series(params, -0.81, 0.51, 500)
        np.testing.assert_array_equal(a, b)

    def test_transient_consistency(self):
        params = MapParams(**FIXED, clamp_enabled=True)
        skipped = iterate_series(params.replace(preliminary_iterations=137), -0.81, 0.51, 100)
        full = iterate_series(params, -0.81, 0.51, 237)
        np.testing.assert_array_equal(skipped, full[137:])

    def test_overflow_reports_iterate_index(self):
        # y' = x + y^2 grows doubly exponentially from (2, 2)
        params = MapParams(a1=0, a2=1.0, a3=0, a4=0, A=0, B=0)
        with pytest.raises(MapOverflowError) as exc:
            iterate_series(params, 2.0, 2.0, 100)
        assert exc.value.iteration > 1
        # the step before the reported one must still be finite
        ok = iterate_series(params, 2.0, 2.0, exc.value.iteration - 1)
        assert np.isfinite(ok).all()

    def test_count_must_be_positive(self):
        params = MapParams(**FIXED)
        with pytest.raises(ValueError):
            iterate_series(params, 0.0, 0.0, 0)

    @given(
        k=st.integers(min_value=0, max_value=300),
        x0=st.floats(-1, 1, allow_nan=False),
        y0=st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_transient_equals_dropped_prefix(self, k, x0, y0):
        params = MapParams(**FIXED, clamp_enabled=True, preliminary_iterations=k)
        with_transient = iterate_series(params, x0, y0, 50)
        without = iterate_series(params.replace(preliminary_iterations=0), x0, y0, k + 50)
        np.testing.assert_array_equal(with_transient, without[k:])

    @given(
        x0=st.floats(-50, 50, allow_nan=False),
        y0=st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_clamped_series_is_bounded(self, x0, y0):
        params = MapParams(**FIXED, clamp_enabled=True)
        series = iterate_series(params, x0, y0, 200)
        assert np.all(np.abs(series) <= CLAMP_LIMIT)


class TestMapParamsValidation:
    def test_rejects_non_finite_scalars(self):
        with pytest.raises(ValueError):
            MapParams(a1=float("nan"), a2=0, a3=0, a4=0, A=0, B=0)
        with pytest.raises(ValueError):
            MapParams(a1=0, a2=0, a3=0, a4=0, A=float("inf"), B=0)

    def test_rejects_negative_transient(self):
        with pytest.raises(ValueError):
            MapParams(a1=0, a2=0, a3=0, a4=0, A=0, B=0, preliminary_iterations=-1)

    def test_scalars_are_stored_as_python_floats(self):
        """numpy or int coefficients would make every orbit step numpy scalar
        arithmetic: several times slower, and an overflow a warning."""
        params = MapParams(*np.array([3.0, 3.0, 0.0, 0.0, -0.81, 0.51]))
        assert all(type(getattr(params, name)) is float for name in MAP_PARAM_NAMES)
        assert type(params.replace(a1=np.float64(2.0), B=1).a1) is float
        assert type(params.replace(B=1).B) is float
