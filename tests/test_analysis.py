"""Approximate entropy against a brute-force oracle, bifurcation sweeps,
phase-portrait sampling and the entropy/accuracy table."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from chaosnet.analysis import (
    TABLE_M_VALUES,
    TABLE_R_VALUES,
    ApEnConfig,
    SweepConfig,
    approximate_entropy,
    bifurcation_sweep,
    entropy_accuracy_table,
    poincare_pairs,
    spearman_correlation,
    weight_series,
)
from chaosnet.maps import MapOverflowError, MapParams, iterate_series
from chaosnet.reservoir import FillMethod, ReservoirConfig, build_matrix

from conftest import STABLE_PARAMS


def naive_apen(series, m, r):
    """Brute-force reference: every template compared against every other,
    self-matches included, max-norm distance, absolute tolerance."""
    series = list(map(float, series))
    n = len(series)

    def phi(mm):
        count = n - mm + 1
        templates = [series[i : i + mm] for i in range(count)]
        total = 0.0
        for i in range(count):
            matches = 0
            for j in range(count):
                dist = max(abs(a - b) for a, b in zip(templates[i], templates[j]))
                if dist <= r:
                    matches += 1
            total += math.log(matches / count)
        return total / count

    return phi(m) - phi(m + 1)


# ---------------------------------------------------------------- ApEn


def test_constant_series_has_exactly_zero_entropy():
    assert approximate_entropy(np.full(80, 0.37)) == 0.0


def test_apen_matches_naive_oracle_on_random_series():
    rng = np.random.default_rng(0)
    series = rng.random(50)
    for m in (1, 2, 3):
        for r in (0.025, 0.05, 0.1):
            fast = approximate_entropy(series, ApEnConfig(m=m, r=r))
            slow = naive_apen(series, m, r)
            assert fast == pytest.approx(slow, abs=1e-9)


def test_apen_matches_oracle_on_periodic_series():
    series = np.array([0.1, 0.9] * 30)
    got = approximate_entropy(series, ApEnConfig(m=2, r=0.05))
    assert got == pytest.approx(naive_apen(series, 2, 0.05), abs=1e-12)


def test_apen_matches_oracle_on_map_orbit():
    series = iterate_series(STABLE_PARAMS, STABLE_PARAMS.A, STABLE_PARAMS.B, 120)
    config = ApEnConfig(m=2, r=0.025)
    assert approximate_entropy(series, config) == pytest.approx(
        naive_apen(series, 2, 0.025), abs=1e-9
    )


def test_apen_input_validation():
    with pytest.raises(ValueError):
        approximate_entropy(np.zeros(3), ApEnConfig(m=2))  # too short
    with pytest.raises(ValueError):
        approximate_entropy(np.zeros((5, 5)))
    with pytest.raises(ValueError):
        approximate_entropy(np.array([1.0, np.nan, 0.5, 0.2, 0.9]))
    with pytest.raises(ValueError):
        ApEnConfig(m=0)
    with pytest.raises(ValueError):
        ApEnConfig(r=0.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    m=st.sampled_from([1, 2]),
    r=st.sampled_from([0.05, 0.2]),
)
def test_apen_is_never_meaningfully_negative(seed, m, r):
    series = np.random.default_rng(seed).random(60)
    assert approximate_entropy(series, ApEnConfig(m=m, r=r)) >= -1e-12


def dense_phi(series, m, r):
    """All-pairs correlation-sum log-mean, the exact float reference for the
    sorted-range search: every query window against every window."""
    count = series.size - m + 1
    windows = sliding_window_view(series, m)  # (count, m), a view
    matches = np.zeros(count, dtype=np.int64)
    # block over query windows so the pairwise distance slab stays bounded
    block = max(1, 8_000_000 // count)
    for start in range(0, count, block):
        q = windows[start : start + block]
        d = np.abs(q[:, 0, None] - windows[None, :, 0])
        for k in range(1, m):
            np.maximum(d, np.abs(q[:, k, None] - windows[None, :, k]), out=d)
        matches[start : start + block] = (d <= r).sum(axis=1)
    return float(np.log(matches / count).mean())


SERIES_KINDS = (
    "uniform", "r_grid", "ulp_jittered_grid", "constant", "few_valued", "mixed_magnitude",
    "method_1", "method_2", "method_3", "method_4", "method_5", "method_6",
)


def draw_series(kind, n, r, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    if kind in ("r_grid", "ulp_jittered_grid"):
        # integer multiples of r put many window distances exactly on r
        grid = r * rng.integers(-12, 13, n)
        if kind == "r_grid":
            return grid
        step = rng.integers(-1, 2, n)
        return np.where(step > 0, np.nextafter(grid, np.inf),
                        np.where(step < 0, np.nextafter(grid, -np.inf), grid))
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "few_valued":
        return rng.choice(rng.uniform(-r, 3 * r, 3), n)
    if kind == "mixed_magnitude":
        return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
    method = FillMethod.from_id(int(kind.removeprefix("method_")))
    return weight_series(method, STABLE_PARAMS, n)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(SERIES_KINDS),
    # long series span many query blocks of the sorted-range search
    n=st.one_of(
        st.integers(min_value=3, max_value=300), st.integers(min_value=1000, max_value=3000)
    ),
    m=st.integers(min_value=1, max_value=4),
    r=st.one_of(
        st.sampled_from([0.025, 0.05, 0.1]),
        st.floats(min_value=1e-9, max_value=10.0, allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apen_equals_the_all_pairs_computation_bit_for_bit(kind, n, m, r, seed):
    series = draw_series(kind, max(n, m + 2), r, seed)
    expected = dense_phi(series, m, r) - dense_phi(series, m + 1, r)
    assert approximate_entropy(series, ApEnConfig(m=m, r=r)) == expected


def test_apen_memory_on_a_long_series_stays_under_the_old_slab():
    series = np.random.default_rng(5).uniform(-1.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        approximate_entropy(series, ApEnConfig(m=2, r=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the all-pairs version held a 64 MB distance slab (8M float64 entries)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------- weight series


def test_weight_series_constant_fill_is_the_orbit():
    method = FillMethod.from_id(6)
    series = weight_series(method, STABLE_PARAMS, length=200)
    eff = method.effective_params(STABLE_PARAMS)
    assert np.array_equal(
        series, iterate_series(eff, STABLE_PARAMS.A, STABLE_PARAMS.B, 200)
    )


def test_weight_series_sine_fill_matches_matrix_rows():
    method = FillMethod.from_id(2)
    series = weight_series(method, STABLE_PARAMS, length=1000)
    config = ReservoirConfig(
        method=method,
        params=STABLE_PARAMS,
        reservoir_size=2,  # ceil(1000 / 785)
    )
    expected = build_matrix(config).reshape(-1)[:1000]
    assert np.array_equal(series, expected)


def test_weight_series_rejects_bad_length():
    with pytest.raises(ValueError):
        weight_series(FillMethod.from_id(6), STABLE_PARAMS, length=0)


# ---------------------------------------------------------------- phase portrait


def test_poincare_swap_map_alternates():
    """With a1 = a2 = a3 = a4 = 0 the map reduces to (x, y) -> (y, x)."""
    params = MapParams(a1=0.0, a2=0.0, a3=0.0, a4=0.0, A=0.3, B=0.8)
    pairs = poincare_pairs(params, 6)
    assert pairs[0].tolist() == [0.8, 0.3]
    assert pairs[1].tolist() == [0.3, 0.8]
    assert np.array_equal(pairs[0], pairs[2])
    assert np.array_equal(pairs[1], pairs[3])


def test_poincare_respects_preliminary_warmup():
    params = STABLE_PARAMS.replace(preliminary_iterations=5)
    direct = poincare_pairs(STABLE_PARAMS, 11)
    warmed = poincare_pairs(params, 6)
    assert np.array_equal(warmed, direct[5:])


def test_poincare_chaotic_orbit_fills_the_plane():
    pairs = poincare_pairs(STABLE_PARAMS.replace(preliminary_iterations=1000), 1000)
    distinct = {tuple(np.round(p, 12)) for p in pairs}
    assert len(distinct) > 100


def test_poincare_count_validation_and_overflow():
    with pytest.raises(ValueError):
        poincare_pairs(STABLE_PARAMS, 0)
    exploding = STABLE_PARAMS.replace(a1=3.0)
    with pytest.raises(MapOverflowError):
        poincare_pairs(exploding, 50)


def test_poincare_is_deterministic():
    a = poincare_pairs(STABLE_PARAMS, 64)
    b = poincare_pairs(STABLE_PARAMS, 64)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- sweeps


def sweep_config(**overrides):
    defaults = dict(
        parameter="a1",
        lo=0.1,
        hi=1.5,
        step=0.1,
        fixed=STABLE_PARAMS,
        method=FillMethod.from_id(6),
        series_length=400,
        transient=200,
        record_count=40,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_sweep_value_grid_is_inclusive():
    config = sweep_config()
    assert len(config.values) == 15
    assert config.values[0] == pytest.approx(0.1)
    assert config.values[-1] == pytest.approx(1.5)
    single = sweep_config(lo=0.9, hi=0.95, step=0.1)
    assert len(single.values) == 1


def test_sweep_params_at_only_touches_the_swept_field():
    config = sweep_config()
    params = config.params_at(0.7)
    assert params.a1 == 0.7
    assert params.a2 == STABLE_PARAMS.a2
    assert params.A == STABLE_PARAMS.A


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        sweep_config(parameter="a9")
    with pytest.raises(ValueError):
        sweep_config(lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        sweep_config(step=0.0)
    with pytest.raises(ValueError):
        sweep_config(record_count=0)


def test_sine_sweep_of_b_refuses_a_grid_holding_0():
    """Methods 1 and 2 divide by B, so a B grid that holds 0.0 is refused;
    a grid that steps over 0, and every constant method, are accepted."""
    for method_id in (1, 2):
        method = FillMethod.from_id(method_id)
        with pytest.raises(ValueError, match="must not hold 0"):
            sweep_config(parameter="B", lo=-0.5, hi=0.5, step=0.5, method=method)
        stepped_over = sweep_config(parameter="B", lo=-0.5, hi=0.5, step=0.3, method=method)
        assert 0.0 not in stepped_over.values
    sweep_config(parameter="B", lo=-0.5, hi=0.5, step=0.5, method=FillMethod.from_id(4))


def test_sweep_series_is_long_enough_for_the_tables_largest_m():
    """ApEn at m needs more than m + 1 values, so the table's largest m sets
    the shortest series a sweep accepts."""
    shortest = max(TABLE_M_VALUES) + 2
    with pytest.raises(ValueError, match=f"series_length must be >= {shortest}"):
        sweep_config(series_length=shortest - 1)
    (row,) = entropy_accuracy_table(sweep_config(lo=0.9, hi=0.95, series_length=shortest))
    assert len(row.apen) == len(TABLE_M_VALUES) * len(TABLE_R_VALUES)


def test_bifurcation_sweep_row_shapes():
    config = sweep_config(lo=0.8, hi=1.0, step=0.1)
    rows = bifurcation_sweep(config)
    assert len(rows) == 3
    for row in rows:
        assert not row.overflowed
        assert row.iterates.shape == (40,)
        assert np.all(np.isfinite(row.iterates))


def test_bifurcation_swap_map_collapses_to_two_values():
    swap = MapParams(a1=0.0, a2=0.0, a3=0.0, a4=0.0, A=0.3, B=0.8)
    config = sweep_config(parameter="a4", lo=0.0, hi=0.0005, step=0.001, fixed=swap)
    rows = bifurcation_sweep(config)
    assert len(rows) == 1
    assert len(np.unique(np.round(rows[0].iterates, 12))) <= 2


def test_bifurcation_sweep_flags_overflowing_values():
    """a1 = 0.9 survives, a1 = 3.0 blows up; the sweep must keep going."""
    config = sweep_config(lo=0.9, hi=3.0, step=2.1)
    rows = bifurcation_sweep(config)
    assert len(rows) == 2
    assert not rows[0].overflowed
    assert rows[1].overflowed
    assert rows[1].error_iteration is not None and rows[1].error_iteration >= 1
    assert rows[1].iterates.size == 0


def test_bifurcation_clamped_method_never_overflows():
    config = sweep_config(lo=0.9, hi=3.0, step=2.1, method=FillMethod.from_id(5))
    rows = bifurcation_sweep(config)
    assert not any(row.overflowed for row in rows)
    for row in rows:
        assert np.all(np.abs(row.iterates) <= 10.0)


# ---------------------------------------------------------------- tables


def test_entropy_table_has_nine_settings_per_row():
    config = sweep_config(lo=0.9, hi=0.95, step=0.1, series_length=300)
    rows = entropy_accuracy_table(config)
    assert len(rows) == 1
    row = rows[0]
    assert set(row.apen) == {
        (m, r) for m in (1, 2, 3) for r in (0.025, 0.05, 0.1)
    }
    assert math.isnan(row.accuracy)
    assert all(np.isfinite(v) for v in row.apen.values())


def test_entropy_table_calls_accuracy_with_swept_params():
    seen = []

    def fake_accuracy(params):
        seen.append(params.a1)
        return params.a1 / 10

    config = sweep_config(lo=0.8, hi=1.0, step=0.1, series_length=300)
    rows = entropy_accuracy_table(config, accuracy_fn=fake_accuracy)
    assert seen == pytest.approx([0.8, 0.9, 1.0])
    assert [row.accuracy for row in rows] == pytest.approx([0.08, 0.09, 0.1])


def test_entropy_table_marks_overflowed_values():
    config = sweep_config(lo=0.9, hi=3.0, step=2.1, series_length=300)
    rows = entropy_accuracy_table(config)
    assert not rows[0].overflowed
    assert rows[1].overflowed
    assert rows[1].apen == {} or all(
        math.isnan(v) for v in rows[1].apen.values()
    )


def test_entropy_of_constant_orbit_is_zero():
    """All quadratic terms off and A = B makes the orbit a fixed point."""
    params = MapParams(a1=0.0, a2=0.0, a3=0.0, a4=0.0, A=0.5, B=0.5)
    series = weight_series(FillMethod.from_id(6), params, length=300)
    assert np.all(series == 0.5 - 0.0 - 0.0)  # x + 0 - 0: stays at 0.5
    assert approximate_entropy(series, ApEnConfig(m=2, r=0.025)) == 0.0


def test_spearman_correlation_signs():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_correlation(x, [2.0, 4.0, 5.0, 8.0, 9.0]) == pytest.approx(1.0)
    assert spearman_correlation(x, [9.0, 8.0, 5.0, 4.0, 2.0]) == pytest.approx(-1.0)


def test_spearman_correlation_averages_tied_ranks():
    # ranks (1, 2.5, 2.5, 4) against (1, 3, 2, 4): 4.5 / sqrt(4.5 * 5)
    assert spearman_correlation([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(math.sqrt(0.9))
    # ranks (3.5, 1.5, 3.5, 1.5) against (1, 2, 3, 4): -2 / sqrt(4 * 5)
    assert spearman_correlation([3, 1, 3, 1], [1, 2, 3, 4]) == pytest.approx(-1 / math.sqrt(5))


def test_spearman_correlation_of_a_constant_sequence_is_nan_without_a_warning():
    # the suite turns warnings into errors, so a warning would fail here
    assert math.isnan(spearman_correlation([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman_correlation([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        spearman_correlation([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman_correlation([1.0, 2.0, 3.0], [1.0, 2.0])


def naive_ranks(values):
    """Ranks by definition: 1 + the values below, plus half the other copies."""
    return [1 + sum(v < x for v in values) + (sum(v == x for v in values) - 1) / 2
            for x in values]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3) | st.floats(-1e3, 1e3)),
        min_size=2,
        max_size=40,
    )
)
def test_spearman_correlation_matches_the_rank_definition(pairs):
    a = [float(p[0]) for p in pairs]
    b = [float(p[1]) for p in pairs]
    rho = spearman_correlation(a, b)
    if len(set(a)) == 1 or len(set(b)) == 1:
        assert math.isnan(rho)
        return
    ra, rb = naive_ranks(a), naive_ranks(b)
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    var_a = sum((x - ma) ** 2 for x in ra)
    var_b = sum((y - mb) ** 2 for y in rb)
    assert rho == pytest.approx(cov / math.sqrt(var_a * var_b), abs=1e-12)
