"""Weight-matrix construction, the streaming evaluation path, and the
fitted min-max + sigmoid feature transform."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaosnet import reservoir
from chaosnet.maps import MapOverflowError, MapParams, iterate_series
from chaosnet.reservoir import (
    FILL_METHODS,
    INPUT_DIM,
    PROJECTION_CHUNK_ROWS,
    SINE_INIT_Y0,
    STREAM_CHUNK_ROWS,
    FillMethod,
    NotFittedError,
    Reservoir,
    ReservoirConfig,
    build_matrix,
    flatten_image,
    flatten_images,
    sigmoid,
)
from chaosnet.rpso import MAP_LOWER_BOUNDS, MAP_UPPER_BOUNDS, params_from_position

from conftest import STABLE_PARAMS


# ---------------------------------------------------------------- methods

# (init kind, preliminary pass, clamp) for each of the six numbered methods.
METHOD_TABLE = {
    1: ("sine", False, False),
    2: ("sine", False, True),
    3: ("constant", True, True),
    4: ("constant", True, False),
    5: ("constant", False, True),
    6: ("constant", False, False),
}


def test_fill_method_table_matches_expected_combinations():
    assert set(FILL_METHODS) == set(range(1, 7))
    for method_id, (kind, prelim, clamp) in METHOD_TABLE.items():
        method = FillMethod.from_id(method_id)
        assert method.id == method_id
        assert method.init_kind == kind
        assert method.uses_preliminary is prelim
        assert method.uses_clamp is clamp


@pytest.mark.parametrize("bad_id", [0, 7, -1, 100])
def test_from_id_rejects_unknown_methods(bad_id):
    with pytest.raises(ValueError):
        FillMethod.from_id(bad_id)


def test_effective_params_sets_clamp_and_preliminary(stable_params):
    eff3 = FillMethod.from_id(3).effective_params(stable_params)
    assert eff3.clamp_enabled is True
    assert eff3.preliminary_iterations > 0
    eff6 = FillMethod.from_id(6).effective_params(stable_params)
    assert eff6.clamp_enabled is False
    assert eff6.preliminary_iterations == 0


# ---------------------------------------------------------------- flattening


def test_flatten_prepends_constant_one():
    image = np.zeros((28, 28), dtype=np.uint8)
    row = flatten_image(image)
    assert row.shape == (INPUT_DIM,)
    assert row[0] == 1.0
    assert np.all(row[1:] == 0.0)


def test_flatten_scales_to_unit_interval():
    image = np.full((28, 28), 255, dtype=np.uint8)
    row = flatten_image(image)
    assert row[0] == 1.0
    assert np.all(row[1:] == 1.0)


def test_flatten_is_row_major():
    image = np.zeros((28, 28), dtype=np.uint8)
    image[0, 0] = 255
    image[0, 1] = 51
    image[1, 0] = 102
    row = flatten_image(image)
    assert row[1] == 1.0
    assert row[2] == pytest.approx(51 / 255)
    assert row[1 + 28] == pytest.approx(102 / 255)


def test_flatten_images_stacks_rows():
    images = np.zeros((3, 28, 28), dtype=np.uint8)
    images[2, 5, 5] = 255
    rows = flatten_images(images)
    assert rows.shape == (3, INPUT_DIM)
    assert rows[2, 1 + 5 * 28 + 5] == 1.0


def test_flatten_rejects_wrong_shape():
    with pytest.raises(ValueError):
        flatten_image(np.zeros((28, 27), dtype=np.uint8))


# ---------------------------------------------------------------- constant fill


def test_constant_fill_is_snake_ordered(stable_params):
    """Un-snaking the matrix rows must reproduce one contiguous orbit."""
    config = ReservoirConfig(
        method=FillMethod.from_id(6),
        params=stable_params,
        reservoir_size=4,
        input_dim=6,
    )
    w = build_matrix(config)
    assert w.shape == (4, 6)
    series = iterate_series(stable_params, stable_params.A, stable_params.B, 24)
    unsnaked = w.copy()
    unsnaked[1::2] = unsnaked[1::2, ::-1]
    assert np.array_equal(unsnaked.reshape(-1), series)


def test_method3_uses_preliminary_iterations(stable_params):
    config = ReservoirConfig(
        method=FillMethod.from_id(3),
        params=stable_params,
        reservoir_size=2,
        input_dim=5,
    )
    w = build_matrix(config)
    eff = FillMethod.from_id(3).effective_params(stable_params)
    series = iterate_series(eff, stable_params.A, stable_params.B, 10)
    unsnaked = w.copy()
    unsnaked[1::2] = unsnaked[1::2, ::-1]
    assert np.array_equal(unsnaked.reshape(-1), series)


def test_methods_5_and_6_skip_preliminary(stable_params):
    for method_id in (5, 6):
        config = ReservoirConfig(
            method=FillMethod.from_id(method_id),
            params=stable_params,
            reservoir_size=2,
            input_dim=4,
        )
        w = build_matrix(config)
        eff = FillMethod.from_id(method_id).effective_params(stable_params)
        assert eff.preliminary_iterations == 0
        first = iterate_series(eff, stable_params.A, stable_params.B, 1)[0]
        assert w[0, 0] == first


# ---------------------------------------------------------------- sine fill


def test_sine_fill_first_row_formula(stable_params):
    dim = 8
    config = ReservoirConfig(
        method=FillMethod.from_id(1),
        params=stable_params,
        reservoir_size=3,
        input_dim=dim,
    )
    w = build_matrix(config)
    for i in range(dim):
        expected = stable_params.A * math.sin(
            (i / (dim - 1)) * (math.pi / stable_params.B)
        )
        assert w[0, i] == pytest.approx(expected, abs=1e-15)
    assert w[0, 0] == 0.0


def test_sine_fill_columns_iterate_independently(stable_params):
    """Each column advances its own orbit from (first-row value, fixed y)."""
    dim = 5
    config = ReservoirConfig(
        method=FillMethod.from_id(1),
        params=stable_params,
        reservoir_size=3,
        input_dim=dim,
    )
    w = build_matrix(config)
    for i in range(dim):
        column = iterate_series(stable_params, w[0, i], SINE_INIT_Y0, 2)
        assert w[1:, i].tobytes() == column.tobytes()


def test_sine_fill_overflow_raises_without_clamp():
    # Large quadratic gain blows up quickly when the clamp is off.
    params = MapParams(a1=3.0, a2=3.0, a3=0.0, a4=0.0, A=-0.81, B=0.51)
    config = ReservoirConfig(
        method=FillMethod.from_id(1),
        params=params,
        reservoir_size=60,
        input_dim=10,
    )
    with pytest.raises(MapOverflowError):
        build_matrix(config)
    clamped = ReservoirConfig(
        method=FillMethod.from_id(2),
        params=params,
        reservoir_size=60,
        input_dim=10,
    )
    w = build_matrix(clamped)
    assert np.all(np.isfinite(w))
    assert np.all(np.abs(w[1:]) <= 10.0)


# ---------------------------------------------------------------- config checks


def test_config_rejects_bad_sizes(stable_params):
    method = FillMethod.from_id(6)
    with pytest.raises(ValueError):
        ReservoirConfig(method=method, params=stable_params, reservoir_size=0)
    with pytest.raises(ValueError):
        ReservoirConfig(
            method=method, params=stable_params, reservoir_size=5, input_dim=1
        )


def test_config_rejects_zero_b_for_sine(stable_params):
    params = stable_params.replace(B=0.0)
    with pytest.raises(ValueError):
        ReservoirConfig(
            method=FillMethod.from_id(1), params=params, reservoir_size=5
        )
    # Constant fill never divides by B at init time, but the orbit start does.
    ReservoirConfig(
        method=FillMethod.from_id(6), params=params, reservoir_size=5
    )


# ---------------------------------------------------------------- preactivation


def test_preactivation_is_matrix_product(reservoir_config):
    config = reservoir_config(method_id=4, reservoir_size=7)
    res = Reservoir(config)
    rng = np.random.default_rng(3)
    rows = rng.random((4, INPUT_DIM))
    expected = rows @ res.matrix().T
    got = res.preactivation(rows)
    assert np.allclose(got, expected, atol=0, rtol=0)


def test_preactivation_accepts_single_vector(reservoir_config):
    config = reservoir_config(reservoir_size=3)
    res = Reservoir(config)
    rng = np.random.default_rng(4)
    row = rng.random(INPUT_DIM)
    single = res.preactivation(row)
    batch = res.preactivation(row[None, :])
    assert single.shape == (3,)
    assert np.array_equal(single, batch[0])


def test_preactivation_rejects_wrong_length(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=3))
    with pytest.raises(ValueError):
        res.preactivation(np.zeros(7))
    with pytest.raises(ValueError):
        res.preactivation(np.zeros((2, 7)))


def test_preactivation_rejects_unknown_mode(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=3))
    with pytest.raises(ValueError):
        res.preactivation(np.zeros(INPUT_DIM), mode="lazy")


@pytest.mark.parametrize("method_id", [1, 2, 3, 4, 5, 6])
def test_streaming_matches_materialized(reservoir_config, method_id):
    config = reservoir_config(method_id=method_id, reservoir_size=10)
    res = Reservoir(config)
    rng = np.random.default_rng(100 + method_id)
    rows = rng.random((100, INPUT_DIM))
    dense = res.preactivation(rows, mode="materialized")
    lean = res.preactivation(rows, mode="streaming")
    assert np.max(np.abs(dense - lean)) <= 1e-12


# N around the chunk size and its multiples, where a fixed-size split would
# leave a remainder of a few rows
CHUNK_EDGE_COUNTS = [1, 2, 4095, 4096, 4097, 4098, 8193, 12000]


@settings(max_examples=20, deadline=None)
@given(
    n=st.one_of(st.sampled_from(CHUNK_EDGE_COUNTS), st.integers(min_value=1, max_value=12000)),
    size=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=4097, size=1, seed=0)
@example(n=4097, size=25, seed=0)
@example(n=4097, size=193, seed=0)
def test_chunked_image_projection_equals_the_flattened_product(n, size, seed):
    assert PROJECTION_CHUNK_ROWS == 4096  # the edge counts above assume it
    config = ReservoirConfig(
        method=FillMethod.from_id(4), params=STABLE_PARAMS, reservoir_size=size
    )
    images = np.random.default_rng(seed).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    rows = flatten_images(images)
    matrix = build_matrix(config)
    expected = rows @ matrix.T
    got = Reservoir(config).preactivation(images)
    assert got.shape == expected.shape == (n, size)
    if 2 <= size <= 192:
        assert got.tobytes() == expected.tobytes()
    else:
        # P = 1 goes to gemv, whose rounding depends on how N is split; past
        # one 192-row M block OpenBLAS's dgemm rounds a call's edge rows apart
        scale = np.abs(rows) @ np.abs(matrix.T)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)


def test_image_projection_rejects_bad_shapes(reservoir_config):
    with pytest.raises(ValueError):
        Reservoir(reservoir_config(reservoir_size=3)).preactivation(
            np.zeros((2, 28, 27), dtype=np.uint8)
        )
    with pytest.raises(ValueError):
        Reservoir(reservoir_config(reservoir_size=3, input_dim=10)).preactivation(
            np.zeros((2, 28, 28), dtype=np.uint8)
        )


@pytest.mark.parametrize("mode", ["materialized", "streaming"])
def test_fit_transform_equals_fit_then_transform(reservoir_config, mode):
    images = np.random.default_rng(11).integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    config = reservoir_config(method_id=3, reservoir_size=6)
    once = Reservoir(config)
    features = once.fit_transform(images, mode)
    assert features.tobytes() == once.transform(images, mode).tobytes()
    rows = flatten_images(images)
    twice = Reservoir(config)
    twice.fit_transform(rows, mode)
    assert features.tobytes() == twice.transform(rows, mode).tobytes()
    assert once.z_min.tobytes() == twice.z_min.tobytes()
    assert once.z_max.tobytes() == twice.z_max.tobytes()


# ---------------------------------------------------------------- transform


def test_transform_requires_fit(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=4))
    assert not res.fitted
    with pytest.raises(NotFittedError):
        res.transform(np.zeros(INPUT_DIM))


def test_transform_is_minmax_then_sigmoid(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=4))
    rng = np.random.default_rng(8)
    rows = rng.random((20, INPUT_DIM))
    res.fit_transform(rows)
    assert res.fitted
    z = res.preactivation(rows)
    u = (z - z.min(axis=0)) / (z.max(axis=0) - z.min(axis=0))
    assert np.allclose(res.transform(rows), sigmoid(u), atol=1e-15)


def test_transform_training_extremes_hit_unit_interval(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=3))
    rng = np.random.default_rng(9)
    rows = rng.random((10, INPUT_DIM))
    res.fit_transform(rows)
    features = res.transform(rows)
    assert features.min() >= sigmoid(np.array(0.0)) - 1e-15
    assert features.max() <= sigmoid(np.array(1.0)) + 1e-15
    assert np.any(np.isclose(features, 1 / (1 + math.exp(-1.0))))


def test_transform_degenerate_span_maps_to_half(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=3))
    res.set_statistics(np.zeros(3), np.zeros(3))
    out = res.transform(np.ones(INPUT_DIM))
    assert np.all(out == 0.5)


def test_set_statistics_validates_shape(reservoir_config):
    res = Reservoir(reservoir_config(reservoir_size=3))
    with pytest.raises(ValueError):
        res.set_statistics(np.zeros(2), np.zeros(3))


def test_transform_streaming_equals_materialized(reservoir_config):
    res = Reservoir(reservoir_config(method_id=3, reservoir_size=6))
    rng = np.random.default_rng(10)
    rows = rng.random((30, INPUT_DIM))
    res.fit_transform(rows)
    a = res.transform(rows, mode="materialized")
    b = res.transform(rows, mode="streaming")
    assert np.max(np.abs(a - b)) <= 1e-12


def test_sigmoid_is_the_two_branch_formula_bit_for_bit():
    z = np.random.default_rng(12).normal(scale=20.0, size=2000)
    z[:4] = [0.0, -0.0, 800.0, -800.0]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    out = sigmoid(z)
    assert out is z  # overwritten in place
    assert out.tobytes() == expected.tobytes()


def test_squash_of_60k_by_100_peaks_under_64_mb_above_its_input(reservoir_config):
    """The sigmoid overwrites the pre-activations in place: one boolean mask
    and one float temporary (about 54 MB) on top of the 48 MB input."""
    import tracemalloc

    res = Reservoir(reservoir_config(reservoir_size=100))
    res.set_statistics(np.full(100, 0.5), np.full(100, 1.5))  # both signs reach the sigmoid
    z = np.random.default_rng(13).normal(size=(60_000, 100))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res._squash(z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"peak {peak / 1e6:.0f} MB above the input"


# ---------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(
    method_id=st.sampled_from([1, 2, 3, 4, 5, 6]),
    size=st.integers(min_value=1, max_value=8),
)
def test_build_matrix_is_deterministic(method_id, size):
    config = ReservoirConfig(
        method=FillMethod.from_id(method_id),
        params=STABLE_PARAMS,
        reservoir_size=size,
        input_dim=12,
    )
    assert np.array_equal(build_matrix(config), build_matrix(config))


@settings(max_examples=20, deadline=None)
@given(
    method_id=st.sampled_from([2, 3, 5]),
    a1=st.floats(min_value=0.1, max_value=1.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_streaming_equivalence_holds_for_clamped_methods(method_id, a1, seed):
    """Clamped fills never overflow, so any orbit parameter is fair game."""
    params = STABLE_PARAMS.replace(a1=a1)
    config = ReservoirConfig(
        method=FillMethod.from_id(method_id),
        params=params,
        reservoir_size=6,
        input_dim=20,
    )
    res = Reservoir(config)
    rows = np.random.default_rng(seed).random((5, 20))
    dense = res.preactivation(rows, mode="materialized")
    lean = res.preactivation(rows, mode="streaming")
    assert np.max(np.abs(dense - lean)) <= 1e-12


def _streamed_or_overflow(compute):
    try:
        return compute()
    except MapOverflowError as exc:
        return exc.iteration


@settings(max_examples=50, deadline=None)
@given(
    method_id=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=1, max_value=30),
    position=st.tuples(
        *(st.floats(min_value=lo, max_value=hi)
          for lo, hi in zip(MAP_LOWER_BOUNDS, MAP_UPPER_BOUNDS))
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a sine fill whose columns overflow at different rows
@example(
    method_id=1,
    size=25,
    position=(1.4232561556955485, 9.232589706665488, 0.508374500326161,
              1.027315999648267, 0.6259903235756148, 0.09117944350567053),
    seed=0,
)
def test_single_input_streams_like_its_batch_row(method_id, size, position, seed):
    """A single input (Python-float sums) streams bit for bit like the same
    row inside a batch (numpy block), and both meet materialized; an
    overflow is raised at the same iteration by all three paths."""
    config = ReservoirConfig(
        method=FillMethod.from_id(method_id),
        params=params_from_position(position),
        reservoir_size=size,
    )
    res = Reservoir(config)
    rows = np.random.default_rng(seed).random((3, INPUT_DIM))
    single = _streamed_or_overflow(lambda: res.preactivation(rows[1], "streaming"))
    batch = _streamed_or_overflow(lambda: res.preactivation(rows, "streaming")[1])
    matrix = _streamed_or_overflow(lambda: build_matrix(config))
    if isinstance(matrix, int):
        assert single == batch == matrix
        return
    assert single.tobytes() == batch.tobytes()
    # Both sides round each of the 785 products and sums once, in different
    # orders, so they differ by at most about 785 * 2**-53 of the sum of
    # absolute terms; search-box orbits reach sums far above 1.
    scale = 1.0 + np.abs(matrix) @ np.abs(rows[1])
    assert np.all(np.abs(single - matrix @ rows[1]) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(
    method_id=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=1, max_value=30),
    position=st.tuples(
        *(st.floats(min_value=lo, max_value=hi)
          for lo, hi in zip(MAP_LOWER_BOUNDS, MAP_UPPER_BOUNDS))
    ),
    columns=st.tuples(*2 * [st.integers(min_value=0, max_value=INPUT_DIM - 1)]),
)
def test_streaming_reads_the_weights_of_build_matrix(method_id, size, position, columns):
    """Streaming a unit vector e_j returns column j of the built matrix bit
    for bit, alone and in a batch, and an overflow is raised at the same
    iteration: both read one fill stream."""
    config = ReservoirConfig(
        method=FillMethod.from_id(method_id),
        params=params_from_position(position),
        reservoir_size=size,
    )
    res = Reservoir(config)
    units = np.eye(INPUT_DIM)[list(columns)]
    single = _streamed_or_overflow(lambda: res.preactivation(units[0], "streaming"))
    batch = _streamed_or_overflow(lambda: res.preactivation(units, "streaming"))
    matrix = _streamed_or_overflow(lambda: build_matrix(config))
    if isinstance(matrix, int):
        assert single == batch == matrix
        return
    assert single.tobytes() == matrix[:, columns[0]].tobytes()
    assert batch.tobytes() == matrix[:, list(columns)].T.tobytes()


# ---------------------------------------------------------------- warm-up cache and stack streaming

# method-4 search-box positions whose unclamped orbit from (A, B) overflows
# after the 10,000-step warm-up, inside the P = 25 fill, and during it
OVERFLOW_AFTER_WARM_UP = ((0.682, 3.36, 0.645, 0.703, 1.348, 1.152), 23153)
OVERFLOW_IN_WARM_UP = ((0.138, 2.444, 1.202, 0.873, 0.141, 0.65), 10)


@pytest.mark.parametrize("position, iteration", [OVERFLOW_AFTER_WARM_UP, OVERFLOW_IN_WARM_UP])
def test_overflow_is_counted_from_the_initial_condition_by_every_path(position, iteration):
    """Each path raises at the step counted from (A, B), warm-up included,
    on the first call and on every later one: the cache keeps no exception."""
    config = ReservoirConfig(FillMethod.from_id(4), params_from_position(position), 25)
    res = Reservoir(config)
    rows = np.random.default_rng(14).random((3, INPUT_DIM))
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    paths = [
        lambda: build_matrix(config),
        lambda: res.preactivation(rows[0], "streaming"),
        lambda: res.preactivation(rows, "streaming"),
        lambda: res.preactivation(images, "streaming"),
    ]
    for compute in 2 * paths:
        assert _streamed_or_overflow(compute) == iteration


def test_warm_up_runs_once_per_parameters(reservoir_config):
    res = Reservoir(reservoir_config(method_id=4, reservoir_size=3))
    rows = np.random.default_rng(15).random((2, INPUT_DIM))
    reservoir._cached_warm_state.cache_clear()
    first = res.preactivation(rows[0], "streaming")
    again = res.preactivation(rows[0], "streaming")
    res.preactivation(rows[1], "streaming")
    info = reservoir._cached_warm_state.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert first.tobytes() == again.tobytes()


def test_warm_state_tells_signed_zeros_apart():
    """MapParams compare 0.0 equal to -0.0, but an orbit of zeros keeps the
    sign of its start, so each sign gets its own cached state."""
    params = MapParams(-1.0, -1.0, 0.0, 0.0, -0.0, -0.0)
    for p in (params, params.replace(A=0.0, B=0.0), params):
        config = ReservoirConfig(FillMethod.from_id(4), p, 2, input_dim=3)
        expected = math.copysign(1.0, p.A)
        assert all(math.copysign(1.0, w) == expected for w in build_matrix(config).flat)


@settings(max_examples=30, deadline=None)
@given(
    method_id=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=1, max_value=6),
    chunk=st.integers(min_value=2, max_value=5),
    offset=st.sampled_from([None, -1, 0, 1, 7]),  # None: a single image
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streamed_stack_equals_streamed_flattened_rows(method_id, size, chunk, offset, seed):
    """A uint8 stack streams in chunks of at most STREAM_CHUNK_ROWS images
    exactly as its flattened float rows stream in one batch."""
    n = 1 if offset is None else chunk + offset
    config = ReservoirConfig(FillMethod.from_id(method_id), STABLE_PARAMS, size)
    images = np.random.default_rng(seed).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    images[:, 0, :2] = [0, 255]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reservoir, "STREAM_CHUNK_ROWS", chunk)
        got = Reservoir(config).preactivation(images, "streaming")
    expected = Reservoir(config).preactivation(flatten_images(images), "streaming")
    assert got.shape == expected.shape == (n, size)
    assert got.tobytes() == expected.tobytes()


def test_streaming_a_stack_holds_one_chunk_of_floats(reservoir_config):
    """20,000 images stream in two chunks of 10,000 through one 63 MB buffer;
    a float copy of the whole stack would be 126 MB."""
    import tracemalloc

    n = 20_000
    assert STREAM_CHUNK_ROWS < n
    res = Reservoir(reservoir_config(method_id=4, reservoir_size=2))
    images = np.random.default_rng(16).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res.preactivation(images, "streaming")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * INPUT_DIM * STREAM_CHUNK_ROWS + 4e6, f"peak {peak / 1e6:.0f} MB"
