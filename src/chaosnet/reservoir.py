"""Input-weight construction and the fixed reservoir transform.

A P x 785 weight matrix is generated from map orbits by one of six filling
methods.  :func:`_fill_lines` is the one description of the fill order:
constant-init methods run a single orbit across the rows in snake order
(first row left to right, second right to left, alternating); sine-init
methods seed one orbit per column from a sine profile and store the
initial x in row 0 and one y-iterate per row below it.  The transform
computes f(W @ Y) either from the materialized matrix or in streaming
mode, which reads the same fill stream and never stores the matrix: its
working state is the six map scalars plus one accumulator per reservoir
neuron.  Both consumers therefore see the same weights bit for bit.  A
single input is streamed without a copy and its P sums are Python floats;
a batch keeps a (P, M) numpy block.  Both give identical sums for the same
row.

A stack of (N, 28, 28) images is projected without a float copy of the
stack: chunks of pixels are scaled into one reused buffer, (rows, 785) for
the matrix product of materialized mode and (785, rows) for streaming.
Constant-init methods with a warm-up start their orbit from a cached
post-warm-up state, so only the first input streamed with given parameters
runs the 10,000 discarded steps.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from chaosnet.maps import TRANSIENT_ITERATIONS, MapParams, orbit

INPUT_DIM = 785  # 784 pixels + bias slot 0
MODES = ("materialized", "streaming")  # evaluation modes of Reservoir.preactivation
SINE_INIT_Y0 = 0.51
PROJECTION_CHUNK_ROWS = 4096  # most image rows scaled and multiplied at once
STREAM_CHUNK_ROWS = 16384  # most image rows scaled and streamed at once
WARM_STATE_CACHE_SIZE = 256  # post-warm-up map states kept, least recently used dropped


class NotFittedError(RuntimeError):
    """Normalization statistics were requested before a fitting pass."""


@dataclass(frozen=True)
class FillMethod:
    """One of the six ways to construct the weight matrix.

    ``init_kind`` selects sine-profile or constant initial conditions,
    ``uses_preliminary`` discards a 10000-step warm-up before recording,
    and ``uses_clamp`` applies the |y| > 10 guard during generation.
    """

    id: int
    init_kind: Literal["sine", "constant"]
    uses_preliminary: bool
    uses_clamp: bool

    @staticmethod
    def from_id(method_id: int) -> "FillMethod":
        try:
            return FILL_METHODS[method_id]
        except KeyError:
            raise ValueError(f"unknown fill method id {method_id}; expected 1-6") from None

    def effective_params(self, params: MapParams) -> MapParams:
        """Map parameters with clamp and warm-up flags set by this method."""
        return params.replace(
            clamp_enabled=self.uses_clamp,
            preliminary_iterations=TRANSIENT_ITERATIONS if self.uses_preliminary else 0,
        )


FILL_METHODS = {
    1: FillMethod(1, "sine", False, False),
    2: FillMethod(2, "sine", False, True),
    3: FillMethod(3, "constant", True, True),
    4: FillMethod(4, "constant", True, False),
    5: FillMethod(5, "constant", False, True),
    6: FillMethod(6, "constant", False, False),
}


@dataclass(frozen=True)
class ReservoirConfig:
    method: FillMethod
    params: MapParams
    reservoir_size: int
    input_dim: int = INPUT_DIM

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {self.reservoir_size}")
        if self.input_dim < 2:
            raise ValueError(f"input_dim must be >= 2, got {self.input_dim}")
        if self.method.init_kind == "sine" and self.params.B == 0:
            raise ValueError("sine initial conditions require B != 0")

    @property
    def effective_params(self) -> MapParams:
        return self.method.effective_params(self.params)


def flatten_image(pixels) -> np.ndarray:
    """Flatten a 28x28 intensity grid to the 785-slot input vector.

    Slot 0 carries the constant bias 1; slots 1-784 are the pixels in
    row-major order scaled to [0, 1].
    """
    grid = np.asarray(pixels, dtype=np.float64)
    if grid.shape != (28, 28):
        raise ValueError(f"expected a 28x28 grid, got shape {grid.shape}")
    out = np.empty(INPUT_DIM, dtype=np.float64)
    out[0] = 1.0
    out[1:] = grid.reshape(-1) / 255.0
    return out


def flatten_images(images) -> np.ndarray:
    """Vectorized :func:`flatten_image` for a stack of N grids."""
    stack = np.asarray(images, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != (28, 28):
        raise ValueError(f"expected an (N, 28, 28) stack, got shape {stack.shape}")
    out = np.empty((stack.shape[0], INPUT_DIM), dtype=np.float64)
    out[:, 0] = 1.0
    out[:, 1:] = stack.reshape(stack.shape[0], -1) / 255.0
    return out


@functools.lru_cache(maxsize=WARM_STATE_CACHE_SIZE)
def _cached_warm_state(params: MapParams, key: str) -> tuple[float, float]:
    x, y = float(params.A), float(params.B)
    ys = itertools.islice(orbit(params, x, y), params.preliminary_iterations)
    return ((x, y) + tuple(deque(ys, maxlen=2)))[-2:]


def _warm_state(params: MapParams) -> tuple[float, float]:
    """The map state (x, y) after ``params.preliminary_iterations`` steps from
    (A, B), computed once per parameters.

    A warm-up that overflows raises each time, at the same step, since the
    cache keeps no exception.  The key adds ``repr(params)`` because
    MapParams compare 0.0 equal to -0.0, and an orbit of zeros carries the
    sign of its initial condition into the weights.
    """
    return _cached_warm_state(params, repr(params))


def _chunks(n: int, most: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(n / most) near-equal chunks covering range(n);
    one empty chunk when n is 0."""
    count = max(1, -(-n // most))
    bounds = [k * n // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _fill_lines(
    config: ReservoirConfig,
) -> Iterator[tuple[int | slice, int | slice, Iterator[float]]]:
    """The weights of W in fill order, one line at a time.

    Yields ``(rows, cols, weights)``: ``W[rows, cols]`` are the next entries
    and ``weights`` yields their values in the order of that index.  A
    constant-init line is one row of W, ``(p, slice, weights)``, its column
    slice running forwards on even rows and backwards on odd ones; one orbit
    from (A, B) runs through all rows, resumed after the warm-up from
    :func:`_warm_state`.  A sine-init line is one column of W,
    ``(slice(None), i, weights)``: the column's initial x, then the first
    P - 1 iterates of its own orbit from (x, 0.51).  Each line's weights
    must be consumed before the next line is requested.
    """
    params = config.effective_params
    p_rows, dim = config.reservoir_size, config.input_dim
    if config.method.init_kind == "constant":
        x, y = _warm_state(params)
        ys = orbit(params, x, y, first_step=params.preliminary_iterations + 1)
        for p in range(p_rows):
            yield p, slice(None, None, -1 if p % 2 else 1), itertools.islice(ys, dim)
    else:
        cols = np.arange(dim, dtype=np.float64)
        inits = (params.A * np.sin(cols / (dim - 1) * (math.pi / params.B))).tolist()
        for i, x in enumerate(inits):
            iterates = itertools.islice(orbit(params, x, SINE_INIT_Y0), p_rows - 1)
            yield slice(None), i, itertools.chain((x,), iterates)


def build_matrix(config: ReservoirConfig) -> np.ndarray:
    """Materialize the P x input_dim weight matrix for ``config``."""
    w = np.empty((config.reservoir_size, config.input_dim), dtype=np.float64)
    for rows, cols, weights in _fill_lines(config):
        w[rows, cols] = np.fromiter(weights, np.float64)
    return w


def _stream_preactivation(config: ReservoirConfig, columns: np.ndarray) -> np.ndarray:
    """W @ Y without materializing W, reading the weights from :func:`_fill_lines`.

    ``columns`` has shape (input_dim, M); the return value is (P, M).  Only
    the map scalars, one scratch state and the P sums are held, so per input
    the storage is the six parameters plus P sums, independent of the input
    dimension for constant methods; sine methods also hold the input_dim
    initial x values, as many as one input has.  A single input (M == 1) is
    read through a memoryview of its column, without a copy, and its P sums
    are a list of Python floats; a batch keeps a (P, M) numpy block.  Both
    containers run the same loop body, and Python floats and float64
    elements perform the same IEEE operations in the same order, so a row
    gives identical sums alone and inside a batch.
    """
    p_rows = config.reservoir_size
    single = columns.shape[1] == 1
    if single:
        # numpy calls on 1-element arrays cost ten times the map step itself
        columns = memoryview(columns[:, 0])
        acc = [0.0] * p_rows
    else:
        acc = np.zeros((p_rows, columns.shape[1]), dtype=np.float64)

    if config.method.init_kind == "constant":
        # a line is one row of W: its weights meet the inputs in its column order
        for p, cols, weights in _fill_lines(config):
            acc_p = acc[p]
            for y, col in zip(weights, columns[cols]):
                acc_p += y * col
            acc[p] = acc_p  # a float sum was rebound, a numpy row updated in place
    else:
        # a line is one whole column of W, row 0 first: its weights scale one
        # input into every sum
        for _, i, weights in _fill_lines(config):
            col = columns[i]
            for r, y in enumerate(weights):
                acc[r] += y * col
    return np.array(acc)[:, None] if single else acc


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array ``z`` with its logistic function and return it.

    With e = exp(-|z|) the value is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, so no exp overflows.  Besides ``z`` it holds one boolean mask
    and one float temporary (1 + e).
    """
    pos = z >= 0
    np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    denom = 1.0 + z
    np.copyto(z, 1.0, where=pos)  # numerator: 1 where z >= 0, e elsewhere
    return np.divide(z, denom, out=z)


class Reservoir:
    """Fixed input transform S = f(W @ Y) with per-neuron normalization.

    ``fit_transform`` gathers min/max statistics of the pre-activations over
    a training set; ``transform`` then rescales each neuron to [0, 1] with
    those statistics and applies a logistic sigmoid.  The statistics are
    part of the trained model artifact.
    """

    def __init__(self, config: ReservoirConfig):
        self.config = config
        self._matrix: np.ndarray | None = None
        self.z_min: np.ndarray | None = None
        self.z_max: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.z_min is not None

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = build_matrix(self.config)
        return self._matrix

    def preactivation(
        self, inputs: np.ndarray, mode: Literal["materialized", "streaming"] = "materialized"
    ) -> np.ndarray:
        """W @ Y for one input vector, a batch of rows or a stack of images.

        ``inputs`` is one input_dim vector, (N, input_dim) rows, or (N, 28, 28)
        uint8 pixel grids for the 785-slot input.  The float form of an image
        stack is never held.  Materialized images are projected in
        ceil(N / PROJECTION_CHUNK_ROWS) near-equal chunks through one reused
        float64 (rows, 785) buffer whose column 0 is the bias 1.  Streamed
        images go in ceil(N / STREAM_CHUNK_ROWS) near-equal chunks through one
        reused (785, rows) buffer whose row 0 is the bias 1; each image is
        streamed alone, so the result equals streaming
        ``flatten_images(inputs)`` bit for bit.

        N <= PROJECTION_CHUNK_ROWS is one call, as ``flatten_images(inputs) @
        W.T``.  For larger N the chunked result equals that product bit for
        bit when 2 <= P <= 192: BLAS rounds a row alike in any chunk of more
        than a few rows, and near-equal chunks leave no tiny remainder.
        Otherwise it agrees within a few ulps of the sum of absolute terms:
        numpy sends P = 1 to gemv, whose rounding depends on the split, and
        past P = 192 OpenBLAS's AVX-512 dgemm rounds the rows at a call's
        edge apart (the one-call product itself changes with the number of
        BLAS threads).
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        arr = np.asarray(inputs)
        if arr.ndim == 3:
            pixels = self._pixels(arr)
            if mode == "materialized":
                return self._project_images(pixels)
            return self._stream_images(pixels)
        arr = np.asarray(arr, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected inputs of length {self.config.input_dim}, got shape {np.shape(inputs)}"
            )
        if mode == "materialized":
            z = arr @ self.matrix().T
        else:
            z = _stream_preactivation(self.config, np.ascontiguousarray(arr.T)).T
        return z[0] if single else z

    def _pixels(self, images: np.ndarray) -> np.ndarray:
        """The (N, 784) pixel view of an (N, 28, 28) stack."""
        if images.shape[1:] != (28, 28) or self.config.input_dim != INPUT_DIM:
            raise ValueError(
                f"expected (N, 28, 28) images for input_dim {INPUT_DIM}, got shape "
                f"{images.shape} for input_dim {self.config.input_dim}"
            )
        return images.reshape(images.shape[0], INPUT_DIM - 1)

    def _project_images(self, pixels: np.ndarray) -> np.ndarray:
        w_t = self.matrix().T
        n = pixels.shape[0]
        z = np.empty((n, self.config.reservoir_size), dtype=np.float64)
        chunks = _chunks(n, PROJECTION_CHUNK_ROWS)
        buf = np.empty((max(b - a for a, b in chunks), INPUT_DIM), dtype=np.float64)
        buf[:, 0] = 1.0
        for start, stop in chunks:
            rows = buf[: stop - start]
            np.divide(pixels[start:stop], 255.0, out=rows[:, 1:], dtype=np.float64)
            np.matmul(rows, w_t, out=z[start:stop])
        return z

    def _stream_images(self, pixels: np.ndarray) -> np.ndarray:
        n = pixels.shape[0]
        # (P, N) sums returned transposed, the layout of a whole-batch stream
        z_t = np.empty((self.config.reservoir_size, n), dtype=np.float64)
        chunks = _chunks(n, STREAM_CHUNK_ROWS)
        buf = np.empty((INPUT_DIM, max(b - a for a, b in chunks)), dtype=np.float64)
        buf[0] = 1.0
        for start, stop in chunks:
            columns = buf[:, : stop - start]
            np.divide(pixels[start:stop].T, 255.0, out=columns[1:], dtype=np.float64)
            z_t[:, start:stop] = _stream_preactivation(self.config, columns)
        return z_t.T

    def fit_transform(
        self, inputs: np.ndarray, mode: Literal["materialized", "streaming"] = "materialized"
    ) -> np.ndarray:
        """Gather per-neuron min/max over a training set and return its
        :meth:`transform`, from one projection.

        The pre-activations are computed once, give the min/max statistics,
        and are normalized in place before the sigmoid, so a training set is
        projected once instead of twice.
        """
        z = self.preactivation(inputs, mode)
        rows = np.atleast_2d(z)
        self.z_min = rows.min(axis=0)
        self.z_max = rows.max(axis=0)
        return self._squash(z)

    def set_statistics(self, z_min: np.ndarray, z_max: np.ndarray) -> "Reservoir":
        """Install previously fitted statistics (model deserialization)."""
        z_min = np.asarray(z_min, dtype=np.float64)
        z_max = np.asarray(z_max, dtype=np.float64)
        if z_min.shape != (self.config.reservoir_size,) or z_max.shape != z_min.shape:
            raise ValueError("statistics shape does not match reservoir size")
        self.z_min = z_min
        self.z_max = z_max
        return self

    def transform(
        self, inputs: np.ndarray, mode: Literal["materialized", "streaming"] = "materialized"
    ) -> np.ndarray:
        """Normalized, sigmoid-squashed reservoir output for inputs as in
        :meth:`preactivation`."""
        if not self.fitted:
            raise NotFittedError("reservoir normalization statistics are not fitted")
        return self._squash(self.preactivation(inputs, mode))

    def _squash(self, z: np.ndarray) -> np.ndarray:
        """Rescale ``z`` in place to [0, 1] per neuron, then apply the sigmoid;
        a neuron whose fitted span is not positive maps to 0 (sigmoid 0.5)."""
        span = self.z_max - self.z_min
        live = span > 0
        z -= self.z_min
        z /= np.where(live, span, 1.0)
        z[..., ~live] = 0.0
        return sigmoid(z)
