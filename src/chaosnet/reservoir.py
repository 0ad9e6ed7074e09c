"""Input-weight construction and the fixed reservoir transform.

A P x 785 weight matrix is generated from a map orbit by one of six filling
methods.  Constant-init methods write a single orbit into the matrix in
snake order (first row left to right, second right to left, alternating);
sine-init methods seed one independent orbit per column from a sine profile
and store one y-iterate per row.  The transform computes f(W @ Y) either
from the materialized matrix or in streaming mode, which regenerates the
entries on the fly and never stores the matrix: its working state is the
six map scalars plus one accumulator per reservoir neuron.  A single input
is streamed without a copy and its P sums are Python floats; a batch keeps
a (P, M) numpy block.  Both give identical sums for the same row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from chaosnet.maps import (
    CLAMP_LIMIT,
    CLAMP_REPLACEMENT,
    TRANSIENT_ITERATIONS,
    MapOverflowError,
    MapParams,
    iterate_series,
)

INPUT_DIM = 785  # 784 pixels + bias slot 0
MODES = ("materialized", "streaming")  # evaluation modes of Reservoir.preactivation
SINE_INIT_Y0 = 0.51

# first row of a snake fill runs left to right; flip for the opposite convention
SNAKE_FIRST_ROW_LEFT_TO_RIGHT = True


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


def build_matrix(config: ReservoirConfig) -> np.ndarray:
    """Materialize the P x input_dim weight matrix for ``config``."""
    if config.method.init_kind == "constant":
        return _build_constant(config)
    return _build_sine(config)


def _build_constant(config: ReservoirConfig) -> np.ndarray:
    params = config.effective_params
    p_rows, dim = config.reservoir_size, config.input_dim
    series = iterate_series(params, params.A, params.B, p_rows * dim)
    w = series.reshape(p_rows, dim).copy()
    start = 0 if SNAKE_FIRST_ROW_LEFT_TO_RIGHT else 1
    w[1 - start :: 2] = w[1 - start :: 2, ::-1]
    return w


def _build_sine(config: ReservoirConfig) -> np.ndarray:
    params = config.effective_params
    p_rows, dim = config.reservoir_size, config.input_dim
    a1, a2, a3, a4 = params.a1, params.a2, params.a3, params.a4

    w = np.empty((p_rows, dim), dtype=np.float64)
    cols = np.arange(dim, dtype=np.float64)
    x = params.A * np.sin(cols / (dim - 1) * (math.pi / params.B))
    y = np.full(dim, SINE_INIT_Y0)
    w[0] = x  # first row stores the initial x values themselves
    # overflow surfaces as an exception below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, p_rows):
            x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
            if params.clamp_enabled:
                y = np.where(np.abs(y) <= CLAMP_LIMIT, y, CLAMP_REPLACEMENT)
            w[r] = y
    if not params.clamp_enabled:
        bad = ~np.isfinite(w)
        if bad.any():
            # the fill order is per column: report the first bad row of the
            # lowest bad column, the overflow streaming meets first
            col = int(np.argmax(bad.any(axis=0)))
            row = int(np.argmax(bad[:, col]))
            raise MapOverflowError(row, float(w[row, col]))
    return w


def _stream_preactivation(config: ReservoirConfig, columns: np.ndarray) -> np.ndarray:
    """W @ Y without materializing W.

    ``columns`` has shape (input_dim, M); the return value is (P, M).  Only
    the map scalars, one scratch state and the P sums are held, so per input
    the storage is the six parameters plus P sums, independent of the input
    dimension.  A single input (M == 1) is read through a memoryview of its
    contiguous column, without a copy, and its P sums are a list of Python
    floats; a batch keeps a (P, M) numpy block.  Both containers run the
    same loop body, and Python floats and float64 elements perform the same
    IEEE operations in the same order, so a row gives identical sums alone
    and inside a batch.
    """
    params = config.effective_params
    p_rows, dim = config.reservoir_size, config.input_dim
    a1, a2, a3, a4 = params.a1, params.a2, params.a3, params.a4
    clamp = params.clamp_enabled
    single = columns.shape[1] == 1
    if single:
        # numpy calls on 1-element arrays cost ten times the map step itself
        columns = memoryview(columns[:, 0])
        acc = [0.0] * p_rows
    else:
        acc = np.zeros((p_rows, columns.shape[1]), dtype=np.float64)

    if config.method.init_kind == "constant":
        x, y = params.A, params.B
        step = 0
        for _ in range(params.preliminary_iterations):
            step += 1
            x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
            if clamp:
                if not (abs(y) <= CLAMP_LIMIT):
                    y = CLAMP_REPLACEMENT
            elif not math.isfinite(y):
                raise MapOverflowError(step, y)
        forward = SNAKE_FIRST_ROW_LEFT_TO_RIGHT
        for p in range(p_rows):
            acc_p = acc[p]
            col_order = range(dim) if forward else range(dim - 1, -1, -1)
            for col in col_order:
                step += 1
                x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
                if clamp:
                    if not (abs(y) <= CLAMP_LIMIT):
                        y = CLAMP_REPLACEMENT
                elif not math.isfinite(y):
                    raise MapOverflowError(step, y)
                acc_p += y * columns[col]
            acc[p] = acc_p  # a float sum was rebound, a numpy row updated in place
            forward = not forward
    else:
        pi_over_b = math.pi / params.B
        amp = params.A
        for i in range(dim):
            x = amp * math.sin(i / (dim - 1) * pi_over_b)
            y = SINE_INIT_Y0
            col = columns[i]
            acc[0] += x * col
            for r in range(1, p_rows):
                x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
                if clamp:
                    if not (abs(y) <= CLAMP_LIMIT):
                        y = CLAMP_REPLACEMENT
                elif not math.isfinite(y):
                    raise MapOverflowError(r, y)
                acc[r] += y * col
    return np.array(acc)[:, None] if single else acc


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Reservoir:
    """Fixed input transform S = f(W @ Y) with per-neuron normalization.

    ``fit`` gathers min/max statistics of the pre-activations over a
    training set; ``transform`` then rescales each neuron to [0, 1] with
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
        """W @ Y for one input vector or a batch of rows."""
        arr = np.asarray(inputs, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected inputs of length {self.config.input_dim}, got shape {np.shape(inputs)}"
            )
        if mode == "materialized":
            z = arr @ self.matrix().T
        elif mode == "streaming":
            z = _stream_preactivation(self.config, np.ascontiguousarray(arr.T)).T
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return z[0] if single else z

    def fit(
        self, inputs: np.ndarray, mode: Literal["materialized", "streaming"] = "materialized"
    ) -> "Reservoir":
        """Gather per-neuron min/max over a training set."""
        z = self.preactivation(inputs, mode)
        if z.ndim == 1:
            z = z[None, :]
        self.z_min = z.min(axis=0)
        self.z_max = z.max(axis=0)
        return self

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
        """Normalized, sigmoid-squashed reservoir output for input rows."""
        if not self.fitted:
            raise NotFittedError("reservoir normalization statistics are not fitted")
        z = self.preactivation(inputs, mode)
        span = self.z_max - self.z_min
        safe = np.where(span > 0, span, 1.0)
        u = np.where(span > 0, (z - self.z_min) / safe, 0.0)
        return sigmoid(u)


def export_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a weight matrix as comma-separated rows, 17 significant digits."""
    w = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        for row in w:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def import_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
