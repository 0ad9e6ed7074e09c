"""Input-weight construction and the fixed reservoir projection.

A P x 785 weight matrix is generated from map orbits by one of six filling
methods.  :func:`_fill_lines` is the one description of the fill order:
constant-init methods run a single orbit across the rows in snake order
(first row left to right, second right to left, alternating); sine-init
methods seed one orbit per column from a sine profile and store the
initial x in row 0 and one y-iterate per row below it.  A reservoir
computes W @ Y either from the materialized matrix or in streaming
mode, which reads the same fill stream and never stores the matrix: its
working state is the six map scalars plus one accumulator per reservoir
neuron.  Both consumers therefore see the same weights bit for bit.  A
single input is streamed without a copy and its P sums are Python floats;
a batch keeps a (P, M) numpy block.  Both give identical sums for the same
row.

A stack of (N, 28, 28) uint8 images is projected in one piece: its pixels
are scaled into one buffer, (N, 785) for the matrix product of
materialized mode and (785, N) for streaming.  :func:`_write_inputs` writes
the 785-slot layout for both buffers and for :func:`flatten_image` and
:func:`flatten_images`.  :func:`image_chunks` is the chunk policy: the
blocks in which ``network`` projects a stack, so that the float form of a
whole stack is never held.
A :class:`Reservoir` holds no trained state, only what its config
determines: its matrix, and the post-warm-up map state of methods 3 and 4,
so only its first streamed input runs the 10,000 discarded steps.
:func:`sigmoid` overwrites its input in place, in blocks of rows, so its
temporaries stay a few MB whatever the number of rows.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Iterator, Literal

import numpy as np

from chaosnet.maps import TRANSIENT_ITERATIONS, MapParams, orbit

INPUT_DIM = 785  # 784 pixels + bias slot 0
MODES = ("materialized", "streaming")  # evaluation modes of Reservoir.preactivation
SINE_INIT_Y0 = 0.51
PROJECTION_CHUNK_ROWS = 1536  # most image rows scaled and multiplied at once: a 9.6 MB buffer
STREAM_CHUNK_ROWS = 16384  # most image rows scaled and streamed at once
SIGMOID_BLOCK_ELEMENTS = 1 << 19  # most values squashed at once: a 4 MB float temporary


def valid_sine_b(b: float) -> bool:
    """Whether sine initial conditions can use ``b``: they divide pi by B,
    so B must not be 0 and pi / B must be finite (not so for |B| below
    about 1.7e-308)."""
    b = float(b)  # a numpy scalar would warn on the overflow, not return inf
    return b != 0 and math.isfinite(math.pi / b)


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
    # not a field, every reservoir reads INPUT_DIM; perfbench's tracer reads it here
    input_dim: ClassVar[int] = INPUT_DIM

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {self.reservoir_size}")
        if self.method.init_kind == "sine" and not valid_sine_b(self.params.B):
            raise ValueError(
                f"sine initial conditions require B != 0 and pi / B finite, got {self.params.B!r}"
            )

    @property
    def effective_params(self) -> MapParams:
        return self.method.effective_params(self.params)


def _write_inputs(pixels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the 785-slot input layout of ``pixels`` into ``out`` and return it.

    ``pixels`` is (n, 784) intensities in row-major order; ``out`` is an
    (n, 785) float64 array, or the transposed view of a (785, n) one.  Slot 0
    carries the constant bias 1; slots 1-784 are the pixels scaled to [0, 1]
    by a division by 255.  This is the one place the layout is written.
    """
    out[:, 0] = 1.0
    np.divide(pixels, 255.0, out=out[:, 1:], dtype=np.float64)
    return out


def flatten_image(pixels) -> np.ndarray:
    """Flatten a 28x28 intensity grid to the 785-slot input vector."""
    grid = np.asarray(pixels)
    if grid.shape != (28, 28):
        raise ValueError(f"expected a 28x28 grid, got shape {grid.shape}")
    return _write_inputs(grid.reshape(1, INPUT_DIM - 1), np.empty((1, INPUT_DIM)))[0]


def flatten_images(images) -> np.ndarray:
    """Vectorized :func:`flatten_image` for a stack of N grids."""
    stack = np.asarray(images)
    if stack.ndim != 3 or stack.shape[1:] != (28, 28):
        raise ValueError(f"expected an (N, 28, 28) stack, got shape {stack.shape}")
    rows = stack.reshape(len(stack), INPUT_DIM - 1)
    return _write_inputs(rows, np.empty((len(stack), INPUT_DIM)))


def _warm_state(config: ReservoirConfig) -> tuple[float, float]:
    """The map state (x, y) after the warm-up of ``config``'s method, from
    (A, B): the start of a constant-init fill (sine-init fills ignore it).

    Methods without a warm-up return (A, B) itself.  A warm-up that
    overflows raises MapOverflowError at its step.
    """
    params = config.effective_params
    x, y = params.A, params.B
    ys = itertools.islice(orbit(params, x, y), params.preliminary_iterations)
    return ((x, y) + tuple(deque(ys, maxlen=2)))[-2:]


def image_chunks(n: int, mode: str) -> list[tuple[int, int]]:
    """(start, stop) of the ceil(n / most) near-equal blocks covering range(n)
    in which a stack of n images is projected, ``most`` being
    PROJECTION_CHUNK_ROWS (materialized) or STREAM_CHUNK_ROWS (streaming); one
    empty block when n is 0.

    Streamed images are summed one by one, so any split streams them as the
    whole stack does.  A materialized split equals the one-piece product
    bit for bit when 2 <= P <= 192: every block of n > PROJECTION_CHUNK_ROWS
    rows then holds at least PROJECTION_CHUNK_ROWS / 2 = 768 rows, and
    OpenBLAS was measured to round a row alike in any block that large.
    Blocks of about 640 rows or fewer broke that for P = 2-5 (a limit of
    1024 splits 1025 rows as 512 + 513); that fits a switch to its
    small-matrix dgemm below about 1e6 multiply-adds (rows x P x 785),
    inferred from the mismatches, not from OpenBLAS's source.  Otherwise a
    split agrees within a few ulps of the sum of absolute terms: numpy sends
    P = 1 to gemv, whose rounding depends on the split, and past P = 192
    OpenBLAS's AVX-512 dgemm rounds the rows at a call's edge apart (the
    one-piece product itself changes with the number of BLAS threads).
    """
    most = PROJECTION_CHUNK_ROWS if mode == "materialized" else STREAM_CHUNK_ROWS
    count = max(1, -(-n // most))
    bounds = [k * n // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _fill_lines(
    config: ReservoirConfig, warm: tuple[float, float]
) -> Iterator[tuple[int | slice, int | slice, Iterator[float]]]:
    """The weights of W in fill order, one line at a time.

    Yields ``(rows, cols, weights)``: ``W[rows, cols]`` are the next entries
    and ``weights`` yields their values in the order of that index.  A
    constant-init line is one row of W, ``(p, slice, weights)``, its column
    slice running forwards on even rows and backwards on odd ones; one orbit
    from (A, B) runs through all rows, resumed from ``warm``, the state
    :func:`_warm_state` gives for ``config``.  A sine-init line is one
    column of W, ``(slice(None), i, weights)``: the column's initial x,
    computed when its line is requested, then the first P - 1 iterates of
    its own orbit from (x, 0.51).  Each line's weights must be consumed
    before the next line is requested.
    """
    params = config.effective_params
    p_rows = config.reservoir_size
    if config.method.init_kind == "constant":
        ys = orbit(params, *warm, first_step=params.preliminary_iterations + 1)
        for p in range(p_rows):
            yield p, slice(None, None, -1 if p % 2 else 1), itertools.islice(ys, INPUT_DIM)
    else:
        for i in range(INPUT_DIM):
            x = params.A * math.sin(i / (INPUT_DIM - 1) * (math.pi / params.B))
            iterates = itertools.islice(orbit(params, x, SINE_INIT_Y0), p_rows - 1)
            yield slice(None), i, itertools.chain((x,), iterates)


def build_matrix(config: ReservoirConfig) -> np.ndarray:
    """Materialize the P x 785 weight matrix for ``config``."""
    w = np.empty((config.reservoir_size, INPUT_DIM), dtype=np.float64)
    for rows, cols, weights in _fill_lines(config, _warm_state(config)):
        w[rows, cols] = np.fromiter(weights, np.float64)
    return w


def _stream_preactivation(
    config: ReservoirConfig, warm: tuple[float, float], columns: np.ndarray
) -> np.ndarray:
    """W @ Y without materializing W, reading the weights from :func:`_fill_lines`
    resumed from ``warm``.

    ``columns`` has shape (785, M); the return value is (P, M).  Only the map
    scalars, one scratch state and the P sums are held, so per input the
    storage is the six parameters plus P sums, independent of the input
    dimension for all six methods.  A single input (M == 1) is
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

    # Python floats overflow to inf (and inf - inf to nan) silently; the numpy
    # block must too, so a batch row stays identical to the single input
    with np.errstate(over="ignore", invalid="ignore"):
        if config.method.init_kind == "constant":
            # a line is one row of W: its weights meet the inputs in its column order
            for p, cols, weights in _fill_lines(config, warm):
                acc_p = acc[p]
                for y, col in zip(weights, columns[cols]):
                    acc_p += y * col
                acc[p] = acc_p  # a float sum was rebound, a numpy row updated in place
        else:
            # a line is one whole column of W, row 0 first: its weights scale one
            # input into every sum
            for _, i, weights in _fill_lines(config, warm):
                col = columns[i]
                for r, y in enumerate(weights):
                    acc[r] += y * col
    return np.array(acc)[:, None] if single else acc


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overwrite the float64 array ``z`` with its logistic function and return it.

    With e = exp(-|z|) the value is 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, so no exp overflows.  ``z`` is walked along its first axis in
    blocks of whole rows, whatever its layout, each block holding at most
    SIGMOID_BLOCK_ELEMENTS values (or one row, if a row holds more).  Besides
    ``z`` it therefore holds one boolean mask and one float temporary (1 + e)
    of a block, under 5 MB, not of the whole input.  ``z`` has one or two
    axes.
    """
    step = max(1, SIGMOID_BLOCK_ELEMENTS * len(z) // max(z.size, 1))
    for start in range(0, len(z), step):
        block = z[start : start + step]
        pos = block >= 0
        np.exp(np.negative(np.abs(block, out=block), out=block), out=block)
        denom = 1.0 + block
        np.copyto(block, 1.0, where=pos)  # numerator: 1 where z >= 0, e elsewhere
        np.divide(block, denom, out=block)
        del pos, denom  # freed before the next block's are made
    return z


class Reservoir:
    """The fixed projection W @ Y of its config, which nothing trains.

    The matrix (materialized mode) and the post-warm-up map state
    (streaming mode) are computed on first use and kept.
    """

    def __init__(self, config: ReservoirConfig):
        self.config = config
        self._matrix: np.ndarray | None = None
        self._warm_xy: tuple[float, float] | None = None

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = build_matrix(self.config)
        return self._matrix

    def _warm(self) -> tuple[float, float]:
        if self._warm_xy is None:
            self._warm_xy = _warm_state(self.config)
        return self._warm_xy

    def preactivation(
        self, inputs: np.ndarray, mode: Literal["materialized", "streaming"] = "materialized"
    ) -> np.ndarray:
        """W @ Y for one input vector, a batch of rows or a stack of images,
        projected in one piece.

        ``inputs`` is one 785-slot vector, (N, 785) rows, or (N, 28, 28)
        uint8 pixel grids, which are scaled into one float64 buffer: (N, 785)
        for the matrix product, or (785, N) for streaming, written through
        its transpose.  Either way the result equals that of
        ``flatten_images(inputs)`` bit for bit.  The buffer holds N x 785
        floats, so ``network`` projects a large stack in the blocks of
        :func:`image_chunks`.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        arr = np.asarray(inputs)
        if arr.ndim == 3:
            if arr.shape[1:] != (28, 28):
                raise ValueError(f"expected (N, 28, 28) images, got shape {arr.shape}")
            pixels = arr.reshape(len(arr), INPUT_DIM - 1)
            if mode == "materialized":
                # the matrix, the result, then the buffer: with the buffer first,
                # the peak RSS of `chaosnet train` rose by about 7 MB
                w_t = self.matrix().T
                z = np.empty((len(arr), self.config.reservoir_size), dtype=np.float64)
                rows = _write_inputs(pixels, np.empty((len(arr), INPUT_DIM)))
                return np.matmul(rows, w_t, out=z)
            columns = _write_inputs(pixels, np.empty((INPUT_DIM, len(arr))).T).T
            return _stream_preactivation(self.config, self._warm(), columns).T
        arr = np.asarray(arr, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != INPUT_DIM:
            raise ValueError(f"expected inputs of length {INPUT_DIM}, got shape {np.shape(inputs)}")
        if mode == "materialized":
            z = arr @ self.matrix().T
        else:
            columns = np.ascontiguousarray(arr.T)
            z = _stream_preactivation(self.config, self._warm(), columns).T
        return z[0] if single else z


__all__ = [
    "INPUT_DIM", "MODES", "SINE_INIT_Y0", "PROJECTION_CHUNK_ROWS", "STREAM_CHUNK_ROWS",
    "SIGMOID_BLOCK_ELEMENTS", "FillMethod", "FILL_METHODS", "ReservoirConfig", "valid_sine_b",
    "flatten_image", "flatten_images", "image_chunks", "build_matrix", "sigmoid", "Reservoir",
]
