"""Complexity analysis of the weight-generating map.

Approximate entropy of the iterate stream that fills the weight matrix,
Poincare pair extraction, and one-parameter bifurcation sweeps.  The
entropy-accuracy table pairs the map's ApEn with classifier accuracy so
the two can be rank-correlated across a parameter sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from chaosnet.maps import MAP_PARAM_NAMES, MapOverflowError, MapParams, iterate_series, orbit
from chaosnet.reservoir import INPUT_DIM, FillMethod, ReservoirConfig, build_matrix, valid_sine_b

DEFAULT_M = 2
DEFAULT_R = 0.025
DEFAULT_SERIES_LENGTH = 5000

# grid reported by the entropy-accuracy table
TABLE_M_VALUES = (1, 2, 3)
TABLE_R_VALUES = (0.025, 0.05, 0.1)


@dataclass(frozen=True)
class ApEnConfig:
    m: int = DEFAULT_M
    r: float = DEFAULT_R

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"embedding dimension m must be >= 1, got {self.m}")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"tolerance r must be a positive real, got {self.r}")


def _phi(series: np.ndarray, m: int, r: float) -> float:
    """Mean log of the regular Chebyshev correlation sums at window size m.

    The windows are sorted by their first coordinate.  A block of
    consecutive sorted query windows can only match windows whose first
    coordinate lies within r of the block's first-coordinate range, one
    contiguous run of the sorted order, found by two binary searches.  The
    run's ends are widened by a few ulps of the operands, so every window
    left out is one the distance test below would reject.  Inside the run
    the test is the dense one (max over coordinates of ``|q - w|``, then
    ``<= r``), and the match counts are put back in window order before
    the log-mean, so the result is bit for bit the all-pairs one.  Cost:
    one sort plus, per query, the windows whose first coordinate is within
    about r of it: near linear on a spread-out series, all pairs on a
    constant one.
    """
    count = series.size - m + 1
    order = np.argsort(series[:count], kind="stable")
    windows = sliding_window_view(series, m)[order]  # (count, m), sorted by column 0
    first = windows[:, 0]
    matches = np.empty(count, dtype=np.int64)
    # a small query block keeps the slab in cache; the 8M-entry cap bounds it
    block = max(1, min(128, 8_000_000 // count))
    for start in range(0, count, block):
        q = windows[start : start + block]
        lo_q, hi_q = float(q[0, 0]), float(q[-1, 0])
        lo = np.searchsorted(first, lo_q - r - 8 * np.spacing(max(abs(lo_q), r)), "left")
        hi = np.searchsorted(first, hi_q + r + 8 * np.spacing(max(abs(hi_q), r)), "right")
        w = windows[lo:hi]
        d = np.abs(q[:, 0, None] - w[None, :, 0])
        for k in range(1, m):
            np.maximum(d, np.abs(q[:, k, None] - w[None, :, k]), out=d)
        matches[order[start : start + block]] = (d <= r).sum(axis=1)
    return float(np.log(matches / count).mean())


def approximate_entropy(series: Sequence[float], config: ApEnConfig = ApEnConfig()) -> float:
    """ApEn(m, r) = phi_m(r) - phi_{m+1}(r), self-matches included.

    Window distance is the max norm; r is an absolute tolerance on the raw
    series.  Identical windows always match themselves, so every
    correlation sum is strictly positive and the result is finite.  Each
    window is compared only with the sorted run of windows whose first value
    can lie within r (see ``_phi``); the result equals the all-pairs
    computation bit for bit.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {x.shape}")
    if x.size <= config.m + 1:
        raise ValueError(f"series length {x.size} must exceed m + 1 = {config.m + 1}")
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite values")
    return _phi(x, config.m, config.r) - _phi(x, config.m + 1, config.r)


def weight_series(
    method: FillMethod, params: MapParams, length: int = DEFAULT_SERIES_LENGTH
) -> np.ndarray:
    """First ``length`` values of the iterate stream that fills the matrix.

    Constant-init methods emit the single recorded orbit; sine-init methods
    emit the matrix rows in row-major order (one y-iterate per column per
    row), truncated to ``length``.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    effective = method.effective_params(params)
    if method.init_kind == "constant":
        return iterate_series(effective, effective.A, effective.B, length)
    rows = -(-length // INPUT_DIM)  # ceil
    config = ReservoirConfig(method=method, params=params, reservoir_size=rows)
    return build_matrix(config).reshape(-1)[:length].copy()


def poincare_pairs(params: MapParams, count: int) -> np.ndarray:
    """(x, y) states of ``count`` successive iterates after the warm-up.

    The orbit starts at (A, B); ``params.preliminary_iterations`` steps are
    discarded first.  The x of a state is the previous y: the last warm-up
    y, or B when there is no warm-up.  Returned as a (count, 2) array.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    x, y = params.A, params.B
    warm = params.preliminary_iterations
    # B, then the iterates: the y of step k at index k
    ys = itertools.islice(itertools.chain((y,), orbit(params, x, y)), warm, warm + count + 1)
    ys = np.fromiter(ys, np.float64, count + 1)
    return np.column_stack((ys[:-1], ys[1:]))


@dataclass(frozen=True)
class SweepConfig:
    """One-parameter grid over the map, everything else held fixed."""

    parameter: str
    lo: float
    hi: float
    step: float
    fixed: MapParams
    method: FillMethod
    series_length: int = DEFAULT_SERIES_LENGTH
    transient: int = 1000  # discarded before bifurcation recording
    record_count: int = 100  # y-iterates kept per swept value

    def __post_init__(self):
        if self.parameter not in MAP_PARAM_NAMES:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if not self.lo < self.hi:
            raise ValueError(f"sweep needs lo < hi, got [{self.lo}, {self.hi}]")
        if not 0 < self.step < math.inf:
            raise ValueError(f"sweep step must be finite and > 0, got {self.step}")
        # an infinite range, or a step tiny beside it, asks for more points
        # than an array holds
        try:
            self.values
        except (OverflowError, ValueError, MemoryError) as exc:
            raise ValueError(f"sweep grid of step {self.step} over [{self.lo}, {self.hi}] "
                             f"cannot be built: {exc}") from None
        # sine initial conditions divide by B, as ReservoirConfig checks; the
        # grid value nearest 0 is the one pi / B overflows first at
        if self.method.init_kind == "sine" and self.parameter == "B":
            values = self.values
            if not valid_sine_b(values[np.abs(values).argmin()]):
                raise ValueError(f"method {self.method.id} divides by B, so a B sweep must not "
                                 "hold 0 or a B so near 0 that pi / B overflows")
        # ApEn at the table's largest m compares windows of m + 1 values, so
        # it needs more than m + 1 values
        shortest = max(TABLE_M_VALUES) + 2
        if self.series_length < shortest or self.record_count < 1 or self.transient < 0:
            raise ValueError(
                f"series_length must be >= {shortest}, record_count >= 1 and transient >= 0"
            )

    @property
    def values(self) -> np.ndarray:
        n = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(n)

    def params_at(self, value: float) -> MapParams:
        return self.fixed.replace(**{self.parameter: value})


@dataclass
class BifurcationRow:
    value: float
    iterates: np.ndarray
    overflowed: bool = False
    error_iteration: int | None = None


def bifurcation_sweep(config: SweepConfig) -> list[BifurcationRow]:
    """Post-transient y-iterates for every grid value of the swept parameter.

    A value whose orbit overflows is flagged and carries the failing
    iteration index; the sweep continues with the next value.
    """
    rows: list[BifurcationRow] = []
    for value in config.values:
        params = config.params_at(value).replace(
            clamp_enabled=config.method.uses_clamp,
            preliminary_iterations=config.transient,
        )
        try:
            iterates = iterate_series(params, params.A, params.B, config.record_count)
            rows.append(BifurcationRow(float(value), iterates))
        except MapOverflowError as exc:
            rows.append(
                BifurcationRow(
                    float(value),
                    np.empty(0, dtype=np.float64),
                    overflowed=True,
                    error_iteration=exc.iteration,
                )
            )
    return rows


@dataclass
class EntropyAccuracyRow:
    value: float
    apen: dict[tuple[int, float], float] = field(default_factory=dict)
    accuracy: float = math.nan
    overflowed: bool = False


def entropy_accuracy_table(
    config: SweepConfig,
    accuracy_fn: Callable[[MapParams], float] | None = None,
) -> list[EntropyAccuracyRow]:
    """Per sweep value: ApEn over the TABLE_M_VALUES x TABLE_R_VALUES grid,
    in that order, plus classifier accuracy.

    ``accuracy_fn`` maps the swept MapParams to a test accuracy (the train
    and evaluate pipeline supplies one); when omitted the accuracy column
    stays NaN.  Overflowing values are flagged with NaN entries.
    """
    rows: list[EntropyAccuracyRow] = []
    for value in config.values:
        params = config.params_at(value)
        row = EntropyAccuracyRow(float(value))
        try:
            series = weight_series(config.method, params, config.series_length)
            for m in TABLE_M_VALUES:
                for r in TABLE_R_VALUES:
                    row.apen[(m, r)] = approximate_entropy(series, ApEnConfig(m=m, r=r))
        except MapOverflowError:
            row.overflowed = True
            for m in TABLE_M_VALUES:
                for r in TABLE_R_VALUES:
                    row.apen[(m, r)] = math.nan
        if accuracy_fn is not None and not row.overflowed:
            row.accuracy = float(accuracy_fn(params))
        rows.append(row)
    return rows


def spearman_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation of two equal-length sequences of finite
    numbers: the Pearson correlation of their ranks, tied values sharing the
    mean of the ranks they span.  NaN when either sequence is constant, since
    the correlation is then undefined."""
    x, y = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("expected two equal-length 1-d sequences of finite numbers")
    ranks = []
    for values in (x, y):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        if counts.size == 1:
            return math.nan
        ends = np.cumsum(counts)  # 1-based rank of each distinct value's last copy
        ranks.append((ends - (counts - 1) / 2.0)[inverse])
    return float(np.corrcoef(*ranks)[0, 1])


__all__ = [
    "ApEnConfig",
    "approximate_entropy",
    "weight_series",
    "poincare_pairs",
    "SweepConfig",
    "BifurcationRow",
    "bifurcation_sweep",
    "EntropyAccuracyRow",
    "entropy_accuracy_table",
    "spearman_correlation",
    "DEFAULT_M",
    "DEFAULT_R",
    "DEFAULT_SERIES_LENGTH",
    "TABLE_M_VALUES",
    "TABLE_R_VALUES",
]
