"""The discrete chaotic map that generates the reservoir weight streams.

The map is quadratic, two-dimensional and of Henon type,

    x' = y
    y' = x + a1*x^2 + a2*y^2 - a3*x*y - a4,

iterated in 64-bit floats.  An optional guard replaces any y-iterate whose
magnitude exceeds 10 with 1, which keeps otherwise divergent coefficient
choices usable.  :func:`orbit` is the one place the step and its
clamp/overflow rule are written: the weight matrix, streaming mode and the
analysis tools all read their iterates from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# |y| above this triggers the guard when clamping is enabled
CLAMP_LIMIT = 10.0
CLAMP_REPLACEMENT = 1.0

# transient length used by the filling methods that discard a warm-up
TRANSIENT_ITERATIONS = 10_000

# the six scalars of a map configuration, in the swarm's coordinate order
MAP_PARAM_NAMES = ("A", "B", "a1", "a2", "a3", "a4")


class MapOverflowError(ArithmeticError):
    """A map iterate became non-finite with clamping disabled.

    ``iteration`` is the 1-based index of the offending step, counted from
    the initial condition (warm-up steps included).
    """

    def __init__(self, iteration: int, value: float = float("nan")):
        self.iteration = iteration
        self.value = value
        super().__init__(f"map iterate {iteration} is non-finite ({value!r})")


@dataclass(frozen=True)
class MapParams:
    """Coefficients and initial-condition constants for one map configuration.

    ``a1``..``a4`` are the quadratic-map coefficients, ``A`` and ``B`` feed
    the initial conditions (directly for constant-init filling, through the
    sine formula for sine-init filling).  ``preliminary_iterations`` steps
    are discarded before any value is recorded; the shipped filling methods
    use either 0 or ``TRANSIENT_ITERATIONS``.  The six scalars are stored as
    Python floats: numpy scalars would slow every orbit step and turn an
    overflow into a warning.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    A: float
    B: float
    clamp_enabled: bool = False
    preliminary_iterations: int = 0

    def __post_init__(self):
        for name in MAP_PARAM_NAMES:
            value = getattr(self, name)
            if not math.isfinite(value):  # a non-number raises TypeError here
                raise ValueError(f"map parameter {name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))  # the dataclass is frozen
        if self.preliminary_iterations < 0:
            raise ValueError(
                f"preliminary_iterations must be >= 0, got {self.preliminary_iterations}"
            )

    def replace(self, **changes) -> "MapParams":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


def orbit(params: MapParams, x: float, y: float, first_step: int = 1) -> Iterator[float]:
    """Yield the y-iterates of the map from ``(x, y)``, forever.

    Each step yields its new y; the previous y is the next step's x, so x is
    never clamped.  With clamping enabled a y whose magnitude is not <= 10
    (NaN included) is replaced by 1; with clamping disabled a non-finite y
    raises :class:`MapOverflowError` carrying its step.  Steps are numbered
    from ``first_step``, so an orbit resumed from a state reached after k
    steps passes ``k + 1`` and reports overflows counted from the initial
    condition.  ``params.preliminary_iterations`` is not applied here:
    consumers skip the warm-up themselves, e.g. with ``islice``.
    """
    a1, a2, a3, a4 = params.a1, params.a2, params.a3, params.a4
    clamp = params.clamp_enabled
    x, y = float(x), float(y)
    for step in itertools.count(first_step):
        x, y = y, x + a1 * x * x + a2 * y * y - a3 * x * y - a4
        if clamp:
            # `not <=` rather than `>` so a NaN produced from extreme inputs is
            # also replaced instead of silently propagating
            if not (abs(y) <= CLAMP_LIMIT):
                y = CLAMP_REPLACEMENT
        elif not math.isfinite(y):
            raise MapOverflowError(step, y)
        yield y


def iterate_series(
    params: MapParams, x0: float, y0: float, count: int
) -> np.ndarray:
    """Record ``count`` consecutive y-iterates starting from ``(x0, y0)``.

    ``params.preliminary_iterations`` warm-up steps run first and are not
    recorded; the first recorded value is the y produced by the step after
    the warm-up.  Deterministic for identical arguments.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    warm = params.preliminary_iterations
    ys = itertools.islice(orbit(params, x0, y0), warm, warm + count)
    return np.fromiter(ys, np.float64, count)


__all__ = [
    "CLAMP_LIMIT", "CLAMP_REPLACEMENT", "TRANSIENT_ITERATIONS", "MAP_PARAM_NAMES",
    "MapOverflowError", "MapParams", "orbit", "iterate_series",
]
