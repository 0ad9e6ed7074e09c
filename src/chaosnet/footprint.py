"""Weight-storage accounting for a trained model.

Counts the numeric values a deployed artifact must hold.  In streaming
mode the reservoir stage stores only the six map scalars no matter how
many neurons it has; materialized mode stores the full P x 785 matrix.
Both modes store the 2P normalization statistics (``z_min`` and ``z_max``
of every neuron), which squash every input's features, and the
classifier's dense layers (bias columns included).
Device-level RAM (stack, buffers) is out of scope: the report compares
stored values, which is also how the map's cost is compared against a
logistic-map baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from chaosnet.maps import MAP_PARAM_NAMES
from chaosnet.reservoir import INPUT_DIM, MODES

# a1..a4 plus the two initial conditions (A, B)
HENON_PARAMETER_COUNT = len(MAP_PARAM_NAMES)
# rate parameter plus initial condition plus iterate
LOGISTIC_PARAMETER_COUNT = 3
DEFAULT_BYTES_PER_VALUE = 8


def map_parameter_delta() -> int:
    """Extra scalars the two-dimensional map costs over the logistic baseline."""
    return HENON_PARAMETER_COUNT - LOGISTIC_PARAMETER_COUNT


@dataclass(frozen=True)
class FootprintReport:
    reservoir_parameter_count: int
    normalization_value_count: int
    classifier_weight_count: int
    streaming_mode: bool
    bytes_per_value: int = DEFAULT_BYTES_PER_VALUE

    @property
    def total_value_count(self) -> int:
        return (self.reservoir_parameter_count + self.normalization_value_count
                + self.classifier_weight_count)

    @property
    def estimated_bytes(self) -> int:
        return self.total_value_count * self.bytes_per_value


def footprint(model, mode: str = "streaming",
              bytes_per_value: int = DEFAULT_BYTES_PER_VALUE) -> FootprintReport:
    """Stored-value counts for ``model`` deployed in ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if bytes_per_value < 1:
        raise ValueError(f"bytes_per_value must be >= 1, got {bytes_per_value}")
    p = model.reservoir.config.reservoir_size
    reservoir_count = HENON_PARAMETER_COUNT if mode == "streaming" else p * INPUT_DIM
    classifier_count = int(sum(w.size for w in model.classifier.weights))
    return FootprintReport(
        reservoir_parameter_count=reservoir_count,
        normalization_value_count=2 * p,
        classifier_weight_count=classifier_count,
        streaming_mode=(mode == "streaming"),
        bytes_per_value=bytes_per_value,
    )


__all__ = [
    "FootprintReport",
    "footprint",
    "map_parameter_delta",
    "HENON_PARAMETER_COUNT",
    "LOGISTIC_PARAMETER_COUNT",
    "DEFAULT_BYTES_PER_VALUE",
]
