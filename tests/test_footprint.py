"""Stored-value accounting for streaming versus materialized deployment."""

import numpy as np
import pytest

from chaosnet.footprint import (
    HENON_PARAMETER_COUNT,
    LOGISTIC_PARAMETER_COUNT,
    FootprintReport,
    footprint,
    map_parameter_delta,
)
from chaosnet.network import Architecture, Classifier, NetworkModel
from chaosnet.reservoir import INPUT_DIM, FillMethod, Reservoir, ReservoirConfig

from conftest import STABLE_PARAMS


def model_with_reservoir_size(p):
    config = ReservoirConfig(
        method=FillMethod.from_id(6), params=STABLE_PARAMS, reservoir_size=p
    )
    classifier = Classifier(Architecture(p), rng=0)
    return NetworkModel(Reservoir(config), np.zeros(p), np.ones(p), classifier)


def test_streaming_footprint_counts_only_map_parameters():
    report = footprint(model_with_reservoir_size(25), mode="streaming")
    assert report.reservoir_parameter_count == 6
    assert report.normalization_value_count == 2 * 25
    assert report.classifier_weight_count == 260
    assert report.total_value_count == 316
    assert report.streaming_mode


def test_materialized_footprint_counts_the_whole_matrix():
    report = footprint(model_with_reservoir_size(25), mode="materialized")
    assert report.reservoir_parameter_count == 25 * 785
    assert report.normalization_value_count == 2 * 25
    assert report.total_value_count == 25 * 785 + 2 * 25 + 260


@pytest.mark.parametrize("p", [25, 100, 200])
def test_streaming_reservoir_count_is_size_independent(p):
    report = footprint(model_with_reservoir_size(p), mode="streaming")
    assert report.reservoir_parameter_count == 6


def test_hidden_layer_expands_classifier_count():
    config = ReservoirConfig(
        method=FillMethod.from_id(6), params=STABLE_PARAMS, reservoir_size=100
    )
    model = NetworkModel(Reservoir(config), np.zeros(100), np.ones(100),
                         Classifier(Architecture(100, 60), rng=0))
    report = footprint(model)
    assert report.classifier_weight_count == 60 * 101 + 10 * 61
    # 6 map scalars, 2 x 100 statistics and the 6,720 head weights
    assert report.total_value_count == 6876


def test_parameter_delta_against_logistic_map():
    assert HENON_PARAMETER_COUNT == 6
    assert LOGISTIC_PARAMETER_COUNT == 3
    assert map_parameter_delta() == 3


def test_estimated_bytes_scales_with_value_width():
    report = FootprintReport(6, 50, 260, streaming_mode=True, bytes_per_value=8)
    assert report.estimated_bytes == 316 * 8
    halved = footprint(model_with_reservoir_size(25), bytes_per_value=4)
    assert halved.estimated_bytes == 316 * 4


@pytest.mark.parametrize("method_id", [1, 2, 3, 4, 5, 6])
def test_streaming_one_input_peaks_under_16_kib_at_p_200(method_id):
    """The measured side of the stored-value count: after one warm call,
    classifying one input in streaming mode holds O(P) floats (the 200 sums
    and features) on top of the model, none per input slot, for every method."""
    import tracemalloc

    config = ReservoirConfig(FillMethod.from_id(method_id), STABLE_PARAMS, reservoir_size=200)
    model = NetworkModel(Reservoir(config), np.zeros(200), np.ones(200),
                         Classifier(Architecture(200), rng=0))
    x = np.random.default_rng(method_id).random(INPUT_DIM)
    expected = model.predict(x, "streaming")  # warm: the reservoir keeps its post-warm-up state
    tracemalloc.start()
    try:
        got = model.predict(x, "streaming")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == expected.tolist()
    assert peak < 16 * 1024, f"peak {peak / 1024:.1f} KiB"


def test_footprint_validates_arguments():
    model = model_with_reservoir_size(5)
    with pytest.raises(ValueError):
        footprint(model, mode="compressed")
    with pytest.raises(ValueError):
        footprint(model, bytes_per_value=0)
