"""Softmax head, backprop gradients, SGD training loop, model persistence."""

import json
import math

import numpy as np
import pytest

from chaosnet import reservoir
from chaosnet.mnist import IdxImages, LabeledDataset
from chaosnet.network import (
    Architecture,
    Classifier,
    NetworkModel,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_model,
    log_softmax,
    save_model,
    train,
)
from chaosnet.reservoir import INPUT_DIM, FillMethod, Reservoir, ReservoirConfig

from conftest import STABLE_PARAMS, make_balanced_band_images, make_band_images
from gradcheck import cross_entropy, gradient_check, loss, numeric_gradients
from idx_writer import save_idx


def toy_reservoir_config(reservoir_size=25):
    return ReservoirConfig(
        method=FillMethod.from_id(6),
        params=STABLE_PARAMS,
        reservoir_size=reservoir_size,
    )


# ---------------------------------------------------------------- softmax head

# the head exposes its softmax in log form; exp gives the probabilities


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=30, size=(40, 10))
    probs = np.exp(log_softmax(logits))
    assert np.all(probs > 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_is_shift_invariant():
    logits = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(log_softmax(logits), log_softmax(logits + 1000.0), atol=1e-12)


def test_softmax_survives_extreme_logits():
    logp = log_softmax(np.array([[1e4, 0.0, -1e4]]))
    assert np.all(np.isfinite(logp))
    assert np.exp(logp[0, 0]) == pytest.approx(1.0)


def test_cross_entropy_hand_value():
    logits = np.array([[math.log(0.7), math.log(0.2), math.log(0.1)]])
    labels = np.array([0])
    assert cross_entropy(logits, labels) == pytest.approx(-math.log(0.7), abs=1e-12)


@pytest.mark.parametrize("hidden", [(), (4,)])
def test_zero_weights_give_uniform_probabilities(hidden):
    clf = Classifier(Architecture(5, *hidden), rng=0)
    clf.weights = [np.zeros_like(w) for w in clf.weights]
    logits = clf.logits(np.random.default_rng(1).random((6, 5)))
    assert np.allclose(np.exp(log_softmax(logits)), 0.1, atol=1e-15)


def test_hand_computed_forward_pass():
    """Explicit weights, two features, ten classes, worked by hand."""
    clf = Classifier(Architecture(2), rng=0)
    # rows = classes, columns = [w_feature1, w_feature2, bias]; classes 3-9
    # all carry bias -1
    clf.weights = [
        np.array(
            [
                [1.0, -1.0, 0.5],
                [0.0, 2.0, -0.5],
                [-1.5, 0.5, 0.0],
                *7 * [[0.0, 0.0, -1.0]],
            ]
        )
    ]
    features = np.array([[0.3, 0.7]])
    z = [
        1.0 * 0.3 - 1.0 * 0.7 + 0.5,  # 0.1
        0.0 * 0.3 + 2.0 * 0.7 - 0.5,  # 0.9
        -1.5 * 0.3 + 0.5 * 0.7 + 0.0,  # -0.1
        *7 * [-1.0],
    ]
    denom = sum(math.exp(v) for v in z)
    expected = [math.exp(v) / denom for v in z]
    assert np.allclose(np.exp(log_softmax(clf.logits(features)))[0], expected, atol=1e-12)
    assert clf.predict(features)[0] == 1
    assert clf.predict(features[0]).tolist() == [1]  # one row, one label, still an array
    assert loss(clf, features, np.array([1])) == pytest.approx(
        -math.log(expected[1]), abs=1e-12
    )


def test_initial_weights_are_scaled_uniform():
    clf = Classifier(Architecture(25), rng=0)
    (w,) = clf.weights
    assert w.shape == (10, 26)
    bound = 0.5 / math.sqrt(26)
    assert np.all(np.abs(w) <= bound)
    assert w.std() > 0


# ---------------------------------------------------------------- gradients


@pytest.mark.parametrize("hidden", [(), (6,)])
def test_gradients_match_numeric_differences(hidden):
    rng = np.random.default_rng(2)
    clf = Classifier(Architecture(8, *hidden), rng=3)
    features = rng.random((12, 8))
    labels = rng.integers(0, 10, size=12)
    assert gradient_check(clf, features, labels) < 1e-4


def test_gradient_check_detects_sign_flip():
    class Flipped(Classifier):
        def loss_and_gradients(self, features, labels):
            loss, grads = super().loss_and_gradients(features, labels)
            return loss, [-g for g in grads]

    rng = np.random.default_rng(4)
    clf = Flipped(Architecture(5), rng=5)
    features = rng.random((8, 5))
    labels = rng.integers(0, 10, size=8)
    worst = gradient_check(clf, features, labels)
    assert worst == pytest.approx(2.0, abs=0.01)


def test_saturated_correct_prediction_has_tiny_gradients():
    clf = Classifier(Architecture(2), rng=0)
    clf.weights = [np.zeros((10, 3))]
    clf.weights[0][1, 2] = 50.0  # huge bias drives class 1 probability to ~1
    _, grads = clf.loss_and_gradients(np.array([[0.2, 0.4]]), np.array([1]))
    assert max(float(np.abs(g).max()) for g in grads) < 1e-10


def test_numeric_gradients_shapes_match_weights():
    clf = Classifier(Architecture(3, 2), rng=1)
    rng = np.random.default_rng(6)
    grads = numeric_gradients(clf, rng.random((5, 3)), rng.integers(0, 10, size=5))
    assert [g.shape for g in grads] == [w.shape for w in clf.weights]


# ---------------------------------------------------------------- SGD loop


def test_sgd_with_zero_learning_rate_keeps_weights():
    clf = Classifier(Architecture(4), rng=7)
    before = [w.copy() for w in clf.weights]
    rng = np.random.default_rng(8)
    clf.train_sgd(
        rng.random((20, 4)),
        rng.integers(0, 10, size=20),
        learning_rate=0.0,
        batch_size=64,
        epochs=3,
        rng=0,
    )
    for w, prev in zip(clf.weights, before):
        assert np.array_equal(w, prev)


def test_sgd_reduces_loss_on_separable_data():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 10, size=60)
    features = np.eye(10)[labels] + rng.normal(scale=0.05, size=(60, 10))
    clf = Classifier(Architecture(10), rng=10)
    history = clf.train_sgd(
        features, labels, learning_rate=1.0, batch_size=8, epochs=30, rng=0
    )
    assert len(history) == 30
    assert history[-1] < history[0]
    assert (clf.predict(features) == labels).mean() > 0.95


def test_training_is_deterministic(toy_dataset):
    images, labels = toy_dataset
    settings = TrainConfig(max_epochs=3, learning_rate=0.5, batch_size=4, rng_seed=0)
    runs = [
        train(images, labels, Architecture(10), toy_reservoir_config(10), settings)
        for _ in range(2)
    ]
    for w_a, w_b in zip(runs[0].classifier.weights, runs[1].classifier.weights):
        assert np.array_equal(w_a, w_b)


def test_toy_subset_reaches_90_percent_training_accuracy():
    """Fifty samples, ten position-coded classes, a 25-neuron reservoir and
    twenty epochs of SGD must overfit the training set almost perfectly."""
    images, labels = make_band_images(50, seed=7)
    settings = TrainConfig(max_epochs=20, learning_rate=1.0, batch_size=1, rng_seed=0)
    model = train(images, labels, Architecture(25), toy_reservoir_config(), settings)
    assert evaluate(model, images, labels) >= 0.90


def test_untrained_model_scores_near_chance():
    images, labels = make_balanced_band_images(500, seed=1)
    for seed in range(4):
        settings = TrainConfig(max_epochs=0, rng_seed=seed)
        model = train(
            images, labels, Architecture(25), toy_reservoir_config(), settings
        )
        acc = evaluate(model, images, labels)
        assert 0.05 <= acc <= 0.2


def test_divergence_raises_with_epoch_number(toy_dataset):
    images, labels = toy_dataset
    settings = TrainConfig(max_epochs=5, learning_rate=1e308, batch_size=1)
    with pytest.raises(TrainingDivergedError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            train(images, labels, Architecture(5), toy_reservoir_config(5), settings)
    assert err.value.epoch >= 1


def test_train_rejects_empty_dataset():
    empty = np.zeros((0, 28, 28), dtype=np.uint8)
    with pytest.raises(ValueError):
        train(
            empty,
            np.zeros(0, dtype=np.uint8),
            Architecture(5),
            toy_reservoir_config(5),
        )


def test_evaluate_rejects_empty_dataset(tiny_trained_model):
    with pytest.raises(ValueError):
        evaluate(
            tiny_trained_model,
            np.zeros((0, 28, 28), dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
        )


def test_evaluate_single_correct_sample(tiny_trained_model):
    images, labels = make_band_images(50, seed=7)
    predictions = tiny_trained_model.predict(images)
    hit = int(np.argmax(predictions == labels))
    assert predictions[hit] == labels[hit]
    acc = evaluate(tiny_trained_model, images[hit : hit + 1], labels[hit : hit + 1])
    assert acc == 1.0


@pytest.mark.parametrize("count", [1, 49, 51])
def test_evaluate_refuses_a_label_count_other_than_the_image_count(tiny_trained_model, count):
    """One label does not broadcast over 50 images into an accuracy."""
    images, labels = make_band_images(50, seed=7)
    with pytest.raises(ValueError, match=f"50 images .* got {count} "):
        evaluate(tiny_trained_model, images, np.resize(labels, count))


def _fitted_model(size, hidden=None, mode="materialized"):
    """A model with fitted statistics and an untrained head, from 20 images."""
    images = np.random.default_rng(size).integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    labels = np.arange(20, dtype=np.uint8) % 10
    config = ReservoirConfig(FillMethod.from_id(4), STABLE_PARAMS, size)
    return train(images, labels, Architecture(size, hidden), config,
                 TrainConfig(max_epochs=0), mode)


def _blockwise_equals_whole_stack(model, images, mode):
    """``predict`` scores ``images`` block by block; its labels and the logits
    of its blocks equal those of the features of the ``image_chunks``
    blocks, concatenated, bit for bit at every P."""
    bounds = reservoir.image_chunks(len(images), mode)
    features = np.concatenate([model.features(images[a:b], mode) for a, b in bounds])
    whole = model.classifier.logits(features)
    blocks = []
    head = model.classifier.logits
    model.classifier.logits = lambda features: blocks.append(head(features)) or blocks[-1]
    labels = model.predict(images, mode)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert labels.shape == (len(images),)
    assert np.array_equal(labels, whole.argmax(axis=1))
    return len(blocks)


@pytest.mark.parametrize("hidden", [None, 7])
@pytest.mark.parametrize("size", [1, 2, 25, 193])
# N = chunks x C + extra for the chunk size C: 0, 1, C - 1, C, C + 1 and 2C + 1
@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_blockwise_predict_equals_the_whole_stack(size, hidden, chunks, extra):
    c = reservoir.PROJECTION_CHUNK_ROWS
    n = chunks * c + extra
    images = np.random.default_rng(n).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    blocks = _blockwise_equals_whole_stack(_fitted_model(size, hidden), images, "materialized")
    assert blocks == max(1, -(-n // c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_blockwise_streamed_predict_equals_the_whole_stack(monkeypatch, n):
    monkeypatch.setattr(reservoir, "STREAM_CHUNK_ROWS", 3)
    model = _fitted_model(3, hidden=4, mode="streaming")
    images = np.random.default_rng(n).integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    assert _blockwise_equals_whole_stack(model, images, "streaming") == -(-n // 3)


@pytest.mark.parametrize("size", [1, 25, 200])
def test_training_on_image_blocks_equals_training_on_the_array(tmp_path, size):
    """``train`` and ``predict`` fed the :class:`IdxImages` of an IDX file,
    plain and gzip, with the header's count and with one image fewer, read
    its ``image_chunks`` blocks one at a time, as ``chaosnet train`` does,
    and fit the same statistics, weights and epoch losses and give the same
    labels as fed the array, bit for bit, at every P (3,073 rows, 3 blocks)."""
    n = 2 * reservoir.PROJECTION_CHUNK_ROWS + 1
    rng = np.random.default_rng(size)
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    config = ReservoirConfig(FillMethod.from_id(4), STABLE_PARAMS, size)
    assert len(reservoir.image_chunks(n, "materialized")) == 3
    for suffix in ("", ".gz"):
        path = tmp_path / f"images{suffix}"
        save_idx(LabeledDataset(images, labels), path, tmp_path / f"labels{suffix}")
        for count in (n, n - 1):
            fed = IdxImages(path, count)
            fits = [train(x, labels[:count], Architecture(size), config,
                          TrainConfig(max_epochs=2)) for x in (images[:count], fed)]
            z = Reservoir(config).preactivation(images[:count])
            for model in fits:
                assert model.z_min.tobytes() == z.min(axis=0).tobytes()
                assert model.z_max.tobytes() == z.max(axis=0).tobytes()
            (w_array,), (w_file,) = (model.classifier.weights for model in fits)
            assert w_array.tobytes() == w_file.tobytes()
            losses = [model.training_meta["epoch_losses"] for model in fits]
            assert losses[0] == losses[1] and len(losses[0]) == 2
            predicted = fits[0].predict(images[:count]), fits[1].predict(fed)
            assert predicted[0].shape == (count,)
            assert np.array_equal(*predicted)


@pytest.mark.parametrize(
    "fed",
    [
        np.zeros((9, 28, 28), np.uint8),  # an array one image short
        np.zeros((11, 28, 28), np.uint8),  # an array one image long
    ],
    ids=["short-array", "long-array"],
)
def test_training_refuses_images_in_blocks_of_another_length(fed):
    labels = np.arange(10, dtype=np.uint8)
    with pytest.raises(ValueError, match=f"{len(fed)} images need as many labels, got 10"):
        train(fed, labels, Architecture(3), toy_reservoir_config(3), TrainConfig(max_epochs=0))


def test_scoring_60k_images_holds_no_array_that_grows_with_n():
    """``evaluate`` (784:25:10) and ``predict`` (784:100:60:10) on 60k images
    stay under one projection buffer plus 4 MB; the 47 MB of uint8 images
    are allocated before tracing.  The whole-stack path took 29 and 159 MB."""
    import tracemalloc

    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(60_000, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=60_000).astype(np.uint8)
    bound = 8 * INPUT_DIM * reservoir.PROJECTION_CHUNK_ROWS + 4e6
    small, wide = _fitted_model(25), _fitted_model(100, hidden=60)
    peaks = []
    tracemalloc.start()
    try:
        for score in (lambda: evaluate(small, images, labels), lambda: wide.predict(images)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            score()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) < bound, f"peaks {[round(p / 1e6, 1) for p in peaks]} MB"


def test_classifier_rejects_feature_width_mismatch():
    clf = Classifier(Architecture(4), rng=0)
    with pytest.raises(ValueError):
        clf.logits(np.zeros((2, 5)))


def test_train_and_evaluate_on_60k_images_stay_under_100_mb():
    """The images stay uint8 (47 MB, allocated before tracing): no float
    copy of the stack is made, only the 60k x 25 features are float."""
    import tracemalloc

    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(60_000, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=60_000).astype(np.uint8)
    config = ReservoirConfig(
        method=FillMethod.from_id(4), params=STABLE_PARAMS, reservoir_size=25
    )
    tracemalloc.start()
    try:
        model = train(images, labels, Architecture(25), config, TrainConfig(max_epochs=1))
        evaluate(model, images, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, f"peak {peak / 1e6:.0f} MB"


# ---------------------------------------------------------------- architecture


def test_architecture_describe_strings():
    assert Architecture(25).describe() == "784:25:10"
    assert Architecture(100, 60).describe() == "784:100:60:10"


def test_architecture_weight_counts():
    assert Architecture(25).layer_shapes == [(10, 26)]
    assert Architecture(100, 60).layer_shapes == [(60, 101), (10, 61)]


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(0)
    with pytest.raises(ValueError):
        Architecture(10, 0)
    with pytest.raises(TypeError):  # the class count is N_CLASSES, not a field
        Architecture(10, n_classes=10)


def test_model_refuses_a_classifier_of_another_p():
    config = ReservoirConfig(FillMethod.from_id(6), STABLE_PARAMS, reservoir_size=5)
    with pytest.raises(ValueError):
        NetworkModel(Reservoir(config), np.zeros(5), np.ones(5), Classifier(Architecture(6), rng=0))
    model = NetworkModel(Reservoir(config), np.zeros(5), np.ones(5),
                         Classifier(Architecture(5, 3), rng=0))
    assert model.architecture == Architecture(5, 3)


# ---------------------------------------------------------------- persistence


def test_model_round_trip_is_value_exact(tmp_path, tiny_trained_model):
    path = tmp_path / "model.json"
    save_model(tiny_trained_model, path)
    back = load_model(path)
    for w_a, w_b in zip(tiny_trained_model.classifier.weights, back.classifier.weights):
        assert np.array_equal(w_a, w_b)
    images, labels = make_band_images(50, seed=7)
    assert evaluate(back, images, labels) == evaluate(
        tiny_trained_model, images, labels
    )
    assert np.array_equal(back.predict(images), tiny_trained_model.predict(images))


def test_load_rejects_unknown_format_version(tmp_path, tiny_trained_model):
    path = tmp_path / "model.json"
    save_model(tiny_trained_model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_model(path)


def _saved_payload(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return path, json.loads(path.read_text())


def test_load_model_rejects_bad_weight_shapes(tmp_path, tiny_trained_model):
    path, payload = _saved_payload(tiny_trained_model, tmp_path)
    payload["classifier"]["weights"][0] = [[0.0, 1.0]]  # wrong shape for a 5-feature head
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("reservoir", "input_dim", 784),
        ("reservoir", "input_dim", 3),
        ("architecture", "n_classes", 9),
        ("classifier", "input_size", 6),
        ("classifier", "hidden_sizes", [4]),
        ("classifier", "output_size", 9),
    ],
)
def test_load_model_refuses_a_shape_its_architecture_does_not_have(
    tmp_path, tiny_trained_model, section, key, value
):
    """The architecture section alone gives the shape; every other size in
    the file must agree with it, with 785 inputs and with 10 classes."""
    path, payload = _saved_payload(tiny_trained_model, tmp_path)
    payload[section][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        load_model(path)


@pytest.mark.parametrize("key", ["z_min", "z_max"])
@pytest.mark.parametrize("length", [None, 4, 6])
def test_load_model_refuses_statistics_that_are_not_p_numbers(
    tmp_path, tiny_trained_model, key, length
):
    """Every model is trained, so its file holds P values of each statistic;
    a null (once written for an unfitted reservoir) or a list of another
    length is a bad file."""
    path, payload = _saved_payload(tiny_trained_model, tmp_path)
    payload["reservoir"][key] = None if length is None else [0.5] * length
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="z_min and z_max need 5 values each"):
        load_model(path)


def test_model_file_states_the_sizes_in_every_section(tmp_path, tiny_trained_model):
    """The sizes are written from the architecture and the two constants,
    in the key order the format has always had."""
    _, payload = _saved_payload(tiny_trained_model, tmp_path)
    arch = [("reservoir_size", 5), ("hidden_size", None), ("n_classes", 10)]
    assert list(payload["architecture"].items()) == arch
    assert list(payload["reservoir"])[:2] == ["method_id", "input_dim"]
    assert payload["reservoir"]["input_dim"] == 785
    head = [("input_size", 5), ("hidden_sizes", []), ("output_size", 10)]
    assert list(payload["classifier"].items())[:3] == head
