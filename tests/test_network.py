"""Softmax head, backprop gradients, SGD training loop, model persistence."""

import math

import numpy as np
import pytest

from chaosnet.network import (
    Architecture,
    Classifier,
    TrainConfig,
    TrainingDivergedError,
    cross_entropy,
    evaluate,
    gradient_check,
    load_model,
    log_softmax,
    numeric_gradients,
    save_model,
    train,
)
from chaosnet.reservoir import FillMethod, ReservoirConfig

from conftest import STABLE_PARAMS, make_balanced_band_images, make_band_images


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
    """Explicit weights, two features, three classes, worked by hand."""
    clf = Classifier(Architecture(2, n_classes=3), rng=0)
    # rows = classes, columns = [w_feature1, w_feature2, bias]
    clf.weights = [
        np.array(
            [
                [1.0, -1.0, 0.5],
                [0.0, 2.0, -0.5],
                [-1.5, 0.5, 0.0],
            ]
        )
    ]
    features = np.array([[0.3, 0.7]])
    z = [
        1.0 * 0.3 - 1.0 * 0.7 + 0.5,  # 0.1
        0.0 * 0.3 + 2.0 * 0.7 - 0.5,  # 0.9
        -1.5 * 0.3 + 0.5 * 0.7 + 0.0,  # -0.1
    ]
    denom = sum(math.exp(v) for v in z)
    expected = [math.exp(v) / denom for v in z]
    assert np.allclose(np.exp(log_softmax(clf.logits(features)))[0], expected, atol=1e-12)
    assert clf.predict(features)[0] == 1
    assert clf.loss(features, np.array([1])) == pytest.approx(
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
    clf = Classifier(Architecture(2, n_classes=3), rng=0)
    clf.weights = [np.zeros((3, 3))]
    clf.weights[0][1, 2] = 50.0  # huge bias drives class 1 probability to ~1
    _, grads = clf.loss_and_gradients(np.array([[0.2, 0.4]]), np.array([1]))
    assert max(float(np.abs(g).max()) for g in grads) < 1e-10


def test_numeric_gradients_shapes_match_weights():
    clf = Classifier(Architecture(3, 2, 4), rng=1)
    rng = np.random.default_rng(6)
    grads = numeric_gradients(clf, rng.random((5, 3)), rng.integers(0, 4, size=5))
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
    with pytest.raises(ValueError):
        Architecture(10, n_classes=1)


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
    import json

    path = tmp_path / "model.json"
    save_model(tiny_trained_model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_model(path)


def test_classifier_from_dict_rejects_bad_shapes():
    clf = Classifier(Architecture(3, n_classes=4), rng=0)
    payload = clf.to_dict()
    payload["weights"][0] = [[0.0, 1.0]]  # wrong shape for a 3-feature head
    with pytest.raises(ValueError):
        Classifier.from_dict(payload)
