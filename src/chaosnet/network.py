"""Trainable feedforward classifier on top of the fixed reservoir.

Architectures are input:output or input:hidden:output with sigmoid hidden
units and a softmax output trained by cross-entropy SGD.  Only these dense
layers are trainable; the reservoir stage that produces the input features
is fixed.  Bias terms are carried as an extra trailing weight column
against a constant 1 appended to each layer input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from chaosnet.maps import MapParams

import numpy as np

from chaosnet.reservoir import (
    FillMethod,
    NotFittedError,
    Reservoir,
    ReservoirConfig,
    sigmoid,
)

DEFAULT_LEARNING_RATE = 0.1
DEFAULT_BATCH_SIZE = 64
DEFAULT_EPOCHS = 20
MODEL_FORMAT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; ``epoch`` is the 1-based epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite during epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class Architecture:
    """input:P:10 or input:P:H:10 shape of the trainable part.

    The P reservoir features feed an optional sigmoid hidden layer of
    ``hidden_size`` units and a softmax output over ``n_classes``.
    """

    reservoir_size: int
    hidden_size: int | None = None
    n_classes: int = 10

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {self.reservoir_size}")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1 when present, got {self.hidden_size}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return () if self.hidden_size is None else (self.hidden_size,)

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(out, in + 1) for every trainable weight matrix."""
        dims = (self.reservoir_size, *self.hidden_sizes, self.n_classes)
        return [(dims[i + 1], dims[i] + 1) for i in range(len(dims) - 1)]

    def describe(self, input_pixels: int = 784) -> str:
        if self.hidden_size is None:
            return f"{input_pixels}:{self.reservoir_size}:{self.n_classes}"
        return f"{input_pixels}:{self.reservoir_size}:{self.hidden_size}:{self.n_classes}"


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under softmax."""
    logp = log_softmax(np.atleast_2d(logits))
    labels = np.atleast_1d(labels)
    return float(-logp[np.arange(labels.size), labels].mean())


def _augment(x: np.ndarray) -> np.ndarray:
    ones = np.ones((x.shape[0], 1), dtype=np.float64)
    return np.concatenate([x, ones], axis=1)


class Classifier:
    """Dense softmax classifier with zero or more sigmoid hidden layers."""

    def __init__(self, config: Architecture, rng: np.random.Generator | int | None = None):
        self.config = config
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        self.weights: list[np.ndarray] = []
        for out, fan in config.layer_shapes:
            # uniform [-0.5, 0.5] scaled by 1/sqrt(fan-in), bias column included
            self.weights.append(rng.uniform(-0.5, 0.5, size=(out, fan)) / np.sqrt(fan))

    # -- forward ---------------------------------------------------------

    def _forward(self, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return output logits and the augmented input of every layer."""
        acts = np.asarray(features, dtype=np.float64)
        if acts.ndim == 1:
            acts = acts[None, :]
        if acts.shape[1] != self.config.reservoir_size:
            raise ValueError(
                f"expected {self.config.reservoir_size} input features, got {acts.shape[1]}"
            )
        layer_inputs = []
        for i, w in enumerate(self.weights):
            aug = _augment(acts)
            layer_inputs.append(aug)
            z = aug @ w.T
            acts = z if i == len(self.weights) - 1 else sigmoid(z)
        return acts, layer_inputs

    def logits(self, features: np.ndarray) -> np.ndarray:
        out, _ = self._forward(np.atleast_2d(np.asarray(features, dtype=np.float64)))
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        arr = np.asarray(features, dtype=np.float64)
        labels = self.logits(arr).argmax(axis=1)
        return int(labels[0]) if arr.ndim == 1 else labels

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        return cross_entropy(self.logits(features), labels)

    # -- gradients ---------------------------------------------------------

    def loss_and_gradients(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Mean cross-entropy and its gradient for every weight matrix."""
        labels = np.atleast_1d(np.asarray(labels))
        logits, layer_inputs = self._forward(features)
        m = labels.size
        logp = log_softmax(logits)
        loss = float(-logp[np.arange(m), labels].mean())

        delta = np.exp(logp)
        delta[np.arange(m), labels] -= 1.0
        delta /= m
        grads: list[np.ndarray] = [None] * len(self.weights)
        for i in range(len(self.weights) - 1, -1, -1):
            aug = layer_inputs[i]
            grads[i] = delta.T @ aug
            if i > 0:
                back = delta @ self.weights[i][:, :-1]  # drop the bias column
                hidden = aug[:, :-1]
                delta = back * hidden * (1.0 - hidden)
        return loss, grads

    # -- training ----------------------------------------------------------

    def train_sgd(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        batch_size: int = DEFAULT_BATCH_SIZE,
        epochs: int = DEFAULT_EPOCHS,
        rng: np.random.Generator | int | None = None,
    ) -> list[float]:
        """Mini-batch SGD; returns the mean training loss of each epoch."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        history: list[float] = []
        n = x.shape[0]
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                loss, grads = self.loss_and_gradients(x[idx], y[idx])
                total += loss * idx.size
                for w, g in zip(self.weights, grads):
                    w -= learning_rate * g
            mean_loss = total / n
            if not np.isfinite(mean_loss):
                raise TrainingDivergedError(epoch)
            history.append(mean_loss)
        return history

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "input_size": self.config.reservoir_size,
            "hidden_sizes": list(self.config.hidden_sizes),
            "output_size": self.config.n_classes,
            "weights": [w.tolist() for w in self.weights],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Classifier":
        hidden = payload["hidden_sizes"]  # more than one fails the shape check below
        config = Architecture(
            reservoir_size=int(payload["input_size"]),
            hidden_size=int(hidden[0]) if hidden else None,
            n_classes=int(payload["output_size"]),
        )
        model = cls(config, rng=0)
        weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
        shapes = [w.shape for w in weights]
        if shapes != [tuple(s) for s in config.layer_shapes]:
            raise ValueError(f"weight shapes {shapes} do not match config {config.layer_shapes}")
        model.weights = weights
        return model


def numeric_gradients(
    model: Classifier, features: np.ndarray, labels: np.ndarray, epsilon: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradient of the mean cross-entropy loss."""
    grads = []
    for w in model.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + epsilon
            hi = model.loss(features, labels)
            w[idx] = orig - epsilon
            lo = model.loss(features, labels)
            w[idx] = orig
            g[idx] = (hi - lo) / (2.0 * epsilon)
        grads.append(g)
    return grads


def gradient_check(
    model: Classifier, features: np.ndarray, labels: np.ndarray, epsilon: float = 1e-5
) -> float:
    """Worst relative disagreement between analytic and numeric gradients."""
    _, analytic = model.loss_and_gradients(features, labels)
    numeric = numeric_gradients(model, features, labels, epsilon)
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-8)
        worst = max(worst, float((np.abs(ga - gn) / denom).max()))
    return worst


# -- whole-model layer: fixed reservoir + trained head -------------------------


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = DEFAULT_EPOCHS
    learning_rate: float = DEFAULT_LEARNING_RATE
    batch_size: int = DEFAULT_BATCH_SIZE
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class NetworkModel:
    """Trained artifact: reservoir config + normalization stats + head weights."""

    def __init__(self, architecture: Architecture, reservoir: Reservoir,
                 classifier: Classifier, training_meta: dict | None = None):
        if not isinstance(reservoir, Reservoir):
            raise TypeError("reservoir must be a Reservoir instance")
        if classifier.config != architecture:
            raise ValueError("classifier does not match the architecture")
        self.architecture = architecture
        self.reservoir = reservoir
        self.classifier = classifier
        self.training_meta = dict(training_meta or {})

    def features(self, inputs: np.ndarray, mode: str = "materialized") -> np.ndarray:
        """Reservoir outputs for one 785-vector, (N, 785) rows or (N, 28, 28)
        uint8 images; materialized images are projected in chunks, never
        flattened as a whole (see :meth:`Reservoir.preactivation`)."""
        return self.reservoir.transform(inputs, mode)

    def predict(self, inputs: np.ndarray, mode: str = "materialized"):
        return self.classifier.predict(np.atleast_2d(self.features(inputs, mode)))


def train(
    images: np.ndarray,
    labels: np.ndarray,
    architecture: Architecture,
    reservoir_config,
    train_config: TrainConfig = TrainConfig(),
    mode: str = "materialized",
) -> NetworkModel:
    """Fit normalization stats, project the dataset, train the head by SGD.

    ``images`` are (N, 28, 28) uint8 grids.  They are projected once, by
    :meth:`Reservoir.fit_transform`, and only the N x P features are held
    in float.  Deterministic given ``train_config.rng_seed``: one generator
    drives both weight init and batch shuffling.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("training dataset is empty")
    if reservoir_config.reservoir_size != architecture.reservoir_size:
        raise ValueError("reservoir config and architecture disagree on P")
    reservoir = Reservoir(reservoir_config)
    features = reservoir.fit_transform(images, mode)

    rng = np.random.default_rng(train_config.rng_seed)
    classifier = Classifier(architecture, rng)
    history = classifier.train_sgd(
        features,
        labels,
        learning_rate=train_config.learning_rate,
        batch_size=train_config.batch_size,
        epochs=train_config.max_epochs,
        rng=rng,
    )
    for w in classifier.weights:
        if not np.isfinite(w).all():
            raise TrainingDivergedError(len(history) or 1)
    meta = {
        "epochs_run": len(history),
        "epoch_losses": history,
        "max_epochs": train_config.max_epochs,
        "learning_rate": train_config.learning_rate,
        "batch_size": train_config.batch_size,
        "rng_seed": train_config.rng_seed,
    }
    return NetworkModel(architecture, reservoir, classifier, meta)


def evaluate(model: NetworkModel, images: np.ndarray, labels: np.ndarray,
             mode: str = "materialized") -> float:
    """Fraction of argmax predictions matching ``labels`` on (N, 28, 28)
    uint8 ``images``, projected in chunks without a float copy of the stack."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("evaluation dataset is empty")
    predictions = model.predict(images, mode)
    return float((predictions == labels).mean())


def save_model(model: NetworkModel, path) -> None:
    """Decimal-text serialization; floats round-trip value-exact."""
    reservoir = model.reservoir
    params = reservoir.config.params
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": {
            "reservoir_size": model.architecture.reservoir_size,
            "hidden_size": model.architecture.hidden_size,
            "n_classes": model.architecture.n_classes,
        },
        "reservoir": {
            "method_id": reservoir.config.method.id,
            "input_dim": reservoir.config.input_dim,
            "params": {
                "a1": params.a1, "a2": params.a2, "a3": params.a3, "a4": params.a4,
                "A": params.A, "B": params.B,
            },
            "z_min": None if reservoir.z_min is None else reservoir.z_min.tolist(),
            "z_max": None if reservoir.z_max is None else reservoir.z_max.tolist(),
        },
        "classifier": model.classifier.to_dict(),
        "training_meta": model.training_meta,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)


def load_model(path) -> NetworkModel:
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    arch = Architecture(
        reservoir_size=payload["architecture"]["reservoir_size"],
        hidden_size=payload["architecture"]["hidden_size"],
        n_classes=payload["architecture"]["n_classes"],
    )
    res_payload = payload["reservoir"]
    config = ReservoirConfig(
        method=FillMethod.from_id(res_payload["method_id"]),
        params=MapParams(**res_payload["params"]),
        reservoir_size=arch.reservoir_size,
        input_dim=res_payload["input_dim"],
    )
    reservoir = Reservoir(config)
    if res_payload["z_min"] is not None:
        reservoir.set_statistics(res_payload["z_min"], res_payload["z_max"])
    classifier = Classifier.from_dict(payload["classifier"])
    return NetworkModel(arch, reservoir, classifier, payload.get("training_meta"))


__all__ = [
    "Classifier",
    "Architecture",
    "TrainConfig",
    "NetworkModel",
    "train",
    "evaluate",
    "save_model",
    "load_model",
    "log_softmax",
    "cross_entropy",
    "numeric_gradients",
    "gradient_check",
    "NotFittedError",
    "TrainingDivergedError",
    "DEFAULT_LEARNING_RATE",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_EPOCHS",
]
