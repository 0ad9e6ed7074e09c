"""Trainable feedforward classifier on top of the fixed reservoir.

Architectures are input:output or input:hidden:output with sigmoid hidden
units and a softmax output trained by cross-entropy SGD.  Training fits
the per-neuron min/max of the fixed reservoir's pre-activations and these
dense layers; :class:`NetworkModel` holds both.  Bias terms are carried as
an extra trailing weight column against a constant 1 appended to each
layer input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from chaosnet.files import write_atomic
from chaosnet.maps import MapParams
from chaosnet.mnist import N_CLASSES, IdxImages
from chaosnet.reservoir import (
    INPUT_DIM, FillMethod, Reservoir, ReservoirConfig, image_chunks, sigmoid,
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
    """784:P:10 or 784:P:H:10 shape of the trainable part.

    The P reservoir features feed an optional sigmoid hidden layer of
    ``hidden_size`` units and a softmax output over the N_CLASSES digits.
    """

    reservoir_size: int
    hidden_size: int | None = None

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {self.reservoir_size}")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1 when present, got {self.hidden_size}")

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return () if self.hidden_size is None else (self.hidden_size,)

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """(out, in + 1) for every trainable weight matrix."""
        dims = (self.reservoir_size, *self.hidden_sizes, N_CLASSES)
        return [(dims[i + 1], dims[i] + 1) for i in range(len(dims) - 1)]

    def describe(self) -> str:
        dims = (INPUT_DIM - 1, self.reservoir_size, *self.hidden_sizes, N_CLASSES)
        return ":".join(map(str, dims))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _augment(x: np.ndarray) -> np.ndarray:
    ones = np.ones((x.shape[0], 1), dtype=np.float64)
    return np.concatenate([x, ones], axis=1)


class Classifier:
    """Dense softmax classifier with zero or more sigmoid hidden layers."""

    def __init__(self, config: Architecture, rng: np.random.Generator | int | None = None):
        self.config = config
        rng = np.random.default_rng(rng)  # a Generator is returned as it is
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
        """The argmax label of every row, as an array (one label for one row)."""
        return self.logits(features).argmax(axis=1)

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
        learning_rate: float,
        batch_size: int,
        epochs: int,
        rng: np.random.Generator | int | None,
    ) -> list[float]:
        """Mini-batch SGD; returns the mean training loss of each epoch."""
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        rng = np.random.default_rng(rng)  # a Generator is returned as it is
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
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _squash(z: np.ndarray, z_min: np.ndarray, z_max: np.ndarray) -> np.ndarray:
    """Rescale the pre-activations ``z`` in place to [0, 1] per neuron with
    the fitted statistics, then apply the sigmoid; a neuron whose fitted span
    is not positive maps to 0 (sigmoid 0.5)."""
    span = z_max - z_min
    live = span > 0
    z -= z_min
    z /= np.where(live, span, 1.0)
    z[..., ~live] = 0.0
    return sigmoid(z)


class NetworkModel:
    """Trained artifact: reservoir config + normalization stats (the P
    training minima ``z_min`` and maxima ``z_max``) + head weights."""

    def __init__(self, reservoir: Reservoir, z_min, z_max, classifier: Classifier,
                 training_meta: dict | None = None):
        if not isinstance(reservoir, Reservoir):
            raise TypeError("reservoir must be a Reservoir instance")
        p = reservoir.config.reservoir_size
        if classifier.config.reservoir_size != p:
            raise ValueError("classifier and reservoir disagree on P")
        self.z_min = np.asarray(z_min, dtype=np.float64)
        self.z_max = np.asarray(z_max, dtype=np.float64)
        shapes = self.z_min.shape, self.z_max.shape
        if shapes != ((p,), (p,)):
            raise ValueError(f"z_min and z_max need {p} values each, got shapes {shapes}")
        self.reservoir = reservoir
        self.classifier = classifier
        self.training_meta = dict(training_meta or {})

    @property
    def architecture(self) -> Architecture:
        return self.classifier.config

    def features(self, inputs: np.ndarray, mode: str = "materialized") -> np.ndarray:
        """Reservoir outputs for one 785-vector, (N, 785) rows or (N, 28, 28)
        uint8 images, projected in one piece by :meth:`Reservoir.preactivation`
        and squashed with the fitted statistics."""
        return _squash(self.reservoir.preactivation(inputs, mode), self.z_min, self.z_max)

    def predict(self, inputs, mode: str = "materialized") -> np.ndarray:
        """The argmax label of every input, as an array (one label for one input).

        A vector or (N, 785) rows are scored in one pass.  An (N, 28, 28)
        image stack, or an :class:`~chaosnet.mnist.IdxImages`, is scored one
        block of :func:`_preactivations` at a time: the block is squashed and
        passed through the head, and only its labels are kept, so no N-sized
        float array is held and a streamed stack makes no extra orbit passes.
        """
        if not isinstance(inputs, IdxImages) and np.ndim(inputs) != 3:
            return self.classifier.predict(self.features(inputs, mode))
        labels = np.empty(len(inputs), dtype=np.intp)
        for start, stop, z in _preactivations(self.reservoir, inputs, mode):
            labels[start:stop] = self.classifier.predict(_squash(z, self.z_min, self.z_max))
            del z  # freed before the next block is projected
        return labels


def _preactivations(reservoir: Reservoir, images, mode: str):
    """``(start, stop, W @ Y)`` for each block of
    :func:`~chaosnet.reservoir.image_chunks` (len(images), ``mode``), in order:
    the one loop that cuts image stacks.  An array of images or rows is
    sliced; an :class:`~chaosnet.mnist.IdxImages` is read from its file one
    block at a time.  Each block is projected in one piece."""
    bounds = image_chunks(len(images), mode)
    if isinstance(images, IdxImages):
        blocks = images.blocks(bounds)
    else:
        blocks = (images[start:stop] for start, stop in bounds)
    for (start, stop), block in zip(bounds, blocks):
        yield start, stop, reservoir.preactivation(block, mode)


def train(
    images,
    labels: np.ndarray,
    architecture: Architecture,
    reservoir_config,
    train_config: TrainConfig = TrainConfig(),
    mode: str = "materialized",
) -> NetworkModel:
    """Project the dataset, fit normalization stats, train the head by SGD.

    ``images`` are N = len(labels) (N, 28, 28) uint8 grids, (N, 785) rows or
    the :class:`~chaosnet.mnist.IdxImages` of an IDX file, so a caller reading
    them from a file never holds the stack; another N raises ValueError.  The
    blocks of :func:`_preactivations` fill one N x P array of
    pre-activations; the statistics are read from it, and it is then
    squashed in place, so only N x P floats are held.  Deterministic given
    ``train_config.rng_seed``: one generator drives both weight init and
    batch shuffling.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("training dataset is empty")
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images need as many labels, got {len(labels)}")
    if reservoir_config.reservoir_size != architecture.reservoir_size:
        raise ValueError("reservoir config and architecture disagree on P")
    reservoir = Reservoir(reservoir_config)
    z = np.empty((len(labels), architecture.reservoir_size), dtype=np.float64)
    for start, stop, block in _preactivations(reservoir, images, mode):
        z[start:stop] = block
        del block  # freed before the next block is projected
    z_min, z_max = z.min(axis=0), z.max(axis=0)
    features = _squash(z, z_min, z_max)

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
    return NetworkModel(reservoir, z_min, z_max, classifier, meta)


def evaluate(model: NetworkModel, images: np.ndarray, labels: np.ndarray,
             mode: str = "materialized") -> float:
    """Fraction of argmax predictions matching ``labels`` on ``images``, an
    (N, 28, 28) uint8 array or the :class:`IdxImages` of a file, scored chunk
    by chunk by :meth:`NetworkModel.predict` without an N-sized float array;
    one label per image, or a ValueError."""
    labels = np.asarray(labels)
    if labels.shape != (len(images),):
        raise ValueError(f"{len(images)} images need as many labels, got {labels.size} "
                         f"in shape {labels.shape}")
    if labels.size == 0:
        raise ValueError("evaluation dataset is empty")
    predictions = model.predict(images, mode)
    return float((predictions == labels).mean())


def save_model(model: NetworkModel, path) -> None:
    """Decimal-text serialization, written whole or not at all; floats round-trip value-exact."""
    reservoir, arch = model.reservoir, model.architecture
    params = reservoir.config.params
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": {
            "reservoir_size": arch.reservoir_size,
            "hidden_size": arch.hidden_size,
            "n_classes": N_CLASSES,
        },
        "reservoir": {
            "method_id": reservoir.config.method.id,
            "input_dim": INPUT_DIM,
            "params": {
                "a1": params.a1, "a2": params.a2, "a3": params.a3, "a4": params.a4,
                "A": params.A, "B": params.B,
            },
            "z_min": model.z_min.tolist(),
            "z_max": model.z_max.tolist(),
        },
        "classifier": {
            "input_size": arch.reservoir_size,
            "hidden_sizes": list(arch.hidden_sizes),
            "output_size": N_CLASSES,
            "weights": [w.tolist() for w in model.classifier.weights],
        },
        "training_meta": model.training_meta,
    }
    write_atomic(path, json.dumps(payload, indent=1))


def load_model(path) -> NetworkModel:
    """The model :func:`save_model` wrote, shaped by its architecture section
    alone; a ValueError refuses any other size in the file that disagrees
    with that shape, with INPUT_DIM or with N_CLASSES, and statistics that
    are not P numbers each."""
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    section, res_payload = payload["architecture"], payload["reservoir"]
    head = payload["classifier"]
    arch = Architecture(section["reservoir_size"], section["hidden_size"])
    stated = {
        "reservoir.input_dim": (res_payload["input_dim"], INPUT_DIM),
        "architecture.n_classes": (section["n_classes"], N_CLASSES),
        "classifier.input_size": (head["input_size"], arch.reservoir_size),
        "classifier.hidden_sizes": (head["hidden_sizes"], list(arch.hidden_sizes)),
        "classifier.output_size": (head["output_size"], N_CLASSES),
    }
    for key, (found, expected) in stated.items():
        if found != expected:
            raise ValueError(f"{key} is {found!r}, not {expected!r} as in {arch.describe()}")
    weights = [np.asarray(w, dtype=np.float64) for w in head["weights"]]
    shapes = [w.shape for w in weights]
    if shapes != arch.layer_shapes:
        raise ValueError(f"weight shapes {shapes} do not match {arch.layer_shapes}")
    config = ReservoirConfig(
        method=FillMethod.from_id(res_payload["method_id"]),
        params=MapParams(**res_payload["params"]),
        reservoir_size=arch.reservoir_size,
    )
    classifier = Classifier(arch, rng=0)
    classifier.weights = weights
    return NetworkModel(Reservoir(config), res_payload["z_min"], res_payload["z_max"],
                        classifier, payload.get("training_meta"))


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
    "TrainingDivergedError",
    "DEFAULT_LEARNING_RATE",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_EPOCHS",
]
