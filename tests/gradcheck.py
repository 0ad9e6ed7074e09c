"""Numeric reference for the classifier's analytic backprop.

Central differences of the mean cross-entropy loss, and the worst relative
disagreement between them and :meth:`Classifier.loss_and_gradients`.  The
product never differentiates numerically; the tests check the backprop
against these.
"""

import numpy as np

from chaosnet.network import Classifier, log_softmax


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under softmax."""
    logp = log_softmax(np.atleast_2d(logits))
    labels = np.atleast_1d(labels)
    return float(-logp[np.arange(labels.size), labels].mean())


def loss(model: Classifier, features: np.ndarray, labels: np.ndarray) -> float:
    return cross_entropy(model.logits(features), labels)


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
            hi = loss(model, features, labels)
            w[idx] = orig - epsilon
            lo = loss(model, features, labels)
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
