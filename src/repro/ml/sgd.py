"""Online learners: SGD linear and logistic regression.

The survey (§4.1/§4.2 Loops) calls SGD the canonical workload needing
in-pipeline training. Pure NumPy, supporting per-event ``partial_fit`` for
online pipelines and mini-batch epochs for bulk-synchronous iteration.
"""

from __future__ import annotations

import numpy as np


class OnlineLinearRegression:
    """Least-squares regression trained by per-sample SGD."""

    def __init__(self, dim: int, learning_rate: float = 0.01, l2: float = 0.0) -> None:
        self.weights = np.zeros(dim)
        self.learning_rate = learning_rate
        self.l2 = l2
        self.samples_seen = 0

    def predict(self, x: np.ndarray) -> float:
        """Linear prediction for one feature vector."""
        return float(x @ self.weights)

    def partial_fit(self, x: np.ndarray, y: float) -> float:
        """One SGD step; returns the squared error before the update."""
        error = self.predict(x) - y
        gradient = error * x + self.l2 * self.weights
        self.weights -= self.learning_rate * gradient
        self.samples_seen += 1
        return float(error * error)

    def clone_weights(self) -> np.ndarray:
        """Detached copy of the weights (versioning)."""
        return self.weights.copy()


class OnlineLogisticRegression:
    """Binary classifier trained by per-sample SGD on log-loss."""

    def __init__(self, dim: int, learning_rate: float = 0.05, l2: float = 1e-4) -> None:
        self.weights = np.zeros(dim)
        self.learning_rate = learning_rate
        self.l2 = l2
        self.samples_seen = 0

    def predict_proba(self, x: np.ndarray) -> float:
        """P(y=1 | x) under the current weights."""
        z = float(x @ self.weights)
        z = max(-35.0, min(35.0, z))
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> int:
        """Thresholded class prediction."""
        return 1 if self.predict_proba(x) >= threshold else 0

    def step(self, x: np.ndarray, y: int, p: float) -> None:
        """One SGD step given ``p = predict_proba(x)`` under the current
        weights (a scorer that already holds it does not score twice)."""
        gradient = (p - y) * x + self.l2 * self.weights
        self.weights -= self.learning_rate * gradient
        self.samples_seen += 1

    def partial_fit(self, x: np.ndarray, y: int) -> float:
        """One SGD step; returns the log-loss before the update."""
        p = self.predict_proba(x)
        self.step(x, y, p)
        eps = 1e-12
        return float(-(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))

    def clone_weights(self) -> np.ndarray:
        """Detached copy of the weights (versioning)."""
        return self.weights.copy()

    def load_weights(self, weights: np.ndarray) -> None:
        """Replace the weights (hot swap / restore)."""
        self.weights = np.asarray(weights, dtype=float).copy()
