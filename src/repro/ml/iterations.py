"""Bulk-synchronous iterations (survey §4.2 Loops & Cycles).

"Synchronous loops are paramount for bulk iterative algorithms used in
machine learning (e.g., Stochastic Gradient Descent)." The driver runs
supersteps over partitioned data with a barrier between steps (Bulk
Synchronous Parallel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.sgd import OnlineLogisticRegression


@dataclass
class IterationReport:
    supersteps: int
    losses: list[float] = field(default_factory=list)
    converged: bool = False


class BulkIterationDriver:
    """Synchronous iterations: every partition computes a gradient, a
    barrier averages them, the model advances one superstep."""

    def __init__(
        self,
        partitions: list[tuple[np.ndarray, np.ndarray]],
        dim: int,
        learning_rate: float = 0.5,
    ) -> None:
        if not partitions:
            raise ValueError("need at least one data partition")
        self.partitions = partitions
        self.model = OnlineLogisticRegression(dim, learning_rate=learning_rate)

    def run(self, max_supersteps: int = 100, tolerance: float = 1e-4) -> IterationReport:
        """Iterate supersteps until convergence or ``max_supersteps``."""
        report = IterationReport(supersteps=0)
        previous_loss = float("inf")
        for _step in range(max_supersteps):
            gradients = []
            losses = []
            for xs, ys in self.partitions:
                z = np.clip(xs @ self.model.weights, -35.0, 35.0)
                p = 1.0 / (1.0 + np.exp(-z))
                eps = 1e-12
                losses.append(
                    float(np.mean(-(ys * np.log(p + eps) + (1 - ys) * np.log(1 - p + eps))))
                )
                gradients.append(xs.T @ (p - ys) / len(ys))
            # Barrier: the gradients are averaged once every partition's is in.
            gradient = np.mean(gradients, axis=0) + self.model.l2 * self.model.weights
            self.model.weights -= self.model.learning_rate * gradient
            loss = float(np.mean(losses))
            report.losses.append(loss)
            report.supersteps += 1
            if abs(previous_loss - loss) < tolerance:
                report.converged = True
                break
            previous_loss = loss
        return report


def make_separable_dataset(
    n: int, dim: int, seed: int = 0, noise: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """A linearly separable (plus noise) binary dataset for iteration tests."""
    rng = np.random.default_rng(seed)
    true_weights = rng.normal(size=dim)
    xs = rng.normal(size=(n, dim))
    logits = xs @ true_weights + rng.normal(scale=noise, size=n)
    ys = (logits > 0).astype(float)
    return xs, ys


def partition_dataset(
    xs: np.ndarray, ys: np.ndarray, parts: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split (xs, ys) into ``parts`` roughly equal partitions."""
    indices = np.array_split(np.arange(len(xs)), parts)
    return [(xs[idx], ys[idx]) for idx in indices]
