"""Model serving: embedded vs external-RPC, with versioned hot swap (§4.1).

The survey: "operators need to issue RPC calls to external ML frameworks
and model servers, adding both latency and complexity... the stream
processor can cover the needs for online training". Three pieces:

* :class:`ModelRegistry` — versioned weight snapshots with rollback (the
  §4.2 state-versioning requirement applied to models);
* :class:`EmbeddedTrainServeOperator` — trains and serves inside the
  operator: zero staleness, no RPC;
* :class:`RPCServingOperator` — scores via a modelled remote server whose
  weights refresh only on a push interval: each call pays network latency
  and predictions lag the freshest model (experiment E12 measures both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.events import Record
from repro.core.operators.base import Operator, OperatorContext
from repro.ml.features import FeatureVectorizer, OnlineStandardScaler
from repro.ml.sgd import OnlineLogisticRegression


@dataclass
class ModelVersion:
    version: int
    weights: np.ndarray
    created_at: float
    samples_seen: int


class ModelRegistry:
    """Versioned model store with hot swap and rollback."""

    def __init__(self) -> None:
        self._versions: list[ModelVersion] = []
        self._active: int | None = None

    def publish(self, weights: np.ndarray, created_at: float, samples_seen: int) -> ModelVersion:
        """Store a new immutable model version and activate it."""
        version = ModelVersion(
            version=len(self._versions) + 1,
            weights=np.asarray(weights, dtype=float).copy(),
            created_at=created_at,
            samples_seen=samples_seen,
        )
        self._versions.append(version)
        self._active = version.version
        return version

    def active(self) -> ModelVersion | None:
        """The currently-serving version (None before the first publish)."""
        if self._active is None:
            return None
        return self._versions[self._active - 1]

    def rollback(self, to_version: int) -> ModelVersion:
        """Re-activate an earlier version."""
        if not 1 <= to_version <= len(self._versions):
            raise ValueError(f"unknown model version {to_version}")
        self._active = to_version
        return self._versions[to_version - 1]

    @property
    def version_count(self) -> int:
        return len(self._versions)


@dataclass
class Prediction:
    value: dict
    probability: float
    predicted: int
    label: int | None
    model_version: int
    model_staleness: float  # seconds between model publish and scoring


class EmbeddedTrainServeOperator(Operator):
    """Score-then-train per event inside the dataflow (prequential eval).

    Publishing to the registry every ``publish_every`` samples versions the
    model; scoring always uses the live weights → zero staleness.
    """

    def __init__(
        self,
        vectorizer: FeatureVectorizer,
        label_of: Callable[[Any], int],
        registry: ModelRegistry | None = None,
        publish_every: int = 200,
        learning_rate: float = 0.05,
        scoring_cost: float = 2e-5,
        name: str = "train-serve",
    ) -> None:
        self.vectorizer = vectorizer
        self.label_of = label_of
        self.registry = registry or ModelRegistry()
        self.publish_every = publish_every
        self.scoring_cost = scoring_cost
        self._name = name
        self.model = OnlineLogisticRegression(vectorizer.dim, learning_rate=learning_rate)
        self.scaler = OnlineStandardScaler(vectorizer.dim)
        self.correct = 0
        self.total = 0

    @property
    def name(self) -> str:
        return self._name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        ctx.add_cost(self.scoring_cost)
        x = self.scaler.update_transform(self.vectorizer.vectorize(record.value))
        label = self.label_of(record.value)
        probability = self.model.predict_proba(x)
        predicted = 1 if probability >= 0.5 else 0
        self.total += 1
        if predicted == label:
            self.correct += 1
        # trained on the probability it was just scored with
        self.model.step(x, label, probability)
        if self.model.samples_seen % self.publish_every == 0:
            self.registry.publish(
                self.model.clone_weights(), ctx.processing_time(), self.model.samples_seen
            )
        active = self.registry.active()
        ctx.emit(
            record.with_value(
                Prediction(
                    value=record.value,
                    probability=probability,
                    predicted=predicted,
                    label=label,
                    model_version=active.version if active else 0,
                    model_staleness=0.0,
                )
            )
        )

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def snapshot_state(self) -> Any:
        # The scaler's running statistics are part of the model's effective
        # state: restoring weights without them would standardize replayed
        # features differently and diverge every post-recovery prediction.
        return (
            self.model.clone_weights(),
            self.model.samples_seen,
            self.correct,
            self.total,
            (self.scaler.count, self.scaler._mean.copy(), self.scaler._m2.copy()),
        )

    def restore_state(self, snapshot: Any) -> None:
        if snapshot is None:
            return
        if len(snapshot) == 4:  # pre-scaler snapshot layout
            weights, seen, correct, total = snapshot
            scaler_state = None
        else:
            weights, seen, correct, total, scaler_state = snapshot
        self.model.load_weights(weights)
        self.model.samples_seen = seen
        self.correct = correct
        self.total = total
        if scaler_state is not None:
            count, mean, m2 = scaler_state
            self.scaler.count = count
            self.scaler._mean = mean.copy()
            self.scaler._m2 = m2.copy()


class ExternalModelServer:
    """The remote model server: holds the weights last pushed to it."""

    def __init__(self, dim: int, rpc_latency: float = 2e-3) -> None:
        self.model = OnlineLogisticRegression(dim)
        self.rpc_latency = rpc_latency
        self.pushed_at = 0.0
        self.pushed_version = 0
        self.calls = 0

    def push(self, weights: np.ndarray, now: float, version: int) -> None:
        """Replace the server's weights (the periodic model push)."""
        self.model.load_weights(weights)
        self.pushed_at = now
        self.pushed_version = version

    def score(self, x: np.ndarray) -> float:
        """Score a feature vector with the last-pushed weights."""
        self.calls += 1
        return self.model.predict_proba(x)


class RPCServingOperator(Operator):
    """Serving through an external server: every score is an RPC; training
    happens locally but reaches the server only every ``push_interval``
    virtual seconds — the architecture the survey says adds latency and
    staleness."""

    def __init__(
        self,
        vectorizer: FeatureVectorizer,
        label_of: Callable[[Any], int],
        server: ExternalModelServer,
        push_interval: float = 0.5,
        learning_rate: float = 0.05,
        name: str = "rpc-serve",
    ) -> None:
        self.vectorizer = vectorizer
        self.label_of = label_of
        self.server = server
        self.push_interval = push_interval
        self._name = name
        self.model = OnlineLogisticRegression(vectorizer.dim, learning_rate=learning_rate)
        self.scaler = OnlineStandardScaler(vectorizer.dim)
        self._last_push = 0.0
        self._version = 0
        self.correct = 0
        self.total = 0
        self.staleness_samples: list[float] = []

    @property
    def name(self) -> str:
        return self._name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        now = ctx.processing_time()
        x = self.scaler.update_transform(self.vectorizer.vectorize(record.value))
        label = self.label_of(record.value)
        # The RPC round-trip is paid on the event's critical path.
        ctx.add_cost(self.server.rpc_latency)
        probability = self.server.score(x)
        predicted = 1 if probability >= 0.5 else 0
        self.total += 1
        if predicted == label:
            self.correct += 1
        # the server scored with pushed weights; training needs the local ones
        self.model.step(x, label, self.model.predict_proba(x))
        if now - self._last_push >= self.push_interval:
            self._version += 1
            self.server.push(self.model.clone_weights(), now, self._version)
            self._last_push = now
        self.staleness_samples.append(now - self.server.pushed_at)
        ctx.emit(
            record.with_value(
                Prediction(
                    value=record.value,
                    probability=probability,
                    predicted=predicted,
                    label=label,
                    model_version=self.server.pushed_version,
                    model_staleness=now - self.server.pushed_at,
                )
            )
        )

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def mean_staleness(self) -> float:
        if not self.staleness_samples:
            return 0.0
        return sum(self.staleness_samples) / len(self.staleness_samples)
