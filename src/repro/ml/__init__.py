"""Streaming machine learning (survey §4.1): online training, versioned
serving, bulk-synchronous iterations."""

from repro.ml.features import FeatureVectorizer, OnlineStandardScaler, transaction_features
from repro.ml.iterations import (
    BulkIterationDriver,
    IterationReport,
    make_separable_dataset,
    partition_dataset,
)
from repro.ml.serving import (
    EmbeddedTrainServeOperator,
    ExternalModelServer,
    ModelRegistry,
    ModelVersion,
    Prediction,
    RPCServingOperator,
)
from repro.ml.sgd import OnlineLinearRegression, OnlineLogisticRegression

__all__ = [
    "BulkIterationDriver",
    "EmbeddedTrainServeOperator",
    "ExternalModelServer",
    "FeatureVectorizer",
    "IterationReport",
    "ModelRegistry",
    "ModelVersion",
    "OnlineLinearRegression",
    "OnlineLogisticRegression",
    "OnlineStandardScaler",
    "Prediction",
    "RPCServingOperator",
    "make_separable_dataset",
    "partition_dataset",
    "transaction_features",
]
