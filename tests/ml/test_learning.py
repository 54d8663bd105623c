"""Online learners, features, and iteration drivers."""

import numpy as np
import pytest

from repro.ml.features import FeatureVectorizer, OnlineStandardScaler, transaction_features
from repro.ml.iterations import (
    BulkIterationDriver,
    make_separable_dataset,
    partition_dataset,
)
from repro.ml.sgd import OnlineLinearRegression, OnlineLogisticRegression


class TestScaler:
    def test_converges_to_true_stats(self):
        rng = np.random.default_rng(0)
        scaler = OnlineStandardScaler(2)
        data = rng.normal(loc=[5.0, -3.0], scale=[2.0, 0.5], size=(3000, 2))
        for x in data:
            scaler.update(x)
        assert np.allclose(scaler.mean, [5.0, -3.0], atol=0.2)
        assert np.allclose(scaler.std, [2.0, 0.5], atol=0.1)

    def test_transform_standardizes(self):
        scaler = OnlineStandardScaler(1)
        for v in [0.0, 2.0, 4.0]:
            scaler.update(np.array([v]))
        z = scaler.transform(np.array([2.0]))
        assert abs(z[0]) < 1e-9

    def test_degenerate_dimension_safe(self):
        scaler = OnlineStandardScaler(1)
        for _ in range(10):
            scaler.update(np.array([7.0]))
        assert scaler.std[0] == 1.0  # no division by ~0


class TestVectorizer:
    def test_spec_extraction(self):
        vec = FeatureVectorizer([("a", lambda v: v["a"]), ("b2", lambda v: v["b"] * 2)])
        assert list(vec.vectorize({"a": 1, "b": 3})) == [1.0, 6.0]
        assert vec.names == ["a", "b2"]

    def test_transaction_features_shape(self):
        vec = transaction_features()
        x = vec.vectorize({"amount": 100.0, "country": "XX"})
        assert len(x) == vec.dim
        assert x[2] == 1.0  # foreign flag

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            FeatureVectorizer([])


class TestSGD:
    def test_linear_regression_learns_line(self):
        rng = np.random.default_rng(1)
        model = OnlineLinearRegression(2, learning_rate=0.05)
        true_w = np.array([2.0, -1.0])
        for _ in range(4000):
            x = rng.normal(size=2)
            model.partial_fit(x, float(x @ true_w))
        assert np.allclose(model.weights, true_w, atol=0.05)

    def test_logistic_learns_separable_data(self):
        xs, ys = make_separable_dataset(2000, 3, seed=2, noise=0.05)
        model = OnlineLogisticRegression(3, learning_rate=0.1)
        for x, y in zip(xs, ys):
            model.partial_fit(x, int(y))
        correct = sum(model.predict(x) == int(y) for x, y in zip(xs, ys))
        assert correct / len(ys) > 0.95

    def test_step_on_the_scored_probability_matches_partial_fit(self):
        xs, ys = make_separable_dataset(500, 4, seed=7, noise=0.2)
        fitted = OnlineLogisticRegression(4, learning_rate=0.1)
        stepped = OnlineLogisticRegression(4, learning_rate=0.1)
        for x, y in zip(xs, ys):
            fitted.partial_fit(x, int(y))
            stepped.step(x, int(y), stepped.predict_proba(x))
            assert np.array_equal(stepped.weights, fitted.weights)
        assert stepped.samples_seen == fitted.samples_seen == len(ys)

    def test_losses_returned(self):
        model = OnlineLogisticRegression(2)
        loss = model.partial_fit(np.array([1.0, 1.0]), 1)
        assert loss > 0

    def test_weights_clone_and_load(self):
        model = OnlineLogisticRegression(2)
        model.partial_fit(np.array([1.0, 0.0]), 1)
        weights = model.clone_weights()
        weights[0] = 99.0  # mutating the clone must not affect the model
        assert model.weights[0] != 99.0
        other = OnlineLogisticRegression(2)
        other.load_weights(model.weights)
        assert np.allclose(other.weights, model.weights)


class TestIterations:
    def make_partitions(self, parts=4):
        xs, ys = make_separable_dataset(800, 4, seed=3, noise=0.05)
        return partition_dataset(xs, ys, parts), 4

    def test_bulk_iteration_converges(self):
        partitions, dim = self.make_partitions()
        driver = BulkIterationDriver(partitions, dim, learning_rate=1.0)
        report = driver.run(max_supersteps=200, tolerance=2e-4)
        assert report.converged
        assert report.losses[-1] < report.losses[0] / 2

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            BulkIterationDriver([], 2)
