"""Losses, the optimiser, Sequential and Trainer."""

import os

import numpy as np
import pytest

from repro.errors import ArtifactError, ShapeError, TrainingError
from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Dense,
    ReLU,
    Sequential,
    Trainer,
    evaluate_accuracy,
)
from repro.nn.losses import softmax


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(5, 10)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0]])
        loss, _ = CrossEntropyLoss()(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient_numeric(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        loss_fn = CrossEntropyLoss()
        _, grad = loss_fn(logits.copy(), labels)
        eps = 1e-6
        i, j = 1, 2
        up = logits.copy(); up[i, j] += eps
        down = logits.copy(); down[i, j] -= eps
        numeric = (loss_fn(up, labels)[0] - loss_fn(down, labels)[0]) / (2 * eps)
        assert grad[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_cross_entropy_label_validation(self):
        with pytest.raises(TrainingError):
            CrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 5]))


class TestOptimisers:
    def _quadratic_param(self):
        from repro.nn.layers import Parameter

        return Parameter("x", np.array([5.0, -3.0]))

    def test_adam_converges(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            p.grad += 2 * p.value
            opt.step()
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_weight_decay_shrinks(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        opt.step()  # zero gradient, decay only
        assert np.all(np.abs(p.value) < np.array([5.0, 3.0]))

    def test_validation(self):
        with pytest.raises(TrainingError):
            Adam([], lr=0.0)
        with pytest.raises(TrainingError):
            Adam([], lr=1e-3, betas=(1.0, 0.9))


class TestSequential:
    def test_forward_composition(self, rng):
        model = Sequential([Dense(4, 8), ReLU(), Dense(8, 2)])
        out = model(rng.random((3, 4)))
        assert out.shape == (3, 2)

    def test_parameter_count(self):
        model = Sequential([Dense(4, 8), ReLU(), Dense(8, 2)])
        assert model.parameter_count() == 4 * 8 + 8 + 8 * 2 + 2

    def test_save_load_round_trip(self, rng, tmp_path):
        model = Sequential([Dense(4, 3)], name="m")
        x = rng.random((2, 4))
        expected = model(x)
        path = str(tmp_path / "weights.npz")
        model.save(path)
        fresh = Sequential([Dense(4, 3)], name="m")
        fresh.load(path)
        assert np.allclose(fresh(x), expected)

    def test_load_rejects_wrong_shapes(self, tmp_path):
        model = Sequential([Dense(4, 3)])
        path = str(tmp_path / "w.npz")
        model.save(path)
        other = Sequential([Dense(4, 5)])
        with pytest.raises(ShapeError):
            other.load(path)

    def test_load_corrupt_archive_raises_artifact_error(self, tmp_path):
        path = str(tmp_path / "w.npz")
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 truncated, not a real archive")
        with pytest.raises(ArtifactError):
            Sequential([Dense(4, 3)]).load(path)

    def test_load_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            Sequential([Dense(4, 3)]).load(str(tmp_path / "absent.npz"))

    def test_save_is_atomic_no_temp_litter(self, tmp_path):
        model = Sequential([Dense(4, 3)])
        path = str(tmp_path / "w.npz")
        model.save(path)
        model.save(path)  # overwrite in place
        assert os.listdir(tmp_path) == ["w.npz"]
        fresh = Sequential([Dense(4, 3)])
        fresh.load(path)  # still a readable archive

    def test_predict_batched_matches_full(self, rng):
        model = Sequential([Dense(4, 3)])
        x = rng.random((10, 4))
        assert np.array_equal(model.predict(x), model.predict(x, batch_size=3))

    def test_empty_model_rejected(self):
        with pytest.raises(ShapeError):
            Sequential([])


class TestTrainer:
    def _toy_problem(self, rng, n=400):
        """Two Gaussian blobs, linearly separable."""
        x = np.concatenate([
            rng.normal(0.25, 0.08, (n // 2, 4)),
            rng.normal(0.75, 0.08, (n // 2, 4)),
        ])
        y = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        return x, y

    def test_learns_separable_problem(self, rng):
        x, y = self._toy_problem(rng)
        model = Sequential([Dense(4, 2)])
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), batch_size=32)
        history = trainer.fit(x, y, epochs=10)
        assert history.train_accuracy[-1] > 0.95

    def test_history_tracks_validation(self, rng):
        x, y = self._toy_problem(rng)
        model = Sequential([Dense(4, 2)])
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05))
        history = trainer.fit(x, y, epochs=3, x_val=x, labels_val=y)
        assert len(history.val_accuracy) == 3
        assert history.final_val_accuracy == history.val_accuracy[-1]

    def test_evaluate_accuracy(self, rng):
        x, y = self._toy_problem(rng)
        model = Sequential([Dense(4, 2)])
        acc = evaluate_accuracy(model, x, y)
        assert 0.0 <= acc <= 1.0

    def test_validation(self, rng):
        model = Sequential([Dense(4, 2)])
        with pytest.raises(TrainingError):
            Trainer(model, Adam(model.parameters()), batch_size=0)
        trainer = Trainer(model, Adam(model.parameters()))
        with pytest.raises(TrainingError):
            trainer.fit(rng.random((4, 4)), np.zeros(4, int), epochs=0)
