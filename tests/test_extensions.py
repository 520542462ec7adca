"""Extensions beyond the core path: A-SGD baseline and named-array checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.models import MLP, create_model
from repro.optim import ASGD, SGD, StalenessModel
from repro.utils.rng import RandomState
from repro.utils.serialization import load_arrays, save_arrays

rng = RandomState(55, name="extensions-tests")


class TestASGD:
    def _quadratic_gradient(self, w, target):
        return w - target

    def test_staleness_model_defaults_and_validation(self):
        model = StalenessModel(num_workers=4)
        assert model.expected_staleness == 3.0
        with pytest.raises(ConfigurationError):
            StalenessModel(num_workers=0)
        with pytest.raises(ConfigurationError):
            StalenessModel(num_workers=2, expected_staleness=-1.0)

    def test_zero_staleness_reads_latest_model(self):
        asgd = ASGD(np.zeros(3, dtype=np.float32), 1, staleness=StalenessModel(1, 0.0))
        asgd.apply_gradient(np.ones(3, dtype=np.float32))
        snapshot = asgd.snapshot_for_worker()
        np.testing.assert_allclose(snapshot, asgd.center)

    def test_gradient_shape_validated(self):
        asgd = ASGD(np.zeros(3, dtype=np.float32), 2)
        with pytest.raises(ConfigurationError):
            asgd.apply_gradient(np.ones(5, dtype=np.float32))

    def test_asgd_converges_without_staleness(self):
        target = np.full(4, 2.0, dtype=np.float32)
        asgd = ASGD(
            np.zeros(4, dtype=np.float32), 1, learning_rate=0.2, staleness=StalenessModel(1, 0.0)
        )
        for _ in range(100):
            snapshot = asgd.snapshot_for_worker()
            asgd.apply_gradient(self._quadratic_gradient(snapshot, target))
        np.testing.assert_allclose(asgd.center, target, atol=0.05)

    def test_staleness_slows_convergence(self):
        """The §2.3 claim: stale gradients reduce statistical efficiency."""
        target = np.full(6, 3.0, dtype=np.float32)

        def distance_after(expected_staleness, steps=60):
            asgd = ASGD(
                np.zeros(6, dtype=np.float32),
                num_workers=8,
                learning_rate=0.3,
                staleness=StalenessModel(8, expected_staleness, jitter=0.0),
                seed=1,
            )
            for _ in range(steps):
                snapshot = asgd.snapshot_for_worker()
                asgd.apply_gradient(self._quadratic_gradient(snapshot, target))
            return float(np.linalg.norm(asgd.center - target))

        assert distance_after(12.0) > distance_after(0.0)

    def test_observed_staleness_is_tracked(self):
        asgd = ASGD(np.zeros(2, dtype=np.float32), 4, staleness=StalenessModel(4, 2.0, jitter=0.0))
        for _ in range(20):
            snapshot = asgd.snapshot_for_worker()
            asgd.apply_gradient(snapshot * 0.0)
        assert asgd.updates_applied == 20
        assert asgd.mean_observed_staleness() > 0.0


class TestCheckpointing:
    def test_round_trip_parameters_buffers_and_metadata(self, tmp_path):
        model = create_model("resnet32-scaled", rng=RandomState(4))
        # Touch a batch-norm buffer so the checkpoint carries non-trivial state.
        next(iter(dict(model.named_buffers()).values()))[...] = 0.5
        path = save_arrays(
            tmp_path / "ckpt.npz", model.state_dict(), metadata={"epoch": 7, "lr": 0.01}
        )

        fresh = create_model("resnet32-scaled", rng=RandomState(9))
        assert not np.allclose(fresh.parameter_vector(), model.parameter_vector())
        arrays, metadata = load_arrays(path)
        fresh.load_state_dict(arrays)
        np.testing.assert_allclose(fresh.parameter_vector(), model.parameter_vector())
        assert metadata == {"epoch": 7, "lr": 0.01}
        restored_buffer = next(iter(dict(fresh.named_buffers()).values()))
        np.testing.assert_allclose(restored_buffer, 0.5)

    def test_checkpoint_without_metadata(self, tmp_path):
        model = MLP(input_dim=4, num_classes=2, hidden_sizes=(3,), rng=rng)
        path = save_arrays(tmp_path / "plain.npz", model.state_dict())
        _, metadata = load_arrays(path)
        assert metadata == {}

    def test_checkpoint_resumes_training_identically(self, tmp_path):
        model = MLP(input_dim=6, num_classes=3, hidden_sizes=(5,), rng=RandomState(2))
        save_arrays(tmp_path / "start.npz", model.state_dict())
        data = rng.normal(size=(32, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=32)

        def train_steps(m, steps=5):
            from repro.nn import CrossEntropyLoss
            from repro.tensor import Tensor

            optimizer = SGD(m, learning_rate=0.05, momentum=0.0)
            loss_fn = CrossEntropyLoss()
            for _ in range(steps):
                optimizer.zero_grad()
                loss = loss_fn(m(Tensor(data)), labels)
                loss.backward()
                optimizer.step()
            return m.parameter_vector()

        first = train_steps(model)
        restored = MLP(input_dim=6, num_classes=3, hidden_sizes=(5,), rng=RandomState(8))
        restored.load_state_dict(load_arrays(tmp_path / "start.npz")[0])
        second = train_steps(restored)
        np.testing.assert_allclose(first, second, atol=1e-5)

    @pytest.mark.parametrize(
        "name", ["ckpt", "ckpt.npz", "ckpt.tmp", "run.v1.tmp", ".npz"]
    )
    def test_returned_path_matches_written_file(self, tmp_path, name):
        """save_arrays must return the exact file NumPy wrote, for any suffix."""
        model = MLP(input_dim=4, num_classes=2, hidden_sizes=(3,), rng=rng)
        returned = save_arrays(tmp_path / name, model.state_dict(), metadata={"epoch": 1})
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [returned.name]
        assert returned.exists()
        # And the bare (pre-normalisation) path loads back transparently.
        _, metadata = load_arrays(tmp_path / name)
        assert metadata == {"epoch": 1}

    def test_missing_metadata_key_raises_checkpoint_error(self, tmp_path):
        model = MLP(input_dim=4, num_classes=2, hidden_sizes=(3,), rng=rng)
        path = save_arrays(tmp_path / "meta.npz", model.state_dict(), metadata={"epoch": 3})
        _, metadata = load_arrays(path, required_metadata=("epoch",))
        assert metadata["epoch"] == 3
        with pytest.raises(CheckpointError, match="sma_restarts"):
            load_arrays(path, required_metadata=("epoch", "sma_restarts"))

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_arrays(tmp_path / "absent.npz")

    def test_reserved_metadata_key_is_rejected(self, tmp_path):
        arrays = {"w": np.zeros(2, dtype=np.float32), "__metadata_json__": np.zeros(1)}
        with pytest.raises(CheckpointError, match="reserved"):
            save_arrays(tmp_path / "clash.npz", arrays)
        assert list(tmp_path.iterdir()) == []

