"""Replica bank, fused step_matrix updates, and auto-tuner resize behaviour."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.engine import CrossbowConfig, CrossbowTrainer, ReplicaBank
from repro.errors import ConfigurationError, SchedulingError
from repro.models import create_model
from repro.optim import EASGD, EASGDConfig, SMA, SMAConfig
from repro.utils.rng import RandomState


def _model(seed: int = 3):
    return create_model("mlp", rng=RandomState(seed, name="bank-test"))


def _views(model, bank: ReplicaBank, row: int) -> bool:
    """Whether ``model``'s weights are a view of row ``row`` of the bank."""
    return np.shares_memory(model.parameter_vector(copy=False), bank.active_matrix()[row])


class TestModuleFlatStorage:
    def test_attach_preserves_values_and_aliases(self):
        model = _model()
        before = model.parameter_vector()
        flat = np.zeros(model.num_parameters(), dtype=np.float32)
        model.attach_parameter_storage(flat)
        np.testing.assert_array_equal(model.parameter_vector(), before)
        assert model.has_attached_storage()
        assert model.parameter_vector(copy=False) is flat
        for param in model.parameters():
            assert np.shares_memory(param.data, flat)
        # Writing the flat buffer is immediately visible through the parameters.
        flat += 1.0
        np.testing.assert_array_equal(model.parameter_vector(), before + 1.0)

    def test_load_parameter_vector_writes_through_storage(self):
        model = _model()
        flat = np.zeros(model.num_parameters(), dtype=np.float32)
        model.attach_parameter_storage(flat)
        target = np.arange(model.num_parameters(), dtype=np.float32)
        model.load_parameter_vector(target)
        np.testing.assert_array_equal(flat, target)
        np.testing.assert_array_equal(model.parameter_vector(), target)

    def test_detach_gives_private_memory(self):
        model = _model()
        flat = np.zeros(model.num_parameters(), dtype=np.float32)
        model.attach_parameter_storage(flat)
        values = model.parameter_vector()
        model.detach_parameter_storage()
        assert not model.has_attached_storage()
        flat += 100.0
        np.testing.assert_array_equal(model.parameter_vector(), values)

    def test_clone_of_attached_model_is_independent(self):
        model = _model()
        flat = np.zeros(model.num_parameters(), dtype=np.float32)
        model.attach_parameter_storage(flat)
        cloned = model.clone()
        assert not cloned.has_attached_storage()
        flat += 5.0
        assert not np.allclose(cloned.parameter_vector(), model.parameter_vector())

    def test_attach_rejects_wrong_size_or_dtype(self):
        model = _model()
        with pytest.raises(ValueError):
            model.attach_parameter_storage(np.zeros(model.num_parameters() + 1, dtype=np.float32))
        with pytest.raises(ValueError):
            model.attach_parameter_storage(np.zeros(model.num_parameters(), dtype=np.float64))

    def test_gradient_vector_into_preallocated_buffer(self):
        model = _model()
        out = np.full(model.num_parameters(), 7.0, dtype=np.float32)
        result = model.gradient_vector(out=out)
        assert result is out
        np.testing.assert_array_equal(out, np.zeros_like(out))  # grads are None
        with pytest.raises(ValueError):
            model.gradient_vector(out=np.zeros(model.num_parameters() + 1, dtype=np.float32))


class TestReplicaBank:
    def test_attach_makes_row_the_source_of_truth(self):
        model = _model()
        bank = ReplicaBank(model.num_parameters(), capacity=2)
        row = bank.attach(model)
        assert row == 0 and len(bank) == 1
        assert _views(model, bank, 0)
        bank.active_matrix()[0] += 2.5
        np.testing.assert_array_equal(model.parameter_vector(), bank.active_matrix()[0])

    def test_active_matrix_is_contiguous_view(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=4)
        for i in range(3):
            bank.attach(_model(seed=i + 1))
        active = bank.active_matrix()
        assert active.shape[0] == 3
        assert active.base is not None  # a view, not a copy
        assert active.flags["C_CONTIGUOUS"]

    def test_detach_swaps_last_row_into_hole(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=4)
        models = [_model(seed=i + 1) for i in range(3)]
        for model in models:
            bank.attach(model)
        middle_values = models[1].parameter_vector()
        last_values = models[2].parameter_vector()
        bank.detach(models[1])
        assert len(bank) == 2
        assert not models[1].has_attached_storage()
        # The evicted model keeps its weights.
        np.testing.assert_array_equal(models[1].parameter_vector(), middle_values)
        assert _views(models[2], bank, 1)
        np.testing.assert_array_equal(bank.active_matrix()[1], last_values)

    def test_detach_of_a_model_not_in_the_bank_raises(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=2)
        model = _model()
        bank.attach(model)
        with pytest.raises(SchedulingError):
            bank.detach(_model(seed=9))
        bank.detach(model)
        with pytest.raises(SchedulingError):
            bank.detach(model)  # already detached

    def test_pack_reorders_rows_to_match_learner_order(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=4)
        models = [_model(seed=i + 1) for i in range(3)]
        for model in models:
            bank.attach(model)
        values = [model.parameter_vector() for model in models]
        order = [models[2], models[0], models[1]]
        bank.pack(order)
        for row, model in enumerate(order):
            assert _views(model, bank, row)
            np.testing.assert_array_equal(bank.active_matrix()[row], model.parameter_vector())
        np.testing.assert_array_equal(bank.active_matrix()[0], values[2])

    def test_pack_in_current_order_keeps_every_view(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=4)
        models = [_model(seed=i + 1) for i in range(3)]
        for model in models:
            bank.attach(model)
        views = [model.parameter_vector(copy=False) for model in models]
        before = bank.active_matrix().copy()
        bank.pack(list(models))
        for model, view in zip(models, views):
            assert model.parameter_vector(copy=False) is view
        np.testing.assert_array_equal(bank.active_matrix(), before)

    def test_pack_rejects_wrong_replica_set(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=2)
        model = _model()
        bank.attach(model)
        with pytest.raises(SchedulingError):
            bank.pack([model, _model(9)])

    def test_grow_beyond_capacity_preserves_weights_and_views(self):
        bank = ReplicaBank(_model().num_parameters(), capacity=1)
        first = _model(seed=1)
        bank.attach(first)
        first_values = first.parameter_vector()
        second = _model(seed=2)
        bank.attach(second)  # forces reallocation
        assert bank.capacity >= 2
        np.testing.assert_array_equal(bank.active_matrix()[0], first_values)
        assert _views(first, bank, 0)
        assert _views(second, bank, 1)

    def test_attach_rejects_double_attach_and_size_mismatch(self):
        model = _model()
        bank = ReplicaBank(model.num_parameters(), capacity=2)
        bank.attach(model)
        with pytest.raises(SchedulingError):
            bank.attach(model)
        small = ReplicaBank(3, capacity=2)
        with pytest.raises(SchedulingError):
            small.attach(_model(5))


class TestStepMatrix:
    def _matrices(self, k: int, p: int, seed: int = 11):
        rng = np.random.default_rng(seed)
        center = rng.normal(size=p).astype(np.float32)
        weights = rng.normal(size=(k, p)).astype(np.float32)
        updates = (0.01 * rng.normal(size=(k, p))).astype(np.float32)
        return center, weights, updates

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sma_step_matrix_matches_step(self, momentum):
        k, p = 16, 257
        center, weights, _ = self._matrices(k, p)
        config = SMAConfig(momentum=momentum)
        loop = SMA(center, k, config)
        fused = SMA(center, k, config)
        current = weights.copy()
        matrix = weights.copy()
        for _ in range(5):
            current = np.stack(loop.step(list(current)))
            fused.step_matrix(matrix)
            np.testing.assert_allclose(matrix, current, atol=1e-6)
            np.testing.assert_allclose(fused.center, loop.center, atol=1e-6)
        assert fused.iteration == loop.iteration

    def test_sma_step_matrix_with_updates_matches_per_learner_loop(self):
        k, p = 8, 123
        center, weights, updates = self._matrices(k, p)
        reference = SMA(center, k, SMAConfig(momentum=0.9))
        fused = SMA(center, k, SMAConfig(momentum=0.9))
        # Reference: the trainer's historical per-learner sequence.
        expected = weights.copy()
        corrections = [reference.correction(expected[j]) for j in range(k)]
        for j in range(k):
            expected[j] = expected[j] - (updates[j] + corrections[j])
        reference.apply_corrections(corrections)
        matrix = weights.copy()
        fused.step_matrix(matrix, updates.copy())
        np.testing.assert_allclose(matrix, expected, atol=1e-6)
        np.testing.assert_allclose(fused.center, reference.center, atol=1e-6)

    def test_sma_step_matrix_respects_synchronisation_period(self):
        k, p = 4, 31
        center, weights, updates = self._matrices(k, p)
        sma = SMA(center, k, SMAConfig(synchronisation_period=3))
        matrix = weights.copy()
        sma.step_matrix(matrix, updates)  # iteration 0: no sync
        np.testing.assert_allclose(matrix, weights - updates, atol=1e-7)
        np.testing.assert_array_equal(sma.center, center)

    def test_sma_alpha_zero_freezes_center_and_replicas_diverge_freely(self):
        k, p = 3, 17
        center, weights, updates = self._matrices(k, p)
        sma = SMA(center, k, SMAConfig(momentum=0.9, alpha=0.0))
        matrix = weights.copy()
        for _ in range(4):
            sma.step_matrix(matrix, updates)
        np.testing.assert_array_equal(sma.center, center)  # bit-exact: no drift
        np.testing.assert_allclose(matrix, weights - 4 * updates, atol=1e-5)

    def test_easgd_step_matrix_matches_step(self):
        k, p = 16, 101
        center, weights, _ = self._matrices(k, p)
        loop = EASGD(center, k, EASGDConfig())
        fused = EASGD(center, k, EASGDConfig())
        current = weights.copy()
        matrix = weights.copy()
        for _ in range(5):
            current = np.stack(loop.step(list(current)))
            fused.step_matrix(matrix)
            np.testing.assert_allclose(matrix, current, atol=1e-6)
            np.testing.assert_allclose(fused.center, loop.center, atol=1e-6)

    def test_step_matrix_rejects_bad_shapes(self):
        sma = SMA(np.zeros(4, dtype=np.float32), 2)
        with pytest.raises(ConfigurationError):
            sma.step_matrix(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            sma.step_matrix(
                np.zeros((2, 4), dtype=np.float32), np.zeros((2, 5), dtype=np.float32)
            )

    def test_step_matrix_rejects_non_ndarray_weights(self):
        # A list of rows would be copied by asarray and the in-place update
        # lost, so it must be rejected loudly rather than silently ignored.
        sma = SMA(np.zeros(4, dtype=np.float32), 2)
        rows = [np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.float32)]
        with pytest.raises(ConfigurationError):
            sma.step_matrix(rows)
        easgd = EASGD(np.zeros(4, dtype=np.float32), 2)
        with pytest.raises(ConfigurationError):
            easgd.step_matrix(rows)


class TestAutoTunerResizeCycles:
    def _trainer(self, **overrides):
        base = dict(
            model_name="mlp",
            dataset_name="blobs",
            num_gpus=2,
            batch_size=16,
            replicas_per_gpu=1,
            max_replicas_per_gpu=4,
            max_epochs=1,
            dataset_overrides={"num_train": 256, "num_test": 128},
            seed=13,
        )
        base.update(overrides)
        return CrossbowTrainer(CrossbowConfig(**base))

    def _assert_consistent(self, trainer):
        active_ids = sorted(learner.slot.learner_id for learner in trainer.learners)
        assert len(set(active_ids)) == len(active_ids)
        # Scheduler tracks exactly the active learners — no stale entries.
        assert trainer.scheduler.registered_learner_ids() == active_ids
        # Bank rows are dense, in learner order, and are the live weights.
        assert len(trainer.replica_bank) == len(trainer.learners)
        for row, learner in enumerate(trainer.learners):
            assert _views(learner.model, trainer.replica_bank, row)
        assert trainer.synchroniser.num_replicas == len(trainer.learners)

    def test_grow_shrink_grow_cycle(self):
        trainer = self._trainer()
        assert len(trainer.learners) == 2
        self._assert_consistent(trainer)

        trainer._grow_learners()
        assert len(trainer.learners) == 4
        self._assert_consistent(trainer)

        trainer._shrink_learners()
        assert len(trainer.learners) == 2
        self._assert_consistent(trainer)

        trainer._grow_learners()
        assert len(trainer.learners) == 4
        self._assert_consistent(trainer)

    def test_shrink_removes_the_last_added_learner_on_each_gpu(self):
        trainer = self._trainer()
        trainer._grow_learners()
        trainer._grow_learners()
        # Learners in the order added: ids 0-1, then 2-3, then 4-5 (GPU 0, GPU 1).
        assert [learner.slot.gpu_id for learner in trainer.learners] == [0, 1] * 3
        trainer._shrink_learners()
        assert [learner.slot.learner_id for learner in trainer.learners] == [0, 1, 2, 3]
        trainer._shrink_learners()
        assert [learner.slot.learner_id for learner in trainer.learners] == [0, 1]

    def test_learner_ids_are_never_reused(self):
        trainer = self._trainer()
        trainer._grow_learners()
        trainer._shrink_learners()
        trainer._grow_learners()
        assert [learner.slot.learner_id for learner in trainer.learners] == [0, 1, 4, 5]
        assert trainer.scheduler.registered_learner_ids() == [0, 1, 4, 5]

    def test_traced_task_names_carry_the_learner_id(self):
        trainer = self._trainer(trace_tasks=True)
        trainer._grow_learners()
        trainer._shrink_learners()
        trainer._grow_learners()
        trainer.server.tracer.clear()
        trainer._train_epoch(epoch=0)
        slots = {learner.slot.learner_id: learner.slot for learner in trainer.learners}
        named = set()
        for event in trainer.server.tracer.by_kind("learning"):
            match = re.fullmatch(r"learn\[i=\d+,r=(\d+)\]", event.name)
            assert match is not None, event.name
            slot = slots[int(match.group(1))]
            assert (event.gpu_id, event.stream_id) == (slot.gpu_id, slot.stream_id)
            named.add(slot.learner_id)
        assert named == {0, 1, 4, 5}

    def test_oscillation_reuses_gpu_streams(self):
        trainer = self._trainer()
        trainer._grow_learners()
        streams_after_first_grow = {
            gpu.gpu_id: len(gpu.streams) for gpu in trainer.server.gpus
        }
        for _ in range(4):
            trainer._shrink_learners()
            trainer._grow_learners()
        for gpu in trainer.server.gpus:
            # Oscillation must not leak streams: retired ones are reused.
            assert len(gpu.streams) == streams_after_first_grow[gpu.gpu_id]
            assert len(gpu.learner_streams()) == 2

    def test_resize_preserves_center_bit_exact(self):
        trainer = self._trainer()
        trainer.train()  # move the centre away from initialisation
        for resize in (trainer._grow_learners, trainer._shrink_learners, trainer._grow_learners):
            before = trainer.central_model_vector()
            iteration_before = trainer.synchroniser.iteration
            resize()
            after = trainer.central_model_vector()
            np.testing.assert_array_equal(after, before)  # bit-exact
            assert trainer.synchroniser.iteration == iteration_before

    def test_new_learners_start_from_center_and_training_continues(self):
        trainer = self._trainer()
        trainer.train()
        center = trainer.central_model_vector()
        count_before = len(trainer.learners)
        trainer._grow_learners()
        for learner in trainer.learners[count_before:]:
            np.testing.assert_allclose(learner.model.parameter_vector(), center, atol=1e-7)
        # The engine keeps training correctly after the resize.
        result_loss = trainer._train_epoch(epoch=1)
        assert np.isfinite(result_loss)
        assert np.isfinite(trainer.evaluate())

    def test_autotuned_training_run_stays_consistent(self):
        trainer = self._trainer(
            num_gpus=1,
            auto_tune=True,
            auto_tune_interval=2,
            max_epochs=3,
        )
        trainer.train()
        self._assert_consistent(trainer)

    def test_restarts_survive_a_grow(self):
        trainer = self._trainer()
        trainer.synchroniser.restart()
        trainer._grow_learners()
        assert trainer.synchroniser.restarts == 1

    @pytest.mark.parametrize("synchronisation", ["sma", "easgd"])
    def test_center_weight_is_one_over_k_after_a_grow(self, synchronisation):
        trainer = self._trainer(synchronisation=synchronisation)
        attribute = "alpha" if synchronisation == "sma" else "elasticity"
        assert getattr(trainer.synchroniser, attribute) == 1.0 / 2
        trainer._grow_learners()
        assert getattr(trainer.synchroniser, attribute) == 1.0 / 4

    def test_easgd_resize_preserves_center_bit_exact(self):
        trainer = self._trainer(synchronisation="easgd")
        trainer.train()
        for resize in (trainer._grow_learners, trainer._shrink_learners):
            before = trainer.central_model_vector()
            iteration_before = trainer.synchroniser.iteration
            resize()
            np.testing.assert_array_equal(trainer.central_model_vector(), before)
            assert trainer.synchroniser.iteration == iteration_before
