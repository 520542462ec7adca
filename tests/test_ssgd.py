"""The S-SGD baseline on the one training loop, against a hand-rolled S-SGD.

``CrossbowConfig(synchronisation="ssgd")`` runs the paper's baseline (§2.3,
Figure 1) as ``g`` learners on per-GPU batches and one fused step that
averages their gradient rows into a momentum-SGD update.  The reference here
is S-SGD as it is usually written: one model, each aggregate batch split by
``partition_batch``, the shards' gradients weighted by size, and
``optim.SGD`` with momentum and weight decay.  The bank and the centre must
match it bit for bit at every lane width (and over forked learners), and the
simulated clock must be the one ``schedule_ssgd_iteration`` gives.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data import BatchPipeline, create_dataset
from repro.data.sharding import partition_batch
from repro.engine import (
    CrossbowConfig,
    CrossbowTrainer,
    SchedulingPolicy,
    TaskScheduler,
    process_execution_supported,
)
from repro.engine import learner as learner_module
from repro.gpusim import cost_profile_for_model, titan_x_server
from repro.models import create_model
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD
from repro.optim.schedules import schedule_for_model
from repro.tensor.tensor import Tensor
from repro.utils.rng import RandomState

_RESNET = {"width_multiplier": 0.25, "blocks_per_stage": 1}
CASES = [pytest.param("mlp", "blobs", g, {}, 0.9, id=f"mlp-g{g}") for g in (1, 2, 4)]
CASES.append(pytest.param("mlp", "blobs", 2, {}, 0.0, id="mlp-g2-no-momentum"))
CASES.append(pytest.param("resnet32-scaled", "cifar10-scaled", 2, _RESNET, 0.9, id="resnet32-g2"))


def _config(model, dataset, num_gpus, model_overrides, momentum):
    return CrossbowConfig(
        model_name=model,
        dataset_name=dataset,
        num_gpus=num_gpus,
        batch_size=8,
        max_epochs=2,
        learning_rate=0.05,
        momentum=momentum,
        weight_decay=1e-3,
        dataset_overrides={"num_train": 96, "num_test": 32},
        model_overrides=model_overrides,
        synchronisation="ssgd",
        seed=11,
    )


def _hand_rolled_ssgd(config):
    """S-SGD on one model: partitioned aggregate batches, ``optim.SGD``, simulated clock."""
    rng = RandomState(config.seed, name="ssgd")
    dataset = create_dataset(config.dataset_name, **config.dataset_overrides)
    aggregate = config.batch_size * config.num_gpus
    pipeline = BatchPipeline(dataset, batch_size=aggregate, rng=rng.child("pipeline"))
    model = create_model(config.model_name, rng=rng.child("model"), **config.model_overrides)
    optimizer = SGD(model, config.learning_rate, config.momentum, config.weight_decay)
    schedule = schedule_for_model(config.model_name, base_rate=config.learning_rate)
    server = titan_x_server(config.num_gpus)
    for gpu in server.gpus:
        gpu.add_learner_stream()
    scheduler = TaskScheduler(
        server, cost_profile_for_model(config.model_name), policy=SchedulingPolicy.LOCKSTEP
    )
    loss_fn, iteration, clock = CrossEntropyLoss(), 0, []
    for epoch in range(config.max_epochs):
        optimizer.learning_rate = schedule.rate(float(epoch))
        for batch in pipeline.epoch_batches(epoch):
            total = None
            for shard in partition_batch(batch, config.num_gpus):
                model.zero_grad()
                loss_fn(model(Tensor(shard.images)), shard.labels).backward()
                gradient = model.gradient_vector() * (shard.size / batch.size)
                total = gradient if total is None else total + gradient
            offset = 0
            for param in model.parameters():
                param.grad = total[offset : offset + param.data.size].reshape(param.data.shape)
                offset += param.data.size
            optimizer.step()
            scheduler.schedule_ssgd_iteration(iteration, batch_per_gpu=config.batch_size)
            iteration += 1
        clock.append(server.now())
    return model.parameter_vector(), clock


@pytest.mark.parametrize("model, dataset, num_gpus, model_overrides, momentum", CASES)
@pytest.mark.parametrize("width", (1, 2, 3))
def test_one_loop_matches_hand_rolled_ssgd(
    monkeypatch, model, dataset, num_gpus, model_overrides, momentum, width
):
    monkeypatch.setattr(learner_module, "lane_width", lambda k: min(k, width))
    config = _config(model, dataset, num_gpus, model_overrides, momentum)
    trainer = CrossbowTrainer(config)
    result = trainer.train()
    assert result.system == "tensorflow-ssgd"
    assert result.extra["learner_lanes"] == min(num_gpus, width)
    center, clock = _hand_rolled_ssgd(config)
    np.testing.assert_array_equal(trainer.central_model_vector(), center)
    np.testing.assert_array_equal(
        trainer.replica_bank.active_matrix(), np.tile(center, (num_gpus, 1))
    )
    assert [record.sim_time for record in result.metrics.records] == clock


@pytest.mark.skipif(not process_execution_supported(), reason="requires the fork start method")
def test_forked_learners_match_the_serial_run():
    config = _config("mlp", "blobs", 2, {}, 0.9)
    centers = []
    for execution in ("serial", "process"):
        with CrossbowTrainer(replace(config, execution=execution)) as trainer:
            trainer.train()
            centers.append(trainer.central_model_vector())
    np.testing.assert_array_equal(centers[0], centers[1])
