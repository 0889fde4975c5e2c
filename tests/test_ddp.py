import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np
import pytest

from dressedq import (
    ConfigurationError,
    SyncError,
    TrainConfig,
    TrainingError,
    allreduce_mean,
    effective_batch_size,
    init_model,
    scale_lr,
    train_distributed,
)
from dressedq import ddp
from dressedq.circuit import CircuitSpec, forward_eval_count
from dressedq.data import batches, generate_synthetic, shard
from dressedq.model import batch_gradient, sgd_step


def make_problem(n=48, dim=6, classes=2, q=2, d=1, seed=3, margin=3.0):
    ds = generate_synthetic(n, dim, classes, margin=margin, seed=seed)
    model = init_model(CircuitSpec(qubits=q, depth=d), dim, classes, seed=seed)
    return ds, model


def random_grads(rng, model):
    return rng.normal(size=model.params.shape)


@pytest.mark.parametrize("batch,n,expected", [(4, 8, 32), (4, 1, 4), (1, 1, 1)])
def test_effective_batch_size(batch, n, expected):
    assert effective_batch_size(batch, n) == expected


def test_scale_lr():
    assert scale_lr(0.0004, 8, "linear") == pytest.approx(0.0032)
    assert scale_lr(0.0004, 1, "linear") == 0.0004
    assert scale_lr(0.123, 16, "none") == 0.123
    with pytest.raises(ConfigurationError):
        scale_lr(0.1, 2, "sqrt")


def test_allreduce_opposite_gradients_cancel():
    _, model = make_problem()
    g = random_grads(np.random.default_rng(1), model)
    mean = allreduce_mean([g, -g])
    assert np.allclose(mean, 0.0, atol=0)


def test_allreduce_single_worker_identity():
    _, model = make_problem()
    g = random_grads(np.random.default_rng(2), model)
    mean = allreduce_mean([g])
    assert np.array_equal(mean, g)


@pytest.mark.parametrize("workers", [2, 3, 4, 5, 8])
def test_allreduce_matches_tree_order_reference_bitwise(workers):
    _, model = make_problem()
    rng = np.random.default_rng(workers)
    grads = [random_grads(rng, model) for _ in range(workers)]
    result = allreduce_mean(grads)

    # Reference: the same pairwise tree written out longhand.
    def tree_sum(vectors):
        if len(vectors) == 1:
            return vectors[0]
        nxt = []
        for i in range(0, len(vectors) - 1, 2):
            nxt.append(vectors[i] + vectors[i + 1])
        if len(vectors) % 2 == 1:
            nxt.append(vectors[-1])
        return tree_sum(nxt)

    ref = tree_sum([g.copy() for g in grads])
    assert np.array_equal(result, ref * (1.0 / workers))
    # And it is a mean, up to reassociation.
    assert np.max(np.abs(result - np.mean(grads, axis=0))) < 1e-15


def test_allreduce_shape_mismatch_is_sync_fault():
    _, model = make_problem()
    rng = np.random.default_rng(4)
    g1 = random_grads(rng, model)
    g2 = random_grads(rng, model)
    g2 = g2[:-1]
    with pytest.raises(SyncError):
        allreduce_mean([g1, g2])


def test_single_worker_matches_manual_loop_bitwise():
    ds, model = make_problem(n=24)
    config = TrainConfig(epochs=2, batch_size=4, base_lr=4e-4, seed=11)
    trained, _ = train_distributed(model.copy(), ds, config)

    manual = model.copy()
    velocity = np.zeros_like(manual.params)
    for epoch in range(2):
        for idx in batches(shard(ds, 1, 0, epoch, 11), 4):
            g, _ = batch_gradient(manual, ds.features[idx], ds.labels[idx])
            g = allreduce_mean([g])
            sgd_step(manual, g, 4e-4, 0.9, velocity)
    for a, b in zip(trained.weight_blocks(), manual.weight_blocks()):
        assert np.array_equal(a, b)


def test_same_seed_same_final_weights():
    ds, model = make_problem(n=24)
    config = TrainConfig(epochs=2, batch_size=4, base_lr=4e-4, seed=5)
    a, _ = train_distributed(model.copy(), ds, config)
    b, _ = train_distributed(model.copy(), ds, config)
    for x, y in zip(a.weight_blocks(), b.weight_blocks()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("workers", [2, 4])
def test_lockstep_matches_large_batch_single_worker(workers):
    # Aligned shards: worker batches at step b union to the contiguous
    # chunk perm[N*B*b : N*B*(b+1)], i.e. the N=1 run at batch N*B.
    ds, model = make_problem(n=48, q=2, d=1)
    multi_cfg = TrainConfig(
        epochs=2, batch_size=4, base_lr=4e-4, workers=workers, seed=17,
        lr_scaling="none",
    )
    multi, _ = train_distributed(
        model.copy(), ds, multi_cfg, parallel=False, replica_check="step"
    )
    single_cfg = TrainConfig(
        epochs=2, batch_size=4 * workers, base_lr=4e-4, workers=1, seed=17,
        lr_scaling="none",
    )
    single, _ = train_distributed(model.copy(), ds, single_cfg)
    for a, b in zip(multi.weight_blocks(), single.weight_blocks()):
        assert np.max(np.abs(a - b)) < 1e-12


def test_parallel_processes_match_serial_bitwise():
    ds, model = make_problem(n=16)
    config = TrainConfig(epochs=1, batch_size=4, base_lr=4e-4, workers=2, seed=23)
    serial, sm = train_distributed(model.copy(), ds, config, parallel=False)
    procs, pm = train_distributed(model.copy(), ds, config, parallel=True)
    for a, b in zip(serial.weight_blocks(), procs.weight_blocks()):
        assert np.array_equal(a, b)
    assert [m.mean_loss for m in sm] == [m.mean_loss for m in pm]


def test_parallel_epoch_counts_worker_circuit_runs():
    ds, model = make_problem(n=16)
    config = TrainConfig(epochs=1, batch_size=4, base_lr=4e-4, workers=2, seed=23)
    counts = []
    for parallel in (False, True):
        before = forward_eval_count()
        train_distributed(model.copy(), ds, config, parallel=parallel)
        counts.append(forward_eval_count() - before)
    assert counts[1] == counts[0]


def test_loss_non_increasing_on_separable_data():
    ds, model = make_problem(n=60, dim=8, q=3, d=2, margin=3.0, seed=29)
    config = TrainConfig(epochs=10, batch_size=4, base_lr=4e-4, seed=29)
    _, metrics = train_distributed(model, ds, config)
    losses = [m.mean_loss for m in metrics]
    violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert violations <= 1, losses


def test_metrics_are_well_formed():
    ds, model = make_problem(n=20)
    config = TrainConfig(epochs=3, batch_size=4, base_lr=4e-4, seed=31)
    _, metrics = train_distributed(model, ds, config)
    assert [m.epoch for m in metrics] == [0, 1, 2]
    for m in metrics:
        assert 0.0 <= m.train_accuracy <= 1.0
        assert 0.0 <= m.val_accuracy <= 1.0
        assert m.wall_seconds >= 0.0


def test_one_update_per_step_and_caller_model_unchanged(monkeypatch):
    ds, model = make_problem(n=8)
    config = TrainConfig(epochs=1, batch_size=1, base_lr=4e-4, workers=2, seed=41)
    before = model.params.copy()
    calls = []

    def counting_sgd_step(*args):
        calls.append(args)
        return sgd_step(*args)

    monkeypatch.setattr(ddp, "sgd_step", counting_sgd_step)
    train_distributed(model, ds, config, parallel=False)
    # 8 samples over 2 workers at batch 1: 4 optimizer steps.
    assert len(calls) == 4
    assert np.array_equal(model.params, before)


@pytest.mark.parametrize("mode, checks_per_epoch", [("off", 0), ("epoch", 1), ("step", 4)])
def test_replica_check_schedule(monkeypatch, mode, checks_per_epoch):
    ds, model = make_problem(n=8)
    config = TrainConfig(epochs=2, batch_size=1, base_lr=4e-4, workers=2, seed=41)
    checked = []
    monkeypatch.setattr(ddp, "_assert_replicas_identical", lambda *a: checked.append(a))
    train_distributed(model, ds, config, parallel=False, replica_check=mode)
    assert len(checked) == 2 * checks_per_epoch
    for expected, digests in checked:
        assert digests == [expected, expected]


def test_too_many_workers_rejected():
    ds, model = make_problem(n=4)
    config = TrainConfig(epochs=1, batch_size=1, base_lr=4e-4, workers=8, seed=1)
    with pytest.raises(ConfigurationError):
        train_distributed(model, ds, config)


MARKER = 1234.5


def _fail_on_marker(how):
    """A batch_gradient that fails on a batch holding the marker sample,
    by raising or by killing its process."""

    def failing(replica, features, labels):
        if np.any(features[:, 0] == MARKER):
            if how == "exit":
                os._exit(3)
            raise RuntimeError("injected worker fault")
        return batch_gradient(replica, features, labels)

    return failing


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injected fault reaches pool workers only when they fork",
)


@FORK_ONLY
@pytest.mark.parametrize("how", ["raise", "exit"])
def test_pool_worker_failure_ends_in_training_error(monkeypatch, how):
    ds, model = make_problem(n=8)
    config = TrainConfig(epochs=2, batch_size=1, base_lr=4e-4, workers=2, seed=37)
    # Mark worker 1's first sample: the fault happens at step 0 in worker 1.
    first = shard(ds, 2, 1, 0, config.seed)[0]
    ds.features[first, 0] = MARKER
    # Pool workers fork after this and inherit the patched module global.
    monkeypatch.setattr(ddp, "batch_gradient", _fail_on_marker(how))
    with time_limit(30.0), pytest.raises(TrainingError) as info:
        train_distributed(model, ds, config, parallel=True)
    if how == "raise":
        # Worker 0's step succeeded; the message names the worker that failed.
        assert "worker 1 failed" in str(info.value)
        assert "injected worker fault" in str(info.value)
    else:
        # A dead process breaks the whole pool: the first worker whose
        # result is collected is named.
        assert re.search(r"worker [01] failed", str(info.value))
        assert isinstance(info.value.__cause__, BrokenProcessPool)


def _alter_weights_on_marker(replica, features, labels):
    """A batch_gradient that changes the weights it computes with on a batch
    holding the marker sample."""
    if np.any(features[:, 0] == MARKER):
        replica.params[0] += 1.0
    return batch_gradient(replica, features, labels)


@pytest.mark.parametrize("parallel", [False, pytest.param(True, marks=FORK_ONLY)])
def test_worker_with_altered_weights_ends_in_sync_error(monkeypatch, parallel):
    ds, model = make_problem(n=8)
    config = TrainConfig(epochs=2, batch_size=1, base_lr=4e-4, workers=2, seed=37)
    first = shard(ds, 2, 1, 0, config.seed)[0]
    ds.features[first, 0] = MARKER
    monkeypatch.setattr(ddp, "batch_gradient", _alter_weights_on_marker)
    with time_limit(30.0), pytest.raises(SyncError, match=r"^worker 1 "):
        train_distributed(model, ds, config, parallel=parallel, replica_check="step")
