"""Data-parallel training: lockstep workers, deterministic tree allreduce.

Per step, every worker computes the mean gradient over its own batch, the
gradients are averaged in a fixed pairwise tree over ascending worker ids,
and every replica applies the identical update. Equal shard sizes mean
equal batch counts, so workers stay in lockstep by construction.

Workers run in separate processes (a process pool) because CPython's GIL
would serialize the per-sample circuit work if they were threads. The
serial path (parallel=False) executes the same schedule on one thread and
produces bit-identical results.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, QuantumParams, add_forward_evals, forward_eval_count
from .data import Dataset, batches, shard
from .errors import ConfigurationError, SyncError, TrainingError
from .model import (
    Gradients,
    HybridModel,
    TrainConfig,
    batch_gradient,
    evaluate,
    sgd_step,
)


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    train_accuracy: float
    val_accuracy: float
    wall_seconds: float


def effective_batch_size(per_worker_batch: int, num_workers: int) -> int:
    """Global samples per optimizer step: per-worker batch times workers."""
    if per_worker_batch < 1 or num_workers < 1:
        raise ConfigurationError("batch size and worker count must be >= 1")
    return per_worker_batch * num_workers


def scale_lr(base_lr: float, num_workers: int, mode: str) -> float:
    """Linear scaling multiplies the rate by the worker count."""
    if base_lr <= 0:
        raise ConfigurationError("base_lr must be positive")
    if mode == "linear":
        return base_lr * num_workers
    if mode == "none":
        return base_lr
    raise ConfigurationError(f"unknown lr scaling mode {mode!r}")


def _check_shapes(reference: Gradients, other: Gradients, worker_id: int) -> None:
    for a, b in zip(reference.blocks(), other.blocks()):
        if a.shape != b.shape:
            raise SyncError(
                f"gradient shape mismatch from worker {worker_id}: "
                f"{b.shape} != {a.shape}"
            )


def allreduce_mean(per_worker_grads: list[Gradients]) -> Gradients:
    """Elementwise mean over workers, reduced in a fixed pairwise tree.

    The tree pairs ascending ids ((0,1),(2,3),...) and repeats on the
    partial sums, so the result never depends on worker scheduling.
    """
    if not per_worker_grads:
        raise ConfigurationError("allreduce needs at least one gradient set")
    for wid, g in enumerate(per_worker_grads[1:], start=1):
        _check_shapes(per_worker_grads[0], g, wid)
    level = [g.copy() for g in per_worker_grads]
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            merged.append(level[i].add_(level[i + 1]))
        if len(level) % 2 == 1:
            merged.append(level[-1])
        level = merged
    return level[0].scale_(1.0 / len(per_worker_grads))


def _grad_task(payload) -> tuple[tuple, float, int]:
    """Pool worker entry: rebuild the replica; return the batch-mean
    gradient, the mean loss and the circuit runs made."""
    evals_before = forward_eval_count()
    (q, d, dim, classes), blocks, feats, labels = payload
    replica = HybridModel(
        spec=CircuitSpec(qubits=q, depth=d),
        feature_dim=dim,
        num_classes=classes,
        pre_weights=blocks[0],
        pre_bias=blocks[1],
        qparams=QuantumParams(blocks[2]),
        post_weights=blocks[3],
        post_bias=blocks[4],
    )
    grad, loss = batch_gradient(replica, feats, labels)
    return tuple(grad.blocks()), loss, forward_eval_count() - evals_before


def _model_payload(model: HybridModel):
    return (
        (model.spec.qubits, model.spec.depth, model.feature_dim, model.num_classes),
        tuple(model.weight_blocks()),
    )


def train_distributed(
    model: HybridModel,
    train_set: Dataset,
    config: TrainConfig,
    val_set: Dataset | None = None,
    parallel: bool | None = None,
    replica_check: str = "epoch",
) -> tuple[HybridModel, list[EpochMetrics]]:
    """Train N lockstep replicas of `model`; returns replica 0 and metrics.

    Metrics (loss over worker 0's shard, accuracy over the full train and
    validation sets) are recorded once per epoch, so they do not depend on
    N. Epoch wall time covers the epoch loop only, not dataset or model
    construction. replica_check: "off", "epoch" or "step".
    """
    n_workers = config.workers
    if n_workers > len(train_set):
        raise ConfigurationError(
            f"{n_workers} workers exceed the {len(train_set)} training samples"
        )
    if parallel is None:
        parallel = n_workers > 1
    eff_lr = scale_lr(config.base_lr, n_workers, config.lr_scaling)

    replicas = [model.copy() for _ in range(n_workers)]
    velocities = [Gradients.zeros_like(model) for _ in range(n_workers)]
    metrics: list[EpochMetrics] = []

    pool = ProcessPoolExecutor(max_workers=n_workers) if parallel else None
    try:
        for epoch in range(config.epochs):
            t0 = time.monotonic()
            lr = eff_lr
            if config.lr_step_decay:
                lr = eff_lr * (0.1 ** (epoch // 10))

            shards = [
                shard(train_set, n_workers, w, epoch, config.seed)
                for w in range(n_workers)
            ]
            batch_lists = [batches(s, config.batch_size) for s in shards]
            steps = len(batch_lists[0])
            worker0_losses = []

            for step in range(steps):
                grads, losses = _step_gradients(
                    replicas, train_set, batch_lists, step, pool
                )
                reduced = allreduce_mean(grads)
                for replica, vel in zip(replicas, velocities):
                    sgd_step(replica, reduced, lr, config.momentum, vel)
                worker0_losses.append(losses[0])
                if replica_check == "step":
                    _assert_replicas_identical(replicas)

            if replica_check in ("epoch", "step"):
                _assert_replicas_identical(replicas)

            train_acc = evaluate(replicas[0], train_set)
            val_acc = evaluate(replicas[0], val_set) if val_set is not None else train_acc
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    mean_loss=float(np.mean(worker0_losses)),
                    train_accuracy=train_acc,
                    val_accuracy=val_acc,
                    wall_seconds=time.monotonic() - t0,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return replicas[0], metrics


def _step_gradients(replicas, train_set, batch_lists, step, pool):
    payloads = []
    for w, replica in enumerate(replicas):
        idx = batch_lists[w][step]
        payloads.append(
            (*_model_payload(replica), train_set.features[idx], train_set.labels[idx])
        )
    if pool is None:
        results = [_grad_task(p) for p in payloads]
    else:
        futures = [pool.submit(_grad_task, p) for p in payloads]
        results = []
        for w, fut in enumerate(futures):
            try:
                results.append(fut.result())
            except Exception as exc:
                raise TrainingError(f"worker {w} failed: {exc}") from exc
        # Workers count their circuit runs in their own processes; the
        # in-process path above has already counted them here.
        add_forward_evals(sum(evals for _, _, evals in results))
    grads = [Gradients(*(np.asarray(b) for b in blocks)) for blocks, _, _ in results]
    losses = [loss for _, loss, _ in results]
    return grads, losses


def _assert_replicas_identical(replicas) -> None:
    ref = replicas[0].weight_blocks()
    for w, replica in enumerate(replicas[1:], start=1):
        for a, b in zip(ref, replica.weight_blocks()):
            if not np.array_equal(a, b):
                raise SyncError(f"replica {w} diverged from replica 0")
