"""Data-parallel training: lockstep workers, deterministic tree allreduce.

Training holds one canonical model and one velocity buffer. Per step, every
worker computes the mean gradient over its own batch with the canonical
weights, the gradients are averaged in a fixed pairwise tree over ascending
worker ids, and one update is applied. Equal shard sizes mean equal batch
counts, so workers stay in lockstep by construction. Each worker returns a
CRC-32 of the weights it used, which replica_check compares with the
canonical weights' CRC-32.

Workers run in separate processes (a process pool) because CPython's GIL
would serialize the per-sample circuit work if they were threads. A task is
(model, features, labels): the model crosses the process boundary as itself,
pickled as its spec, sizes and params vector. The serial path
(parallel=False) executes the same schedule on one thread, hands every task
the canonical model itself, and produces bit-identical results.
"""
from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuit import add_forward_evals, forward_eval_count
from .data import Dataset, batches, shard
from .errors import ConfigurationError, SyncError, TrainingError
from .model import HybridModel, TrainConfig, batch_gradient, evaluate, sgd_step

REPLICA_CHECKS = ("off", "epoch", "step")


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


def allreduce_mean(per_worker_grads: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the workers' gradient vectors, reduced in a fixed
    pairwise tree.

    The tree pairs ascending ids ((0,1),(2,3),...) and repeats on the
    partial sums, so the result never depends on worker scheduling. A
    vector whose shape differs from worker 0's raises SyncError naming its
    worker.
    """
    if not per_worker_grads:
        raise ConfigurationError("allreduce needs at least one gradient set")
    shape = per_worker_grads[0].shape
    for wid, g in enumerate(per_worker_grads[1:], start=1):
        if g.shape != shape:
            raise SyncError(
                f"gradient shape mismatch from worker {wid}: {g.shape} != {shape}"
            )
    level = per_worker_grads
    while len(level) > 1:
        merged = [level[i] + level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            merged.append(level[-1])
        level = merged
    return level[0] * (1.0 / len(per_worker_grads))


def _grad_task(payload) -> tuple[np.ndarray, float, int, int]:
    """Worker entry for one task, payload (model, features, labels): return
    the batch-mean gradient vector, the mean loss, the circuit runs made and
    the CRC-32 of the weights the gradient was computed with."""
    evals_before = forward_eval_count()
    model, feats, labels = payload
    grad, loss = batch_gradient(model, feats, labels)
    return grad, loss, forward_eval_count() - evals_before, zlib.crc32(model.params)


def train_distributed(
    model: HybridModel,
    train_set: Dataset,
    config: TrainConfig,
    val_set: Dataset | None = None,
    parallel: bool | None = None,
    replica_check: str = "epoch",
) -> tuple[HybridModel, list[EpochMetrics]]:
    """Train a copy of `model` on N lockstep workers; returns the trained
    copy and metrics. The caller's model is not modified.

    Metrics (loss over worker 0's shard, accuracy over the full train and
    validation sets) are recorded once per epoch, so they do not depend on
    N. Epoch wall time covers the epoch loop only, not dataset or model
    construction. replica_check compares the digest of the weights every
    worker computed with against the canonical weights' digest, and raises
    SyncError naming the first worker that differs: "step" checks every
    step, "epoch" each epoch's last step, "off" never.
    """
    if replica_check not in REPLICA_CHECKS:
        raise ConfigurationError(
            f"unknown replica_check {replica_check!r}; expected one of {REPLICA_CHECKS}"
        )
    n_workers = config.workers
    if n_workers > len(train_set):
        raise ConfigurationError(
            f"{n_workers} workers exceed the {len(train_set)} training samples"
        )
    if parallel is None:
        parallel = n_workers > 1
    eff_lr = scale_lr(config.base_lr, n_workers, config.lr_scaling)

    model = model.copy()
    velocity = np.zeros_like(model.params)
    metrics: list[EpochMetrics] = []

    pool = ProcessPoolExecutor(max_workers=n_workers) if parallel else None
    try:
        for epoch in range(config.epochs):
            t0 = time.monotonic()
            batch_lists = [
                batches(shard(train_set, n_workers, w, epoch, config.seed), config.batch_size)
                for w in range(n_workers)
            ]
            steps = len(batch_lists[0])
            worker0_losses = []
            first_checked = {"off": steps, "epoch": steps - 1, "step": 0}[replica_check]

            for step in range(steps):
                # Taken before dispatch: an in-process worker shares the array.
                expected = zlib.crc32(model.params) if step >= first_checked else None
                grads, losses, digests = _step_gradients(
                    model, train_set, batch_lists, step, pool
                )
                if expected is not None:
                    _assert_replicas_identical(expected, digests)
                sgd_step(model, allreduce_mean(grads), eff_lr, config.momentum, velocity)
                worker0_losses.append(losses[0])

            train_acc = evaluate(model, train_set)
            val_acc = evaluate(model, val_set) if val_set is not None else train_acc
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
    return model, metrics


def _step_gradients(model, train_set, batch_lists, step, pool):
    payloads = [
        (model, train_set.features[b[step]], train_set.labels[b[step]]) for b in batch_lists
    ]
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
        add_forward_evals(sum(evals for _, _, evals, _ in results))
    grads, losses, _, digests = map(list, zip(*results))
    return grads, losses, digests


def _assert_replicas_identical(expected: int, digests: list[int]) -> None:
    for w, digest in enumerate(digests):
        if digest != expected:
            raise SyncError(f"worker {w} computed with weights other than the model's")
