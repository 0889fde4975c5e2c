"""Data-parallel training: lockstep workers, fixed-order allreduce.

Training holds one canonical model and one velocity buffer. Per step, every
worker computes the mean gradient over its own batch with the canonical
weights, the gradients are summed in ascending worker id and scaled to a
mean, and one update is applied. Equal shard sizes mean equal batch
counts, so workers stay in lockstep by construction. Each worker returns a
CRC-32 of the weights it used, which every step compares with the canonical
weights' CRC-32.

Workers run in separate processes (a process pool) because CPython's GIL
would serialize the per-sample circuit work if they were threads. A task is
(model, features, labels) with features (n, B, D) for n of the workers: the
model crosses the process boundary as itself, pickled as its spec, sizes
and params vector. The pool gets one task per worker per step, n = 1. The
serial path (parallel=False) executes the same schedule on one thread as
one task per step holding all N workers' batches and the canonical model
itself, so one backward call runs every replica as one stacked pass whose
matmuls keep each replica's (B, D) slices, and results are bit-identical
to the pool's.
"""
from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .circuit import add_forward_evals, forward_eval_count
from .data import Dataset, batches, shard
from .errors import ConfigurationError, SyncError, TrainingError
from .model import HybridModel, TrainConfig, batch_gradient, check_fits, evaluate, sgd_step


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    train_accuracy: float
    val_accuracy: float
    wall_seconds: float


def allreduce_mean(per_worker_grads: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the workers' gradient vectors, summed in
    ascending worker id and then scaled by 1/N.

    The fixed order makes the result independent of worker scheduling. A
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
    return sum(per_worker_grads[1:], per_worker_grads[0]) * (1.0 / len(per_worker_grads))


def _grad_task(payload) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Worker entry for one task, payload (model, features (n, B, D), labels
    (n, B)): return the n batch-mean gradient vectors (n, P), the n mean
    losses, the circuit runs made and the CRC-32 of the weights the
    gradients were computed with."""
    evals_before = forward_eval_count()
    model, feats, labels = payload
    grads, losses = batch_gradient(model, feats, labels)
    return grads, losses, forward_eval_count() - evals_before, zlib.crc32(model.params)


def train_distributed(
    model: HybridModel,
    train_set: Dataset,
    config: TrainConfig,
    val_set: Dataset | None = None,
    parallel: bool | None = None,
) -> tuple[HybridModel, list[EpochMetrics]]:
    """Train a copy of `model` on N lockstep workers; returns the trained
    copy and metrics. The caller's model is not modified.

    Metrics (loss over worker 0's shard, accuracy over the full train and
    validation sets) are recorded once per epoch, so they do not depend on
    N. Epoch wall time covers the epoch loop only, not dataset or model
    construction. A dataset that does not fit the model raises
    ConfigurationError before the first step. Every step compares the
    digest of the weights each worker computed with against the canonical
    weights' digest and raises SyncError naming the first worker that
    differs. A task that raises, or a pool worker that dies, ends in
    TrainingError naming the task's workers ("worker 1 failed: ..." on the
    pool, "workers 0-1 failed: ..." in-process at N=2).
    """
    check_fits(model, train_set)
    if val_set is not None:
        check_fits(model, val_set)
    n_workers = config.workers
    if parallel is None:
        parallel = n_workers > 1

    model = model.copy()
    velocity = np.zeros_like(model.params)
    metrics: list[EpochMetrics] = []

    with ProcessPoolExecutor(max_workers=n_workers) if parallel else nullcontext() as pool:
        for epoch in range(config.epochs):
            t0 = time.monotonic()
            # Column w is worker w's shard; equal sizes make it one array.
            shards = np.stack(
                [shard(train_set, n_workers, w, epoch, config.seed) for w in range(n_workers)],
                axis=1,
            )
            worker0_losses = []
            for step in batches(shards, config.batch_size):
                # Taken before dispatch: an in-process worker shares the array.
                expected = zlib.crc32(model.params)
                grads, losses, digests = _step_gradients(model, train_set, step.T, pool)
                _assert_replicas_identical(expected, digests)
                sgd_step(model, allreduce_mean(grads), config.lr, config.momentum, velocity)
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
    return model, metrics


def _step_gradients(model, train_set, index, pool):
    """The N workers' gradient vectors, mean losses and weight digests for
    one step, as lists in ascending worker id; index (N, B) holds worker
    w's batch in row w.

    In-process the step is one task of all N workers, (N, B, D); the pool
    gets one task per worker, (1, B, D). Either way worker w's gradient
    comes from its own batch alone, each worker's digest is its task's,
    and a task that raises ends in TrainingError naming the task's workers.
    """
    blocks = [index] if pool is None else [index[w:w + 1] for w in range(len(index))]
    tasks = [(model, train_set.features[rows], train_set.labels[rows]) for rows in blocks]
    grads, losses, digests, evals = [], [], [], 0
    try:
        for task_grads, task_losses, task_evals, digest in (
            map if pool is None else pool.map
        )(_grad_task, tasks):
            grads.extend(task_grads)
            losses.extend(task_losses)
            digests += [digest] * len(task_grads)
            evals += task_evals
    except Exception as exc:
        first, per_task = len(digests), len(blocks[0])
        who = f"worker {first}" if per_task == 1 else f"workers {first}-{first + per_task - 1}"
        raise TrainingError(f"{who} failed: {exc}") from exc
    if pool is not None:
        # Workers count their circuit runs in their own processes; the
        # in-process path has already counted them here.
        add_forward_evals(evals)
    return grads, losses, digests


def _assert_replicas_identical(expected: int, digests: list[int]) -> None:
    for w, digest in enumerate(digests):
        if digest != expected:
            raise SyncError(f"worker {w} computed with weights other than the model's")
