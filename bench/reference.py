"""Independent reference for the training runs the benchmark times.

It re-derives, with batched real-valued numpy and none of the package's
code, what `train_distributed` and `evaluate` must return for a workload:
the per-epoch mean losses and accuracies, the final weights and the
accuracy over the full dataset. The arithmetic is the same mathematics in
another order, so results agree with the package to rounding only; the
benchmark compares them within `RTOL`.

Circuit layout, sampler and update rule follow the package's documented
contract: H on every wire, RY embedding, `depth` layers of CNOT(i, i+1)
for even then odd i followed by RY(theta), Pauli-Z readout with wire 0 the
most significant bit; per-epoch PCG64 shuffles seeded by (seed, epoch),
truncated to floor(n/N)*N and dealt round-robin; a fixed pairwise tree
mean over workers; momentum SGD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for comparing the package against this reference. The
# two differ only in summation order (float64 eps is 2.2e-16); any change to
# the mathematics moves losses by many orders of magnitude more.
RTOL = 1e-9


@dataclass
class Weights:
    pre_w: np.ndarray  # (q, D)
    pre_b: np.ndarray  # (q,)
    thetas: np.ndarray  # (depth, q)
    post_w: np.ndarray  # (C, q)
    post_b: np.ndarray  # (C,)

    def blocks(self) -> list[np.ndarray]:
        return [self.pre_w, self.pre_b, self.thetas, self.post_w, self.post_b]


@dataclass
class Trajectory:
    losses: list[float]
    train_acc: list[float]
    val_acc: list[float]
    final: Weights
    full_acc: float


def _ry(psi: np.ndarray, wire: int, angles: np.ndarray) -> np.ndarray:
    view = psi.reshape(psi.shape[0], 1 << wire, 2, -1)
    c = np.cos(angles / 2.0)[:, None, None]
    s = np.sin(angles / 2.0)[:, None, None]
    a0, a1 = view[:, :, 0, :], view[:, :, 1, :]
    return np.stack((c * a0 - s * a1, s * a0 + c * a1), axis=2).reshape(psi.shape)


def _cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    view = psi.reshape(psi.shape[0], 1 << control, 2, 1 << (target - control - 1), 2, -1)
    out = view.copy()
    out[:, :, 1, :, 0, :] = view[:, :, 1, :, 1, :]
    out[:, :, 1, :, 1, :] = view[:, :, 1, :, 0, :]
    return out.reshape(psi.shape)


def circuit_z(embeds: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Z expectations for K circuits: embeds (K, q), thetas (K, depth, q)."""
    k, q = embeds.shape
    psi = np.full((k, 1 << q), 2.0 ** (-q / 2.0))  # H on every wire of |0...0>
    for i in range(q):
        psi = _ry(psi, i, embeds[:, i])
    for layer in range(thetas.shape[1]):
        for start in (0, 1):
            for i in range(start, q - 1, 2):
                psi = _cnot(psi, i, i + 1)
        for i in range(q):
            psi = _ry(psi, i, thetas[:, layer, i])
    probs = psi * psi
    return np.stack(
        [1.0 - 2.0 * probs.reshape(k, 1 << i, 2, -1)[:, :, 1, :].sum(axis=(1, 2))
         for i in range(q)],
        axis=1,
    )


def _logits(w: Weights, features: np.ndarray) -> np.ndarray:
    embeds = (np.pi / 2.0) * np.tanh(features @ w.pre_w.T + w.pre_b)
    qout = circuit_z(embeds, np.broadcast_to(w.thetas, (len(embeds), *w.thetas.shape)))
    return qout @ w.post_w.T + w.post_b


def accuracy(w: Weights, features: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(_logits(w, features), axis=1) == labels))


def _sample_grad(w: Weights, x: np.ndarray, label: int) -> tuple[list[np.ndarray], float]:
    """Loss and exact gradient of one sample, parameter shift through the circuit."""
    d, q = w.thetas.shape
    z = w.pre_w @ x + w.pre_b
    embed = (np.pi / 2.0) * np.tanh(z)
    # Row 0 unshifted, then +/- pi/2 on each theta, then on each embed angle.
    k = 1 + 2 * (d * q + q)
    embeds = np.tile(embed, (k, 1))
    thetas = np.tile(w.thetas, (k, 1, 1))
    row = 1
    for layer in range(d):
        for i in range(q):
            thetas[row, layer, i] += np.pi / 2.0
            thetas[row + 1, layer, i] -= np.pi / 2.0
            row += 2
    for j in range(q):
        embeds[row, j] += np.pi / 2.0
        embeds[row + 1, j] -= np.pi / 2.0
        row += 2
    out = circuit_z(embeds, thetas)
    qout = out[0]
    diffs = (out[1::2] - out[2::2]) / 2.0  # (d*q + q, q): row p is d out / d angle p
    jac_thetas = diffs[: d * q].T.reshape(q, d, q)
    jac_embed = diffs[d * q :].T

    logits = w.post_w @ qout + w.post_b
    shifted = logits - np.max(logits)
    loss = float(np.log(np.sum(np.exp(shifted))) - shifted[label])
    dlogits = np.exp(shifted) / np.sum(np.exp(shifted))
    dlogits[label] -= 1.0
    dqout = w.post_w.T @ dlogits
    dz = (jac_embed.T @ dqout) * (np.pi / 2.0) * (1.0 - np.tanh(z) ** 2)
    grads = [
        np.outer(dz, x),
        dz,
        np.tensordot(dqout, jac_thetas, axes=(0, 0)),
        np.outer(dlogits, qout),
        dlogits,
    ]
    return grads, loss


def _tree_mean(per_worker: list[list[np.ndarray]]) -> list[np.ndarray]:
    level = [[b.copy() for b in g] for g in per_worker]
    while len(level) > 1:
        merged = [[a + b for a, b in zip(level[i], level[i + 1])]
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return [b / len(per_worker) for b in level[0]]


def _worker_batches(n: int, workers: int, epoch: int, seed: int, batch: int):
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1), epoch]))
    )
    perm = rng.permutation(n)[: (n // workers) * workers]
    shards = [perm[w::workers] for w in range(workers)]
    return [[s[i : i + batch] for i in range(0, len(s), batch)] for s in shards]


def train(
    init: Weights,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    full_x: np.ndarray,
    full_y: np.ndarray,
    *,
    epochs: int,
    batch: int,
    workers: int,
    lr: float,
    momentum: float,
    seed: int,
) -> Trajectory:
    """The training run `train_distributed` must reproduce, plus final accuracy."""
    w = Weights(*(b.copy() for b in init.blocks()))
    velocity = [np.zeros_like(b) for b in w.blocks()]
    losses, train_acc, val_acc = [], [], []
    for epoch in range(epochs):
        plan = _worker_batches(len(train_y), workers, epoch, seed, batch)
        worker0 = []
        for step in range(len(plan[0])):
            per_worker = []
            for wid in range(workers):
                idx = plan[wid][step]
                total = [np.zeros_like(b) for b in w.blocks()]
                loss_sum = 0.0
                for i in idx:
                    g, loss = _sample_grad(w, train_x[i], int(train_y[i]))
                    total = [a + b for a, b in zip(total, g)]
                    loss_sum += loss
                per_worker.append([a / len(idx) for a in total])
                if wid == 0:
                    worker0.append(loss_sum / len(idx))
            for wb, v, g in zip(w.blocks(), velocity, _tree_mean(per_worker)):
                v *= momentum
                v += g
                wb -= lr * v
        losses.append(float(np.mean(worker0)))
        train_acc.append(accuracy(w, train_x, train_y))
        val_acc.append(accuracy(w, val_x, val_y))
    return Trajectory(losses, train_acc, val_acc, w, accuracy(w, full_x, full_y))
