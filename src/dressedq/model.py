"""Dressed quantum network: linear pre-net -> circuit -> linear post-net.

forward(x): z = W_pre x + b_pre; embed = (pi/2) tanh(z);
            qout = quantum_forward(embed); logits = W_post qout + b_post.

Gradients are exact: analytic chain rule through both linear layers and
the tanh squash, parameter-shift Jacobians through the circuit. A batch of
B samples, features (B, D), is one pre-net matmul, one param_shift_grad
call running all B * (1 + 2(dq + q)) shifted circuits, and a chain rule
vectorized over the batch.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, param_shift_grad, quantum_forward
from .errors import ConfigurationError, TrainingError

CHECKPOINT_MAGIC = b"HYQN1"


def _block_shapes(
    spec: CircuitSpec, feature_dim: int, num_classes: int
) -> tuple[tuple[int, ...], ...]:
    """The parameter layout: the shapes of pre_weights, pre_bias, thetas,
    post_weights and post_bias, in the order they sit in params and in a
    checkpoint."""
    q, d = spec.qubits, spec.depth
    return ((q, feature_dim), (q,), (d, q), (num_classes, q), (num_classes,))


def _param_count(spec: CircuitSpec, feature_dim: int, num_classes: int) -> int:
    return sum(math.prod(shape) for shape in _block_shapes(spec, feature_dim, num_classes))


@dataclass
class HybridModel:
    """A dressed circuit classifier whose weights are one float64 vector.

    `params` is a contiguous float64 vector holding every trainable weight;
    pre_weights (q, D), pre_bias (q,), thetas (d, q), post_weights (C, q)
    and post_bias (C,) are views into it, so params is updated in place and
    never rebound. Gradients and velocities are vectors of the same layout.
    A copy or a pickle round trip rebuilds the views over its own params.
    """

    spec: CircuitSpec
    feature_dim: int
    num_classes: int
    params: np.ndarray

    def __post_init__(self):
        size = _param_count(self.spec, self.feature_dim, self.num_classes)
        params = self.params
        if not (
            isinstance(params, np.ndarray)
            and params.dtype == np.float64
            and params.shape == (size,)
            and params.flags.c_contiguous
        ):
            got = (
                f"{params.dtype} {params.shape}"
                if isinstance(params, np.ndarray)
                else type(params).__name__
            )
            raise ConfigurationError(
                f"params must be a contiguous float64 vector of length {size}, got {got}"
            )
        self.pre_weights, self.pre_bias, self.thetas, self.post_weights, self.post_bias = (
            self.split(params)
        )

    def __reduce__(self):
        """Pickle and deepcopy rebuild the model from its params, so the
        copy's blocks are views of the copy's own vector."""
        return HybridModel, (self.spec, self.feature_dim, self.num_classes, self.params)

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a params-shaped vector as the five blocks, in checkpoint
        order: pre_weights, pre_bias, thetas, post_weights, post_bias."""
        views, start = [], 0
        for shape in _block_shapes(self.spec, self.feature_dim, self.num_classes):
            stop = start + math.prod(shape)
            views.append(vec[start:stop].reshape(shape))
            start = stop
        return tuple(views)

    def copy(self) -> "HybridModel":
        return HybridModel(self.spec, self.feature_dim, self.num_classes, self.params.copy())

    def weight_blocks(self) -> list[np.ndarray]:
        """Trainable arrays in checkpoint order, as views into params."""
        return list(self.split(self.params))


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    base_lr: float = 4e-4
    momentum: float = 0.9
    workers: int = 1
    seed: int = 0
    lr_scaling: str = "linear"  # {"linear", "none"}

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.workers < 1:
            raise ConfigurationError("epochs, batch_size and workers must be >= 1")
        if self.base_lr <= 0:
            raise ConfigurationError("base_lr must be positive")
        if self.lr_scaling not in ("linear", "none"):
            raise ConfigurationError(f"unknown lr_scaling {self.lr_scaling!r}")


def init_model(
    spec: CircuitSpec, feature_dim: int, num_classes: int, seed: int
) -> HybridModel:
    """Seeded init: linear layers uniform +-1/sqrt(fan_in), angles N(0, 0.01).

    Small initial angles keep the circuit near identity early in training.
    PRNG is PCG64 so runs reproduce bit-for-bit across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    q, d = spec.qubits, spec.depth
    pre_bound = 1.0 / np.sqrt(feature_dim)
    post_bound = 1.0 / np.sqrt(q)
    blocks = [
        rng.uniform(-pre_bound, pre_bound, size=(q, feature_dim)),
        rng.uniform(-pre_bound, pre_bound, size=q),
        rng.normal(0.0, 0.01, size=(d, q)),
        rng.uniform(-post_bound, post_bound, size=(num_classes, q)),
        rng.uniform(-post_bound, post_bound, size=num_classes),
    ]
    params = np.concatenate([block.ravel() for block in blocks])
    return HybridModel(spec, feature_dim, num_classes, params)


def _embed(model: HybridModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pre-net output and circuit angles for features (D,) or a batch (n, D)."""
    z = (model.pre_weights @ features.T).T + model.pre_bias
    return z, (np.pi / 2.0) * np.tanh(z)


def forward(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """Logits for one feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.feature_dim,):
        raise ConfigurationError(
            f"features shape {features.shape} != ({model.feature_dim},)"
        )
    _, embed = _embed(model, features)
    qout = quantum_forward(model.spec, model.thetas, embed)
    return model.post_weights @ qout + model.post_bias


def _softmax_terms(
    logits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials and the sums of those over the
    last axis (kept as a length-1 axis): the terms of a softmax that cannot
    overflow."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: logits (C,) or a batch (B, C)."""
    _, e, e_sum = _softmax_terms(np.asarray(logits, dtype=float))
    return e / e_sum


def loss_cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], stable under large logits."""
    logits = np.asarray(logits, dtype=float)
    if not (0 <= label < logits.shape[0]):
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    shifted, _, e_sum = _softmax_terms(logits)
    return float(np.log(e_sum[0]) - shifted[label])


def backward(
    model: HybridModel, features: np.ndarray, label: int | np.ndarray
) -> tuple[np.ndarray, float]:
    """Exact gradient and loss for one labeled sample or a batch.

    features (D,) with an int label gives that sample's gradient and loss;
    features (B, D) with labels (B,) gives the batch-mean gradient and the
    mean loss, from one param_shift_grad call over all B samples. The
    gradient is a float64 vector laid out like model.params.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(label)
    if features.ndim not in (1, 2) or features.shape[-1] != model.feature_dim:
        raise ConfigurationError(
            f"features shape {features.shape} != ({model.feature_dim},) "
            f"or (B, {model.feature_dim})"
        )
    if labels.shape != features.shape[:-1]:
        raise ConfigurationError(
            f"labels shape {labels.shape} does not match features {features.shape}"
        )
    if labels.size == 0:
        raise ConfigurationError("empty batch")
    in_range = (labels >= 0) & (labels < model.num_classes)  # False for NaN
    if not in_range.all():
        bad = labels[~in_range].ravel()[0]
        raise ValueError(f"label {bad} out of range for {model.num_classes} classes")

    feats = features.reshape(-1, model.feature_dim)
    labels = labels.reshape(-1).astype(np.intp)
    rows = np.arange(len(labels))
    z, embed = _embed(model, feats)  # (B, q)
    jac_thetas, jac_embed, qout = param_shift_grad(model.spec, model.thetas, embed)
    logits = qout @ model.post_weights.T + model.post_bias  # (B, C)
    shifted, e, e_sum = _softmax_terms(logits)
    losses = np.log(e_sum[:, 0]) - shifted[rows, labels]

    # Softmax minus one-hot, scaled by 1/B so every sum below is a batch mean.
    dlogits = e / e_sum
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)

    grad = np.empty_like(model.params)
    g_pre_w, g_pre_b, g_thetas, g_post_w, g_post_b = model.split(grad)
    g_post_w[...] = dlogits.T @ qout
    g_post_b[...] = dlogits.sum(axis=0)

    dqout = dlogits @ model.post_weights  # (B, q)
    g_thetas[...] = np.einsum("bo,boli->li", dqout, jac_thetas)  # (d, q)
    dembed = np.einsum("bo,boj->bj", dqout, jac_embed)  # (B, q)

    dz = dembed * (np.pi / 2.0) * (1.0 - np.tanh(z) ** 2)
    g_pre_w[...] = dz.T @ feats
    g_pre_b[...] = dz.sum(axis=0)
    return grad, float(losses.sum() / len(labels))


def batch_gradient(
    model: HybridModel, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, float]:
    """Mean gradient and mean loss over a batch, features (B, D), labels (B,):
    one backward call."""
    return backward(model, features, labels)


def sgd_step(
    model: HybridModel,
    grad: np.ndarray,
    lr: float,
    momentum: float,
    velocity: np.ndarray,
) -> None:
    """In-place momentum SGD on whole vectors: v <- momentum*v + g;
    params <- params - lr*v. grad and velocity are laid out like
    model.params; a non-finite gradient raises TrainingError."""
    if lr <= 0:
        raise ConfigurationError("learning rate must be positive")
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; aborting training")
    velocity *= momentum
    velocity += grad
    model.params -= lr * velocity


def evaluate(model: HybridModel, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Argmax ties break toward the lowest class index.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _, embeds = _embed(model, dataset.features)
    qout = quantum_forward(model.spec, model.thetas, embeds)
    logits = qout @ model.post_weights.T + model.post_bias
    return int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels)) / len(dataset)


def save_checkpoint(model: HybridModel, path: str) -> None:
    """Binary checkpoint: magic "HYQN1", q/d/D/C int32 LE, then params as
    float64 LE (the five blocks in order)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(
            struct.pack(
                "<4i",
                model.spec.qubits,
                model.spec.depth,
                model.feature_dim,
                model.num_classes,
            )
        )
        f.write(model.params.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> HybridModel:
    """Read a save_checkpoint file; a malformed one raises ConfigurationError."""
    with open(path, "rb") as f:
        raw = f.read()
    header_end = len(CHECKPOINT_MAGIC) + 16
    magic = raw[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"bad checkpoint magic {magic!r}")
    if len(raw) < header_end:
        raise ConfigurationError("truncated checkpoint header")
    q, d, dim, classes = struct.unpack_from("<4i", raw, len(CHECKPOINT_MAGIC))
    spec = CircuitSpec(qubits=q, depth=d)
    if dim < 1 or classes < 1:
        raise ConfigurationError(f"checkpoint dimension below 1: D={dim}, C={classes}")
    size = _param_count(spec, dim, classes)
    expected = header_end + 8 * size
    if len(raw) < expected:
        raise ConfigurationError("truncated checkpoint")
    if len(raw) > expected:
        raise ConfigurationError(f"{len(raw) - expected} trailing bytes after checkpoint weights")
    params = np.frombuffer(raw, dtype="<f8", offset=header_end).astype(np.float64)
    if not np.isfinite(params).all():
        raise ConfigurationError("non-finite checkpoint weight")
    return HybridModel(spec, dim, classes, params)
