"""Dressed quantum network: linear pre-net -> circuit -> linear post-net.

forward(x): z = W_pre x + b_pre; embed = (pi/2) tanh(z);
            qout = quantum_forward(embed); logits = W_post qout + b_post.

Gradients are exact: analytic chain rule through both linear layers and
the tanh squash, parameter-shift Jacobians through the circuit. backward
runs one sample, a batch (B, D) or N lockstep replicas' batches (N, B, D)
as one pass over (N, B, ·) arrays: one stacked pre-net matmul, one
param_shift_grad call over all N * B samples' shifted circuits, and a
chain rule of stacked matmuls written into the blocks of the (N, P)
gradients. Each matmul's slices keep one replica's (B, D) shapes.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, param_shift_grad, quantum_forward
from .data import seeded_rng
from .errors import ConfigurationError, TrainingError, float_array, real_number, whole_number

CHECKPOINT_MAGIC = b"HYQN1"


def _block_slices(
    spec: CircuitSpec, feature_dim: int, num_classes: int
) -> tuple[tuple[tuple[slice, tuple[int, ...]], ...], int]:
    """The parameter layout: (slice of params, shape) of pre_weights,
    pre_bias, thetas, post_weights and post_bias, in the order they sit in
    params and in a checkpoint, and the parameter count. feature_dim and
    num_classes must be whole numbers >= 1, else ConfigurationError naming
    the field."""
    whole_number("feature_dim", feature_dim, 1)
    whole_number("num_classes", num_classes, 1)
    q, d = spec.qubits, spec.depth
    slices, start = [], 0
    for shape in ((q, feature_dim), (q,), (d, q), (num_classes, q), (num_classes,)):
        stop = start + math.prod(shape)
        slices.append((slice(start, stop), shape))
        start = stop
    return tuple(slices), start


@dataclass(eq=False)
class HybridModel:
    """A dressed circuit classifier whose weights are one float64 vector.

    `params` is a contiguous float64 vector holding every trainable weight;
    pre_weights (q, D), pre_bias (q,), thetas (d, q), post_weights (C, q)
    and post_bias (C,) are views into it, so params is updated in place and
    never rebound, so it must be writable. Gradients and velocities are
    vectors of the same layout.
    A copy or a pickle round trip rebuilds the views over its own params.
    feature_dim and num_classes are whole numbers >= 1 (ConfigurationError
    naming the field), checked here and in init_model before any draw.
    """

    spec: CircuitSpec
    feature_dim: int
    num_classes: int
    params: np.ndarray

    def __post_init__(self):
        self._slices, size = _block_slices(self.spec, self.feature_dim, self.num_classes)
        params = self.params
        if not (
            isinstance(params, np.ndarray)
            and params.dtype == np.float64
            and params.shape == (size,)
            and params.flags.c_contiguous
            and params.flags.writeable
        ):
            got = (
                f"{'' if params.flags.writeable else 'read-only '}{params.dtype} {params.shape}"
                if isinstance(params, np.ndarray)
                else type(params).__name__
            )
            raise ConfigurationError(
                f"params must be a writable contiguous float64 vector of length {size}, got {got}"
            )
        self.pre_weights, self.pre_bias, self.thetas, self.post_weights, self.post_bias = (
            self.split(params)
        )

    def __reduce__(self):
        """Pickle and deepcopy rebuild the model from its params, so the
        copy's blocks are views of the copy's own vector."""
        return HybridModel, (self.spec, self.feature_dim, self.num_classes, self.params)

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a params vector, or a stack (..., P) of them, as the five
        blocks (..., *shape): pre_weights, pre_bias, thetas, post_weights, post_bias."""
        lead = vec.shape[:-1]
        return tuple(vec[..., where].reshape(*lead, *shape) for where, shape in self._slices)

    def copy(self) -> "HybridModel":
        return HybridModel(self.spec, self.feature_dim, self.num_classes, self.params.copy())

    def weight_blocks(self) -> list[np.ndarray]:
        """Trainable arrays in checkpoint order, as views into params."""
        return list(self.split(self.params))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    base_lr: float = 4e-4
    momentum: float = 0.9
    workers: int = 1
    seed: int = 0
    lr_scaling: str = "linear"  # {"linear", "none"}; see lr

    def __post_init__(self):
        for name in ("epochs", "batch_size", "workers"):
            whole_number(name, getattr(self, name), 1)
        whole_number("seed", self.seed, 0)
        real_number("base_lr", self.base_lr, above=True)
        real_number("momentum", self.momentum)
        if self.lr_scaling not in ("linear", "none"):
            raise ConfigurationError(f"unknown lr_scaling {self.lr_scaling!r}")

    @property
    def lr(self) -> float:
        """base_lr, times the worker count under "linear" scaling (Goyal et
        al., arXiv:1706.02677)."""
        return self.base_lr * self.workers if self.lr_scaling == "linear" else self.base_lr


def init_model(
    spec: CircuitSpec, feature_dim: int, num_classes: int, seed: int
) -> HybridModel:
    """Seeded init: linear layers uniform +-1/sqrt(fan_in), angles N(0, 0.01).

    Small initial angles keep the circuit near identity early in training.
    The draws come from data.seeded_rng(seed), so runs reproduce
    bit-for-bit across platforms.
    """
    _, size = _block_slices(spec, feature_dim, num_classes)
    rng = seeded_rng(seed)
    pre_bound = 1.0 / np.sqrt(feature_dim)
    post_bound = 1.0 / np.sqrt(spec.qubits)
    model = HybridModel(spec, feature_dim, num_classes, np.empty(size))
    # One draw per block in params order: the order fixes every seeded model.
    model.pre_weights[...] = rng.uniform(-pre_bound, pre_bound, model.pre_weights.shape)
    model.pre_bias[...] = rng.uniform(-pre_bound, pre_bound, model.pre_bias.shape)
    model.thetas[...] = rng.normal(0.0, 0.01, model.thetas.shape)
    model.post_weights[...] = rng.uniform(-post_bound, post_bound, model.post_weights.shape)
    model.post_bias[...] = rng.uniform(-post_bound, post_bound, model.post_bias.shape)
    return model


def _squash(model: HybridModel, x: np.ndarray, features: np.ndarray) -> np.ndarray:
    """tanh of the pre-net output for x (B, D) or (N, B, D), one (q, D) @
    (D, B) product per batch, C-ordered (the product's transpose is not),
    so the embedding angles, (pi/2) times it, reach the circuit rows first.

    A non-finite entry of the caller's `features`, which x views, raises
    ConfigurationError naming its index. It makes its sample's pre-net
    outputs non-finite, and tanh would squash an inf, so only the small
    output is checked and `features` is searched only when that fails;
    finite features whose outputs overflow pass on as before.
    """
    z = (model.pre_weights @ x.swapaxes(-1, -2)).swapaxes(-1, -2) + model.pre_bias
    if np.count_nonzero(np.isfinite(z)) < z.size:
        bad = np.argwhere(~np.isfinite(features))
        if len(bad):
            where = tuple(int(i) for i in bad[0])
            raise ConfigurationError(f"features{list(where)} is {features[where]}, not a finite number")
    return np.tanh(z, order="C")


def _as_features(model: HybridModel, features, replicas: bool = False) -> np.ndarray:
    """features as float64, shape (D,) or (n, D), or (N, B, D) with
    `replicas`; a ragged list, anything numpy cannot read as numbers or
    any other shape raises ConfigurationError."""
    features = float_array("features", features)
    dim = model.feature_dim
    if not 1 <= features.ndim <= (3 if replicas else 2) or features.shape[-1] != dim:
        forms = f"({dim},) or (n, {dim})" + (f" or (N, B, {dim})" if replicas else "")
        raise ConfigurationError(f"features shape {features.shape} != {forms}")
    return features


def forward(model: HybridModel, features: np.ndarray) -> np.ndarray:
    """Logits (n, C) for n feature vectors (n, D), or (C,) for one (D,), run
    as its one-row batch. A non-finite feature raises ConfigurationError
    naming its index."""
    features = _as_features(model, features)
    embed = (np.pi / 2.0) * _squash(model, features.reshape(-1, model.feature_dim), features)
    logits = quantum_forward(model.spec, model.thetas, embed) @ model.post_weights.T + model.post_bias
    return logits[0] if features.ndim == 1 else logits


def _softmax_terms(
    logits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted logits, their exponentials and the sums of those over the
    last axis (kept as a length-1 axis): the terms of a softmax that cannot
    overflow."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def _one_hot(labels, num_classes: int) -> np.ndarray:
    """Labels as a (B, C) boolean one-hot, B = labels.size; a label out of
    range, NaN too, or not whole raises ValueError."""
    labels = np.asarray(labels).reshape(-1)
    onehot = labels[:, None] == np.arange(num_classes)
    # A valid label equals exactly one class index, so B hits mean all valid.
    if np.count_nonzero(onehot) < len(labels):
        ok = (labels >= 0) & (labels < num_classes)  # False for NaN
        if not ok.all():
            raise ValueError(f"label {labels[~ok][0]} out of range for {num_classes} classes")
        raise ValueError(f"label {labels[~onehot.any(axis=1)][0]} is not a whole number")
    return onehot


def loss_cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], stable under large logits."""
    logits = float_array("logits", logits)
    (hit,) = _one_hot(label, logits.shape[0])
    shifted, _, e_sum = _softmax_terms(logits)
    return float(np.log(e_sum[0]) - shifted[hit][0])


def backward(
    model: HybridModel, features: np.ndarray, label: int | np.ndarray
) -> tuple[np.ndarray, float] | tuple[np.ndarray, np.ndarray]:
    """Exact gradient and loss for one labeled sample, a batch, or one
    batch per replica.

    features (D,) with an int label gives that sample's gradient and loss;
    features (B, D) with labels (B,) gives the batch-mean gradient and the
    mean loss. features (N, B, D) with labels (N, B) gives the N replicas'
    batch-mean gradients (N, P) and mean losses (N,), row n bit-identical
    to the (B, D) call on features[n]: every form is one pass over
    (N, B, ·) arrays, N = 1 for the first two, whose matmuls keep one
    replica's (B, D) slices, as a matmul's sums may follow its operands'
    shapes. A gradient is a float64 vector laid out like model.params. A
    non-finite feature raises ConfigurationError naming its index.
    """
    features = _as_features(model, features, replicas=True)
    labels = np.asarray(label)
    if labels.shape != features.shape[:-1]:
        raise ConfigurationError(
            f"labels shape {labels.shape} does not match features {features.shape}"
        )
    if labels.size == 0:
        raise ConfigurationError("empty batch")

    x = features.reshape(len(features) if features.ndim == 3 else 1, -1, model.feature_dim)
    n, b, _ = x.shape
    q, dq = model.spec.qubits, model.thetas.size
    onehot = _one_hot(labels, model.num_classes).reshape(n, b, -1)  # (N, B, C) bool
    t = _squash(model, x, features)  # (N, B, q)
    jac_thetas, jac_embed, qout = param_shift_grad(
        model.spec, model.thetas, ((np.pi / 2.0) * t).reshape(n * b, q)
    )
    # The order of a matmul's sums follows its operands' strides, so both
    # Jacobians are contracted C-ordered (param_shift_grad returns them so;
    # no copy), and so is each replica's slice of them.
    jac_thetas = np.ascontiguousarray(jac_thetas).reshape(n, b * q, dq)
    jac_embed = np.ascontiguousarray(jac_embed).reshape(n, b, q, q)
    qout = qout.reshape(n, b, q)

    logits = qout @ model.post_weights.T + model.post_bias  # (N, B, C)
    shifted, e, e_sum = _softmax_terms(logits)
    losses = (np.log(e_sum[..., 0]) - shifted[onehot].reshape(n, b)).sum(axis=1) / b

    # Softmax minus one-hot, scaled by 1/B so every sum below is a batch mean.
    dlogits = e / e_sum
    dlogits -= onehot
    dlogits /= b

    grads = np.empty((n, model.params.size))
    g_pre_w, g_pre_b, g_thetas, g_post_w, g_post_b = model.split(grads)
    np.matmul(dlogits.swapaxes(1, 2), qout, out=g_post_w)
    dlogits.sum(axis=1, out=g_post_b)

    dqout = dlogits @ model.post_weights  # (N, B, q)
    # Sums over samples b and outputs o: (1, B*q) @ (B*q, d*q) for
    # thetas, and per sample (1, q) @ (q, q) for the embedding angles.
    np.matmul(dqout.reshape(n, 1, b * q), jac_thetas, out=g_thetas.reshape(n, 1, dq))
    dembed = np.matmul(dqout[..., None, :], jac_embed)[..., 0, :]  # (N, B, q)

    dz = dembed * (np.pi / 2.0) * (1.0 - t**2)
    np.matmul(dz.swapaxes(1, 2), x, out=g_pre_w)
    dz.sum(axis=1, out=g_pre_b)
    if features.ndim == 3:
        return grads, losses
    return grads[0], float(losses[0])


def batch_gradient(
    model: HybridModel, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, float] | tuple[np.ndarray, np.ndarray]:
    """Mean gradient and mean loss over a batch, features (B, D), labels
    (B,), or per replica, features (N, B, D), labels (N, B): one backward
    call."""
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
    model.params. Before anything changes, a learning rate that is not a
    finite real number > 0, a momentum that is not one >= 0 (the
    TrainConfig rules of errors.real_number, which rejects a bool) or a
    grad or velocity that is not an array of params' shape raises
    ConfigurationError naming it, and a non-finite gradient raises
    TrainingError."""
    real_number("learning rate", lr, above=True)
    real_number("momentum", momentum)
    for name, vector in (("grad", grad), ("velocity", velocity)):
        if not (isinstance(vector, np.ndarray) and vector.shape == model.params.shape):
            raise ConfigurationError(
                f"{name} must be an array of params' shape {model.params.shape}, "
                f"got {np.shape(vector)}"
            )
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient; aborting training")
    velocity *= momentum
    velocity += grad
    model.params -= lr * velocity


def check_fits(model: HybridModel, dataset) -> None:
    """Raise ConfigurationError unless the dataset has the model's width and classes."""
    if dataset.feature_dim != model.feature_dim or dataset.num_classes > model.num_classes:
        raise ConfigurationError(
            f"dataset of D={dataset.feature_dim}, C={dataset.num_classes} does not fit "
            f"a model of D={model.feature_dim}, C={model.num_classes}"
        )


def evaluate(model: HybridModel, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Argmax ties break toward the lowest class index.
    """
    check_fits(model, dataset)
    predicted = np.argmax(forward(model, dataset.features), axis=1)
    return int(np.count_nonzero(predicted == dataset.labels)) / len(dataset)


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
    _, size = _block_slices(spec, dim, classes)
    expected = header_end + 8 * size
    if len(raw) < expected:
        raise ConfigurationError("truncated checkpoint")
    if len(raw) > expected:
        raise ConfigurationError(f"{len(raw) - expected} trailing bytes after checkpoint weights")
    params = np.frombuffer(raw, dtype="<f8", offset=header_end).astype(np.float64)
    if not np.isfinite(params).all():
        raise ConfigurationError("non-finite checkpoint weight")
    return HybridModel(spec, dim, classes, params)
