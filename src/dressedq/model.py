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

import struct
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, QuantumParams, param_shift_grad, quantum_forward
from .errors import ConfigurationError, TrainingError

CHECKPOINT_MAGIC = b"HYQN1"


@dataclass
class HybridModel:
    spec: CircuitSpec
    feature_dim: int
    num_classes: int
    pre_weights: np.ndarray  # (q, D)
    pre_bias: np.ndarray  # (q,)
    qparams: QuantumParams  # thetas (d, q)
    post_weights: np.ndarray  # (C, q)
    post_bias: np.ndarray  # (C,)

    def __post_init__(self):
        q, d = self.spec.qubits, self.spec.depth
        expected = {
            "pre_weights": (q, self.feature_dim),
            "pre_bias": (q,),
            "post_weights": (self.num_classes, q),
            "post_bias": (self.num_classes,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigurationError(f"{name} shape {arr.shape} != {shape}")
        if self.qparams.thetas.shape != (d, q):
            raise ConfigurationError(
                f"thetas shape {self.qparams.thetas.shape} != ({d}, {q})"
            )

    def copy(self) -> "HybridModel":
        return HybridModel(
            spec=self.spec,
            feature_dim=self.feature_dim,
            num_classes=self.num_classes,
            pre_weights=self.pre_weights.copy(),
            pre_bias=self.pre_bias.copy(),
            qparams=self.qparams.copy(),
            post_weights=self.post_weights.copy(),
            post_bias=self.post_bias.copy(),
        )

    def weight_blocks(self) -> list[np.ndarray]:
        """Trainable arrays in checkpoint order."""
        return [
            self.pre_weights,
            self.pre_bias,
            self.qparams.thetas,
            self.post_weights,
            self.post_bias,
        ]


@dataclass
class Gradients:
    """Gradients (or momentum buffers) matching the model's weight blocks."""

    pre_weights: np.ndarray
    pre_bias: np.ndarray
    thetas: np.ndarray
    post_weights: np.ndarray
    post_bias: np.ndarray

    def blocks(self) -> list[np.ndarray]:
        return [
            self.pre_weights,
            self.pre_bias,
            self.thetas,
            self.post_weights,
            self.post_bias,
        ]

    @staticmethod
    def zeros_like(model: HybridModel) -> "Gradients":
        return Gradients(*(np.zeros_like(b) for b in model.weight_blocks()))

    def add_(self, other: "Gradients") -> "Gradients":
        for a, b in zip(self.blocks(), other.blocks()):
            a += b
        return self

    def scale_(self, factor: float) -> "Gradients":
        for a in self.blocks():
            a *= factor
        return self

    def copy(self) -> "Gradients":
        return Gradients(*(b.copy() for b in self.blocks()))

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(b)) for b in self.blocks())


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    base_lr: float = 4e-4
    momentum: float = 0.9
    workers: int = 1
    seed: int = 0
    lr_scaling: str = "linear"  # {"linear", "none"}
    # Optional step decay (x0.1 every 10 epochs); off for benchmark sweeps.
    lr_step_decay: bool = False

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
    return HybridModel(
        spec=spec,
        feature_dim=feature_dim,
        num_classes=num_classes,
        pre_weights=rng.uniform(-pre_bound, pre_bound, size=(q, feature_dim)),
        pre_bias=rng.uniform(-pre_bound, pre_bound, size=q),
        qparams=QuantumParams(rng.normal(0.0, 0.01, size=(d, q))),
        post_weights=rng.uniform(-post_bound, post_bound, size=(num_classes, q)),
        post_bias=rng.uniform(-post_bound, post_bound, size=num_classes),
    )


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
    qout = quantum_forward(model.spec, model.qparams, embed)
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
) -> tuple[Gradients, float]:
    """Loss and exact gradients for one labeled sample or a batch.

    features (D,) with an int label gives that sample's gradients and loss;
    features (B, D) with labels (B,) gives the batch-mean gradients and the
    mean loss, from one param_shift_grad call over all B samples.
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
    jac_thetas, jac_embed, qout = param_shift_grad(model.spec, model.qparams, embed)
    logits = qout @ model.post_weights.T + model.post_bias  # (B, C)
    shifted, e, e_sum = _softmax_terms(logits)
    losses = np.log(e_sum[:, 0]) - shifted[rows, labels]

    # Softmax minus one-hot, scaled by 1/B so every sum below is a batch mean.
    dlogits = e / e_sum
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)

    g_post_w = dlogits.T @ qout
    g_post_b = dlogits.sum(axis=0)

    dqout = dlogits @ model.post_weights  # (B, q)
    g_thetas = np.einsum("bo,boli->li", dqout, jac_thetas)  # (d, q)
    dembed = np.einsum("bo,boj->bj", dqout, jac_embed)  # (B, q)

    dz = dembed * (np.pi / 2.0) * (1.0 - np.tanh(z) ** 2)
    g_pre_w = dz.T @ feats
    g_pre_b = dz.sum(axis=0)

    grads = Gradients(g_pre_w, g_pre_b, g_thetas, g_post_w, g_post_b)
    return grads, float(losses.sum() / len(labels))


def batch_gradient(
    model: HybridModel, features: np.ndarray, labels: np.ndarray
) -> tuple[Gradients, float]:
    """Mean gradient and mean loss over a batch, features (B, D), labels (B,):
    one backward call."""
    return backward(model, features, labels)


def sgd_step(
    model: HybridModel,
    grads: Gradients,
    lr: float,
    momentum: float,
    velocity: Gradients,
) -> None:
    """In-place momentum SGD: v <- momentum*v + g; w <- w - lr*v."""
    if lr <= 0:
        raise ConfigurationError("learning rate must be positive")
    if not grads.is_finite():
        raise TrainingError("non-finite gradient; aborting training")
    for w, g, v in zip(model.weight_blocks(), grads.blocks(), velocity.blocks()):
        v *= momentum
        v += g
        w -= lr * v


def evaluate(model: HybridModel, dataset) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Argmax ties break toward the lowest class index.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _, embeds = _embed(model, dataset.features)
    qout = quantum_forward(model.spec, model.qparams, embeds)
    logits = qout @ model.post_weights.T + model.post_bias
    return int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels)) / len(dataset)


def save_checkpoint(model: HybridModel, path: str) -> None:
    """Binary checkpoint: magic "HYQN1", q/d/D/C int32 LE, then float64 LE blocks."""
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
        for block in model.weight_blocks():
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


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
    shapes = [(q, dim), (q,), (d, q), (classes, q), (classes,)]
    sizes = [int(np.prod(shape)) for shape in shapes]
    expected = header_end + 8 * sum(sizes)
    if len(raw) < expected:
        raise ConfigurationError("truncated checkpoint")
    if len(raw) > expected:
        raise ConfigurationError(f"{len(raw) - expected} trailing bytes after checkpoint weights")
    weights = np.frombuffer(raw, dtype="<f8", offset=header_end).astype(float)
    if not np.all(np.isfinite(weights)):
        raise ConfigurationError("non-finite checkpoint weight")
    blocks = [
        block.reshape(shape)
        for block, shape in zip(np.split(weights, np.cumsum(sizes)[:-1]), shapes)
    ]
    return HybridModel(
        spec=spec,
        feature_dim=dim,
        num_classes=classes,
        pre_weights=blocks[0],
        pre_bias=blocks[1],
        qparams=QuantumParams(blocks[2]),
        post_weights=blocks[3],
        post_bias=blocks[4],
    )
