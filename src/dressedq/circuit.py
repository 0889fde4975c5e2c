"""Variational circuit layer: layout, forward pass, parameter-shift gradients.

Circuit layout (fixed):
    H on every wire
    RY(embed_angles[i]) on wire i
    repeat depth times:
        CNOT(i -> i+1) for even i, then for odd i
        RY(thetas[layer][i]) on wire i
    measure <Z> on every wire

Gradients use the exact parameter-shift rule for RY generators:
d(out)/d(angle) = [f(angle + pi/2) - f(angle - pi/2)] / 2.

A call checks its arguments' shapes, then turns all of its angles into one
qsim.Rotation for the embedding and one for the thetas (where they are
checked finite), and hands each gate its indexed view of those.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import ConfigurationError

MAX_DEPTH = 64

# Running count of circuits run by quantum_forward in this process, plus
# those pool workers report back. Used to validate circuit-evaluation
# arithmetic against a real training epoch.
_forward_evals = 0

# A batched call runs its rows in chunks of at most max(1, BATCH_AMPLITUDES
# >> q) rows, so one chunk holds about 2^18 float64 amplitudes (2 MiB)
# whatever the batch size.
BATCH_AMPLITUDES = 1 << 18


def forward_eval_count() -> int:
    """Total circuit runs since process start (monotone counter)."""
    return _forward_evals


def add_forward_evals(count: int) -> None:
    """Credit circuit runs made in another process, such as a pool worker."""
    global _forward_evals
    _forward_evals += count


@dataclass(frozen=True)
class CircuitSpec:
    """Circuit topology: qubit count and number of entangling layers."""

    qubits: int = 4
    depth: int = 6

    def __post_init__(self):
        if not (1 <= self.qubits <= qsim.MAX_QUBITS):
            raise ConfigurationError(
                f"qubits={self.qubits} outside 1..{qsim.MAX_QUBITS}"
            )
        if not (0 <= self.depth <= MAX_DEPTH):
            raise ConfigurationError(f"depth={self.depth} outside 0..{MAX_DEPTH}")


def _check_args(spec: CircuitSpec, thetas: np.ndarray, embed_angles: np.ndarray):
    q, d = spec.qubits, spec.depth
    if embed_angles.ndim not in (1, 2) or embed_angles.shape[-1] != q:
        raise ConfigurationError(
            f"embed_angles shape {embed_angles.shape} != ({q},) or (K, {q})"
        )
    if thetas.shape not in ((d, q), (*embed_angles.shape[:-1], d, q)):
        raise ConfigurationError(
            f"thetas shape {thetas.shape} != ({d}, {q}) or (K, {d}, {q})"
        )


def quantum_forward(
    spec: CircuitSpec, thetas: np.ndarray, embed_angles: np.ndarray
) -> np.ndarray:
    """Run the circuit; returns the per-wire Z expectations.

    thetas holds the trainable angles, one per (layer, wire), shape
    (depth, q). embed_angles of shape (q,) runs one circuit and returns
    shape (q,). A batch of shape (K, q) runs K circuits as the columns of
    one (2^q, K) state and returns (K, q); thetas are then shared, shape
    (depth, q), or one set per row, shape (K, depth, q). Each row's result
    equals the single-circuit call's exactly. A non-finite angle raises
    ValueError (from qsim.Rotation) before any circuit runs. Counts K
    circuit evaluations.
    """
    global _forward_evals
    embed_angles = np.asarray(embed_angles, dtype=float)
    _check_args(spec, thetas, embed_angles)
    embeds = embed_angles.reshape(-1, spec.qubits)
    k = len(embeds)
    # Rows last, like the state: embed_rot[i] and theta_rot[layer, i] are
    # one gate's angle, shared or a (K,) vector with one per row.
    embed_rot = qsim.Rotation(embeds.T)
    shared = thetas.ndim == 2
    theta_rot = qsim.Rotation(thetas if shared else thetas.transpose(1, 2, 0))
    _forward_evals += k

    out = np.empty((k, spec.qubits))
    chunk = max(1, BATCH_AMPLITUDES >> spec.qubits)
    for start in range(0, k, chunk):
        rows = slice(start, start + chunk)
        out[rows] = _run_rows(
            spec, theta_rot if shared else theta_rot[..., rows], embed_rot[:, rows]
        )
    return out[0] if embed_angles.ndim == 1 else out


def _run_rows(
    spec: CircuitSpec, theta_rot: qsim.Rotation, embed_rot: qsim.Rotation
) -> np.ndarray:
    """The circuit layout on a rows-last (2^q, K) state, circuit k in
    column k; embed_rot holds (q, K) angles, theta_rot (d, q) shared ones
    or (d, q, K) per-row ones. Returns the (K, q) Z expectations."""
    q = spec.qubits
    state = qsim.new_zero_state(q, rows=embed_rot.cos.shape[1])
    for i in range(q):
        qsim.apply_h(state, i)
    for i in range(q):
        qsim.apply_ry(state, i, embed_rot[i])
    for layer in range(spec.depth):
        for i in range(0, q - 1, 2):
            qsim.apply_cnot(state, i, i + 1)
        for i in range(1, q - 1, 2):
            qsim.apply_cnot(state, i, i + 1)
        for i in range(q):
            qsim.apply_ry(state, i, theta_rot[layer, i])
    return qsim.expect_z_all(state)


@functools.lru_cache(maxsize=16)
def _shift_table(n: int) -> np.ndarray:
    """The read-only (1 + 2n, n) parameter-shift offsets: row 0 is zero, and
    rows 2p+1 and 2p+2 add +pi/2 and -pi/2 to angle p."""
    table = np.zeros((1 + 2 * n, n))
    p = np.arange(n)
    table[2 * p + 1, p] = np.pi / 2.0
    table[2 * p + 2, p] = -np.pi / 2.0
    table.setflags(write=False)
    return table


def param_shift_grad(
    spec: CircuitSpec, thetas: np.ndarray, embed_angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Jacobians of every output w.r.t. every angle.

    Returns (jac_thetas, jac_embed, value) where, for thetas (depth, q) and
    embed_angles (q,),
      jac_thetas[o, l, i] = d out[o] / d thetas[l, i]   shape (q, depth, q)
      jac_embed[o, j]     = d out[o] / d embed[j]       shape (q, q)
      value               = quantum_forward at the unshifted point.
    For a batch of B samples, embed_angles (B, q), each result gains a
    leading B axis and row b equals the single-sample call on embed_angles[b]
    exactly. Costs 1 + 2*(depth*q + q) circuit evaluations per sample; all
    B samples run as one quantum_forward batch, whose angles are the base
    angles plus the cached shift table (`_shift_table`) in one broadcast add.
    """
    embed_angles = np.asarray(embed_angles, dtype=float)
    q, d = spec.qubits, spec.depth
    if (
        thetas.shape != (d, q)
        or embed_angles.ndim not in (1, 2)
        or embed_angles.shape[-1] != q
        or embed_angles.size == 0
    ):
        raise ConfigurationError(
            f"param_shift_grad takes thetas ({d}, {q}) and embed_angles ({q},) "
            f"or (B, {q}) with B >= 1, got {thetas.shape} and {embed_angles.shape}"
        )
    # Per sample, row 0 is the unshifted point; rows 2p+1 and 2p+2 shift
    # angle p (thetas in row-major order, then the embedding angles) by +pi/2
    # and -pi/2.
    embeds = embed_angles.reshape(-1, q)
    b, n, k = len(embeds), d * q + q, circuit_evals_per_sample(spec)
    base = np.empty((b, 1, n))
    base[:, 0, : d * q] = thetas.ravel()
    base[:, 0, d * q :] = embeds
    angles = base + _shift_table(n)
    thetas_rows = angles[:, :, : d * q].reshape(b * k, d, q)
    embed_rows = angles[:, :, d * q :].reshape(b * k, q)
    out = quantum_forward(spec, thetas_rows, embed_rows).reshape(b, k, q)
    diffs = (out[:, 1::2] - out[:, 2::2]) / 2.0  # [b, p]: d out / d angle p
    jac_thetas = diffs[:, : d * q].transpose(0, 2, 1).reshape(b, q, d, q)
    jac_embed = diffs[:, d * q :].transpose(0, 2, 1)
    if embed_angles.ndim == 1:
        return jac_thetas[0], jac_embed[0], out[0, 0]
    return jac_thetas, jac_embed, out[:, 0]


def circuit_evals_per_sample(spec: CircuitSpec) -> int:
    """Circuit runs needed for one sample's value-plus-gradient pass."""
    trainable = spec.depth * spec.qubits
    return 1 + 2 * (trainable + spec.qubits)
