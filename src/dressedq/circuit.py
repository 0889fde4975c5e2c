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

quantum_forward takes one input form: thetas (depth, q), shared by every
circuit of the call, and embedding angles (q,) or (K, q), rows first, as
arrays or nested lists. `_check_args` checks their shapes and
`qsim.Rotation` checks the angles finite and converts them, once per
call; each gate gets an indexed view of the Rotations. param_shift_grad
applies the same shape check to its own arguments; the shift batch it
builds, with thetas per row, reaches quantum_forward as Rotations only
through its `fork` keyword and is not checked again.

A parameter-shift batch forks. A circuit that shifts a layer-l theta
equals its sample's unshifted circuit until layer l's RYs, so the batch's
rows are ordered by where they first differ: the B unshifted rows, then
the embedding shifts, then the layer-0 shifts, then those of each later
layer. The first three groups start as one state through H, the
embedding and layer 0; just before layer l's RYs (l >= 1) the state grows
by layer l's 2qB rows, copies of the B unshifted columns. The gate calls
stay one per gate of the layout, each on fewer rows, and every amplitude
goes through the arithmetic of an unforked run, so results are
bit-identical to running each row from |0...0>. The batch forks only if
all its rows fit one BATCH_AMPLITUDES chunk; otherwise they run unforked
in chunks. The fork lives only in this simulator: a remote backend runs
every shifted circuit from |0...0> as its own job, so
circuit_evals_per_sample, forward_eval_count and latency.jobs_per_epoch
still count each shifted circuit as one evaluation.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import ConfigurationError, whole_number

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
    """Circuit topology: qubit count and number of entangling layers, whole
    numbers in 1..qsim.MAX_QUBITS and 0..MAX_DEPTH, else ConfigurationError
    naming the field."""

    qubits: int = 4
    depth: int = 6

    def __post_init__(self):
        whole_number("qubits", self.qubits, 1, qsim.MAX_QUBITS)
        whole_number("depth", self.depth, 0, MAX_DEPTH)


def _check_args(spec: CircuitSpec, thetas, embed_angles) -> None:
    q, d = spec.qubits, spec.depth
    embed_shape, theta_shape = np.shape(embed_angles), np.shape(thetas)
    if len(embed_shape) not in (1, 2) or embed_shape[-1] != q:
        raise ConfigurationError(
            f"embed_angles shape {embed_shape} != ({q},) or (K, {q})"
        )
    if theta_shape != (d, q):
        raise ConfigurationError(f"thetas shape {theta_shape} != ({d}, {q})")


def quantum_forward(
    spec: CircuitSpec,
    thetas: np.ndarray,
    embed_angles: np.ndarray,
    *,
    fork: int | None = None,
) -> np.ndarray:
    """Run the circuit; returns the per-wire Z expectations.

    thetas holds the trainable angles, one per (layer, wire), shape
    (depth, q), shared by every circuit of the call. embed_angles of shape
    (q,) runs one circuit and returns shape (q,). A batch of shape (K, q)
    runs K circuits as the columns of one (2^q, K) state and returns
    (K, q); each row equals the single-circuit call's exactly, and the
    call counts K circuit evaluations. Both arguments are arrays or nested
    lists of angles: a qsim.Rotation or any other shape raises
    ConfigurationError, and a non-finite angle ValueError (from
    qsim.Rotation), before any circuit runs.

    `fork` is for param_shift_grad only: its sample count B, with per-row
    theta Rotations over the K rows of a B-sample shift batch in
    `_shift_index` order and embedding Rotations over the first stage's
    rows only. Their shapes are taken as checked.
    """
    global _forward_evals
    if fork is None:
        _check_args(spec, thetas, embed_angles)
        thetas, embed_angles = qsim.Rotation(thetas), qsim.Rotation(embed_angles)
    single = embed_angles.cos.ndim == 1
    embed_rot = embed_angles[None] if single else embed_angles
    k = len(thetas.cos if fork else embed_rot.cos)
    _forward_evals += k

    chunk = max(1, BATCH_AMPLITUDES >> spec.qubits)
    if fork and k > chunk:
        # Too large to fork in one chunk: every row runs from |0...0>, a
        # row of a later stage with its sample's unshifted embedding.
        first = len(embed_rot.cos)
        embed_rot = embed_rot[np.r_[:first, np.arange(k - first) % fork]]
    out = np.empty((k, spec.qubits))
    for start in range(0, k, chunk):
        rows = slice(start, start + chunk)
        out[rows] = _run_rows(
            spec, thetas[rows] if fork else thetas, embed_rot[rows], fork if k <= chunk else None
        )
    return out[0] if single else out


def _run_rows(
    spec: CircuitSpec,
    theta_rot: qsim.Rotation,
    embed_rot: qsim.Rotation,
    fork: int | None = None,
) -> np.ndarray:
    """The circuit layout on a rows-last (2^q, K) state, circuit k in
    column k; embed_rot holds (K, q) angles, theta_rot (d, q) shared ones
    or, for param_shift_grad's batch only, (K, d, q) per-row ones. Returns
    the (K, q) Z expectations.

    With `fork` = B, the state starts with embed_rot's rows, and just
    before each later layer's RYs it grows by that layer's 2qB shifted
    rows, copies of its first B columns; theta_rot covers the full batch.
    """
    q = spec.qubits
    shared = theta_rot.cos.ndim == 2
    live = embed_rot.cos.shape[0]
    state = qsim.new_zero_state(q, rows=live)
    for i in range(q):
        qsim.apply_h(state, i)
    for i in range(q):
        qsim.apply_ry(state, i, embed_rot[:, i])
    for layer in range(spec.depth):
        for i in range(0, q - 1, 2):
            qsim.apply_cnot(state, i, i + 1)
        for i in range(1, q - 1, 2):
            qsim.apply_cnot(state, i, i + 1)
        if fork and layer:
            _grow(state, 2 * q, fork)
            live = state.amplitudes.shape[1]
        for i in range(q):
            qsim.apply_ry(state, i, theta_rot[layer, i] if shared else theta_rot[:live, layer, i])
    return qsim.expect_z_all(state)


def _grow(state: qsim.StateVector, copies: int, b: int) -> None:
    """Grow the state by `copies` copies of its first b columns, appended
    in a new C-contiguous amplitude array."""
    amps = state.amplitudes
    size, live = amps.shape
    grown = np.empty((size, live + copies * b))
    grown[:, :live] = amps
    grown[:, live:].reshape(size, copies, b)[...] = amps[:, None, :b]
    state.amplitudes = grown


# The three values an angle takes in a parameter-shift batch: unshifted,
# +pi/2 and -pi/2. All three are formed as sums, the unshifted one as
# angle + 0.0, which turns a -0.0 angle into +0.0 (its sin changes sign).
_SHIFTS = np.array([0.0, np.pi / 2.0, -np.pi / 2.0])


@functools.lru_cache(maxsize=16)
def _shift_index(d: int, q: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather indices of a B-sample parameter-shift batch.

    The batch's angle values are laid out flat as 3 per angle (`_SHIFTS`
    order): the d*q thetas in row-major order, then the q embedding angles
    of each sample. The batch's K = B*(1 + 2n) rows (n = d*q + q angles)
    are ordered by the layer where they first differ from their sample's
    unshifted circuit: the B unshifted rows, then one block of 2B rows per
    angle, the embedding angles first and then the thetas row-major. An
    angle's block is its +pi/2 rows, then its -pi/2 rows, each over the B
    samples in order, so row r belongs to sample r % B. Returns the
    rows-first (K, d, q) theta index, and the (K0, q) embedding index of
    the first stage only: the K0 = K - 2qB*max(d-1, 0) rows that differ by
    the end of layer 0. Both are in Fortran order: a gather keeps its
    index's memory layout, so each gate's column of the gathered tables is
    contiguous, and numpy gathers through a Fortran-ordered index as fast
    as through a C-ordered one (through a transposed view, about 3x slower).
    """
    n_t, n = d * q, d * q + q
    k, k0 = b * (1 + 2 * n), b * (1 + 2 * n) - 2 * q * b * max(d - 1, 0)
    # shift[a, r]: which of _SHIFTS angle a takes in row r, nonzero only in
    # a's own block of the shifted rows, [block, sign, sample].
    p = np.arange(n)
    blocks = np.zeros((n, n, 2, b), dtype=np.intp)
    blocks[p, p] = [[1], [2]]
    shift = np.concatenate((np.zeros((n, b), dtype=np.intp), blocks.reshape(n, -1)), axis=1)
    theta_index = (3 * np.arange(n_t)[:, None] + shift[q:]).reshape(d, q, k)
    samples = np.arange(k0) % b
    embed_index = 3 * (n_t + q * samples + np.arange(q)[:, None]) + shift[:q, :k0]
    theta_index = np.asfortranarray(theta_index.transpose(2, 0, 1))
    embed_index = np.asfortranarray(embed_index.T)
    theta_index.setflags(write=False)
    embed_index.setflags(write=False)
    return theta_index, embed_index


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
    B samples run as one quantum_forward batch. An angle takes only three
    values in it (unshifted, +pi/2, -pi/2), so one qsim.Rotation converts
    those, the thetas once for all samples, and the batch's tables are
    gathered from it through the cached `_shift_index` and passed to
    quantum_forward as Rotations, with `fork=B`, the only call that runs
    per-row thetas. Shapes are checked here by quantum_forward's rule,
    with B >= 1, and a wrong one raises ConfigurationError; a non-finite
    angle raises ValueError. Both happen before any circuit runs.
    """
    _check_args(spec, thetas, embed_angles)
    thetas = np.asarray(thetas, dtype=float)
    embed_angles = np.asarray(embed_angles, dtype=float)
    q, d = spec.qubits, spec.depth
    if embed_angles.size == 0:
        raise ConfigurationError(f"param_shift_grad takes B >= 1 samples, got {embed_angles.shape}")
    embeds = embed_angles.reshape(-1, q)
    b = len(embeds)
    base = np.concatenate((thetas.ravel(), embeds.ravel()))
    rot = qsim.Rotation((base[:, None] + _SHIFTS).ravel())
    theta_index, embed_index = _shift_index(d, q, b)
    out = quantum_forward(spec, rot[theta_index], rot[embed_index], fork=b)
    # d out / d angle as [b, p, o], angle p in fork order (the embedding,
    # then thetas row-major). The Jacobians keep the strides they had before
    # the fork: those decide the order in which backward's matmuls sum, and
    # so their last bits.
    shifted = out[b:].reshape(-1, 2, b, q)
    diffs = np.empty((b, d * q + q, q))
    np.subtract(shifted[:, 0], shifted[:, 1], out=diffs.transpose(1, 0, 2))
    diffs /= 2.0
    jac_thetas = diffs[:, q:].transpose(0, 2, 1).reshape(b, q, d, q)
    jac_embed = diffs[:, :q].transpose(0, 2, 1)
    if embed_angles.ndim == 1:
        return jac_thetas[0], jac_embed[0], out[0]
    return jac_thetas, jac_embed, out[:b]


def circuit_evals_per_sample(spec: CircuitSpec) -> int:
    """Circuit runs needed for one sample's value-plus-gradient pass."""
    trainable = spec.depth * spec.qubits
    return 1 + 2 * (trainable + spec.qubits)
