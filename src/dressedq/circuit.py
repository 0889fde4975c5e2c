"""Variational circuit layer: layout, forward pass, parameter-shift gradients.

Circuit layout (fixed):
    H on every wire
    RY(embed_angles[i]) on wire i
    repeat depth times:
        CNOT(i -> i+1) for even i, then for odd i
        RY(thetas[layer][i]) on wire i
    measure <Z> on every wire

A layer's CNOT ladder is one qsim.apply_cnot call on the (controls,
targets) tuples that `_ladder` builds once per q, so it runs as one
gather through the ladder's cached basis permutation.

Gradients use the exact parameter-shift rule for RY generators:
d(out)/d(angle) = [f(angle + pi/2) - f(angle - pi/2)] / 2.

H and the embedding act on wires that are not yet entangled, so the
simulator builds that part of every circuit as a product state: the q
wires of K circuits run as one one-qubit register of K*q rows through one
H call and one RY call, and q-1 broadcast multiplies join them into the
(2^q, K) state. Each step is elementwise per column, so a row of a batch
still equals its single-row run bit for bit. The embedding angles keep
the callers' rows-first layout all the way to that register, as one flat
(K*q,) Rotation with row k's wire i at k*q + i; only `_run_rows` reads it.

quantum_forward takes one input form: thetas (depth, q), shared by every
circuit of the call, and embedding angles (q,) or (K, q), rows first, as
arrays or nested lists. `_check_args` reads them as float64 arrays and
checks their shapes, and `qsim.Rotation` checks the angles finite and
converts them, once per call; each gate gets an indexed view of the
Rotations. param_shift_grad applies the same check to its own
arguments; the shift batch it builds, with thetas per row, reaches
quantum_forward as Rotations only through its `fork` keyword and is not
checked again.

A parameter-shift batch forks. A circuit that shifts a layer-l theta
equals its sample's unshifted circuit until layer l's RYs, so the batch's
rows are ordered by where they first differ, one closed-form rule
(`_shift_index`): the B unshifted rows, then the embedding shifts, then
the layer-0 shifts, then those of each later layer. The first three
groups start as one product state and run through layer 0 together; just
before layer l's RYs (l >= 1) the state grows by layer l's 2qB rows,
copies of the B unshifted columns. The gate calls stay those of an
unforked run, each on fewer rows, and every amplitude goes through the
arithmetic of an unforked run, so results are bit-identical to running
each row from |0...0>. param_shift_grad is one loop over groups of whole
samples, as many as fit one BATCH_AMPLITUDES chunk, each one
quantum_forward call whose results go straight into the group's rows;
only a single sample whose rows exceed a chunk runs unforked, in chunks.
The fork lives only in this simulator: a remote backend runs every
shifted circuit from |0...0> as its own job, so circuit_evals_per_sample,
forward_eval_count and latency.jobs_per_epoch still count each shifted
circuit as one evaluation.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import ConfigurationError, float_array, whole_number

MAX_DEPTH = 64

# Running count of circuits run by quantum_forward in this process, plus
# those pool workers report back. Used to validate circuit-evaluation
# arithmetic against a real training epoch.
_forward_evals = 0

# A batched call runs its rows in chunks of at most max(1, BATCH_AMPLITUDES
# >> q) rows, so one chunk holds about 2^17 float64 amplitudes (1 MiB)
# whatever the batch size. On a 2-vCPU Xeon (BENCH_21.json) per-circuit
# cost was lowest at 2^16 to 2^17, and at 2^17 for parameter-shift batches.
BATCH_AMPLITUDES = 1 << 17


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


def _check_args(spec: CircuitSpec, thetas, embed_angles) -> tuple[np.ndarray, np.ndarray]:
    """thetas and embed_angles as float64 arrays of quantum_forward's input
    form, else ConfigurationError naming the argument."""
    q, d = spec.qubits, spec.depth
    thetas, embed_angles = float_array("thetas", thetas), float_array("embed_angles", embed_angles)
    if embed_angles.ndim not in (1, 2) or embed_angles.shape[-1] != q:
        raise ConfigurationError(
            f"embed_angles shape {embed_angles.shape} != ({q},) or (K, {q})"
        )
    if thetas.shape != (d, q):
        raise ConfigurationError(f"thetas shape {thetas.shape} != ({d}, {q})")
    return thetas, embed_angles


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
    lists of angles: a ragged list, a qsim.Rotation or anything else numpy
    cannot read as numbers, or any other shape, raises ConfigurationError
    naming the argument, and a non-finite angle ValueError (from
    qsim.Rotation), before any circuit runs.

    `fork` is for param_shift_grad only: the sample count B of one of its
    groups, with the K rows of a B-sample shift batch in `_shift_index`
    order as per-row theta Rotations and one flat (K*q,) embedding
    Rotation, rows first. Their shapes are taken as checked. A batch too
    large for one chunk runs unforked, each row from |0...0> with its own
    embedding angles, which param_shift_grad leaves to a single sample.
    """
    global _forward_evals
    q = spec.qubits
    chunk = max(1, BATCH_AMPLITUDES >> q)
    if fork is None:
        thetas, embeds = _check_args(spec, thetas, embed_angles)
        single = embeds.ndim == 1
        k = embeds.size // q
        thetas, embed_rot = qsim.Rotation(thetas), qsim.Rotation(embeds.ravel())
    else:
        single, k, embed_rot = False, len(thetas.cos), embed_angles
    _forward_evals += k

    out = np.empty((k, q))
    for start in range(0, k, chunk):
        rows = slice(start, start + chunk)
        out[rows] = _run_rows(
            spec,
            thetas[rows] if fork else thetas,
            embed_rot[q * start:q * (start + chunk)],
            fork if k <= chunk else None,
        )
    return out[0] if single else out


def _run_rows(
    spec: CircuitSpec,
    theta_rot: qsim.Rotation,
    embed_rot: qsim.Rotation,
    fork: int | None = None,
) -> np.ndarray:
    """The circuit layout on a rows-last (2^q, K) state, circuit k in
    column k; embed_rot holds the (K*q,) embedding angles rows first (wire
    i of circuit k at k*q + i), theta_rot (d, q) shared ones or, for
    param_shift_grad's batch only, (K, d, q) per-row ones. Returns the
    (K, q) Z expectations.

    H and the embedding run on one one-qubit register of K*q rows laid
    out like embed_rot, whose wires then multiply into the state with
    wire 0 the most significant bit.

    With `fork` = B, the state starts with the K0 = K - 2qB*max(d-1, 0) rows
    that differ by the end of layer 0, and just before each later layer's
    RYs it grows by that layer's 2qB shifted rows, copies of its first B
    columns.
    """
    q, d = spec.qubits, spec.depth
    shared = theta_rot.cos.ndim == 2
    live = len(embed_rot.cos) // q
    if fork and d > 1:
        live -= 2 * q * fork * (d - 1)
        embed_rot = embed_rot[:q * live]
    register = qsim.new_zero_state(1, rows=q * live)
    qsim.apply_h(register, 0)
    qsim.apply_ry(register, 0, embed_rot)
    # Wires join from the last one up, each new wire the most significant
    # bit, so every multiply's inner loop runs over the whole product so far.
    wires = register.amplitudes.reshape(2, live, q)
    amps = wires[:, :, q - 1]
    for i in range(q - 2, -1, -1):
        amps = (wires[:, None, :, i] * amps).reshape(-1, live)
    state = qsim.StateVector(amps)
    controls, targets = _ladder(q)
    for layer in range(d):
        qsim.apply_cnot(state, controls, targets)
        if fork and layer:
            _grow(state, 2 * q, fork)
            live = state.amplitudes.shape[1]
        for i in range(q):
            qsim.apply_ry(state, i, theta_rot[layer, i] if shared else theta_rot[:live, layer, i])
    return qsim.expect_z_all(state)


@functools.lru_cache(maxsize=qsim.MAX_QUBITS)
def _ladder(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (controls, targets) of the layout's CNOT ladder on q wires."""
    return (*range(0, q - 1, 2), *range(1, q - 1, 2)), (*range(1, q, 2), *range(2, q, 2))


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
    of each sample. The batch has K = B*(1 + 2n) rows (n = d*q + q angles),
    ordered by the layer where they first differ from their sample's
    unshifted circuit, and one rule gives every row's values: row r is
    sample r % B's circuit; rows r < B are unshifted, and row r >= B
    shifts only angle (r - B) // 2B in fork order (the embedding angles,
    then the thetas row-major), by +pi/2 in the first B rows of that
    angle's block and by -pi/2 in the next B. Returns the rows-first
    (K, d, q) theta index, in Fortran order, and the flat (K*q,) embedding
    index, rows first. A gather keeps its index's memory layout, so each
    gate's column of the gathered theta tables is contiguous, and numpy
    gathers through a Fortran-ordered index as fast as through a C-ordered
    one (through a transposed view, about 3x slower).
    """
    n_t = d * q
    k = b * (1 + 2 * (n_t + q))
    r = np.arange(k)[:, None]
    # Row r's shifted angle in fork order and its _SHIFTS code there; the
    # unshifted rows r < B fall in angle -1, which matches no angle.
    angle, offset = np.divmod(r - b, 2 * b)
    code = 1 + offset // b
    theta_index = 3 * np.arange(n_t) + code * (angle == q + np.arange(n_t))
    theta_index = np.asfortranarray(theta_index.reshape(k, d, q))
    embed_index = (3 * (n_t + q * (r % b) + np.arange(q)) + code * (angle == np.arange(q))).ravel()
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
    exactly. Costs 1 + 2*(depth*q + q) circuit evaluations per sample. One
    loop runs the samples in groups, as many whole samples as fit one
    BATCH_AMPLITUDES chunk (at least one), each group one quantum_forward
    batch whose differences are written straight into the group's rows of
    the C-ordered results. An angle takes only three values in a group
    (unshifted, +pi/2, -pi/2), so one qsim.Rotation converts those, the
    thetas once for all its samples, and the group's tables are gathered
    from it through the cached `_shift_index` and passed to quantum_forward
    as Rotations, with `fork` = the group's sample count, the only call
    that runs per-row thetas. Shapes are checked here by quantum_forward's
    rule, with B >= 1, and a wrong one raises ConfigurationError; a
    non-finite angle raises ValueError. Both happen before any circuit runs.
    """
    thetas, embed_angles = _check_args(spec, thetas, embed_angles)
    q, d = spec.qubits, spec.depth
    if embed_angles.size == 0:
        raise ConfigurationError(f"param_shift_grad takes B >= 1 samples, got {embed_angles.shape}")
    embeds = embed_angles.reshape(-1, q)
    count = len(embeds)
    group = max(1, (BATCH_AMPLITUDES >> q) // circuit_evals_per_sample(spec))
    jac_thetas, jac_embed = np.empty((count, q, d, q)), np.empty((count, q, q))
    value = np.empty((count, q))
    for start in range(0, count, group):
        rows = slice(start, start + group)
        group_embeds = embeds[rows]
        b = len(group_embeds)
        base = np.concatenate((thetas.ravel(), group_embeds.ravel()))
        rot = qsim.Rotation((base[:, None] + _SHIFTS).ravel())
        theta_index, embed_index = _shift_index(d, q, b)
        out = quantum_forward(spec, rot[theta_index], rot[embed_index], fork=b)
        # shifted[p, sign, b, o], angle p in fork order (the embedding, then
        # thetas row-major); each difference is written through a [p, b, o]
        # view of the group's rows.
        shifted = out[b:].reshape(-1, 2, b, q)
        theta_view = jac_thetas[rows].reshape(b, q, d * q).transpose(2, 0, 1)
        np.subtract(shifted[:q, 0], shifted[:q, 1], out=jac_embed[rows].transpose(2, 0, 1))
        np.subtract(shifted[q:, 0], shifted[q:, 1], out=theta_view)
        value[rows] = out[:b]
    jac_thetas /= 2.0
    jac_embed /= 2.0
    if embed_angles.ndim == 1:
        return jac_thetas[0], jac_embed[0], value[0]
    return jac_thetas, jac_embed, value


def circuit_evals_per_sample(spec: CircuitSpec) -> int:
    """Circuit runs needed for one sample's value-plus-gradient pass."""
    trainable = spec.depth * spec.qubits
    return 1 + 2 * (trainable + spec.qubits)
