"""Dense statevector simulator for the H / RY / CNOT gate set.

Conventions:
- Wire 0 is the most significant bit of the basis-state index, so for
  q=3 the basis state |100> (wire 0 set) lives at index 4.
- Amplitudes are float64: every gate in the set is real, so a register
  started in |0...0> stays real. A state holds one row of 2^q amplitudes,
  shape (2^q,), or K independent rows stored rows-last, shape (2^q, K):
  row k is column k. Every gate acts on all rows at once as a few
  elementwise passes whose inner loop runs over the K values of one basis
  state; RY takes one angle for all rows or one angle per row.
- RY angles are checked finite and turned into the cos and sin of their
  halves in one place, `Rotation`. A caller with many gates to run builds
  one `Rotation` over all their angles and hands each gate its indexed
  view, so no gate checks or converts an angle again.
- Each amplitude goes through the same arithmetic whatever the row count,
  so a row of a batch equals its single-row run bit for bit.
- H and RY act through axis views of the amplitude array. CNOT only moves
  amplitudes, so a sequence of CNOTs is one permutation of the basis
  states, applied as one gather through a cached index. No full 2^q x 2^q
  matrix is ever built here (the dense Kronecker oracle lives in the test
  suite only).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError, float_array, whole_number

# 2^24 amplitudes is 128 MiB of doubles per row; anything above that is
# rejected rather than allowed to thrash the machine.
MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """A register of q qubits: amplitudes of shape (2^q,) for one row, or
    (2^q, K) for K rows, row k being column k. `num_qubits` is q, read off
    the length: a power of two from 2 to 2^MAX_QUBITS, else ConfigurationError.

    The amplitudes are kept C-contiguous float64 (a copy is made if need
    be): H and RY write through reshaped views of them, and CNOT rebinds
    them to its gathered array. Complex
    amplitudes raise ConfigurationError rather than lose their imaginary
    parts.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes)
        shape = amplitudes.shape
        length = shape[0] if len(shape) in (1, 2) else 0
        self.num_qubits = q = length.bit_length() - 1
        if not (1 <= q <= MAX_QUBITS and length == 1 << q):
            raise ConfigurationError(
                f"amplitudes shape {shape} is not (2^q,) or (2^q, K) for q in 1..{MAX_QUBITS}"
            )
        if amplitudes.dtype.kind == "c":
            raise ConfigurationError("amplitudes are complex; the H/RY/CNOT gate set keeps them real")
        self.amplitudes = np.ascontiguousarray(amplitudes, dtype=float)


def new_zero_state(num_qubits: int, rows: int | None = None) -> StateVector:
    """|0...0> as one row of shape (2^q,), or as `rows` rows of shape
    (2^q, rows). num_qubits must be a whole number in 1..MAX_QUBITS and
    rows one >= 0, else ConfigurationError naming the argument."""
    size = 1 << whole_number("num_qubits", num_qubits, 1, MAX_QUBITS)
    amps = np.zeros(size if rows is None else (size, whole_number("rows", rows, 0)))
    amps[0] = 1.0
    return StateVector(amps)


def _check_wire(q: int, wire: int) -> int:
    """`wire` as an int, IndexError naming it unless it is a whole number in
    0..q-1 by errors.whole_number's rule: a bool would act on wire 0 or 1,
    and a float would fail only after a gate had changed the amplitudes."""
    if type(wire) is int and 0 <= wire < q:
        return wire
    try:
        return whole_number("wire", wire, 0, q - 1)
    except ConfigurationError as err:
        raise IndexError(str(err)) from None


def _split(values: np.ndarray, wire: int) -> np.ndarray:
    """View (2^wire, 2, rest) of a (2^q,) or (2^q, K) array, the rows folded
    into the last axis; axis 1 is the wire's bit."""
    return values.reshape(1 << wire, 2, -1)


def apply_h(state: StateVector, wire: int) -> StateVector:
    """Hadamard on one wire of every row, in place: (a0 + a1, a0 - a1) of
    the amplitudes scaled by 2^-1/2."""
    _check_wire(state.num_qubits, wire)
    amps = state.amplitudes
    scaled = amps * _INV_SQRT2
    view, other = _split(amps, wire), _split(scaled, wire)
    a0, a1 = other[:, 0], other[:, 1]
    np.add(a0, a1, view[:, 0])
    np.subtract(a0, a1, view[:, 1])
    return state


class Rotation:
    """cos and sin of half of RY angles of any shape, the angles checked finite.

    `Rotation(angles)` takes a lone angle or an array of them, converts
    them by errors.float_array (ConfigurationError naming `angles` for
    anything numpy cannot read as numbers) and raises ValueError for a
    non-finite one. A lone angle gives numpy float64 scalars, not 0-d
    arrays, and any angle gets the same bits alone as in an array, so a
    batch row equals its single-row run. `rotation[index]` is the Rotation of
    `angles[index]`, made by indexing the stored cos and sin without a
    second check: an index that picks one angle gives a shared-angle gate,
    one that picks a (K,) vector gives a per-row gate of a K-row state.
    """

    __slots__ = ("cos", "sin")

    def __init__(self, angles):
        half = float_array("angles", angles) / 2.0
        # count_nonzero reads a mask faster than ndarray.all does.
        if np.count_nonzero(np.isfinite(half)) < half.size:
            raise ValueError(f"non-finite rotation angle in {angles!r}")
        self.cos, self.sin = np.cos(half), np.sin(half)

    def __getitem__(self, index) -> "Rotation":
        view = Rotation.__new__(Rotation)
        view.cos, view.sin = self.cos[index], self.sin[index]
        return view


def apply_ry(state: StateVector, wire: int, theta) -> StateVector:
    """Y-axis rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]], in place.

    `theta` is one angle for every row, a length-K vector with one angle
    per row of a (2^q, K) state, or a `Rotation` holding either; a plain
    angle or vector is checked and converted through `Rotation`, a
    `Rotation` is used as it is. A per-row angle count other than K raises
    ValueError.
    """
    _check_wire(state.num_qubits, wire)
    amps = state.amplitudes
    rot = theta if isinstance(theta, Rotation) else Rotation(theta)
    c, s = rot.cos, rot.sin
    if c.shape:
        rows = amps.shape[1] if amps.ndim == 2 else 1
        if c.shape != (rows,):
            raise ValueError(f"{c.shape} rotation angles for {rows} state rows")
    # (c*a0 - s*a1, s*a0 + c*a1): c and s broadcast along the rows axis of
    # the whole array, then the two halves of the wire split combine.
    scaled = amps * s
    amps *= c
    view, other = _split(amps, wire), _split(scaled, wire)
    a0 = view[:, 0]
    np.subtract(a0, other[:, 1], a0)
    a1 = view[:, 1]
    np.add(a1, other[:, 0], a1)
    return state


def apply_cnot(state: StateVector, control, target) -> StateVector:
    """Flip the target bit on basis states whose control bit is 1.

    `control` and `target` are two wires, or two equal-length tuples of
    wires for the CNOTs (control[j], target[j]) applied in that order. The
    CNOTs move the amplitudes of every row by one gather through
    `_cnot_index`, and state.amplitudes is rebound to the gathered array.
    A wire that is not a whole number in 0..q-1, a pair of equal wires or
    tuples of unequal length raise IndexError before any amplitude moves.
    """
    pairs = (control, target) if type(control) is type(target) is tuple else ((control,), (target,))
    # Only int wires reach the cache: a bool or float would hit the key of
    # the equal int, and a numpy integer is converted first.
    for wire in pairs[0] + pairs[1]:
        if type(wire) is not int:
            pairs = [tuple(_check_wire(state.num_qubits, w) for w in ws) for ws in pairs]
            break
    # take gathers whole rows of K values: about half the time of
    # amplitudes[index] at q=2, K=18, and a third at q=12, K=3.
    state.amplitudes = state.amplitudes.take(_cnot_index(state.num_qubits, *pairs), axis=0)
    return state


@functools.lru_cache(maxsize=8)
def _cnot_index(q: int, controls: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Read-only intp index of the CNOTs (controls[j], targets[j]) in order:
    amps.take(index, axis=0) applies them all. Wires are checked here, once
    per cache miss (a raise is not cached).

    One CNOT maps basis state i to i with the target bit flipped when the
    control bit is set, so later CNOTs compose first. An entry holds 8*2^q
    bytes and the cache at most 8 entries: 4 MiB at q=16, 1 GiB at
    MAX_QUBITS (128 MiB each). An int32 index would take half that, but
    numpy casts it to intp on every gather: 1.03-1.29x slower at q=2..4,
    the sizes the training runs use.
    """
    if len(controls) != len(targets):
        raise IndexError(f"{len(controls)} controls for {len(targets)} targets")
    index = np.arange(1 << q)
    for c, t in zip(reversed(controls), reversed(targets)):
        if _check_wire(q, c) == _check_wire(q, t):
            raise IndexError(f"control and target coincide (wire {c})")
        index ^= ((index >> (q - 1 - c)) & 1) << (q - 1 - t)
    index.setflags(write=False)
    return index


def expect_z_all(state: StateVector) -> np.ndarray:
    """Pauli-Z expectation on every wire, shape (q,) or (K, q): 1 - 2*p1
    clipped to [-1, 1].

    The probabilities fold one wire at a time, most significant first. A
    step adds the wire-set half of every partial sum onto its wire-clear
    half and keeps the wire-set half of the running total as that wire's
    partial p1. Every step is elementwise, so each row sums in the same
    order whatever K is.
    """
    q = state.num_qubits
    amps = state.amplitudes
    # (basis states left, [total, p1 of each folded wire], rows): the
    # halves of the first axis are contiguous blocks.
    sums = (amps * amps).reshape(1 << q, 1, -1)
    size = 1 << q
    for _ in range(q):
        size >>= 1
        lo, hi = sums[:size], sums[size:]
        sums = np.concatenate((lo + hi, hi[:, :1]), axis=1)
    # p1 >= 0, so 1 - 2*p1 <= 1 and only the lower bound can be crossed.
    z = 1.0 - 2.0 * sums[0, 1:].T
    np.maximum(z, -1.0, out=z)
    return z[0] if amps.ndim == 1 else z
