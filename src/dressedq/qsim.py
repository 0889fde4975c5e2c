"""Dense statevector simulator for the H / RY / CNOT gate set.

Conventions:
- Wire 0 is the most significant bit of the basis-state index, so for
  q=3 the basis state |100> (wire 0 set) lives at index 4.
- Amplitudes are float64: every gate in the set is real, so a register
  started in |0...0> stays real. A state holds one row of 2^q amplitudes,
  shape (2^q,), or K independent rows, shape (K, 2^q). Every gate acts on
  all rows at once; RY takes one angle for all rows or one angle per row.
- Gates act through axis views of the amplitude array; no full 2^q x 2^q
  matrix is ever built here (the dense Kronecker oracle lives in the test
  suite only).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# 2^24 amplitudes is 128 MiB of doubles per row; anything above that is
# rejected rather than allowed to thrash the machine.
MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """A register of `num_qubits` qubits as 2^q real amplitudes per row."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes


def new_zero_state(num_qubits: int, rows: int | None = None) -> StateVector:
    """|0...0> as one row of shape (2^q,), or as `rows` rows of shape (rows, 2^q)."""
    if not (1 <= num_qubits <= MAX_QUBITS):
        raise ConfigurationError(
            f"qubit count {num_qubits} outside supported range 1..{MAX_QUBITS}"
        )
    amps = np.zeros(1 << num_qubits if rows is None else (rows, 1 << num_qubits))
    amps[..., 0] = 1.0
    return StateVector(num_qubits, amps)


def _check_wire(state: StateVector, wire: int) -> None:
    if not (0 <= wire < state.num_qubits):
        raise IndexError(f"wire {wire} out of range for {state.num_qubits} qubits")


def _split(values: np.ndarray, num_qubits: int, wire: int) -> np.ndarray:
    """View (rows, 2^wire, 2, rest) of a (2^q,) or (K, 2^q) array; axis 2 is
    the wire's bit."""
    return values.reshape(-1, 1 << wire, 2, 1 << (num_qubits - wire - 1))


def _apply_single(state: StateVector, wire: int, gate: np.ndarray) -> None:
    # One 2x2 matmul over the paired amplitude strides: `gate` is (2, 2) for
    # every row or (rows, 1, 2, 2) per row. Each (2, rest) block goes through
    # the same product whatever the row count, so a row of a batch equals
    # the single-row run bit for bit. The result replaces the old buffer.
    amps = state.amplitudes
    state.amplitudes = np.matmul(gate, _split(amps, state.num_qubits, wire)).reshape(amps.shape)


_H = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])


def apply_h(state: StateVector, wire: int) -> StateVector:
    """Hadamard on one wire of every row."""
    _check_wire(state, wire)
    _apply_single(state, wire, _H)
    return state


def apply_ry(state: StateVector, wire: int, theta) -> StateVector:
    """Y-axis rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]].

    `theta` is one angle for every row, or a length-K vector with one
    angle per row of a (K, 2^q) state.
    """
    _check_wire(state, wire)
    if not isinstance(theta, float):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 0:
            theta = float(theta)
    # math.cos/sin here and np.cos/sin below must return the same bits for
    # a batch row to equal its single-row run; tests/test_batched.py checks.
    if isinstance(theta, float):
        half = theta / 2.0
        if not math.isfinite(half):
            raise ValueError(f"non-finite rotation angle: {theta!r}")
        c, s = math.cos(half), math.sin(half)
        gate = np.array((c, -s, s, c)).reshape(2, 2)
    else:
        rows = state.amplitudes.shape[0] if state.amplitudes.ndim == 2 else 1
        if theta.shape != (rows,):
            raise ValueError(f"{theta.shape} rotation angles for {rows} state rows")
        half = theta / 2.0
        if not np.isfinite(half).all():
            raise ValueError(f"non-finite rotation angle in {theta!r}")
        c, s = np.cos(half), np.sin(half)
        gate = np.empty((rows, 1, 2, 2))
        gate[:, 0, 0, 0] = c
        gate[:, 0, 0, 1] = -s
        gate[:, 0, 1, 0] = s
        gate[:, 0, 1, 1] = c
    _apply_single(state, wire, gate)
    return state


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on basis states whose control bit is 1, in place."""
    _check_wire(state, control)
    _check_wire(state, target)
    if control == target:
        raise IndexError(f"control and target coincide (wire {control})")
    lo, hi = sorted((control, target))
    # Nested split over both wires: axes 2 and 4 carry the two bits. Within
    # the control-set half, reversing the target axis swaps the amplitude
    # pairs; numpy copies the overlapping source before assigning.
    view = state.amplitudes.reshape(
        -1, 1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (state.num_qubits - hi - 1)
    )
    if control < target:
        control_set = view[:, :, 1]
        control_set[...] = control_set[:, :, :, ::-1]
    else:
        control_set = view[:, :, :, :, 1]
        control_set[...] = control_set[:, :, ::-1]
    return state


def expect_z(state: StateVector, wire: int):
    """Pauli-Z expectation on one wire: a float for a single-row state, a
    length-K array for K rows."""
    _check_wire(state, wire)
    z = expect_z_all(state)[..., wire]
    return float(z) if state.amplitudes.ndim == 1 else z


def expect_z_all(state: StateVector) -> np.ndarray:
    """Pauli-Z expectation on every wire, shape (q,) or (K, q): 1 - 2*p1
    clipped to [-1, 1], with the probabilities computed once."""
    q = state.num_qubits
    amps = state.amplitudes
    probs = (amps * amps).reshape(-1, 1 << q)
    p1 = np.empty((probs.shape[0], q))
    for wire in range(q):
        p1[:, wire] = _split(probs, q, wire)[:, :, 1, :].sum(axis=(1, 2))
    z = np.clip(1.0 - 2.0 * p1, -1.0, 1.0)
    return z[0] if amps.ndim == 1 else z
