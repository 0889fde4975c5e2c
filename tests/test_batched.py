"""Property tests for the batched simulator: a (K, 2^q) state is K
independent single-row states, bit for bit, and each row follows the dense
oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedq import (
    apply_cnot,
    apply_h,
    apply_ry,
    expect_z_all,
    new_zero_state,
    param_shift_grad,
    quantum_forward,
)
from dressedq import circuit
from dressedq.circuit import CircuitSpec, QuantumParams, forward_eval_count

from oracle import run_circuit_dense

ANGLES = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


@st.composite
def batched_gates(draw):
    """(q, K, gates); an RY carries one angle shared by all rows or K angles."""
    q = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["h", "ry", "cnot"] if q > 1 else ["h", "ry"]))
        if kind == "h":
            gates.append(("h", draw(st.integers(0, q - 1))))
        elif kind == "ry":
            wire = draw(st.integers(0, q - 1))
            if draw(st.booleans()):
                gates.append(("ry", wire, draw(ANGLES)))
            else:
                angles = draw(st.lists(ANGLES, min_size=k, max_size=k))
                gates.append(("ry", wire, np.array(angles)))
        else:
            control, target = draw(
                st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True)
            )
            gates.append(("cnot", control, target))
    return q, k, gates


def row_gates(gates, row):
    """The gate list one row sees: per-row RY angles picked out."""
    return [
        ("ry", g[1], float(g[2][row]) if np.ndim(g[2]) else g[2]) if g[0] == "ry" else g
        for g in gates
    ]


def apply_all(state, gates):
    for gate in gates:
        if gate[0] == "h":
            apply_h(state, gate[1])
        elif gate[0] == "ry":
            apply_ry(state, gate[1], gate[2])
        else:
            apply_cnot(state, gate[1], gate[2])
    return state


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batched_gates())
def test_rows_match_single_runs_and_oracle(case):
    q, k, gates = case
    batched = apply_all(new_zero_state(q, rows=k), gates)
    assert batched.amplitudes.shape == (k, 1 << q)
    z_batched = expect_z_all(batched)
    for row in range(k):
        single = apply_all(new_zero_state(q), row_gates(gates, row))
        assert np.array_equal(batched.amplitudes[row], single.amplitudes)
        assert np.array_equal(z_batched[row], expect_z_all(single))
        oracle = run_circuit_dense(row_gates(gates, row), q)
        assert np.max(np.abs(single.amplitudes - oracle)) < 1e-12
        assert abs(np.linalg.norm(batched.amplitudes[row]) - 1.0) < 1e-12


@st.composite
def forward_batches(draw):
    q = draw(st.integers(1, 5))
    d = draw(st.integers(0, 3))
    k = draw(st.integers(1, 6))
    arrays = st.lists(ANGLES, min_size=k * (d + 1) * q, max_size=k * (d + 1) * q)
    values = np.array(draw(arrays)).reshape(k, d + 1, q)
    return CircuitSpec(q, d), values[:, :d], values[:, d]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forward_batches())
def test_quantum_forward_batch_equals_single_calls(case):
    spec, thetas, embeds = case
    k = len(embeds)
    before = forward_eval_count()
    per_row = quantum_forward(spec, QuantumParams(thetas), embeds)
    shared = quantum_forward(spec, QuantumParams(thetas[0]), embeds)
    assert forward_eval_count() - before == 2 * k
    assert per_row.shape == shared.shape == (k, spec.qubits)
    for row in range(k):
        single = quantum_forward(spec, QuantumParams(thetas[row]), embeds[row])
        assert np.array_equal(per_row[row], single)
    for row in range(k):
        single = quantum_forward(spec, QuantumParams(thetas[0]), embeds[row])
        assert np.array_equal(shared[row], single)


def test_paper_size_batch_equals_single_calls():
    # One sample's parameter-shift batch at q=4, depth 6: 57 rows.
    rng = np.random.default_rng(5)
    spec = CircuitSpec(4, 6)
    thetas = rng.uniform(-np.pi, np.pi, (57, 6, 4))
    embeds = rng.uniform(-np.pi, np.pi, (57, 4))
    batch = quantum_forward(spec, QuantumParams(thetas), embeds)
    for row in range(57):
        single = quantum_forward(spec, QuantumParams(thetas[row]), embeds[row])
        assert np.array_equal(batch[row], single)


def test_chunked_batch_equals_single_chunk(monkeypatch):
    rng = np.random.default_rng(3)
    spec = CircuitSpec(3, 2)
    params = QuantumParams(rng.uniform(-np.pi, np.pi, (2, 3)))
    embeds = rng.uniform(-np.pi, np.pi, (7, 3))
    whole = quantum_forward(spec, params, embeds)
    # Two rows per chunk: chunks of 2, 2, 2 and 1 rows.
    monkeypatch.setattr(circuit, "BATCH_AMPLITUDES", 2 << spec.qubits)
    assert np.array_equal(quantum_forward(spec, params, embeds), whole)
    _, _, value = param_shift_grad(spec, params, embeds[0])
    assert np.array_equal(value, whole[0])


def test_ry_angle_count_must_match_rows():
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(2, rows=3), 0, np.zeros(2))
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(2, rows=2), 0, np.array([0.1, np.nan]))
