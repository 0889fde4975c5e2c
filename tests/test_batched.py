"""Property tests for the batched simulator: a (K, 2^q) state is K
independent single-row states, bit for bit, and each row follows the dense
oracle. A batched training step (one param_shift_grad and one backward call
over B samples) equals B single-sample calls."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedq import (
    ConfigurationError,
    apply_cnot,
    apply_h,
    apply_ry,
    backward,
    circuit_evals_per_sample,
    expect_z_all,
    init_model,
    new_zero_state,
    param_shift_grad,
    quantum_forward,
)
from dressedq import circuit, model
from dressedq.circuit import CircuitSpec, forward_eval_count
from dressedq.model import batch_gradient

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
    per_row = quantum_forward(spec, thetas, embeds)
    shared = quantum_forward(spec, thetas[0], embeds)
    assert forward_eval_count() - before == 2 * k
    assert per_row.shape == shared.shape == (k, spec.qubits)
    for row in range(k):
        single = quantum_forward(spec, thetas[row], embeds[row])
        assert np.array_equal(per_row[row], single)
    for row in range(k):
        single = quantum_forward(spec, thetas[0], embeds[row])
        assert np.array_equal(shared[row], single)


def test_paper_size_batch_equals_single_calls():
    # One sample's parameter-shift batch at q=4, depth 6: 57 rows.
    rng = np.random.default_rng(5)
    spec = CircuitSpec(4, 6)
    thetas = rng.uniform(-np.pi, np.pi, (57, 6, 4))
    embeds = rng.uniform(-np.pi, np.pi, (57, 4))
    batch = quantum_forward(spec, thetas, embeds)
    for row in range(57):
        single = quantum_forward(spec, thetas[row], embeds[row])
        assert np.array_equal(batch[row], single)


def test_chunked_batch_equals_single_chunk(monkeypatch):
    rng = np.random.default_rng(3)
    spec = CircuitSpec(3, 2)
    params = rng.uniform(-np.pi, np.pi, (2, 3))
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


@st.composite
def shift_batches(draw):
    q = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    b = draw(st.integers(1, 5))
    values = draw(st.lists(ANGLES, min_size=(d + b) * q, max_size=(d + b) * q))
    values = np.array(values).reshape(d + b, q)
    return CircuitSpec(q, d), values[:d], values[d:]


def assert_batch_equals_single_calls(spec, thetas, embeds):
    q, d, b = spec.qubits, spec.depth, len(embeds)
    before = forward_eval_count()
    jac_t, jac_e, value = param_shift_grad(spec, thetas, embeds)
    assert forward_eval_count() - before == b * circuit_evals_per_sample(spec)
    assert jac_t.shape == (b, q, d, q)
    assert jac_e.shape == (b, q, q)
    assert value.shape == (b, q)
    for row in range(b):
        single = param_shift_grad(spec, thetas, embeds[row])
        for batched, one in zip((jac_t, jac_e, value), single):
            assert np.array_equal(batched[row], one)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shift_batches())
def test_param_shift_batch_equals_single_calls(case):
    assert_batch_equals_single_calls(*case)


def test_param_shift_batch_across_chunk_boundary():
    # 7 samples of 41 shifted circuits: 287 rows of 2^10 amplitudes, run in
    # chunks of 256 rows, so one sample's rows straddle the boundary.
    spec = CircuitSpec(10, 1)
    assert 7 * circuit_evals_per_sample(spec) > circuit.BATCH_AMPLITUDES >> 10
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-np.pi, np.pi, (1, 10))
    embeds = rng.uniform(-np.pi, np.pi, (7, 10))
    assert_batch_equals_single_calls(spec, thetas, embeds)


@pytest.mark.parametrize("embeds", [np.zeros((0, 2)), np.zeros((3, 3)), np.zeros((1, 2, 2))])
def test_param_shift_rejects_bad_batch_shapes(embeds):
    with pytest.raises(ConfigurationError):
        param_shift_grad(CircuitSpec(2, 1), np.zeros((1, 2)), embeds)


@st.composite
def labeled_batches(draw):
    q = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    dim = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 4))
    b = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    net = init_model(CircuitSpec(q, d), dim, classes, seed=seed)
    # Larger-than-initial angles so every Jacobian entry is exercised.
    net.thetas[:] = rng.uniform(-np.pi, np.pi, (d, q))
    features = rng.normal(size=(b, dim)) * 3.0
    labels = rng.integers(classes, size=b)
    return net, features, labels


@settings(max_examples=60, deadline=None, derandomize=True)
@given(labeled_batches())
def test_batch_gradient_equals_mean_of_single_backwards(case):
    net, features, labels = case
    b = len(labels)
    singles = [backward(net, x, int(y)) for x, y in zip(features, labels)]
    before = forward_eval_count()
    grads, loss = batch_gradient(net, features, labels)
    assert forward_eval_count() - before == b * circuit_evals_per_sample(net.spec)
    mean_loss = sum(l for _, l in singles) / b
    assert abs(loss - mean_loss) <= 1e-13 * abs(mean_loss)
    for k, block in enumerate(net.split(grads)):
        terms = np.stack([net.split(g)[k] for g, _ in singles])
        assert block.shape == terms.shape[1:]
        # Relative to the largest per-sample term: summands may cancel.
        scale = np.max(np.abs(terms), initial=0.0)
        assert np.max(np.abs(block - terms.mean(axis=0)), initial=0.0) <= 1e-13 * scale


def test_batch_gradient_is_one_backward_one_shift_pass_one_forward(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    # The module globals each layer looks its callee up through.
    monkeypatch.setattr(model, "backward", counting("backward", model.backward))
    monkeypatch.setattr(
        model, "param_shift_grad", counting("param_shift_grad", model.param_shift_grad)
    )
    monkeypatch.setattr(
        circuit, "quantum_forward", counting("quantum_forward", circuit.quantum_forward)
    )
    net = init_model(CircuitSpec(4, 6), 8, 2, seed=3)
    features = np.random.default_rng(3).normal(size=(4, 8))
    batch_gradient(net, features, np.array([0, 1, 1, 0]))
    assert calls == ["backward", "param_shift_grad", "quantum_forward"]


def test_batch_gradient_rejects_bad_batches():
    net = init_model(CircuitSpec(2, 1), 3, 2, seed=1)
    features = np.zeros((4, 3))
    for labels in ([0, 1, 2, 0], [0, -1, 1, 0], [0, np.nan, 1, 0]):
        with pytest.raises(ValueError, match="out of range"):
            batch_gradient(net, features, np.array(labels))
    with pytest.raises(ValueError, match="out of range"):
        backward(net, features[0], np.nan)
    bad = [
        (np.zeros((4, 2)), np.zeros(4, dtype=int)),  # feature width
        (features, np.zeros(3, dtype=int)),  # label count
        (features, np.zeros(5, dtype=int)),
        (np.zeros((0, 3)), np.zeros(0, dtype=int)),  # empty batch
    ]
    for feats, labels in bad:
        with pytest.raises(ConfigurationError):
            batch_gradient(net, feats, labels)
