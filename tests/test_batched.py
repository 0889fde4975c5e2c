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
from dressedq import circuit, model, qsim
from dressedq.circuit import CircuitSpec, forward_eval_count
from dressedq.model import batch_gradient

from oracle import random_gates, run_circuit_dense

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
    assert batched.amplitudes.shape == (1 << q, k)
    z_batched = expect_z_all(batched)
    for row in range(k):
        single = apply_all(new_zero_state(q), row_gates(gates, row))
        assert np.array_equal(batched.amplitudes[:, row], single.amplitudes)
        assert np.array_equal(z_batched[row], expect_z_all(single))
        oracle = run_circuit_dense(row_gates(gates, row), q)
        assert np.max(np.abs(single.amplitudes - oracle)) < 1e-12
        assert abs(np.linalg.norm(batched.amplitudes[:, row]) - 1.0) < 1e-12


def seeded_gates(q, k, count, seed):
    """H on every wire, then `count` random gates in which every other RY
    carries k per-row angles in place of its shared one."""
    rng = np.random.default_rng(seed)
    gates = [("h", w) for w in range(q)] + random_gates(rng, q, count)
    return [
        ("ry", g[1], rng.uniform(-np.pi, np.pi, k)) if g[0] == "ry" and i % 2 else g
        for i, g in enumerate(gates)
    ]


@pytest.mark.parametrize("q, k", [(1, 1), (2, 1), (5, 1), (9, 1), (12, 3)])
def test_rows_are_columns_equal_to_single_row_runs(q, k):
    # One-row batches against the (2^q,) run, and at q=12 rows of 4096
    # amplitudes: sums long enough for numpy's unrolled and pairwise
    # reductions, which hypothesis's q <= 6 never reaches.
    gates = seeded_gates(q, k, 60, seed=q)
    batched = apply_all(new_zero_state(q, rows=k), gates)
    assert batched.amplitudes.shape == (1 << q, k)
    z_batched = expect_z_all(batched)
    assert z_batched.shape == (k, q)
    for row in range(k):
        single = apply_all(new_zero_state(q), row_gates(gates, row))
        assert np.array_equal(batched.amplitudes[:, row], single.amplitudes)
        assert np.array_equal(z_batched[row], expect_z_all(single))


@pytest.mark.parametrize("q, k", [(2, 1), (2, 5), (4, 3), (6, 2), (12, 1), (12, 3)])
def test_cnot_pair_sequence_rows_equal_one_call_at_a_time(q, k):
    # The pairs as one call on k rows, one call per pair and one call on
    # each row alone give the same amplitudes.
    rng = np.random.default_rng(60 + q + k)
    pairs = [tuple(int(w) for w in rng.choice(q, size=2, replace=False)) for _ in range(q + 3)]
    controls, targets = tuple(c for c, _ in pairs), tuple(t for _, t in pairs)
    gates = seeded_gates(q, k, 20, seed=q + k)
    batched = apply_all(new_zero_state(q, rows=k), gates)
    one_by_one = qsim.StateVector(batched.amplitudes.copy())
    apply_cnot(batched, controls, targets)
    for c, t in pairs:
        apply_cnot(one_by_one, c, t)
    assert np.array_equal(batched.amplitudes, one_by_one.amplitudes)
    for row in range(k):
        single = apply_all(new_zero_state(q), row_gates(gates, row))
        apply_cnot(single, controls, targets)
        assert np.array_equal(batched.amplitudes[:, row], single.amplitudes)


@st.composite
def forward_batches(draw):
    q = draw(st.integers(1, 5))
    d = draw(st.integers(0, 3))
    k = draw(st.integers(1, 6))
    values = draw(st.lists(ANGLES, min_size=(d + k) * q, max_size=(d + k) * q))
    values = np.array(values).reshape(d + k, q)
    return CircuitSpec(q, d), values[:d], values[d:]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forward_batches())
def test_quantum_forward_batch_equals_single_calls(case):
    spec, thetas, embeds = case
    k = len(embeds)
    before = forward_eval_count()
    batch = quantum_forward(spec, thetas, embeds)
    assert forward_eval_count() - before == k
    assert batch.shape == (k, spec.qubits)
    for row in range(k):
        single = quantum_forward(spec, thetas, embeds[row])
        assert np.array_equal(batch[row], single)


def test_paper_size_batch_equals_single_calls():
    # As many rows as one sample's parameter-shift batch at q=4, depth 6.
    rng = np.random.default_rng(5)
    spec = CircuitSpec(4, 6)
    thetas = rng.uniform(-np.pi, np.pi, (6, 4))
    embeds = rng.uniform(-np.pi, np.pi, (57, 4))
    batch = quantum_forward(spec, thetas, embeds)
    for row in range(57):
        single = quantum_forward(spec, thetas, embeds[row])
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


def test_param_shift_fork_equals_unforked_fallback(monkeypatch):
    # q=3, d=3, B=5: 25 rows per sample, 13 of them in the first stage. Each
    # group of samples that fits one chunk forks: all 5 in one 125-row fork,
    # or with 50-row chunks, groups of 2, 2 and 1. With 16-row chunks one
    # sample does not fit, so each sample runs unforked from |0...0> in
    # chunks of 16 and 9 rows. Each stage or chunk starts as a one-qubit
    # register with one row per wire of each of its circuits.
    rng = np.random.default_rng(8)
    spec = CircuitSpec(3, 3)
    thetas = rng.uniform(-np.pi, np.pi, (3, 3))
    embeds = rng.uniform(-np.pi, np.pi, (5, 3))
    started, measured = [], []
    zero_state, expect = qsim.new_zero_state, qsim.expect_z_all

    def starting(q, rows):
        started.append((q, rows))
        return zero_state(q, rows)

    def measuring(state):
        measured.append(state.amplitudes.shape)
        return expect(state)

    monkeypatch.setattr(qsim, "new_zero_state", starting)
    monkeypatch.setattr(qsim, "expect_z_all", measuring)
    results = []
    for limit, starts, ends in (
        (circuit.BATCH_AMPLITUDES, [65], [125]),
        (50 << 3, [26, 26, 13], [50, 50, 25]),
        (16 << 3, [16, 9] * 5, [16, 9] * 5),
    ):
        monkeypatch.setattr(circuit, "BATCH_AMPLITUDES", limit)
        started.clear()
        measured.clear()
        before = forward_eval_count()
        grads = param_shift_grad(spec, thetas, embeds)
        # model.backward's bits rely on C-ordered Jacobians.
        assert all(x.flags.c_contiguous for x in grads)
        results.append([x.tobytes() for x in grads])
        assert forward_eval_count() - before == 5 * (1 + 2 * (3 * 3 + 3))
        assert started == [(1, 3 * rows) for rows in starts]
        assert measured == [(8, rows) for rows in ends]
    assert results[0] == results[1] == results[2]


def test_memory_layout_of_embedding_angles_does_not_change_results(monkeypatch):
    # q=3, d=3: 25 rows per sample. An F-ordered or strided (7, 3) batch
    # gives the bits of its C-ordered copy at each limit: one forked group
    # and a one-chunk forward; forked groups of 2 samples; 3-row chunks,
    # which the forward's 7 rows straddle and in which every sample runs
    # unforked.
    rng = np.random.default_rng(13)
    spec = CircuitSpec(3, 3)
    thetas = rng.uniform(-np.pi, np.pi, (3, 3))
    wide = rng.uniform(-np.pi, np.pi, (14, 6))
    for view in (np.asfortranarray(wide[:7, :3]), wide[::2, ::2]):
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        for limit in (circuit.BATCH_AMPLITUDES, 50 << 3, 3 << 3):
            monkeypatch.setattr(circuit, "BATCH_AMPLITUDES", limit)
            got, want = quantum_forward(spec, thetas, view), quantum_forward(spec, thetas, copy)
            assert got.tobytes() == want.tobytes()
            pairs = zip(param_shift_grad(spec, thetas, view), param_shift_grad(spec, thetas, copy))
            assert all(got.tobytes() == want.tobytes() for got, want in pairs)


def test_ry_angle_count_must_match_rows():
    with pytest.raises(ValueError, match="for 3 state rows"):
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


def test_param_shift_batch_across_chunk_boundary(monkeypatch):
    # Samples of 49 shifted circuits of 2^12 amplitudes, run in chunks of 32
    # rows: every sample's rows straddle a chunk boundary, and the batch
    # runs one sample at a time. With chunks of 64 rows each sample forks.
    spec = CircuitSpec(12, 1)
    assert circuit_evals_per_sample(spec) > circuit.BATCH_AMPLITUDES >> 12
    rng = np.random.default_rng(11)
    thetas = rng.uniform(-np.pi, np.pi, (1, 12))
    embeds = rng.uniform(-np.pi, np.pi, (3, 12))
    assert_batch_equals_single_calls(spec, thetas, embeds)
    straddled = param_shift_grad(spec, thetas, embeds)
    monkeypatch.setattr(circuit, "BATCH_AMPLITUDES", 64 << 12)
    for forked, unforked in zip(param_shift_grad(spec, thetas, embeds), straddled):
        assert np.array_equal(forked, unforked)


@pytest.mark.parametrize("embeds", [np.zeros((0, 2)), np.zeros((3, 3)), np.zeros((1, 2, 2))])
def test_param_shift_rejects_bad_batch_shapes(embeds):
    with pytest.raises(ConfigurationError):
        param_shift_grad(CircuitSpec(2, 1), np.zeros((1, 2)), embeds)


@st.composite
def labeled_batches(draw, max_dim=6):
    q = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    dim = draw(st.integers(1, max_dim))
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


@st.composite
def replica_batches(draw):
    """A model and N replicas' batches, features (N, B, D), labels (N, B).
    B and D reach past numpy's 8-element pairwise-summation block, so the
    stacked sums over each batch and the pre-net's products are checked at
    widths where a different summation order would show."""
    net, _, _ = draw(labeled_batches(max_dim=64))
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = rng.normal(size=(n, b, net.feature_dim)) * 3.0
    return net, features, rng.integers(net.num_classes, size=(n, b))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(replica_batches())
def test_replica_backward_rows_equal_per_replica_backwards(case):
    net, features, labels = case
    n, b = labels.shape
    before = forward_eval_count()
    grads, losses = backward(net, features, labels)
    assert forward_eval_count() - before == n * b * circuit_evals_per_sample(net.spec)
    assert grads.shape == (n, net.params.size) and losses.shape == (n,)
    for row in range(n):
        grad, loss = backward(net, features[row], labels[row])
        assert grads[row].tobytes() == grad.tobytes()
        assert losses[row] == loss


def test_fused_shift_batch_forks_in_groups_equal_to_per_replica_calls(monkeypatch):
    # q=8, d=6: 113 circuits per sample and chunks of 512 rows, so four
    # replicas of 4 samples run as four forked groups of 4 samples, each
    # starting from its 4 * 33 first-stage rows.
    spec = CircuitSpec(8, 6)
    assert (circuit.BATCH_AMPLITUDES >> 8) // circuit_evals_per_sample(spec) == 4
    rng = np.random.default_rng(12)
    thetas = rng.uniform(-np.pi, np.pi, (6, 8))
    embeds = rng.uniform(-np.pi, np.pi, (4, 4, 8))
    started, zero_state = [], qsim.new_zero_state

    def starting(q, rows):
        started.append(rows)
        return zero_state(q, rows)

    monkeypatch.setattr(qsim, "new_zero_state", starting)
    fused = param_shift_grad(spec, thetas, embeds.reshape(16, 8))
    assert started == [8 * 4 * 33] * 4
    for replica in range(4):
        single = param_shift_grad(spec, thetas, embeds[replica])
        for whole, part in zip(fused, single):
            assert np.array_equal(whole[4 * replica:4 * replica + 4], part)


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
        (np.zeros((2, 4, 3)), np.zeros(8, dtype=int)),  # replica labels
        (np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=int)),
        (np.zeros((2, 2, 2, 3)), np.zeros((2, 2, 2), dtype=int)),  # too many axes
    ]
    for feats, labels in bad:
        with pytest.raises(ConfigurationError):
            batch_gradient(net, feats, labels)
