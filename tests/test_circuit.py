import numpy as np
import pytest

from dressedq import ConfigurationError, circuit_evals_per_sample, param_shift_grad, quantum_forward
from dressedq import circuit, qsim
from dressedq.circuit import CircuitSpec, forward_eval_count

from oracle import expect_z_dense, run_circuit_dense


def layout_gates(spec, thetas, embed):
    """The circuit layout written out as an oracle gate list."""
    q = spec.qubits
    gates = [("h", i) for i in range(q)]
    gates += [("ry", i, embed[i]) for i in range(q)]
    for layer in range(spec.depth):
        gates += [("cnot", i, i + 1) for i in range(0, q - 1, 2)]
        gates += [("cnot", i, i + 1) for i in range(1, q - 1, 2)]
        gates += [("ry", i, thetas[layer, i]) for i in range(q)]
    return gates


def random_point(rng, q, d):
    return rng.uniform(-np.pi, np.pi, size=(d, q)), rng.uniform(-np.pi, np.pi, size=q)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CircuitSpec(qubits=0)
    with pytest.raises(ConfigurationError):
        CircuitSpec(qubits=25)
    with pytest.raises(ConfigurationError):
        CircuitSpec(qubits=2, depth=-1)
    with pytest.raises(ConfigurationError, match="depth"):
        CircuitSpec(2, 1.5)
    with pytest.raises(ConfigurationError, match="qubits"):
        CircuitSpec(2.5, 1)
    with pytest.raises(ConfigurationError, match="qubits"):
        CircuitSpec(qubits=True)


def test_forward_identity_circuit_on_plus_states():
    # All angles zero: H layer leaves |+>^q, CNOTs fix it, RY(0)=I, <Z>=0.
    spec = CircuitSpec(qubits=4, depth=6)
    out = quantum_forward(spec, np.zeros((6, 4)), np.zeros(4))
    assert np.allclose(out, np.zeros(4), atol=1e-12)


@pytest.mark.parametrize("angle", [0.0, 0.4, -2.1, np.pi / 3])
def test_forward_single_qubit_analytic(angle):
    # RY(a) H |0> gives <Z> = -sin(a).
    spec = CircuitSpec(qubits=1, depth=0)
    out = quantum_forward(spec, np.zeros((0, 1)), np.array([angle]))
    assert out[0] == pytest.approx(-np.sin(angle), abs=1e-12)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("q", range(1, 9))
def test_embedding_product_state_equals_gate_by_gate(monkeypatch, q, k):
    # A depth-0 circuit measures the embedded state as it is built: the
    # product of one-qubit registers must equal H then RY run gate by gate
    # on the full (2^q, K) state.
    rng = np.random.default_rng(40 + q)
    embeds = rng.uniform(-np.pi, np.pi, (k, q))
    measured = []
    expect = qsim.expect_z_all

    def measuring(state):
        measured.append(state.amplitudes)
        return expect(state)

    monkeypatch.setattr(qsim, "expect_z_all", measuring)
    out = quantum_forward(CircuitSpec(q, 0), np.zeros((0, q)), embeds)
    (amps,) = measured
    want = qsim.new_zero_state(q, rows=k)
    for i in range(q):
        qsim.apply_h(want, i)
    for i in range(q):
        qsim.apply_ry(want, i, embeds[:, i])
    assert amps.shape == (1 << q, k) and amps.flags.c_contiguous
    assert np.max(np.abs(amps - want.amplitudes)) <= 1e-15
    # Depth 0 leaves every wire in RY(a) H |0>, so <Z_i> = -sin(a_i). The
    # readout sums squares of q-factor products in q fold steps, so its
    # rounding grows with q: 1e-15 per wire.
    assert np.max(np.abs(out + np.sin(embeds))) <= q * 1e-15


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(5)
    spec = CircuitSpec(qubits=3, depth=2)
    params, embed = random_point(rng, 3, 2)
    out = quantum_forward(spec, params, embed)
    ref_state = run_circuit_dense(layout_gates(spec, params, embed), 3)
    ref = [expect_z_dense(ref_state, w, 3) for w in range(3)]
    assert np.max(np.abs(out - ref)) < 1e-12


def test_forward_shape_mismatch():
    spec = CircuitSpec(qubits=3, depth=2)
    with pytest.raises(ConfigurationError):
        quantum_forward(spec, np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ConfigurationError):
        quantum_forward(spec, np.zeros((2, 3)), np.zeros(4))


def test_list_angles_equal_arrays():
    spec = CircuitSpec(2, 1)
    thetas, embeds = [[0.1, -0.2]], [[0.3, 0.4], [-0.5, 0.6]]
    for embed in (embeds, embeds[0]):
        got = quantum_forward(spec, thetas, embed)
        assert got.tobytes() == quantum_forward(spec, np.array(thetas), np.array(embed)).tobytes()
        got = param_shift_grad(spec, thetas, embed)
        want = param_shift_grad(spec, np.array(thetas), np.array(embed))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # Wrong shapes, ragged lists and objects numpy cannot read as angles
    # raise ConfigurationError naming the argument, before any circuit runs.
    bad = [
        ([0.1, 0.2], embeds, "thetas"),
        ([[0.1, 0.2, 0.3]], embeds, "thetas"),
        ([[[0.1, 0.2]]], embeds, "thetas"),
        (qsim.Rotation(thetas), embeds, "thetas"),
        ([[0.1], [0.2, 0.3]], embeds, "thetas"),
        ([[0.1, "x"]], embeds, "thetas"),
        (thetas, [[0.1, 0.2], [0.3]], "embed_angles"),
        (thetas, [[0.1, 0.2], object()], "embed_angles"),
        (thetas, qsim.Rotation(embeds), "embed_angles"),
        (thetas, [0.1, 1j], "embed_angles"),
    ]
    before = forward_eval_count()
    for theta_arg, embed_arg, name in bad:
        for call in (quantum_forward, param_shift_grad):
            with pytest.raises(ConfigurationError, match=name):
                call(spec, theta_arg, embed_arg)
    assert forward_eval_count() == before


def test_forward_rejects_rotations_and_per_row_thetas():
    # One input form: shared (d, q) thetas with (q,) or (K, q) embedding
    # angles, as arrays or lists. Per-row thetas and Rotations reach the
    # circuit only through param_shift_grad's fork.
    spec, k = CircuitSpec(3, 2), 4
    thetas, embeds = np.zeros((2, 3)), np.zeros((k, 3))
    bad = [
        (np.zeros((k, 2, 3)), embeds),  # per-row thetas
        (np.zeros((1, 2, 3)), embeds[0]),
        (qsim.Rotation(thetas), embeds),  # a Rotation for either argument
        (thetas, qsim.Rotation(embeds)),
        (thetas, qsim.Rotation(embeds[0])),
        (qsim.Rotation(thetas), qsim.Rotation(embeds)),
        (qsim.Rotation(np.zeros((k, 2, 3))), qsim.Rotation(embeds)),
    ]
    before = forward_eval_count()
    for theta_arg, embed_arg in bad:
        with pytest.raises(ConfigurationError):
            quantum_forward(spec, theta_arg, embed_arg)
    assert forward_eval_count() == before


def test_forward_outputs_bounded_and_symmetric_at_zero():
    rng = np.random.default_rng(19)
    for q, d in [(2, 1), (4, 3), (5, 2)]:
        spec = CircuitSpec(qubits=q, depth=d)
        params, embed = random_point(rng, q, d)
        out = quantum_forward(spec, params, embed)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
        zero = quantum_forward(spec, np.zeros((d, q)), np.zeros(q))
        assert np.allclose(zero, zero[0], atol=1e-12)


def test_param_shift_single_qubit_embed_grad():
    spec = CircuitSpec(qubits=1, depth=0)
    for a in [0.0, 0.8, -1.5]:
        _, jac_embed, value = param_shift_grad(spec, np.zeros((0, 1)), np.array([a]))
        assert jac_embed[0, 0] == pytest.approx(-np.cos(a), abs=1e-12)
        assert value[0] == pytest.approx(-np.sin(a), abs=1e-12)


def central_difference_jacobians(spec, params, embed, h=1e-5):
    q, d = spec.qubits, spec.depth
    jac_t = np.empty((q, d, q))
    for layer in range(d):
        for i in range(q):
            plus = params.copy()
            minus = params.copy()
            plus[layer, i] += h
            minus[layer, i] -= h
            jac_t[:, layer, i] = (
                quantum_forward(spec, plus, embed) - quantum_forward(spec, minus, embed)
            ) / (2 * h)
    jac_e = np.empty((q, q))
    for j in range(q):
        ep, em = embed.copy(), embed.copy()
        ep[j] += h
        em[j] -= h
        jac_e[:, j] = (
            quantum_forward(spec, params, ep) - quantum_forward(spec, params, em)
        ) / (2 * h)
    return jac_t, jac_e


def test_param_shift_matches_finite_differences_at_zero():
    spec = CircuitSpec(qubits=4, depth=6)
    params, embed = np.zeros((6, 4)), np.zeros(4)
    jac_t, jac_e, _ = param_shift_grad(spec, params, embed)
    fd_t, fd_e = central_difference_jacobians(spec, params, embed)
    assert np.max(np.abs(jac_t - fd_t)) < 1e-6
    assert np.max(np.abs(jac_e - fd_e)) < 1e-6


def test_param_shift_matches_finite_differences_random():
    rng = np.random.default_rng(31)
    for q, d in [(2, 1), (3, 3), (5, 6)]:
        spec = CircuitSpec(qubits=q, depth=d)
        params, embed = random_point(rng, q, d)
        jac_t, jac_e, _ = param_shift_grad(spec, params, embed)
        fd_t, fd_e = central_difference_jacobians(spec, params, embed)
        assert np.max(np.abs(jac_t - fd_t)) < 1e-6
        assert np.max(np.abs(jac_e - fd_e)) < 1e-6


def test_param_shift_value_matches_forward():
    rng = np.random.default_rng(37)
    spec = CircuitSpec(qubits=3, depth=2)
    params, embed = random_point(rng, 3, 2)
    _, _, value = param_shift_grad(spec, params, embed)
    assert np.array_equal(value, quantum_forward(spec, params, embed))


@pytest.mark.parametrize("b", [1, 3, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_param_shift_entries_equal_explicit_shifted_runs(q, d, b):
    # Every Jacobian entry against its two shifted circuits, each run as its
    # own quantum_forward call: angle p (thetas row-major, then the
    # embedding) moved by +pi/2 and -pi/2.
    rng = np.random.default_rng(100 * q + 10 * d + b)
    spec = CircuitSpec(qubits=q, depth=d)
    thetas = rng.uniform(-np.pi, np.pi, size=(d, q))
    embeds = rng.uniform(-np.pi, np.pi, size=(b, q))
    jac_t, jac_e, value = param_shift_grad(spec, thetas, embeds)
    for row in range(b):
        assert np.array_equal(value[row], quantum_forward(spec, thetas, embeds[row]))
        for p in range(d * q + q):
            runs = []
            for shift in (np.pi / 2, -np.pi / 2):
                t, e = thetas.copy(), embeds[row].copy()
                if p < d * q:
                    t[p // q, p % q] += shift
                else:
                    e[p - d * q] += shift
                runs.append(quantum_forward(spec, t, e))
            expected = (runs[0] - runs[1]) / 2.0
            got = jac_t[row, :, p // q, p % q] if p < d * q else jac_e[row, :, p - d * q]
            assert np.array_equal(got, expected), (row, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("b", [1, 3])
def test_param_shift_non_finite_angle_raises_before_running(bad, b):
    spec = CircuitSpec(2, 1)
    before = forward_eval_count()
    thetas, embeds = np.zeros((1, 2)), np.zeros((b, 2))
    bad_thetas = thetas.copy()
    bad_thetas[0, 1] = bad
    bad_embeds = embeds.copy()
    bad_embeds[-1, 0] = bad
    for t, e in ((bad_thetas, embeds), (thetas, bad_embeds)):
        with pytest.raises(ValueError):
            param_shift_grad(spec, t, e[0] if b == 1 else e)
    assert forward_eval_count() == before


def test_shift_index_is_cached_and_read_only():
    # d=2, q=3, B=2: n = 9 angles, K = 38 rows (2 unshifted, then 4 per
    # angle), 26 of them in the first stage and 12 shifting a layer-1 theta.
    theta_index, flat_embed = circuit._shift_index(2, 3, 2)
    assert circuit._shift_index(2, 3, 2)[0] is theta_index
    assert theta_index.shape == (38, 2, 3) and flat_embed.shape == (38 * 3,)
    for index in (theta_index, flat_embed):
        with pytest.raises(ValueError):
            index[(0,) * index.ndim] = 0
    # Each gate's column of the index, and so of a gather through it, is
    # contiguous; the embedding index is one flat run, rows first, for the
    # one embedding RY call.
    table = np.arange(3 * 12.0)
    for column in (theta_index[:, 1, 2], flat_embed, table[theta_index][:, 0, 1]):
        assert column.flags.c_contiguous
    embed_index = flat_embed.reshape(38, 3)
    # Each angle's three values (unshifted, +pi/2, -pi/2) sit at 3a..3a+2:
    # thetas are a = 0..5, sample s's embedding angles a = 6 + 3s + i.
    assert np.array_equal(np.unique(theta_index[:, 1, 2]), [15, 16, 17])
    assert np.array_equal(np.unique(embed_index[1::2, 2]), [33, 34, 35])
    # The later stage's rows carry their sample's unshifted embedding.
    assert np.array_equal(embed_index[26:] % 3, np.zeros((12, 3)))
    # Row r is sample r % 2's circuit: the 2 unshifted rows, then per angle
    # (embedding, then thetas row-major) its +pi/2 rows and its -pi/2 rows.
    unshifted = np.concatenate((theta_index[:2].reshape(2, -1), embed_index[:2]), axis=1)
    assert np.array_equal(unshifted % 3, np.zeros((2, 9)))
    for p in range(9):
        for sign in (1, 2):
            for s in range(2):
                r = 2 + 4 * p + 2 * (sign - 1) + s
                row = np.concatenate((theta_index[r].ravel(), embed_index[r]))
                moved = np.flatnonzero(row != unshifted[s])
                angle = (p - 3) if p >= 3 else 6 + p
                assert list(moved) == [angle] and row[angle] % 3 == sign, (p, sign, s)
    # The whole index against its row rule, written out one row at a time.
    for d, q, b in ((0, 1, 1), (0, 2, 3), (1, 1, 3), (2, 3, 2), (3, 2, 3), (1, 4, 1)):
        theta_index, flat_embed = circuit._shift_index(d, q, b)
        assert theta_index.flags.f_contiguous and flat_embed.flags.c_contiguous
        n = d * q + q
        for r in range(b * (1 + 2 * n)):
            # Fork order: the embedding angles, then the thetas row-major.
            fork = [3 * (d * q + q * (r % b) + i) for i in range(q)]
            fork += [3 * t for t in range(d * q)]
            if r >= b:
                fork[(r - b) // (2 * b)] += 1 if (r - b) % (2 * b) < b else 2
            assert list(flat_embed[q * r:q * (r + 1)]) == fork[:q], (d, q, b, r)
            assert list(theta_index[r].ravel()) == fork[q:], (d, q, b, r)


@pytest.mark.parametrize(
    "q,d,expected", [(4, 6, 57), (1, 0, 3), (3, 6, 43)]
)
def test_circuit_evals_per_sample(q, d, expected):
    assert circuit_evals_per_sample(CircuitSpec(qubits=q, depth=d)) == expected


def test_eval_count_matches_instrumented_gradient():
    rng = np.random.default_rng(41)
    spec = CircuitSpec(qubits=3, depth=2)
    params, embed = random_point(rng, 3, 2)
    before = forward_eval_count()
    param_shift_grad(spec, params, embed)
    assert forward_eval_count() - before == circuit_evals_per_sample(spec)
