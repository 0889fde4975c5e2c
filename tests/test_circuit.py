import numpy as np
import pytest

from dressedq import ConfigurationError, circuit_evals_per_sample, param_shift_grad, quantum_forward
from dressedq import circuit
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


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("d", [0, 1, 2])
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


def test_shift_table_is_cached_and_read_only():
    table = circuit._shift_table(6)
    assert circuit._shift_table(6) is table
    assert table.shape == (13, 6)
    assert np.count_nonzero(table) == 12
    with pytest.raises(ValueError):
        table[1, 0] = 0.0


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
