import re

import numpy as np
import pytest

from dressedq import (
    ConfigurationError,
    apply_cnot,
    apply_h,
    apply_ry,
    expect_z_all,
    new_zero_state,
)
from dressedq import CircuitSpec, quantum_forward, qsim
from dressedq.qsim import Rotation, StateVector

from oracle import apply_gates_sim, cnot_unitary, expect_z_dense, random_gates, run_circuit_dense

INV_SQRT2 = 1 / np.sqrt(2)


def test_zero_state_single_qubit():
    assert np.array_equal(new_zero_state(1).amplitudes, [1, 0])


def test_zero_state_two_qubits():
    assert np.array_equal(new_zero_state(2).amplitudes, [1, 0, 0, 0])


@pytest.mark.parametrize("shape, qubits", [((4,), 2), ((8, 3), 3), ((2, 1), 1)])
def test_state_qubit_count_comes_from_amplitude_length(shape, qubits):
    assert StateVector(np.zeros(shape)).num_qubits == qubits


@pytest.mark.parametrize("shape", [(0,), (1,), (3,), (6, 2), (1 << 25,), (4, 2, 2)])
def test_state_rejects_lengths_other_than_two_to_the_q(shape):
    # A broadcast view allocates nothing, and the shape is checked before any copy.
    with pytest.raises(ConfigurationError, match="2\\^q"):
        StateVector(np.broadcast_to(0.0, shape))


def test_state_rejects_complex_amplitudes():
    for amps in (np.array([1j, 0]), np.zeros((4, 2), dtype=complex), [0.0, 1 + 0j]):
        with pytest.raises(ConfigurationError, match="amplitudes"):
            StateVector(amps)


def test_two_qubit_amplitudes_read_out_two_wires():
    s = StateVector(np.array([1.0, 0, 0, 0]))
    assert s.num_qubits == 2
    assert np.array_equal(expect_z_all(s), [1.0, 1.0])


def test_qubit_cap_enforced():
    with pytest.raises(ConfigurationError, match="24"):
        new_zero_state(25)
    with pytest.raises(ConfigurationError):
        new_zero_state(0)
    for qubits in (2.5, True):
        with pytest.raises(ConfigurationError, match="num_qubits"):
            new_zero_state(qubits)
    for rows in (1.5, -1, True):
        with pytest.raises(ConfigurationError, match="rows"):
            new_zero_state(2, rows=rows)


def test_h_on_zero():
    s = apply_h(new_zero_state(1), 0)
    assert np.allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_h_self_inverse():
    s = new_zero_state(1)
    apply_h(s, 0)
    apply_h(s, 0)
    assert np.allclose(s.amplitudes, [1, 0], atol=1e-15)


def test_h_wire0_msb_convention():
    # Wire 0 is the MSB: H on wire 0 of |00> populates indices 0 and 2.
    s = apply_h(new_zero_state(2), 0)
    assert np.allclose(s.amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)


def test_ry_zero_is_identity():
    rng = np.random.default_rng(7)
    s = apply_gates_sim(new_zero_state(3), random_gates(rng, 3, 10))
    before = s.amplitudes.copy()
    apply_ry(s, 1, 0.0)
    assert np.array_equal(s.amplitudes, before)


def test_ry_pi_flips_zero():
    s = apply_ry(new_zero_state(1), 0, np.pi)
    assert np.allclose(s.amplitudes, [0, 1], atol=1e-15)


def test_ry_half_pi():
    s = apply_ry(new_zero_state(1), 0, np.pi / 2)
    assert np.allclose(s.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)])


def test_ry_rejects_non_finite():
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(1), 0, float("nan"))
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(1), 0, float("inf"))


def prepared_state(q, rows):
    """A state with no zero amplitudes: H and a spread of RYs on every wire."""
    state = new_zero_state(q, rows=rows)
    for w in range(q):
        apply_h(state, w)
        apply_ry(state, w, 0.3 + 0.2 * w)
    return state


@pytest.mark.parametrize("angle", [0.7, np.array([0.7, -2.5, 3.1])])
def test_ry_rotation_equals_plain_angles(angle):
    for wire in range(3):
        plain, rotated = prepared_state(3, 3), prepared_state(3, 3)
        apply_ry(plain, wire, angle)
        apply_ry(rotated, wire, Rotation(angle))
        assert plain.amplitudes.tobytes() == rotated.amplitudes.tobytes()


def test_lone_angle_rotation_is_float64_scalars_equal_to_array_entries():
    angles = np.random.default_rng(8).uniform(-7.0, 7.0, size=50)
    table = Rotation(angles)
    for i, angle in enumerate(angles):
        for lone in (float(angle), angle, np.array(angle)):
            rotation = Rotation(lone)
            assert type(rotation.cos) is np.float64 and type(rotation.sin) is np.float64
            assert rotation.cos == table.cos[i] and rotation.sin == table.sin[i]


def test_rotation_views_equal_their_angles():
    angles = np.random.default_rng(4).uniform(-7.0, 7.0, size=(2, 3, 5))
    rotation = Rotation(angles)
    for index in [(1, 2), (0, slice(None), 4), (..., 3)]:
        view, direct = rotation[index], Rotation(angles[index])
        assert np.array_equal(view.cos, direct.cos) and np.array_equal(view.sin, direct.sin)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angle_raises_everywhere(bad):
    with pytest.raises(ValueError):
        Rotation(bad)
    with pytest.raises(ValueError):
        Rotation(np.array([[0.1, bad], [0.2, 0.3]]))
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(2, rows=2), 0, np.array([0.1, bad]))
    with pytest.raises(ValueError):
        apply_ry(new_zero_state(2), 1, bad)
    spec = CircuitSpec(qubits=2, depth=1)
    with pytest.raises(ValueError):
        quantum_forward(spec, np.array([[0.1, bad]]), np.zeros(2))
    with pytest.raises(ValueError):
        quantum_forward(spec, np.zeros((1, 2)), np.array([[0.1, 0.2], [bad, 0.3]]))


def test_rotation_view_with_wrong_row_count_raises():
    rotation = Rotation(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="for 3 state rows"):
        apply_ry(new_zero_state(2, rows=3), 0, rotation[0])
    with pytest.raises(ValueError, match="for 3 state rows"):
        apply_ry(new_zero_state(2, rows=3), 0, rotation[:, 1])


def test_cnot_flips_target_when_control_set():
    s = new_zero_state(2)
    apply_ry(s, 0, np.pi)  # |10>
    apply_cnot(s, 0, 1)
    assert np.allclose(np.abs(s.amplitudes), [0, 0, 0, 1], atol=1e-15)


def test_cnot_noop_when_control_clear():
    s = apply_cnot(new_zero_state(2), 0, 1)
    assert np.array_equal(s.amplitudes, [1, 0, 0, 0])


def test_bell_state():
    s = new_zero_state(2)
    apply_h(s, 0)
    apply_cnot(s, 0, 1)
    assert np.allclose(s.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_cnot_rejects_equal_wires():
    with pytest.raises(IndexError):
        apply_cnot(new_zero_state(2), 1, 1)


def random_pairs(rng, q, count):
    """`count` random (control, target) pairs of distinct wires on q qubits."""
    pairs = [tuple(int(w) for w in rng.choice(q, size=2, replace=False)) for _ in range(count)]
    return tuple(c for c, _ in pairs), tuple(t for _, t in pairs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_cnot_pair_sequence_is_the_product_of_its_cnots(q):
    rng = np.random.default_rng(40 + q)
    for count in (1, 2, 5, 9):
        controls, targets = random_pairs(rng, q, count)
        start = apply_gates_sim(new_zero_state(q), random_gates(rng, q, 12))
        before = start.amplitudes.copy()
        unitary = np.eye(1 << q)
        for c, t in zip(controls, targets):
            unitary = cnot_unitary(c, t, q).real @ unitary
        pairs = apply_cnot(start, controls, targets)
        assert np.array_equal(pairs.amplitudes, unitary @ before)
        one_by_one = StateVector(before)
        for c, t in zip(controls, targets):
            apply_cnot(one_by_one, c, t)
        assert np.array_equal(pairs.amplitudes, one_by_one.amplitudes)


def test_cnot_of_no_pairs_leaves_the_state():
    state = apply_gates_sim(new_zero_state(3), random_gates(np.random.default_rng(5), 3, 10))
    before = state.amplitudes.copy()
    assert np.array_equal(apply_cnot(state, (), ()).amplitudes, before)


@pytest.mark.parametrize(
    "controls, targets",
    [
        ((0, 1), (1,)),
        ((0,), (1, 2)),
        ((0, 1), 2),
        ((0, 2), (1, 2)),
        ((0, 1, 2), (1, 0, 2)),
        ((0, True), (1, 2)),
        ((0, 1), (1, 2.0)),
        ((0, np.float64(1.0)), (1, 2)),
        ((0, 1), (1, 3)),
        ((0, -1), (1, 2)),
        ((0, [1]), (1, 2)),
    ],
)
def test_bad_cnot_pair_sequence_fails_before_any_change(controls, targets):
    state = new_zero_state(3, rows=2)
    apply_h(state, 0)
    apply_ry(state, 1, np.array([0.7, -0.2]))
    before = state.amplitudes.copy()
    with pytest.raises(IndexError):
        apply_cnot(state, controls, targets)
    assert np.array_equal(state.amplitudes, before)


def test_cnot_index_cache_is_bounded_and_read_only():
    assert qsim._cnot_index.cache_info().maxsize == 8
    apply_cnot(new_zero_state(4), (0, 2, 1), (1, 3, 2))
    index = qsim._cnot_index(4, (0, 2, 1), (1, 3, 2))
    assert index.dtype == np.intp and not index.flags.writeable
    assert sorted(index) == list(range(16))
    with pytest.raises(ValueError):
        index[0] = 1
    # A numpy integer wire is converted to the int key, not cached apart.
    qsim._cnot_index.cache_clear()
    apply_cnot(new_zero_state(4), (np.int64(0), 2), (1, np.int32(3)))
    apply_cnot(new_zero_state(4), (0, 2), (1, 3))
    assert qsim._cnot_index.cache_info().currsize == 1


@pytest.mark.parametrize("op", [apply_h, lambda s, w: apply_ry(s, w, 0.1)])
def test_wire_out_of_range(op):
    with pytest.raises(IndexError):
        op(new_zero_state(2), 2)


@pytest.mark.parametrize("wire", [True, 1.0, np.float64(1.0)])
@pytest.mark.parametrize(
    "op",
    [
        apply_h,
        lambda s, w: apply_ry(s, w, 0.3),
        lambda s, w: apply_cnot(s, w, 0),
        lambda s, w: apply_cnot(s, 0, w),
    ],
)
def test_wire_that_is_not_a_whole_number_fails_before_any_change(op, wire):
    # A bool reads as wire 1 and a float reaches the index arithmetic only
    # after RY has scaled the amplitudes; both are refused first.
    state = new_zero_state(2)
    apply_h(state, 0)
    apply_ry(state, 1, 0.7)
    before = state.amplitudes.copy()
    with pytest.raises(IndexError, match="wire.*" + re.escape(repr(wire))):
        op(state, wire)
    assert np.array_equal(state.amplitudes, before)
    # A numpy integer is a whole number and acts like the int.
    state, plain = new_zero_state(2), new_zero_state(2)
    op(state, np.int64(1))
    op(plain, 1)
    assert np.array_equal(state.amplitudes, plain.amplitudes)


def test_expect_z_zero_state():
    s = new_zero_state(3)
    assert np.array_equal(expect_z_all(s), [1.0, 1.0, 1.0])


def test_expect_z_bell():
    s = new_zero_state(2)
    apply_h(s, 0)
    apply_cnot(s, 0, 1)
    assert np.all(np.abs(expect_z_all(s)) < 1e-15)


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.2, np.pi / 2, 2.5])
def test_expect_z_after_h_then_ry(theta):
    # RY(theta) H |0> has <Z> = -sin(theta); check the 2x2 algebra directly.
    s = new_zero_state(1)
    apply_h(s, 0)
    apply_ry(s, 0, theta)
    assert expect_z_all(s)[0] == pytest.approx(-np.sin(theta), abs=1e-12)


def test_expect_z_all_matches_per_wire():
    rng = np.random.default_rng(11)
    for q in (1, 3, 5):
        gates = random_gates(rng, q, 25)
        s = apply_gates_sim(new_zero_state(q), gates)
        dense = run_circuit_dense(gates, q)
        ref = [expect_z_dense(dense, w, q) for w in range(q)]
        assert np.allclose(expect_z_all(s), ref, rtol=0, atol=1e-12)


def test_expect_z_bounded():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = apply_gates_sim(new_zero_state(4), random_gates(rng, 4, 30))
        vals = expect_z_all(s)
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_norm_preserved_over_long_sequences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = apply_gates_sim(new_zero_state(5), random_gates(rng, 5, 60))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-10


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_dense_oracle_equivalence(q):
    rng = np.random.default_rng(100 + q)
    for _ in range(10):
        gates = random_gates(rng, q, 20)
        sim = apply_gates_sim(new_zero_state(q), gates)
        ref = run_circuit_dense(gates, q)
        assert np.max(np.abs(sim.amplitudes - ref)) < 1e-12


def test_gate_algebra_involutions():
    rng = np.random.default_rng(23)
    s = apply_gates_sim(new_zero_state(3), random_gates(rng, 3, 15))
    before = s.amplitudes.copy()
    apply_h(s, 2)
    apply_h(s, 2)
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12
    apply_cnot(s, 0, 2)
    apply_cnot(s, 0, 2)
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12


def test_gates_act_on_non_contiguous_amplitudes():
    # The gates write through reshaped views, which a Fortran-ordered array
    # would turn into copies; StateVector takes a contiguous copy instead.
    rng = np.random.default_rng(31)
    gates = random_gates(rng, 3, 12) + [("ry", 1, np.array([0.3, -1.1, 2.0]))]
    base = apply_gates_sim(new_zero_state(3, rows=3), gates)
    more = [("cnot", 0, 2), ("h", 1), ("ry", 2, 0.4)]
    fortran = apply_gates_sim(StateVector(np.asfortranarray(base.amplitudes)), more)
    contiguous = apply_gates_sim(StateVector(base.amplitudes.copy()), more)
    assert np.array_equal(fortran.amplitudes, contiguous.amplitudes)


def test_ry_angles_add():
    rng = np.random.default_rng(29)
    base = apply_gates_sim(new_zero_state(2), random_gates(rng, 2, 10))
    a, b = 0.7, -1.9
    split = StateVector(base.amplitudes.copy())
    apply_ry(split, 1, a)
    apply_ry(split, 1, b)
    combined = StateVector(base.amplitudes.copy())
    apply_ry(combined, 1, a + b)
    assert np.max(np.abs(split.amplitudes - combined.amplitudes)) < 1e-12
