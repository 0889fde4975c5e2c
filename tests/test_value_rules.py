"""Every entry point that takes a real-valued setting or a float array from
outside applies the one rule for it from `dressedq.errors`, before any work
is done, and the ConfigurationError it raises names the argument."""
import re

import numpy as np
import pytest

from dressedq import (
    BackendProfile,
    CircuitSpec,
    ConfigurationError,
    Dataset,
    TrainConfig,
    backward,
    forward,
    generate_synthetic,
    init_model,
    loss_cross_entropy,
    quantum_forward,
    sgd_step,
)
from dressedq.circuit import forward_eval_count, param_shift_grad
from dressedq.data import train_val_split
from dressedq.errors import float_array, real_number
from dressedq.qsim import Rotation, apply_ry, new_zero_state


def sgd_step_with(lr=0.1, momentum=0.9):
    """One sgd_step on a fresh model, asserting that params and velocity
    keep their bytes when it raises."""
    model = init_model(CircuitSpec(qubits=2, depth=1), 2, 2, seed=6)
    velocity = np.linspace(-1.0, 1.0, model.params.size)
    before = model.params.tobytes(), velocity.tobytes()
    try:
        sgd_step(model, np.ones_like(velocity), lr, momentum, velocity)
    except ConfigurationError:
        assert (model.params.tobytes(), velocity.tobytes()) == before
        raise


DATASET = generate_synthetic(10, 4, 2, 1.0, seed=0)

# (field named in the error, call taking the value)
REAL_SETTINGS = {
    "TrainConfig.base_lr": ("base_lr", lambda v: TrainConfig(base_lr=v)),
    "TrainConfig.momentum": ("momentum", lambda v: TrainConfig(momentum=v)),
    "sgd_step.lr": ("learning rate", lambda v: sgd_step_with(lr=v)),
    "sgd_step.momentum": ("momentum", lambda v: sgd_step_with(momentum=v)),
    "BackendProfile.mean_job_latency": ("latencies", lambda v: BackendProfile("x", v)),
    "BackendProfile.queue_overhead": (
        "latencies", lambda v: BackendProfile("x", 1.0, queue_overhead=v)
    ),
    "generate_synthetic.margin": ("margin", lambda v: generate_synthetic(10, 4, 2, v, 0)),
    "train_val_split.val_fraction": ("val_fraction", lambda v: train_val_split(DATASET, v, 0)),
}


@pytest.mark.parametrize("value", [None, "0.1", True, np.nan, np.inf, -0.5])
@pytest.mark.parametrize("entry", REAL_SETTINGS)
def test_real_setting_rule_at_every_entry_point(entry, value):
    field, call = REAL_SETTINGS[entry]
    with pytest.raises(ConfigurationError, match=field):
        call(value)


def test_real_settings_take_ints_and_numpy_scalars():
    assert TrainConfig(base_lr=np.float32(0.5), momentum=0).lr == 0.5
    assert BackendProfile("x", np.int64(2), queue_overhead=np.float64(0.5)).seconds_per_job == 2.5
    sgd_step_with(lr=1, momentum=np.float64(0.0))


def test_real_number_rule():
    for value in (0, 0.0, 2, np.int64(3), np.float32(0.5), np.float64(2.0)):
        assert real_number("x", value) is None
    for value in (0, -1.0, 10**400, 1j, np.bool_(True), np.array(1.0), [1.0]):
        with pytest.raises(ConfigurationError, match="x must be a finite real number > 0"):
            real_number("x", value, above=True)


def test_float_array_rule():
    values = np.arange(3.0)
    assert float_array("x", values) is values
    assert float_array("x", [1, 2]).dtype == np.float64
    for value in ([[1.0, 2.0], [3.0]], ["a", "b"], "abc", 1j):
        with pytest.raises(ConfigurationError, match="x must be numbers"):
            float_array("x", value)


SPEC = CircuitSpec(qubits=2, depth=1)
MODEL = init_model(SPEC, 2, 2, seed=0)
THETAS = np.zeros((1, 2))

# (field named in the error, call taking the array)
FLOAT_ARRAYS = {
    "forward": ("features", lambda a: forward(MODEL, a)),
    "backward": ("features", lambda a: backward(MODEL, a, 0)),
    "loss_cross_entropy": ("logits", lambda a: loss_cross_entropy(a, 0)),
    "quantum_forward": ("embed_angles", lambda a: quantum_forward(SPEC, THETAS, a)),
    "param_shift_grad": ("embed_angles", lambda a: param_shift_grad(SPEC, THETAS, a)),
    "Dataset": ("features", lambda a: Dataset(a, np.array([0, 1]), 2)),
    "Rotation": ("angles", Rotation),
}


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], ["a", "b"]], ids=["ragged", "strings"])
@pytest.mark.parametrize("entry", FLOAT_ARRAYS)
def test_float_array_rule_at_every_entry_point(entry, value):
    field, call = FLOAT_ARRAYS[entry]
    before = forward_eval_count()
    with pytest.raises(ConfigurationError, match=f"{field} must be numbers"):
        call(value)
    assert forward_eval_count() == before


def test_ry_angle_that_is_not_a_number_fails_before_any_change():
    state = new_zero_state(2)
    before = state.amplitudes.tobytes()
    with pytest.raises(ConfigurationError, match="angles must be numbers"):
        apply_ry(state, 0, "abc")
    assert state.amplitudes.tobytes() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
@pytest.mark.parametrize(
    "call, features, where",
    [
        (lambda f: forward(MODEL, f), [0.5, "bad"], "[1]"),
        (lambda f: forward(MODEL, f), [[0.5, 1.0], [1.0, "bad"], ["bad", 0.0]], "[1, 1]"),
        (lambda f: backward(MODEL, f, [0, 1]), [[0.5, 1.0], ["bad", 2.0]], "[1, 0]"),
        (lambda f: backward(MODEL, f, 0), ["bad", 1.0], "[0]"),
        (lambda f: backward(MODEL, f, [[0], [1]]), [[[0.5, 0.5]], [[1.0, "bad"]]], "[1, 0, 1]"),
    ],
)
def test_non_finite_feature_is_named_before_any_circuit_runs(call, features, where, bad):
    # An inf would be squashed to 1 by tanh and a None read as NaN; each
    # names the first bad entry of the features as given.
    def fill(value):
        return [fill(v) for v in value] if isinstance(value, list) else bad if value == "bad" else value

    features = fill(features)
    before = forward_eval_count()
    with pytest.raises(ConfigurationError, match=re.escape(f"features{where} is ")):
        call(features)
    assert forward_eval_count() == before


def test_finite_features_whose_pre_net_output_overflows_still_run():
    # Only a non-finite input is refused: 1e308 * 2 overflows the pre-net
    # product to inf, which tanh squashes as it did before.
    model = init_model(SPEC, 2, 2, seed=0)
    model.pre_weights[...] = 2.0
    with np.errstate(over="ignore"):
        assert np.isfinite(forward(model, [1e308, 1e308])).all()
