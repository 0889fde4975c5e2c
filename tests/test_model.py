import numpy as np
import pytest

from dressedq import (
    backward,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    loss_cross_entropy,
    save_checkpoint,
    sgd_step,
)
from dressedq.circuit import CircuitSpec, quantum_forward
from dressedq.data import Dataset
from dressedq.errors import ConfigurationError, TrainingError
from dressedq.model import softmax


def zero_model(q=3, d=2, dim=5, classes=2):
    model = init_model(CircuitSpec(qubits=q, depth=d), dim, classes, seed=0)
    model.params[:] = 0.0
    return model


def small_dataset(rng, n=12, dim=5, classes=2):
    return Dataset(
        features=rng.normal(size=(n, dim)),
        labels=rng.integers(classes, size=n).astype(np.int64),
        num_classes=classes,
        feature_dim=dim,
    )


def test_forward_zero_model_gives_zero_logits():
    model = zero_model()
    logits = forward(model, np.ones(5))
    assert np.allclose(logits, 0.0, atol=1e-12)
    assert np.allclose(softmax(logits), [0.5, 0.5])


def test_forward_matches_stagewise_composition():
    rng = np.random.default_rng(3)
    model = init_model(CircuitSpec(qubits=3, depth=2), 7, 2, seed=9)
    x = rng.normal(size=7)
    z = model.pre_weights @ x + model.pre_bias
    embed = (np.pi / 2) * np.tanh(z)
    qout = quantum_forward(model.spec, model.thetas, embed)
    expected = model.post_weights @ qout + model.post_bias
    assert np.allclose(forward(model, x), expected, atol=1e-14)


def test_cross_entropy_uniform():
    assert loss_cross_entropy(np.zeros(3), 1) == pytest.approx(np.log(3), abs=1e-12)


def test_cross_entropy_large_logits_stable():
    loss = loss_cross_entropy(np.array([1000.0, 0.0]), 0)
    assert 0.0 <= loss < 1e-12


def test_cross_entropy_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        logits = rng.normal(size=4) * 3
        label = int(rng.integers(4))
        naive = -np.log(np.exp(logits[label]) / np.exp(logits).sum())
        assert loss_cross_entropy(logits, label) == pytest.approx(naive, abs=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        loss_cross_entropy(np.zeros(2), 2)
    with pytest.raises(ValueError):
        loss_cross_entropy(np.zeros(2), np.nan)


def numeric_gradient(model, x, label, h=1e-5):
    blocks = model.weight_blocks()
    grads = [np.zeros_like(b) for b in blocks]
    for block, grad in zip(blocks, grads):
        flat, gflat = block.ravel(), grad.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_cross_entropy(forward(model, x), label)
            flat[k] = orig - h
            down = loss_cross_entropy(forward(model, x), label)
            flat[k] = orig
            gflat[k] = (up - down) / (2 * h)
    return grads


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    model = init_model(CircuitSpec(qubits=3, depth=2), 8, 2, seed=21)
    x = rng.normal(size=8)
    grads, loss = backward(model, x, 1)
    assert loss == pytest.approx(loss_cross_entropy(forward(model, x), 1), abs=1e-12)
    numeric = numeric_gradient(model, x, 1)
    for analytic, fd in zip(model.split(grads), numeric):
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
        assert np.max(rel) < 1e-5


def test_backward_zero_model_post_bias_is_softmax_minus_onehot():
    model = zero_model()
    grads, _ = backward(model, np.ones(5), 1)
    pre_weights, _, thetas, _, post_bias = model.split(grads)
    assert np.allclose(post_bias, [0.5, -0.5], atol=1e-12)
    # Everything upstream of the dead post-net gets zero gradient.
    assert np.allclose(pre_weights, 0.0)
    assert np.allclose(thetas, 0.0)


def test_batch_mean_of_duplicated_sample_equals_single():
    from dressedq.model import batch_gradient

    model = init_model(CircuitSpec(qubits=2, depth=1), 4, 2, seed=2)
    x = np.array([0.3, -1.0, 0.5, 2.0])
    single, loss1 = backward(model, x, 0)
    batch, loss3 = batch_gradient(model, np.stack([x, x, x]), np.array([0, 0, 0]))
    assert loss3 == pytest.approx(loss1, abs=1e-12)
    assert np.allclose(single, batch, atol=1e-14)


def test_sgd_step_plain():
    model = zero_model(q=2, d=1, dim=2, classes=2)
    grads = np.ones_like(model.params)
    vel = np.zeros_like(model.params)
    sgd_step(model, grads, lr=1.0, momentum=0.0, velocity=vel)
    for block in model.weight_blocks():
        assert np.allclose(block, -1.0)


def test_sgd_step_momentum_two_steps():
    model = zero_model(q=2, d=1, dim=2, classes=2)
    grads = np.ones_like(model.params)
    vel = np.zeros_like(model.params)
    sgd_step(model, grads, lr=0.1, momentum=0.9, velocity=vel)
    sgd_step(model, grads, lr=0.1, momentum=0.9, velocity=vel)
    for block in model.weight_blocks():
        assert np.allclose(block, -0.29, atol=1e-15)


def test_sgd_step_zero_gradient_is_noop():
    model = init_model(CircuitSpec(qubits=2, depth=1), 3, 2, seed=5)
    before = [b.copy() for b in model.weight_blocks()]
    sgd_step(model, np.zeros_like(model.params), 0.1, 0.9, np.zeros_like(model.params))
    for a, b in zip(before, model.weight_blocks()):
        assert np.array_equal(a, b)


def test_sgd_step_rejects_non_finite_gradient():
    model = zero_model(q=2, d=1, dim=2, classes=2)
    grads = np.zeros_like(model.params)
    model.split(grads)[1][0] = np.nan  # pre_bias
    with pytest.raises(TrainingError):
        sgd_step(model, grads, 0.1, 0.9, np.zeros_like(model.params))


def test_evaluate_constant_predictor():
    model = zero_model(q=2, d=1, dim=3, classes=2)
    model.post_bias[0] = 1.0  # always predicts class 0
    all_zero = Dataset(np.zeros((6, 3)), np.zeros(6, dtype=np.int64), 2, 3)
    assert evaluate(model, all_zero) == 1.0
    balanced = Dataset(
        np.zeros((6, 3)), np.array([0, 1, 0, 1, 0, 1], dtype=np.int64), 2, 3
    )
    assert evaluate(model, balanced) == 0.5


def test_evaluate_matches_recount():
    rng = np.random.default_rng(9)
    model = init_model(CircuitSpec(qubits=2, depth=1), 5, 3, seed=11)
    ds = small_dataset(rng, n=15, dim=5, classes=3)
    correct = 0
    for x, y in zip(ds.features, ds.labels):
        if int(np.argmax(forward(model, x))) == int(y):
            correct += 1
    assert evaluate(model, ds) == correct / len(ds)


def test_evaluate_empty_rejected():
    model = zero_model()
    ds = small_dataset(np.random.default_rng(1), n=2, dim=5)
    with pytest.raises(Exception):
        evaluate(model, ds.subset(np.array([], dtype=int)))


def test_init_is_deterministic():
    a = init_model(CircuitSpec(qubits=3, depth=2), 6, 2, seed=123)
    b = init_model(CircuitSpec(qubits=3, depth=2), 6, 2, seed=123)
    for x, y in zip(a.weight_blocks(), b.weight_blocks()):
        assert np.array_equal(x, y)


def test_checkpoint_roundtrip(tmp_path):
    model = init_model(CircuitSpec(qubits=3, depth=2), 6, 2, seed=42)
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    with open(path, "rb") as f:
        raw = f.read()
    assert raw[:5] == b"HYQN1"
    assert int.from_bytes(raw[5:9], "little") == 3  # qubits
    assert int.from_bytes(raw[9:13], "little") == 2  # depth
    loaded = load_checkpoint(path)
    assert loaded.spec == model.spec
    assert loaded.feature_dim == 6 and loaded.num_classes == 2
    for a, b in zip(model.weight_blocks(), loaded.weight_blocks()):
        assert np.array_equal(a, b)


def test_checkpoint_resave_is_byte_identical(tmp_path):
    model = init_model(CircuitSpec(qubits=3, depth=2), 6, 2, seed=43)
    first, second = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


def _saved_bytes(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(init_model(CircuitSpec(qubits=2, depth=1), 3, 2, seed=44), str(path))
    return path, path.read_bytes()


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path, raw = _saved_bytes(tmp_path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(ConfigurationError, match="trailing"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_weight_rejected(tmp_path, value):
    path, raw = _saved_bytes(tmp_path)
    path.write_bytes(raw[:-8] + np.array([value], dtype="<f8").tobytes())
    with pytest.raises(ConfigurationError, match="non-finite"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("cut", [3, 12, -1])
def test_checkpoint_truncated_rejected(tmp_path, cut):
    path, raw = _saved_bytes(tmp_path)
    path.write_bytes(raw[:cut])
    with pytest.raises(ConfigurationError):
        load_checkpoint(str(path))
