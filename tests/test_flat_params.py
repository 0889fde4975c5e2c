"""The flat parameter vector: checkpoint bytes, views and the vector API.

HybridModel keeps every weight in one float64 vector, `params`; the five
weight blocks are views into it. These tests pin the HYQN1 bytes to those
written when the blocks were separate arrays, and the invariants the views
and the whole-vector operations rely on.
"""
import copy
import hashlib
import pickle

import numpy as np
import pytest

from dressedq import (
    CircuitSpec,
    ConfigurationError,
    SyncError,
    allreduce_mean,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from dressedq.model import HybridModel

# save_checkpoint(init_model(CircuitSpec(2, 1), 3, 2, seed=5)) as written by
# the block-per-array model: "HYQN1", q=2, d=1, D=3, C=2 as int32 LE, then
# pre_weights (2, 3), pre_bias (2,), thetas (1, 2), post_weights (2, 2) and
# post_bias (2,) as float64 LE, one weight per line below the header.
HYQN1_TINY = bytes.fromhex(
    "4859514e3102000000010000000300000002000000"
    "ac61fe823b8ad63f"
    "16c9e914d0c1d63f"
    "8052098e031f923f"
    "c4d9248eaea8cfbf"
    "314dd19f817be0bf"
    "1a6a7d87ff3cc1bf"
    "d8840d813d0ebbbf"
    "24e90ba761cde0bf"
    "6553bb1f2bab7e3f"
    "a3f538547cbd903f"
    "18d912eced94cb3f"
    "673622558607d8bf"
    "2875d5382f8db7bf"
    "72a580468f75e53f"
    "92eaa98530ffe13f"
    "489aa924ff27df3f"
)


def tiny_model():
    return init_model(CircuitSpec(2, 1), 3, 2, seed=5)


def test_pinned_bytes_are_the_known_checkpoint():
    assert len(HYQN1_TINY) == 149
    assert hashlib.sha256(HYQN1_TINY).hexdigest() == (
        "99ae9dab51099709a77f64ec5c8e6a4cd54b0a5c2ca7f9278f7be86f0a276e8f"
    )


def test_save_reproduces_pinned_bytes(tmp_path):
    path = tmp_path / "tiny.bin"
    save_checkpoint(tiny_model(), str(path))
    assert path.read_bytes() == HYQN1_TINY


def test_load_then_save_reproduces_pinned_bytes(tmp_path):
    src, dst = tmp_path / "src.bin", tmp_path / "dst.bin"
    src.write_bytes(HYQN1_TINY)
    model = load_checkpoint(str(src))
    assert np.array_equal(model.params, tiny_model().params)
    save_checkpoint(model, str(dst))
    assert dst.read_bytes() == HYQN1_TINY


COPIES = {
    "original": lambda model: model,
    "copy()": lambda model: model.copy(),
    "deepcopy": copy.deepcopy,
    "pickle": lambda model: pickle.loads(pickle.dumps(model)),
}


def test_views_share_memory_with_params():
    for how, make in COPIES.items():
        model = make(tiny_model())
        views = [
            model.pre_weights,
            model.pre_bias,
            model.thetas,
            model.post_weights,
            model.post_bias,
        ]
        assert [v.shape for v in views] == [(2, 3), (2,), (1, 2), (2, 2), (2,)], how
        for view, block in zip(views, model.weight_blocks()):
            assert np.shares_memory(view, model.params), how
            assert np.shares_memory(block, view), how
        # In checkpoint order, the views tile params exactly.
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), model.params), how
        # An update of params is seen through every view.
        before = [v.copy() for v in views]
        sgd_step(model, np.ones_like(model.params), 0.5, 0.0, np.zeros_like(model.params))
        for old, view in zip(before, views):
            assert np.array_equal(view, old - 0.5), how
        model.params[-1] = 7.0
        assert model.post_bias[-1] == 7.0, how
        # A stack of params-shaped vectors (N, P) splits into (N, ...) blocks
        # whose row r is the split of row r, each a view of the stack.
        stack = np.arange(3.0 * model.params.size).reshape(3, -1)
        blocks = model.split(stack)
        assert [v.shape for v in blocks] == [(3, 2, 3), (3, 2), (3, 1, 2), (3, 2, 2), (3, 2)], how
        for block in blocks:
            assert np.shares_memory(block, stack), how
        for r in range(3):
            for block, row in zip(blocks, model.split(stack[r])):
                assert np.array_equal(block[r], row), how


def test_sgd_step_moves_the_views():
    model = tiny_model()
    before = [v.copy() for v in model.weight_blocks()]
    grad = np.ones_like(model.params)
    sgd_step(model, grad, 0.5, 0.0, np.zeros_like(model.params))
    for old, new in zip(before, model.weight_blocks()):
        assert np.array_equal(new, old - 0.5)
    assert np.array_equal(model.thetas, before[2] - 0.5)


def test_copy_is_independent():
    model = tiny_model()
    clone = model.copy()
    assert not np.shares_memory(clone.params, model.params)
    clone.params[:] = 0.0
    clone.thetas[...] = 1.0
    assert np.array_equal(model.params, tiny_model().params)


@pytest.mark.parametrize(
    "params",
    [
        np.zeros(15),  # one short
        np.zeros(17),  # one long
        np.zeros((2, 8)),  # right size, not a vector
        np.zeros(16, dtype=np.float32),
        np.zeros(16, dtype=np.int64),
        np.zeros(32)[::2],  # right length, not contiguous
        [0.0] * 16,
        np.frombuffer(np.zeros(16).tobytes()),  # read-only
    ],
)
def test_bad_params_rejected(params):
    with pytest.raises(ConfigurationError, match="params"):
        HybridModel(CircuitSpec(2, 1), 3, 2, params)


def test_short_worker_gradient_names_the_worker():
    model = tiny_model()
    full = np.ones_like(model.params)
    with pytest.raises(SyncError, match="worker 2"):
        allreduce_mean([full, full, full[:-1]])


def test_models_compare_by_identity():
    model = tiny_model()
    assert model == model
    assert (model == model.copy()) is False
    assert model != model.copy()
