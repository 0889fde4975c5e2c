"""Property tests for the two file formats: dataset CSVs and HYQN1
checkpoints round-trip exactly, and a damaged checkpoint header fails with
ConfigurationError and nothing else."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedq import (
    ConfigurationError,
    Dataset,
    init_model,
    load_checkpoint,
    load_csv,
    save_checkpoint,
    write_csv,
)
from dressedq.circuit import CircuitSpec

FINITE = st.floats(allow_nan=False, allow_infinity=False)
INT32 = st.one_of(
    st.integers(-(2**31), 2**31 - 1),
    st.sampled_from([0, 1, -1, 24, 25, 64, 65, 2**31 - 1, -(2**31)]),
)
HEADER_END = 5 + 16  # magic, then q/d/D/C as int32


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    features = np.array(draw(st.lists(FINITE, min_size=n * dim, max_size=n * dim)))
    labels = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    return Dataset(features.reshape(n, dim), labels.astype(np.int64), int(labels.max()) + 1, dim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(datasets())
def test_csv_round_trip_is_exact(tmp_path_factory, ds):
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    write_csv(ds, path)
    loaded = load_csv(path)
    # Bytes, not values: -0.0 and subnormals must survive too.
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert (loaded.num_classes, loaded.feature_dim) == (ds.num_classes, ds.feature_dim)


@st.composite
def models(draw):
    q = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    dim = draw(st.integers(1, 6))
    classes = draw(st.integers(1, 4))
    model = init_model(CircuitSpec(q, d), dim, classes, seed=0)
    for block in model.weight_blocks():
        block[...] = np.reshape(
            draw(st.lists(FINITE, min_size=block.size, max_size=block.size)), block.shape
        )
    return model


@settings(max_examples=100, deadline=None, derandomize=True)
@given(models())
def test_checkpoint_round_trip_is_exact(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.spec == model.spec
    assert (loaded.feature_dim, loaded.num_classes) == (model.feature_dim, model.num_classes)
    for a, b in zip(loaded.weight_blocks(), model.weight_blocks()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _valid_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(init_model(CircuitSpec(2, 1), 3, 2, seed=5), str(path))
    return path, path.read_bytes()


def _load_or_reject(path, raw):
    """A damaged file raises ConfigurationError; one that still loads is a
    self-consistent checkpoint and saves back to the same bytes."""
    path.write_bytes(raw)
    try:
        model = load_checkpoint(str(path))
    except ConfigurationError:
        return False
    resaved = path.with_suffix(".resaved")
    save_checkpoint(model, str(resaved))
    assert resaved.read_bytes() == raw
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(INT32, INT32, INT32, INT32))
def test_checkpoint_header_fields_fuzzed(tmp_path_factory, dims):
    path, raw = _valid_bytes(tmp_path_factory)
    damaged = raw[:5] + struct.pack("<4i", *dims) + raw[HEADER_END:]
    loaded = _load_or_reject(path, damaged)
    if dims == (2, 1, 3, 2):
        assert loaded


@pytest.mark.parametrize("dims", [(2, 1, 6, 0), (2, 1, 0, 4)])
def test_checkpoint_zero_dimension_rejected(tmp_path_factory, dims):
    # Both headers imply the 16 weights of the saved (2, 1, 3, 2) model, so
    # only the dimension check stands between them and a 0-class or
    # 0-feature model.
    path, raw = _valid_bytes(tmp_path_factory)
    path.write_bytes(raw[:5] + struct.pack("<4i", *dims) + raw[HEADER_END:])
    with pytest.raises(ConfigurationError, match="below 1"):
        load_checkpoint(str(path))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_checkpoint_header_bytes_corrupted_or_truncated(tmp_path_factory, data):
    path, raw = _valid_bytes(tmp_path_factory)
    header = bytearray(raw[:HEADER_END])
    for pos in data.draw(st.lists(st.integers(0, HEADER_END - 1), min_size=1, max_size=6)):
        header[pos] = data.draw(st.integers(0, 255))
    body = raw[HEADER_END:]
    cut = data.draw(st.integers(0, len(raw)))
    damaged = (bytes(header) + body)[:cut]
    loaded = _load_or_reject(path, damaged)
    if bytes(header) == raw[:HEADER_END]:
        assert loaded == (cut == len(raw))
