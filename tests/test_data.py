import tracemalloc

import numpy as np
import pytest

from dressedq import (
    CircuitSpec,
    ConfigurationError,
    DataFormatError,
    batches,
    generate_synthetic,
    init_model,
    load_csv,
    shard,
    write_csv,
)
from dressedq.data import Dataset, train_val_split


def test_dataset_width_is_its_features_width():
    ds = Dataset(np.zeros((3, 5)), np.zeros(3, dtype=np.int64), 2)
    assert ds.feature_dim == 5 and ds.subset(np.array([0, 2])).feature_dim == 5
    with pytest.raises(ConfigurationError, match=r"\(3,\) is not \(n, D\)"):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.int64), 2)
    for labels in (np.array([0.5, 1.0, 0.0]), np.array([0.0, np.nan, 1.0])):
        with pytest.raises(ConfigurationError, match="whole numbers"):
            Dataset(np.zeros((3, 5)), labels, 2)
    assert Dataset(np.zeros((3, 5)), np.array([0.0, 1.0, 1.0]), 2).num_classes == 2
    for num_classes in (2.5, True, 0, -1, "2"):
        with pytest.raises(ConfigurationError, match="num_classes"):
            Dataset(np.zeros((2, 3)), np.array([0, 1]), num_classes)
    # Features are read as a float64 array, with no copy of one; labels must
    # be a numeric array. Anything else raises ConfigurationError naming it.
    features = np.zeros((2, 3))
    assert Dataset(features, np.array([0, 1]), 2).features is features
    assert Dataset([[1.0, 2.0]], np.array([0]), 1).features.dtype == np.float64
    for labels in ([0], np.array(["0"]), np.array([True])):
        with pytest.raises(ConfigurationError, match="labels must be a numeric array"):
            Dataset([[1.0, 2.0]], labels, 1)
    with pytest.raises(ConfigurationError, match="features must be numbers"):
        Dataset([["a", "b"]], np.array([0]), 1)


@pytest.mark.parametrize(
    "features, labels, message",
    [
        (np.zeros((3, 2)), np.array([0, 1]), "labels shape inconsistent"),
        (np.zeros((2, 2)), np.zeros((2, 1), dtype=np.int64), "labels shape inconsistent"),
        (np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 1]), "non-finite feature"),
        (np.array([[0.0, np.inf], [1.0, 2.0]]), np.array([0, 1]), "non-finite feature"),
        (np.zeros((2, 2)), np.array([0, 2]), "label outside 0..num_classes-1"),
        (np.zeros((2, 2)), np.array([-1, 1]), "label outside 0..num_classes-1"),
    ],
)
def test_dataset_rejects_mismatched_labels_and_bad_values(features, labels, message):
    with pytest.raises(ConfigurationError, match=message):
        Dataset(features, labels, 2)


def test_datasets_compare_by_identity():
    a = generate_synthetic(10, 4, 2, 3.0, seed=1)
    b = generate_synthetic(10, 4, 2, 3.0, seed=1)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_synthetic_paper_scale_shape():
    ds = generate_synthetic(4145, 512, 3, margin=3.0, seed=7)
    assert ds.features.shape == (4145, 512)
    assert ds.num_classes == 3
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_synthetic_deterministic():
    a = generate_synthetic(100, 16, 2, margin=1.5, seed=3)
    b = generate_synthetic(100, 16, 2, margin=1.5, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate_synthetic(100, 16, 2, margin=1.5, seed=4)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_class_geometry():
    # Directions form a regular simplex: unit length, maximally spread.
    for classes in (2, 3):
        ds = generate_synthetic(3000, 32, classes, margin=4.0, seed=9)
        centers = np.stack(
            [ds.features[ds.labels == c].mean(axis=0) for c in range(classes)]
        )
        radii = np.linalg.norm(centers, axis=1)
        assert np.allclose(radii, 4.0, atol=0.5)
        for a in range(classes):
            for b in range(a + 1, classes):
                cos = centers[a] @ centers[b] / (radii[a] * radii[b])
                assert cos == pytest.approx(-1.0 / (classes - 1), abs=0.1)


def test_synthetic_invalid_sizes():
    for field, sizes in [
        ("n", (1, 4, 2, 1.0)),
        ("n", (10.5, 4, 2, 1.0)),
        ("feature_dim", (10, 0, 2, 1.0)),
        ("feature_dim", (10, 1, 2, 1.0)),
        ("feature_dim", (10, 4.0, 2, 1.0)),
        ("num_classes", (10, 4, 0, 1.0)),
        ("num_classes", (10, 4, 2.5, 1.0)),
        ("margin", (10, 4, 2, -1.0)),
        ("margin", (10, 4, 2, np.inf)),
    ]:
        with pytest.raises(ConfigurationError, match=field):
            generate_synthetic(*sizes, 0)


def test_margin_zero_is_chance_level():
    # With margin 0 all classes share one Gaussian; a trained hybrid model
    # cannot beat chance on held-out data.
    from dressedq import TrainConfig, init_model, train_distributed
    from dressedq.circuit import CircuitSpec

    ds = generate_synthetic(120, 8, 2, margin=0.0, seed=5)
    train, val, _ = train_val_split(ds, 0.25, seed=5)
    model = init_model(CircuitSpec(qubits=2, depth=1), 8, 2, seed=5)
    config = TrainConfig(epochs=5, batch_size=4, base_lr=4e-4, seed=5)
    _, metrics = train_distributed(model, train, config, val_set=val)
    assert abs(metrics[-1].val_accuracy - 0.5) < 0.25


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv(str(path))
    assert len(ds) == 2 and ds.feature_dim == 2 and ds.num_classes == 2
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_roundtrip(tmp_path):
    ds = generate_synthetic(30, 6, 3, margin=2.0, seed=11)
    path = str(tmp_path / "rt.csv")
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(ds.features, back.features)
    assert np.array_equal(ds.labels, back.labels)
    assert back.num_classes == ds.num_classes


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\n1,2.0,3.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(str(path))


def test_load_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\n1,abc\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(str(path))


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_csv_non_finite_names_line(tmp_path, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1.0,2.0\n\n1,3.0,{field}\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_csv(str(path))


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(str(path))


@pytest.mark.parametrize(
    "text, match",
    [
        ("0,1.0\n-1,2.0\n", "line 2: negative label -1"),
        ("\n5\n0,1.0\n", "line 2: need label plus features"),
        ("\n  \n\t\n", "empty dataset file"),
        ("1.5,2.0\n", "line 1: invalid literal"),
        ("0,1.0,2.0\n\n1,3.0\n", "line 3: expected 3 fields, got 2"),
        ("0,1.0\n99999999999999999999,2.0\n", "line 2: .*too large"),
    ],
    ids=["negative-label", "one-field", "blank-file", "float-label", "ragged-after-blank",
         "label-overflow"],
)
def test_load_csv_rejects_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=match):
        load_csv(str(path))


def test_load_csv_non_utf8_names_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"0,1.0\n1,\xff2.0\n")
    with pytest.raises(DataFormatError, match="line 2: 'utf-8' codec can't decode"):
        load_csv(str(path))


def test_load_csv_crlf_loads_like_lf(tmp_path):
    ds = generate_synthetic(30, 4, 3, margin=2.0, seed=9)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_csv(ds, str(lf))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = load_csv(str(crlf))
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_ignores_trailing_blank_lines(tmp_path):
    ds = generate_synthetic(70, 5, 3, margin=2.0, seed=12)
    path = tmp_path / "trail.csv"
    write_csv(ds, str(path))
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n  \n\n")
    back = load_csv(str(path))
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_peak_memory_is_near_the_array(tmp_path):
    path = str(tmp_path / "big.csv")
    write_csv(generate_synthetic(2000, 64, 2, margin=3.0, seed=4), path)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * ds.features.nbytes


def test_shard_single_worker_covers_everything():
    ds = generate_synthetic(20, 4, 2, 1.0, seed=1)
    s = shard(ds, 1, 0, epoch=0, seed=9)
    assert sorted(s) == list(range(20))


def test_shard_floor_arithmetic():
    ds = generate_synthetic(10, 4, 2, 1.0, seed=1)
    shards = [shard(ds, 4, w, epoch=0, seed=9) for w in range(4)]
    assert all(len(s) == 2 for s in shards)
    union = np.concatenate(shards)
    assert len(set(union)) == 8  # 2 samples dropped this epoch


@pytest.mark.parametrize("n,workers", [(16, 3), (50, 7), (64, 8), (9, 9)])
def test_shard_partition_property(n, workers):
    ds = generate_synthetic(n, 4, 2, 1.0, seed=2)
    for epoch in (0, 3):
        shards = [shard(ds, workers, w, epoch, seed=13) for w in range(workers)]
        sizes = {len(s) for s in shards}
        assert sizes == {n // workers}
        union = np.concatenate(shards)
        assert len(set(union)) == (n // workers) * workers


def test_shard_reshuffles_between_epochs():
    ds = generate_synthetic(32, 4, 2, 1.0, seed=2)
    a = shard(ds, 2, 0, epoch=0, seed=3)
    b = shard(ds, 2, 0, epoch=1, seed=3)
    assert not np.array_equal(a, b)


def test_shard_deterministic():
    ds = generate_synthetic(32, 4, 2, 1.0, seed=2)
    a = shard(ds, 4, 2, epoch=5, seed=77)
    b = shard(ds, 4, 2, epoch=5, seed=77)
    assert np.array_equal(a, b)


def test_shard_rejects_too_many_workers():
    ds = generate_synthetic(4, 4, 2, 1.0, seed=2)
    with pytest.raises(ConfigurationError):
        shard(ds, 5, 0, epoch=0, seed=0)


def test_batches_even_split():
    ds = generate_synthetic(8, 4, 2, 1.0, seed=2)
    chunks = batches(shard(ds, 1, 0, 0, seed=1), 4)
    assert [len(c) for c in chunks] == [4, 4]


def test_batches_short_tail():
    ds = generate_synthetic(5, 4, 2, 1.0, seed=2)
    chunks = batches(shard(ds, 1, 0, 0, seed=1), 4)
    assert [len(c) for c in chunks] == [4, 1]


def test_batches_concatenate_to_shard():
    ds = generate_synthetic(13, 4, 2, 1.0, seed=2)
    s = shard(ds, 1, 0, 0, seed=1)
    chunks = batches(s, 3)
    assert np.array_equal(np.concatenate(chunks), s)


def test_train_val_split_disjoint_and_deterministic():
    ds = generate_synthetic(50, 4, 2, 1.0, seed=6)
    train, val, held = train_val_split(ds, 0.2, seed=6)
    assert len(val) == 10 and len(train) == 40
    train2, val2, held2 = train_val_split(ds, 0.2, seed=6)
    assert np.array_equal(held, held2)
    assert np.array_equal(val.features, val2.features)
    assert np.array_equal(train.features, train2.features)
    for bad in (np.nan, np.inf, -np.inf, -0.5):
        with pytest.raises(ConfigurationError, match="val_fraction"):
            train_val_split(ds, bad, seed=6)


def test_seeds_past_64_bits_are_not_folded():
    ds = generate_synthetic(50, 4, 2, 1.0, seed=6)
    for seed in (5, 2**63 + 5):
        other = seed + 2**64
        assert not np.array_equal(shard(ds, 1, 0, 0, seed), shard(ds, 1, 0, 0, other))
        held, held_other = train_val_split(ds, 0.2, seed)[2], train_val_split(ds, 0.2, other)[2]
        assert not np.array_equal(held, held_other)


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize(
    "draw",
    [
        lambda ds, seed: generate_synthetic(10, 4, 2, 1.0, seed),
        lambda ds, seed: shard(ds, 2, 0, 0, seed),
        lambda ds, seed: train_val_split(ds, 0.2, seed),
        lambda ds, seed: init_model(CircuitSpec(2, 1), 4, 2, seed),
    ],
    ids=["generate_synthetic", "shard", "train_val_split", "init_model"],
)
def test_bad_seed_is_a_configuration_error(draw, seed):
    ds = generate_synthetic(10, 4, 2, 1.0, seed=0)
    with pytest.raises(ConfigurationError, match="seed"):
        draw(ds, seed)


@pytest.mark.parametrize(
    "field, call",
    [
        ("epoch", lambda ds: shard(ds, 1, 0, -1, 0)),
        ("epoch", lambda ds: shard(ds, 1, 0, 1.5, 0)),
        ("num_workers", lambda ds: shard(ds, 0, 0, 0, 0)),
        ("num_workers", lambda ds: shard(ds, 2.0, 0, 0, 0)),
        ("num_workers", lambda ds: shard(ds, 11, 0, 0, 0)),
        ("worker_id", lambda ds: shard(ds, 2, -1, 0, 0)),
        ("worker_id", lambda ds: shard(ds, 2, 2, 0, 0)),
        ("worker_id", lambda ds: shard(ds, 2, 0.5, 0, 0)),
        ("batch_size", lambda ds: batches(np.arange(4), 0)),
        ("batch_size", lambda ds: batches(np.arange(4), 2.5)),
    ],
)
def test_shard_and_batch_sizes_are_whole_numbers(field, call):
    ds = generate_synthetic(10, 4, 2, 1.0, seed=0)
    with pytest.raises(ConfigurationError, match=field):
        call(ds)


def test_shard_takes_numpy_integers():
    ds = generate_synthetic(10, 4, 2, 1.0, seed=0)
    want = shard(ds, 2, 1, 3, 0)
    assert np.array_equal(shard(ds, np.int64(2), np.int32(1), np.int64(3), 0), want)
    assert [len(c) for c in batches(want, np.int64(2))] == [2, 2, 1]
