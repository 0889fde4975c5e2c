import numpy as np
import pytest

from dressedq import (
    ConfigurationError,
    DataFormatError,
    batches,
    generate_synthetic,
    load_csv,
    shard,
    write_csv,
)
from dressedq.data import train_val_split


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
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, 2, 1.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 0, 2, 1.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 4, 2, -1.0, 0)


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
