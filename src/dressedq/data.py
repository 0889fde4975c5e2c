"""Datasets, synthetic generation, CSV I/O, and the distributed sampler.

All randomness goes through `seeded_rng(seed, *stream)`, the one place a
seed is checked (a whole number >= 0, else ConfigurationError naming it)
and becomes a PCG64 generator, seeded by the entropy words
[seed, *stream], so datasets, shards and initial weights reproduce exactly
across runs and platforms. The stream keys: none for generate_synthetic
and model.init_model (one stream), the epoch for shard, 2^32 for
train_val_split.

CSV layout: one sample per line, integer label first, then the D feature
values as decimal floats. No header, UTF-8, LF or CRLF endings. `load_csv`
skips blank lines and parses each line straight into the (n, D) float64
and (n,) int64 arrays, about 8 bytes per value; a line it cannot read
(not UTF-8, wrong width, bad or negative label, bad or non-finite value)
raises DataFormatError naming its 1-based line number.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataFormatError, float_array, real_number, whole_number


def seeded_rng(seed, *stream: int) -> np.random.Generator:
    """The PCG64 generator seeded by the entropy words [seed, *stream]; a
    seed that is not a whole number >= 0 raises ConfigurationError naming
    it."""
    seed = whole_number("seed", seed, 0)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        whole_number("num_classes", self.num_classes, 1)
        self.features = float_array("features", self.features)
        if not (isinstance(self.labels, np.ndarray) and self.labels.dtype.kind in "iuf"):
            got = getattr(self.labels, "dtype", type(self.labels).__name__)
            raise ConfigurationError(f"labels must be a numeric array, got {got}")
        if self.features.ndim != 2:
            raise ConfigurationError(f"features shape {self.features.shape} is not (n, D)")
        n = self.features.shape[0]
        if n < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ConfigurationError("labels shape inconsistent with features")
        if not np.all(np.isfinite(self.features)):
            raise ConfigurationError("non-finite feature values")
        if not np.array_equal(self.labels, np.trunc(self.labels)):  # NaN fails too
            raise ConfigurationError("labels must be whole numbers")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ConfigurationError("label outside 0..num_classes-1")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return replace(self, features=self.features[indices], labels=self.labels[indices])


def generate_synthetic(
    n: int, feature_dim: int, num_classes: int, margin: float, seed: int
) -> Dataset:
    """Gaussian blobs around seeded random unit directions scaled by margin.

    The class directions are a randomly oriented regular simplex (antipodal
    for two classes, 120 degrees apart for three), so `margin` sets the
    radius from the origin and classes sit at maximal pairwise separation
    (2*margin for C=2). Class counts differ by at most one; margin=0
    collapses all classes onto one isotropic Gaussian (chance-level task).
    """
    check_synthetic_sizes(n, feature_dim, num_classes, margin)
    rng = seeded_rng(seed)
    directions = _simplex_directions(rng, num_classes, feature_dim)
    centers = margin * directions

    base, extra = divmod(n, num_classes)
    features = np.empty((n, feature_dim))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for c in range(num_classes):
        count = base + (1 if c < extra else 0)
        features[row : row + count] = centers[c] + rng.normal(size=(count, feature_dim))
        labels[row : row + count] = c
        row += count
    return Dataset(features, labels, num_classes)


def check_synthetic_sizes(n: int, feature_dim: int, num_classes: int, margin: float) -> None:
    """Raise ConfigurationError unless generate_synthetic accepts these
    sizes: whole numbers num_classes >= 1, n >= num_classes and
    feature_dim >= num_classes, and a margin that is a finite real number
    >= 0."""
    num_classes = whole_number("num_classes", num_classes, 1)
    whole_number("n", n, num_classes)
    whole_number("feature_dim", feature_dim, num_classes)
    real_number("margin", margin)


def _simplex_directions(rng, num_classes: int, feature_dim: int) -> np.ndarray:
    """Unit vectors with pairwise dot product -1/(C-1), randomly oriented."""
    basis, _ = np.linalg.qr(rng.normal(size=(feature_dim, num_classes)))
    vertices = basis.T  # (C, D), orthonormal rows
    if num_classes == 1:
        return vertices
    centered = vertices - vertices.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


def load_csv(path: str) -> Dataset:
    """Parse a dataset file; class count is inferred as max label + 1.

    Fields go straight into arrays that double in length as rows arrive."""
    labels = np.empty(64, dtype=np.int64)
    width = None
    row = 0
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            # Each check raises ValueError, as does bad UTF-8; the handler adds the line.
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                fields = line.split(",")
                if width is None:
                    width = len(fields)
                    if width < 2:
                        raise ValueError("need label plus features")
                    features = np.empty((len(labels), width - 1))
                elif len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                if row == len(labels):
                    # No view of either array exists yet, so resizing in place is safe.
                    labels.resize(2 * row, refcheck=False)
                    features.resize((2 * row, width - 1), refcheck=False)
                labels[row] = label = int(fields[0])
                features[row] = fields[1:]
                if label < 0:
                    raise ValueError(f"negative label {label}")
                if not np.isfinite(features[row]).all():
                    raise ValueError("non-finite feature value")
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
            row += 1
    if width is None:
        raise DataFormatError("empty dataset file")
    labels.resize(row, refcheck=False)
    features.resize((row, width - 1), refcheck=False)
    return Dataset(features, labels, int(labels.max()) + 1)


def write_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for label, row in zip(dataset.labels, dataset.features):
            f.write(str(int(label)))
            for v in row:
                f.write(",%.17g" % v)
            f.write("\n")


def shard(
    dataset: Dataset, num_workers: int, worker_id: int, epoch: int, seed: int
) -> np.ndarray:
    """Deterministic per-worker slice of this epoch's shuffled index list,
    as an index array.

    The shuffle is seeded by (seed, epoch) only, so all workers agree on the
    permutation; the list is truncated to floor(n/N)*N and dealt round-robin,
    giving every worker exactly the same number of samples. num_workers
    (1..n), worker_id (0..num_workers-1) and epoch (>= 0) are whole
    numbers, else ConfigurationError naming the field.
    """
    n = len(dataset)
    num_workers = whole_number("num_workers", num_workers, 1, n)
    whole_number("worker_id", worker_id, 0, num_workers - 1)
    epoch = whole_number("epoch", epoch, 0)
    perm = seeded_rng(seed, epoch).permutation(n)
    keep = (n // num_workers) * num_workers
    return perm[:keep][worker_id::num_workers]


def batches(indices: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Contiguous chunks of an index array; the final chunk may be short.
    batch_size is a whole number >= 1, else ConfigurationError."""
    whole_number("batch_size", batch_size, 1)
    return [indices[i : i + batch_size] for i in range(0, len(indices), batch_size)]


def train_val_split(
    dataset: Dataset, val_fraction: float, seed: int
) -> tuple[Dataset, Dataset, np.ndarray]:
    """Seeded-shuffle split; returns (train, val, held-out indices). A
    val_fraction that is not a finite real number >= 0 raises
    ConfigurationError."""
    n = len(dataset)
    real_number("val_fraction", val_fraction)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ConfigurationError("validation split would consume the whole dataset")
    # Distinct stream from the epoch shuffles: second entropy word 2^32.
    perm = seeded_rng(seed, 2**32).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return dataset.subset(train_idx), dataset.subset(val_idx), val_idx
