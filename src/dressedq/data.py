"""Datasets, synthetic generation, CSV I/O, and the distributed sampler.

All randomness goes through numpy's PCG64 seeded from explicit integers,
so datasets and shards reproduce exactly across runs and platforms.

CSV layout: one sample per line, integer label first, then the D feature
values as decimal floats. No header, UTF-8, LF endings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError


@dataclass
class Dataset:
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if self.features.shape != (n, self.feature_dim):
            raise ConfigurationError("features shape inconsistent with feature_dim")
        if self.labels.shape != (n,):
            raise ConfigurationError("labels shape inconsistent with features")
        if not np.all(np.isfinite(self.features)):
            raise ConfigurationError("non-finite feature values")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ConfigurationError("label outside 0..num_classes-1")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            feature_dim=self.feature_dim,
        )


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
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
    return Dataset(features, labels, num_classes, feature_dim)


def check_synthetic_sizes(n: int, feature_dim: int, num_classes: int, margin: float) -> None:
    """Raise ValueError unless generate_synthetic accepts these sizes."""
    if n < num_classes or feature_dim < 1 or num_classes < 1 or not 0 <= margin < np.inf:
        raise ValueError(
            f"invalid synthetic sizes: n={n}, D={feature_dim}, "
            f"C={num_classes}, margin={margin}"
        )
    if feature_dim < num_classes:
        raise ValueError("feature_dim must be >= num_classes")


def _simplex_directions(rng, num_classes: int, feature_dim: int) -> np.ndarray:
    """Unit vectors with pairwise dot product -1/(C-1), randomly oriented."""
    basis, _ = np.linalg.qr(rng.normal(size=(feature_dim, num_classes)))
    vertices = basis.T  # (C, D), orthonormal rows
    if num_classes == 1:
        return vertices
    centered = vertices - vertices.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


def load_csv(path: str) -> Dataset:
    """Parse a dataset file; class count is inferred as max label + 1."""
    rows: list[list[float]] = []
    labels: list[int] = []
    linenos: list[int] = []
    width = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise DataFormatError(f"line {lineno}: need label plus features")
            elif len(fields) != width:
                raise DataFormatError(
                    f"line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                label = int(fields[0])
                values = [float(v) for v in fields[1:]]
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
            if label < 0:
                raise DataFormatError(f"line {lineno}: negative label {label}")
            labels.append(label)
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError("empty dataset file")
    features = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataFormatError(f"line {linenos[bad[0]]}: non-finite feature value")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(features, labels_arr, int(labels_arr.max()) + 1, features.shape[1])


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
    giving every worker exactly the same number of samples.
    """
    n = len(dataset)
    if not (0 <= worker_id < num_workers):
        raise ConfigurationError(f"worker_id {worker_id} outside 0..{num_workers - 1}")
    if num_workers > n:
        raise ConfigurationError(f"{num_workers} workers but only {n} samples")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1), epoch]))
    )
    perm = rng.permutation(n)
    keep = (n // num_workers) * num_workers
    return perm[:keep][worker_id::num_workers]


def batches(indices: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Contiguous chunks of an index array; the final chunk may be short."""
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    return [indices[i : i + batch_size] for i in range(0, len(indices), batch_size)]


def train_val_split(
    dataset: Dataset, val_fraction: float, seed: int
) -> tuple[Dataset, Dataset, np.ndarray]:
    """Seeded-shuffle split; returns (train, val, held-out indices)."""
    n = len(dataset)
    n_val = max(1, int(round(n * val_fraction)))
    if n_val >= n:
        raise ConfigurationError("validation split would consume the whole dataset")
    # Distinct stream from the epoch shuffles: second entropy word 2^32.
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed & (2**64 - 1), 2**32]))
    )
    perm = rng.permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return dataset.subset(train_idx), dataset.subset(val_idx), val_idx
