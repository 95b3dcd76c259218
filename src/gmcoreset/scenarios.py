"""Dataset ingestion and continual-learning scenario construction.

A scenario is an ordered list of training batches plus a held-out test
set.  ``train_test_split`` makes the one split (``cli.build_scenario``
then standardizes both parts by the train statistics), and each builder
cuts the train part into batches and keeps the test part as it is:
sorted on a feature (smooth non-iid drift), by disjoint label groups
(class-incremental), or by a uniform shuffle (iid-incremental).  A
synthetic drifting-blob generator provides desk-scale data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Dense feature matrix with integer labels 0..k-1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) < 1:
            raise ValueError("features must be a non-empty N x F matrix")
        if self.labels.shape != (len(self.features),):
            raise ValueError("labels must align with feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain missing or non-finite values")
        if self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    @property
    def num_examples(self) -> int:
        return len(self.features)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx])


@dataclass
class ContinualScenario:
    """Ordered training batches plus a held-out test set."""

    batches: list[Dataset]
    test: Dataset
    kind: str  # sorted | class_incremental | iid_incremental

    def __post_init__(self):
        if not self.batches:
            raise ValueError("scenario must contain at least one batch")
        dims = {b.num_features for b in self.batches} | {self.test.num_features}
        if len(dims) != 1:
            raise ValueError("batches and test set disagree on feature dimension")

    @property
    def num_tasks(self) -> int:
        return len(self.batches)

    @property
    def num_classes(self) -> int:
        return max(max(b.num_classes for b in self.batches), self.test.num_classes)

    @property
    def num_features(self) -> int:
        return self.test.num_features


def load_csv(path: str, label_column: int | str = -1, has_header: bool = True) -> Dataset:
    """Parse a comma-separated file into a Dataset.

    Features are parsed as 64-bit reals (non-numeric cells are an
    error); label strings are mapped to dense indices by first
    appearance.  Row order is preserved.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if has_header:
        if not rows:
            raise ValueError(f"{path}: empty file")
        header, rows = rows[0], rows[1:]
    else:
        header = None
    if not rows:
        raise ValueError(f"{path}: no data rows")

    ncols = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label column by name requires a header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"label column {label_column!r} not in header {header}")
    else:
        if not -ncols <= label_column < ncols:
            raise ValueError(f"label column {label_column} out of range for {ncols} columns")
        label_idx = label_column % ncols

    mapping: dict[str, int] = {}
    features, labels = [], []
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {ncols}")
        labels.append(mapping.setdefault(row[label_idx].strip(), len(mapping)))
        feat = []
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: non-numeric feature cell {cell!r} at row {r}, column {c}")
        features.append(feat)
    return Dataset(np.asarray(features), np.asarray(labels))


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a Dataset under the header ``f0, ..., label``, integer labels last."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*(f"f{i}" for i in range(dataset.num_features)), "label"])
        for x, y in zip(dataset.features, dataset.labels):
            writer.writerow([*(repr(float(v)) for v in x), str(int(y))])


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Seeded uniform split; the test part gets round(N * test_fraction) rows."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    n = dataset.num_examples
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(f"test fraction {test_fraction} leaves an empty split for N={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(np.sort(perm[n_test:])), dataset.subset(np.sort(perm[:n_test]))


def standardize_features(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Shift/scale every feature to train-split mean 0 and variance 1.

    Constant features are left centered only.  The same transform is
    applied to each of ``others``, such as the test split, and each
    dataset returned holds one new feature array.  A feature whose mean
    or spread overflows raises ``ValueError``: dividing by an infinite
    spread would zero it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if len(bad):
        raise ValueError(
            f"feature {bad[0]}'s mean or spread overflows to a non-finite value; "
            "rescale the data before standardizing it"
        )
    std = np.where(std > 0.0, std, 1.0)

    def apply(ds: Dataset) -> Dataset:
        features = ds.features - mean
        features /= std
        return Dataset(features, ds.labels)

    return tuple(map(apply, (train, *others)))


def _contiguous_batches(data: Dataset, order: np.ndarray, num_batches: int) -> list[Dataset]:
    if num_batches < 1:
        raise ValueError(f"num_batches must be >= 1, got {num_batches}")
    if num_batches > len(order):
        raise ValueError(f"cannot split {len(order)} rows into {num_batches} batches")
    return [data.subset(chunk) for chunk in np.array_split(order, num_batches)]


def make_sorted_scenario(
    train: Dataset, test: Dataset, feature_index: int = 0, num_batches: int = 10
) -> ContinualScenario:
    """Sort the train split by one feature and chunk it into batches.

    The sort is stable (ties keep the original row order) and batch
    sizes differ by at most one.
    """
    if not -train.num_features <= feature_index < train.num_features:
        raise ValueError(f"feature index {feature_index} out of range")
    order = np.argsort(train.features[:, feature_index], kind="stable")
    return ContinualScenario(_contiguous_batches(train, order, num_batches), test, "sorted")


def make_class_incremental(
    train: Dataset, test: Dataset, classes_per_task: int = 2
) -> ContinualScenario:
    """Group the train split into tasks of ``classes_per_task`` consecutive labels.

    Task t holds exactly the examples with labels in
    {t*c, ..., t*c + c - 1}, keeping their relative order; the test set
    spans all classes.
    """
    if classes_per_task < 1:
        raise ValueError(f"classes_per_task must be >= 1, got {classes_per_task}")
    k = max(train.num_classes, test.num_classes)
    if k % classes_per_task != 0:
        raise ValueError(f"{k} classes are not divisible into tasks of {classes_per_task}")
    batches = []
    for t in range(k // classes_per_task):
        lo, hi = t * classes_per_task, (t + 1) * classes_per_task
        idx = np.flatnonzero((train.labels >= lo) & (train.labels < hi))
        if idx.size == 0:
            raise ValueError(f"task {t} (classes {lo}..{hi - 1}) has no training examples")
        batches.append(train.subset(idx))
    return ContinualScenario(batches, test, "class_incremental")


def make_iid_incremental(
    train: Dataset, test: Dataset, num_batches: int = 10, *, seed: int = 0
) -> ContinualScenario:
    """Shuffle the train split by ``seed + 1`` and chunk it into equal batches."""
    order = np.random.default_rng(seed + 1).permutation(train.num_examples)
    return ContinualScenario(_contiguous_batches(train, order, num_batches), test, "iid_incremental")


def synth_blobs(
    seed: int, n_per_class: int, num_classes: int, dims: int, drift: float = 0.0
) -> Dataset:
    """Gaussian blobs with an optional class-correlated drift on feature 0.

    Class means sit on a seeded regular simplex of radius 4 (orthonormal
    directions when dims >= num_classes) with unit covariance.  The
    drift term adds drift * (class + uniform(0, 1)) to feature 0, so
    sorting by feature 0 produces smoothly shifting class frequencies.
    """
    if n_per_class < 1 or num_classes < 1 or dims < 1:
        raise ValueError("n_per_class, num_classes and dims must be positive")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((dims, num_classes))
    if dims >= num_classes:
        directions, _ = np.linalg.qr(directions)
        directions = directions[:, :num_classes]
    else:
        directions /= np.linalg.norm(directions, axis=0)
    means = 4.0 * directions.T  # (k, dims)

    n = n_per_class * num_classes
    labels = np.repeat(np.arange(num_classes), n_per_class)
    features = means[labels] + rng.standard_normal((n, dims))
    features[:, 0] += drift * (labels + rng.uniform(0.0, 1.0, size=n))
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])


def class_frequencies(scenario: ContinualScenario) -> np.ndarray:
    """Relative class frequency per batch; rows sum to one."""
    k = scenario.num_classes
    table = np.zeros((scenario.num_tasks, k))
    for t, batch in enumerate(scenario.batches):
        counts = np.bincount(batch.labels, minlength=k)
        table[t] = counts / counts.sum()
    return table
