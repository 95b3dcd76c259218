"""Dataset ingestion and continual-learning scenario construction.

A scenario is an ordered list of training batches plus a held-out test
set.  Batches can be formed by sorting on a feature (smooth non-iid
drift), by disjoint label groups (class-incremental), or by uniform
subsampling (iid-incremental).  A synthetic drifting-blob generator
provides desk-scale data.
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
    feature_names: list[str] | None = None
    label_names: list[str] | None = None

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
        return Dataset(
            self.features[idx], self.labels[idx], self.feature_names, self.label_names
        )


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


def load_csv(
    path: str,
    label_column: int | str = -1,
    has_header: bool = True,
    label_mapping: dict[str, int] | None = None,
) -> Dataset:
    """Parse a comma-separated file into a Dataset.

    Features are parsed as 64-bit reals (non-numeric cells are an
    error); labels are mapped to dense indices by first appearance, with
    the original strings recorded in ``label_names``.  Row order is
    preserved.  When ``label_mapping`` is given, unseen labels raise.
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

    mapping = dict(label_mapping) if label_mapping is not None else {}
    strict = label_mapping is not None
    features, labels = [], []
    for r, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {ncols}")
        raw_label = row[label_idx].strip()
        if raw_label not in mapping:
            if strict:
                raise ValueError(f"{path}: row {r} has unseen label {raw_label!r}")
            mapping[raw_label] = len(mapping)
        labels.append(mapping[raw_label])
        feat = []
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            try:
                feat.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: non-numeric feature cell {cell!r} at row {r}, column {c}")
        features.append(feat)

    names = None
    if header is not None:
        names = [h for i, h in enumerate(header) if i != label_idx]
    label_names = [None] * len(mapping)
    for text, ix in mapping.items():
        label_names[ix] = text
    return Dataset(np.asarray(features), np.asarray(labels), names, label_names)


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a Dataset with a header and the label as the last column."""
    names = dataset.feature_names or [f"f{i}" for i in range(dataset.num_features)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, "label"])
        for x, y in zip(dataset.features, dataset.labels):
            text = dataset.label_names[y] if dataset.label_names else str(int(y))
            writer.writerow([*(repr(float(v)) for v in x), text])


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


def standardize_features(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Shift/scale every feature to train-split mean 0 and variance 1.

    Constant features are left centered only.  The same transform is
    applied to the test split.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)

    def apply(ds: Dataset) -> Dataset:
        return Dataset((ds.features - mean) / std, ds.labels, ds.feature_names, ds.label_names)

    return apply(train), apply(test)


def _resolve_split(
    data: Dataset, test: Dataset | None, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    if test is not None:
        return data, test
    return train_test_split(data, test_fraction, seed)


def _contiguous_batches(data: Dataset, order: np.ndarray, num_batches: int) -> list[Dataset]:
    if num_batches < 1:
        raise ValueError(f"num_batches must be >= 1, got {num_batches}")
    if num_batches > len(order):
        raise ValueError(f"cannot split {len(order)} rows into {num_batches} batches")
    return [data.subset(chunk) for chunk in np.array_split(order, num_batches)]


def make_sorted_scenario(
    data: Dataset,
    feature_index: int = 0,
    num_batches: int = 10,
    *,
    test: Dataset | None = None,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> ContinualScenario:
    """Sort the train split by one feature and chunk it into batches.

    The sort is stable (ties keep the original row order) and batch
    sizes differ by at most one.  When no explicit test set is given, a
    seeded uniform split carves one out first.
    """
    if not -data.num_features <= feature_index < data.num_features:
        raise ValueError(f"feature index {feature_index} out of range")
    train, test = _resolve_split(data, test, test_fraction, seed)
    order = np.argsort(train.features[:, feature_index], kind="stable")
    return ContinualScenario(_contiguous_batches(train, order, num_batches), test, "sorted")


def make_class_incremental(
    data: Dataset,
    classes_per_task: int = 2,
    *,
    test: Dataset | None = None,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> ContinualScenario:
    """Group the train split into tasks of ``classes_per_task`` consecutive labels.

    Task t holds exactly the examples with labels in
    {t*c, ..., t*c + c - 1}, keeping their relative order; the test set
    spans all classes.
    """
    if classes_per_task < 1:
        raise ValueError(f"classes_per_task must be >= 1, got {classes_per_task}")
    train, test = _resolve_split(data, test, test_fraction, seed)
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
    data: Dataset,
    num_batches: int = 10,
    *,
    test: Dataset | None = None,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> ContinualScenario:
    """Shuffle the train split uniformly and chunk it into equal batches."""
    train, test = _resolve_split(data, test, test_fraction, seed)
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


def write_scenario_manifest(scenario: ContinualScenario, path: str, seed: int | None = None) -> None:
    """Record kind, seed and sizes as flat ``key = value`` lines."""
    lines = [
        f"kind = {scenario.kind}",
        f"num_batches = {scenario.num_tasks}",
        f"batch_sizes = {','.join(str(b.num_examples) for b in scenario.batches)}",
        f"test_size = {scenario.test.num_examples}",
        f"num_classes = {scenario.num_classes}",
        f"num_features = {scenario.num_features}",
    ]
    if seed is not None:
        lines.insert(1, f"seed = {seed}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
