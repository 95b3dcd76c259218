"""Rehearsal-memory curation strategies for a non-iid stream.

The gradient-matching strategy keeps a weighted coreset whose embedding
columns approximate the running sum of every embedding seen so far; the
dictionary offered to the solver at each step is the stored coreset
plus the incoming batch.  Baselines: reservoir sampling, greedy class
balancing, a sliding window, and streaming facility location (sieve
thresholds).  A "local" gradient-matching variant re-embeds stored raw
examples at the current parameters instead of caching columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grad_embed import EmbeddingConfig, embed_batch_at_params
from .matching_pursuit import GradientMatrix, omp_select
from .nn import MlpParams


@dataclass
class RehearsalMemory:
    """Bounded store of examples with weights and optional embedding state.

    ``embeddings`` (D x m) and ``target`` (the running sum of all
    embedding columns ever seen) are only maintained by the
    gradient-matching strategy.  ``seen`` counts stream items and
    ``classes_seen`` the distinct labels, bookkeeping the randomized
    baselines need across updates.
    """

    capacity: int
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    embeddings: np.ndarray | None = None
    target: np.ndarray | None = None
    seen: int = 0
    classes_seen: tuple[int, ...] = ()

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(self.labels) > self.capacity:
            raise ValueError("memory exceeds its capacity")
        if len(self.labels) != len(self.weights):
            raise ValueError("labels and weights must align")
        if self.embeddings is not None and self.embeddings.shape[1] != len(self.labels):
            raise ValueError("embedding columns must align with stored examples")

    @classmethod
    def empty(cls, capacity: int) -> "RehearsalMemory":
        return cls(capacity=capacity)

    @property
    def size(self) -> int:
        return len(self.labels)


def _stack_examples(memory: RehearsalMemory, features: np.ndarray, labels: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if memory.size == 0:
        return features, labels
    return np.vstack([memory.features, features]), np.concatenate([memory.labels, labels])


def gmc_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    batch_embeddings: GradientMatrix,
    n: int,
) -> RehearsalMemory:
    """Re-select the coreset against the updated running target.

    Adds the batch's column sum to the target, then runs matching
    pursuit on the dictionary [stored coreset columns, batch columns].
    Stored elements may be dropped or re-weighted.
    """
    data = batch_embeddings.data
    if memory.target is not None and memory.target.shape != (data.shape[0],):
        raise ValueError(
            f"batch embedding dimension {data.shape[0]} does not match the "
            f"stored target dimension {memory.target.shape[0]}"
        )
    target = data.sum(axis=1)
    if memory.target is not None:
        target = memory.target + target

    if memory.embeddings is not None and memory.size > 0:
        dictionary = np.hstack([memory.embeddings, data])
    else:
        dictionary = data
    pool = GradientMatrix(dictionary)
    selection = omp_select(pool, target, min(n, pool.num_columns))

    all_features, all_labels = _stack_examples(memory, batch_features, batch_labels)
    idx = selection.indices
    return RehearsalMemory(
        capacity=n,
        features=all_features[idx],
        labels=all_labels[idx],
        weights=selection.weights,
        embeddings=dictionary[:, idx],
        target=target,
        seen=memory.seen + data.shape[1],
        classes_seen=tuple(sorted(set(memory.classes_seen) | set(np.asarray(batch_labels).tolist()))),
    )


def local_gmc_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    current_params: MlpParams,
    n: int,
    config: EmbeddingConfig,
) -> RehearsalMemory:
    """Gradient matching at the current iterate instead of initialization.

    Embeddings of the stored examples and the batch are recomputed at
    ``current_params`` (a single draw), so nothing is cached across
    updates; the target is the column sum of this local embedding.
    """
    batch_features = np.asarray(batch_features, dtype=np.float64)
    batch_labels = np.asarray(batch_labels, dtype=np.int64)
    all_features, all_labels = _stack_examples(memory, batch_features, batch_labels)
    pool = embed_batch_at_params([current_params], all_features, all_labels, config)
    target = pool.data.sum(axis=1)
    selection = omp_select(pool, target, min(n, pool.num_columns))
    idx = selection.indices
    return RehearsalMemory(
        capacity=n,
        features=all_features[idx],
        labels=all_labels[idx],
        weights=selection.weights,
        seen=memory.seen + len(batch_labels),
        classes_seen=tuple(sorted(set(memory.classes_seen) | set(batch_labels.tolist()))),
    )


def reservoir_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> RehearsalMemory:
    """Classic single-pass reservoir: item t survives with probability n/t."""
    feats = list(memory.features) if memory.size else []
    labels = list(memory.labels) if memory.size else []
    seen = memory.seen
    for x, y in zip(np.asarray(batch_features, dtype=np.float64), np.asarray(batch_labels)):
        seen += 1
        if len(labels) < n:
            feats.append(x)
            labels.append(int(y))
        else:
            slot = int(rng.integers(0, seen))
            if slot < n:
                feats[slot] = x
                labels[slot] = int(y)
    return RehearsalMemory(
        capacity=n,
        features=np.asarray(feats),
        labels=np.asarray(labels, dtype=np.int64),
        weights=np.ones(len(labels)),
        seen=seen,
        classes_seen=tuple(sorted(set(memory.classes_seen) | set(int(y) for y in batch_labels))),
    )


def class_balance_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> RehearsalMemory:
    """Greedy class balancing: under-quota classes displace the largest class.

    An arriving item of class y is admitted to a full memory only when
    y's count is below floor(n / #classes seen); the victim is a
    uniformly random member of the currently largest class (ties toward
    the lowest class id).
    """
    feats = list(memory.features) if memory.size else []
    labels = list(memory.labels) if memory.size else []
    classes_seen = set(memory.classes_seen)
    seen = memory.seen
    for x, y in zip(np.asarray(batch_features, dtype=np.float64), np.asarray(batch_labels)):
        y = int(y)
        seen += 1
        classes_seen.add(y)
        if len(labels) < n:
            feats.append(x)
            labels.append(y)
            continue
        counts: dict[int, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        if counts.get(y, 0) < n // len(classes_seen):
            largest = max(counts, key=lambda c: (counts[c], -c))
            members = [i for i, lab in enumerate(labels) if lab == largest]
            victim = members[int(rng.integers(0, len(members)))]
            feats[victim] = x
            labels[victim] = y
    return RehearsalMemory(
        capacity=n,
        features=np.asarray(feats),
        labels=np.asarray(labels, dtype=np.int64),
        weights=np.ones(len(labels)),
        seen=seen,
        classes_seen=tuple(sorted(classes_seen)),
    )


def sliding_window_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
) -> RehearsalMemory:
    """Keep the last n items in arrival order."""
    feats, labels = _stack_examples(memory, batch_features, batch_labels)
    feats, labels = feats[-n:], labels[-n:]
    return RehearsalMemory(
        capacity=n,
        features=feats,
        labels=labels,
        weights=np.ones(len(labels)),
        seen=memory.seen + len(np.asarray(batch_labels)),
        classes_seen=tuple(sorted(set(memory.classes_seen) | set(int(y) for y in batch_labels))),
    )


# --- streaming facility location (sieve thresholds) -----------------------


@dataclass
class _Candidates:
    """One threshold's candidate set with its accumulated objective value."""

    features: list[np.ndarray] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    value: float = 0.0

    def copy(self) -> "_Candidates":
        return _Candidates(list(self.features), list(self.labels), self.value)


@dataclass
class SieveState:
    """Threshold sets for one-pass submodular maximization.

    ``bound`` is the online estimate of the largest pairwise distance
    (twice the largest feature norm seen); the active thresholds
    (1 + epsilon)^j cover [bound, 2 * capacity * bound].
    """

    capacity: int
    epsilon: float = 0.1
    bound: float = 0.0
    sets: dict[int, _Candidates] = field(default_factory=dict)
    fallback: _Candidates = field(default_factory=_Candidates)

    def copy(self) -> "SieveState":
        return SieveState(
            self.capacity,
            self.epsilon,
            self.bound,
            {j: s.copy() for j, s in self.sets.items()},
            self.fallback.copy(),
        )


def _marginal_gain(x: np.ndarray, cand: _Candidates, bound: float) -> float:
    """Coverage gain of adding x: its distance to the nearest selected point.

    With similarity bound - distance, a point covers itself at value
    ``bound``, so the gain of the first point is the bound itself and
    the gain of re-adding a selected point is exactly zero.
    """
    if not cand.features:
        return bound
    diffs = np.asarray(cand.features) - x
    return float(np.sqrt((diffs * diffs).sum(axis=1)).min())


def facility_location_update(
    state: SieveState,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
) -> tuple[SieveState, RehearsalMemory]:
    """Stream a batch through the sieve thresholds.

    An item joins a threshold-v set when its marginal gain is at least
    (v/2 - F) / (n - |set|), F being the set's accumulated objective.
    The returned memory is the candidate set with the best objective,
    all weights 1.
    """
    state = state.copy()
    eps = state.epsilon
    for x, y in zip(np.asarray(batch_features, dtype=np.float64), np.asarray(batch_labels)):
        state.bound = max(state.bound, 2.0 * float(np.linalg.norm(x)))
        if state.bound <= 0.0:
            if len(state.fallback.labels) < n:
                state.fallback.features.append(x)
                state.fallback.labels.append(int(y))
            continue
        top = state.bound  # max singleton gain
        j_lo = math.ceil(math.log(top) / math.log1p(eps) - 1e-12)
        j_hi = math.floor(math.log(2.0 * n * top) / math.log1p(eps) + 1e-12)
        for j in list(state.sets):
            if j < j_lo or j > j_hi:
                del state.sets[j]
        for j in range(j_lo, j_hi + 1):
            if j not in state.sets:
                state.sets[j] = _Candidates()
        for j, cand in state.sets.items():
            if len(cand.labels) >= n:
                continue
            gain = _marginal_gain(x, cand, state.bound)
            threshold = ((1.0 + eps) ** j / 2.0 - cand.value) / (n - len(cand.labels))
            if gain >= threshold:
                cand.features.append(x)
                cand.labels.append(int(y))
                cand.value += gain
    return state, sieve_memory(state, n)


def sieve_memory(state: SieveState, n: int) -> RehearsalMemory:
    """Materialize the best-objective candidate set as a memory."""
    best = state.fallback
    for j in sorted(state.sets):
        if state.sets[j].value > best.value:
            best = state.sets[j]
    if not best.labels:
        return RehearsalMemory.empty(n)
    return RehearsalMemory(
        capacity=n,
        features=np.asarray(best.features),
        labels=np.asarray(best.labels, dtype=np.int64),
        weights=np.ones(len(best.labels)),
    )


def facility_location_objective(
    selected: np.ndarray, points: np.ndarray, bound: float
) -> float:
    """Sum over points of the best similarity (bound - distance) to the selection."""
    selected = np.atleast_2d(np.asarray(selected, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    diffs = points[:, None, :] - selected[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=2))
    return float((bound - dists.min(axis=1)).sum())
