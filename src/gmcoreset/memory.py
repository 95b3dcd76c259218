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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .grad_embed import EmbeddingConfig, embed_batch_at_params
from .matching_pursuit import GradientMatrix, omp_select
from .nn import MlpParams

# Consecutive sieve thresholds differ by the factor 1 + SIEVE_EPSILON.
SIEVE_EPSILON = 0.1


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


def _next_memory(
    memory, batch_labels, n, features, labels, weights=None, embeddings=None, target=None
) -> RehearsalMemory:
    """The capacity-n memory after a batch: weights default to 1, seen and classes advance."""
    batch_labels = np.asarray(batch_labels, dtype=np.int64).tolist()
    return RehearsalMemory(
        capacity=n,
        features=np.asarray(features),
        labels=np.asarray(labels, dtype=np.int64),
        weights=np.ones(len(labels)) if weights is None else weights,
        embeddings=embeddings,
        target=target,
        seen=memory.seen + len(batch_labels),
        classes_seen=tuple(sorted(set(memory.classes_seen) | set(batch_labels))),
    )


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
    return _next_memory(
        memory, batch_labels, n, all_features[idx], all_labels[idx], selection.weights,
        embeddings=dictionary[:, idx], target=target,
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
    all_features, all_labels = _stack_examples(memory, batch_features, batch_labels)
    pool = embed_batch_at_params([current_params], all_features, all_labels, config)
    target = pool.data.sum(axis=1)
    selection = omp_select(pool, target, min(n, pool.num_columns))
    idx = selection.indices
    return _next_memory(
        memory, batch_labels, n, all_features[idx], all_labels[idx], selection.weights
    )


def _admit_each(memory, batch_features, batch_labels, n, evict) -> RehearsalMemory:
    """Offer the batch one item at a time; fill up to n, then let ``evict`` choose.

    ``evict(labels, y, seen, num_classes)`` returns the slot item y
    overwrites, or None to leave it out; the counts include the item.
    """
    feats = list(memory.features) if memory.size else []
    labels = list(memory.labels) if memory.size else []
    seen, classes = memory.seen, set(memory.classes_seen)
    for x, y in zip(np.asarray(batch_features, dtype=np.float64), np.asarray(batch_labels)):
        y = int(y)
        seen += 1
        classes.add(y)
        if len(labels) < n:
            feats.append(x)
            labels.append(y)
            continue
        slot = evict(labels, y, seen, len(classes))
        if slot is not None:
            feats[slot] = x
            labels[slot] = y
    return _next_memory(memory, batch_labels, n, feats, labels)


def reservoir_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> RehearsalMemory:
    """Classic single-pass reservoir: item t survives with probability n/t."""

    def evict(labels, y, seen, num_classes):
        slot = int(rng.integers(0, seen))
        return slot if slot < n else None

    return _admit_each(memory, batch_features, batch_labels, n, evict)


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

    # Class counts and each class's slots in ascending order, built from the
    # full memory on the first eviction and then kept up to date per admission.
    counts: dict[int, int] = {}
    members: dict[int, list[int]] = {}

    def evict(labels, y, seen, num_classes):
        if not counts:
            for slot, lab in enumerate(labels):
                counts[lab] = counts.get(lab, 0) + 1
                members.setdefault(lab, []).append(slot)
        if counts.get(y, 0) >= n // num_classes:
            return None
        largest = max(counts, key=lambda c: (counts[c], -c))
        slot = members[largest].pop(int(rng.integers(0, counts[largest])))
        counts[largest] -= 1
        counts[y] = counts.get(y, 0) + 1
        bisect.insort(members.setdefault(y, []), slot)
        return slot

    return _admit_each(memory, batch_features, batch_labels, n, evict)


def sliding_window_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
) -> RehearsalMemory:
    """Keep the last n items in arrival order."""
    feats, labels = _stack_examples(memory, batch_features, batch_labels)
    return _next_memory(memory, batch_labels, n, feats[-n:], labels[-n:])


# --- streaming facility location (sieve thresholds) -----------------------


@dataclass
class _Candidates:
    """One threshold's candidate set with its accumulated objective value."""

    features: list[np.ndarray] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    value: float = 0.0


@dataclass
class SieveState:
    """Threshold sets for one-pass submodular maximization.

    ``bound`` is the online estimate of the largest pairwise distance
    (twice the largest feature norm seen); the active thresholds
    (1 + SIEVE_EPSILON)^j cover [bound, 2 * n * bound] for memory size n.
    """

    bound: float = 0.0
    sets: dict[int, _Candidates] = field(default_factory=dict)
    fallback: _Candidates = field(default_factory=_Candidates)


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
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
    state: SieveState,
) -> RehearsalMemory:
    """Stream a batch through the sieve thresholds, updating ``state`` in place.

    An item joins a threshold-v set when its marginal gain is at least
    (v/2 - F) / (n - |set|), F being the set's accumulated objective.
    Returns the candidate set with the best objective as the next
    memory, all weights 1: the fallback set wins ties, then the lowest
    threshold with the strictly largest value.
    """
    eps = SIEVE_EPSILON
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
        state.sets = {j: state.sets.get(j) or _Candidates() for j in range(j_lo, j_hi + 1)}
        for j, cand in state.sets.items():
            if len(cand.labels) >= n:
                continue
            gain = _marginal_gain(x, cand, state.bound)
            threshold = ((1.0 + eps) ** j / 2.0 - cand.value) / (n - len(cand.labels))
            if gain >= threshold:
                cand.features.append(x)
                cand.labels.append(int(y))
                cand.value += gain
    best = state.fallback
    for j in sorted(state.sets):
        if state.sets[j].value > best.value:
            best = state.sets[j]
    return _next_memory(memory, batch_labels, n, best.features, best.labels)
