"""Rehearsal-memory curation strategies for a non-iid stream.

The gradient-matching strategy keeps a weighted coreset whose embedding
columns approximate the running sum of every embedding seen so far; the
dictionary offered to the solver at each step is the stored coreset
plus the incoming batch.  Baselines: reservoir sampling, greedy class
balancing, a sliding window, and streaming facility location (sieve
thresholds).  This module only selects: the caller embeds, and hands
the gradient-matching update its batch's columns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .matching_pursuit import CoresetSelection, GradientMatrix, omp_select

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
    memory, batch_labels, features, labels, weights=None, embeddings=None, target=None
) -> RehearsalMemory:
    """``memory`` after a batch, same capacity: weights default to 1, seen and classes advance."""
    batch_labels = np.asarray(batch_labels, dtype=np.int64).tolist()
    return RehearsalMemory(
        capacity=memory.capacity,
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
    batch_embeddings: np.ndarray,
) -> tuple[CoresetSelection, RehearsalMemory]:
    """Re-select the coreset from the pool [stored coreset columns, batch columns].

    ``batch_embeddings`` holds the batch's D x b embedding columns.  The
    target is ``memory.target`` plus their column sum, or, for a memory
    without a running target, the column sum of the whole pool.
    Matching pursuit picks up to ``memory.capacity`` of its columns, so
    stored elements may be dropped or re-weighted.  Returns that selection,
    whose indices are pool columns, and the next memory.
    """
    if memory.size and memory.embeddings is None:
        raise ValueError("memory holds examples but not their embedding columns")
    if memory.target is not None and memory.target.shape != (batch_embeddings.shape[0],):
        raise ValueError(
            f"batch embedding dimension {batch_embeddings.shape[0]} does not match the "
            f"stored target dimension {memory.target.shape[0]}"
        )
    pool = GradientMatrix(
        np.hstack([memory.embeddings, batch_embeddings]) if memory.size else batch_embeddings
    )
    if memory.target is None:
        target = pool.data.sum(axis=1)
    else:
        target = memory.target + batch_embeddings.sum(axis=1)
    selection = omp_select(pool, target, min(memory.capacity, pool.shape[1]))

    all_features, all_labels = _stack_examples(memory, batch_features, batch_labels)
    idx = selection.indices
    return selection, _next_memory(
        memory, batch_labels, all_features[idx], all_labels[idx], selection.weights,
        embeddings=pool.data[:, idx], target=target,
    )


def _admit_each(memory, batch_features, batch_labels, evict) -> RehearsalMemory:
    """Offer the batch one item at a time; fill to capacity, then let ``evict`` choose.

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
        if len(labels) < memory.capacity:
            feats.append(x)
            labels.append(y)
            continue
        slot = evict(labels, y, seen, len(classes))
        if slot is not None:
            feats[slot] = x
            labels[slot] = y
    return _next_memory(memory, batch_labels, feats, labels)


def reservoir_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    rng: np.random.Generator,
) -> RehearsalMemory:
    """Single-pass reservoir: item t survives with probability n/t, n = ``memory.capacity``."""

    def evict(labels, y, seen, num_classes):
        slot = int(rng.integers(0, seen))
        return slot if slot < memory.capacity else None

    return _admit_each(memory, batch_features, batch_labels, evict)


def class_balance_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    rng: np.random.Generator,
) -> RehearsalMemory:
    """Greedy class balancing: under-quota classes displace the largest class.

    An arriving item of class y is admitted to a full memory only when
    y's count is below floor(n / #classes seen), n = ``memory.capacity``;
    the victim is a uniformly random member of the currently largest
    class (ties toward the lowest class id).
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
        if counts.get(y, 0) >= memory.capacity // num_classes:
            return None
        largest = max(counts, key=lambda c: (counts[c], -c))
        slot = members[largest].pop(int(rng.integers(0, counts[largest])))
        counts[largest] -= 1
        counts[y] = counts.get(y, 0) + 1
        bisect.insort(members.setdefault(y, []), slot)
        return slot

    return _admit_each(memory, batch_features, batch_labels, evict)


def sliding_window_update(
    memory: RehearsalMemory, batch_features: np.ndarray, batch_labels: np.ndarray
) -> RehearsalMemory:
    """Keep the last ``memory.capacity`` items in arrival order."""
    n = memory.capacity
    feats, labels = _stack_examples(memory, batch_features, batch_labels)
    return _next_memory(memory, batch_labels, feats[-n:], labels[-n:])


# --- streaming facility location (sieve thresholds) -----------------------


@dataclass
class SieveState:
    """Threshold sets for one-pass submodular maximization, for one memory size n.

    ``bound`` estimates the largest pairwise distance (twice the largest
    feature norm seen); the live thresholds (1 + SIEVE_EPSILON)^j cover
    [bound, 2 * n * bound], j in ``span``.  Threshold j's set is row
    j - span[0]: objective ``values``, (1 + SIEVE_EPSILON)^j / 2 in
    ``halves``, and its members' store slots in admission order in the
    first ``sizes`` entries of its ``slots`` row, whose rest repeats its
    first member (-1 while it has none).  ``open`` lists the rows with
    fewer than n members, ``live`` the slots they hold.

    Every admitted item is stored once, in the next row (slot) of the
    growing ``points`` store, its label in ``labels``; ``count`` rows are
    in use, never more than the items offered.  ``fallback`` holds the
    slots of the zero-norm items taken while the bound is 0 (objective 0).
    """

    bound: float = 0.0
    fallback: list[int] = field(default_factory=list)
    span: tuple[int, int] | None = None
    slots: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.intp))
    sizes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    halves: np.ndarray = field(default_factory=lambda: np.zeros(0))
    open: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    live: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    count: int = 0

    def respan(self, j_lo: int, j_hi: int, n: int) -> None:
        """Make thresholds j_lo..j_hi live, keeping the sets of those already live."""
        slots = np.full((j_hi - j_lo + 1, n), -1, dtype=np.intp)
        sizes, values = np.zeros(len(slots), dtype=np.intp), np.zeros(len(slots))
        if self.span is not None:
            kept = np.arange(max(j_lo, self.span[0]), min(j_hi, self.span[1]) + 1)
            new, old = kept - j_lo, kept - self.span[0]
            slots[new], sizes[new], values[new] = self.slots[old], self.sizes[old], self.values[old]
        self.halves = np.array([(1.0 + SIEVE_EPSILON) ** j / 2.0 for j in range(j_lo, j_hi + 1)])
        self.span, self.slots, self.sizes, self.values = (j_lo, j_hi), slots, sizes, values
        self.reopen(n)

    def reopen(self, n: int) -> None:
        """Recompute ``open`` and ``live`` after a set closed or the span moved."""
        self.open = np.flatnonzero(self.sizes < n)
        held = np.zeros(self.count + 1, dtype=bool)
        held[self.slots[self.open]] = True  # -1, an empty row's entry, marks the last
        self.live = np.flatnonzero(held[:-1])

    def store(self, x: np.ndarray, y: int) -> int:
        """Put one item in the next slot, doubling the store (stored rows first) when it is full."""
        slot = self.count
        if slot == len(self.labels):
            self.points = np.resize(self.points, (2 * slot + 64, len(x)))
            self.labels = np.resize(self.labels, 2 * slot + 64)
        self.points[slot], self.labels[slot] = x, y
        self.count += 1
        return slot

    def distances(self, x: np.ndarray) -> np.ndarray:
        """By slot: x's distance to each ``live`` point, one row sum each, else ``bound``."""
        out = np.full(self.count + 1, self.bound)
        if len(self.live):
            diff = self.points.take(self.live, axis=0) - x
            out[self.live] = np.sqrt((diff * diff).sum(axis=1))
        return out


def facility_location_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    state: SieveState,
) -> RehearsalMemory:
    """Stream a batch through the sieve thresholds, updating ``state`` in place.

    An item joins a threshold-v set when its marginal gain is at least
    (v/2 - F) / (n - |set|), F being the set's accumulated objective and
    n = ``memory.capacity``.  With similarity bound - distance, the gain
    is the item's distance to the set's nearest member, or ``bound`` for
    an empty set, so a duplicate of a member gains exactly zero.  Each
    set's test depends on its own state only, so one distance pass and
    one gather score every open set.  Returns the set with the best
    objective as the next memory, all weights 1: the fallback wins ties,
    then the lowest threshold.  A row x whose (2 ||x||)^2 overflows raises
    before ``state`` changes: every distance is at most ``bound``, so the
    squared distances then stay finite.
    """
    eps, n = SIEVE_EPSILON, memory.capacity
    batch = np.asarray(batch_features, dtype=np.float64)
    with np.errstate(over="ignore"):  # raised just below
        top = float(np.einsum("ij,ij->i", batch, batch).max(initial=0.0))
    if not math.isfinite(4.0 * top):
        raise ValueError(
            f"facility location distances overflow: a row of squared norm {top:.3g} puts "
            "squared distances past the float64 range (standardize the features)"
        )
    for x, y in zip(batch, np.asarray(batch_labels)):
        state.bound = max(state.bound, 2.0 * float(np.linalg.norm(x)))
        if state.bound <= 0.0:
            if len(state.fallback) < n:
                state.fallback.append(state.store(x, y))
            continue
        j_lo = math.ceil(math.log(state.bound) / math.log1p(eps) - 1e-12)
        j_hi = math.floor(math.log(2.0 * n * state.bound) / math.log1p(eps) + 1e-12)
        if state.span != (j_lo, j_hi):
            state.respan(j_lo, j_hi, n)
        rows, sizes = state.open, state.sizes[state.open]
        # one gather scores every open set; an empty row's -1 picks out ``bound``
        width = max(int(sizes.max(initial=0)), 1)
        gains = state.distances(x)[state.slots[rows, :width]].min(axis=1)
        hit = gains >= (state.halves[rows] - state.values[rows]) / (n - sizes)
        if hit.any():
            slot = state.store(x, y)
            rows, sizes = rows[hit], sizes[hit]
            state.slots[rows, sizes] = slot
            state.slots[rows[sizes == 0]] = slot  # a first member fills its row
            state.sizes[rows] += 1
            state.values[rows] += gains[hit]
            if sizes.max() == n - 1:  # a set closed
                state.reopen(n)
            else:
                state.live = np.append(state.live, slot)
    best = int(np.argmax(np.append(0.0, state.values)))  # 0 is the fallback, of objective 0
    members = state.slots[best - 1, : state.sizes[best - 1]] if best else state.fallback
    return _next_memory(memory, batch_labels, state.points[members], state.labels[members])
