"""Reference computations the tests check the library against.

Each one is the plain, one-example-at-a-time form of something the
library computes in batch, so a test can compare the two.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from gmcoreset.matching_pursuit import (
    CoresetSelection,
    GradientMatrix,
    SingularGramError,
    cholesky_append,
    omp_select,
)
from gmcoreset import nn
from gmcoreset.grad_embed import EmbeddingConfig, embed_batch_at_params, sign_projection
from gmcoreset.memory import SIEVE_EPSILON, RehearsalMemory, _next_memory, _stack_examples
from gmcoreset.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpParams, _backprop, _output_delta


def project(gradient: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(S @ gradient) / sqrt(d) for a (d, P) sign matrix S; preserves inner products in expectation."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != (matrix.shape[1],):
        raise ValueError(
            f"gradient has length {gradient.shape}, projection expects {matrix.shape[1]}"
        )
    return (matrix @ gradient) / np.sqrt(matrix.shape[0])


def loss_and_grad(params, X: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Weighted softmax cross-entropy and its exact gradient.

    loss = sum_i w_i * ce_i / sum_i w_i; individual weights may be
    negative but their sum must be positive.  The gradient is returned
    as an ``nn.MlpParams``; ``params`` may be one or ``LayerParams``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != y.shape or len(X) != len(y):
        raise ValueError("batch, labels and weights must have equal length")
    wsum = float(weights.sum())
    if wsum <= 0.0:
        raise ValueError(f"sum of example weights must be positive, got {wsum}")

    _, _, logits = nn._forward(params, X)
    activations, pre, delta = _output_delta(params, X, y)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ce = logsumexp - logits[np.arange(len(y)), y]
    loss = float(weights @ ce / wsum)

    delta *= (weights / wsum)[:, None]
    grads = MlpParams.zeros([(w.shape[1], w.shape[0]) for w in params.weights])
    for layer, delta, inputs in _backprop(params, activations, pre, delta):
        grads.weights[layer][...] = delta.T @ inputs
        grads.biases[layer][...] = delta.sum(axis=0)
    return loss, grads


@dataclass
class LayerParams:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors, each its own array."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)


@dataclass
class LayerAdamState:
    """Per-tensor first/second moments, weights then biases, and the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: LayerParams) -> "LayerAdamState":
        tensors = (*params.weights, *params.biases)
        return cls([np.zeros_like(p) for p in tensors], [np.zeros_like(p) for p in tensors])


def init_sample_by_layers(arch, seed: int) -> LayerParams:
    """The per-layer form of ``nn.init_sample``: one array per draw."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in arch.layer_dims():
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return LayerParams(weights, biases)


def adam_step_by_layers(params, grads, state: LayerAdamState, config):
    """The per-tensor, out-of-place form of ``nn.adam_step``; inputs are not mutated."""
    gradients = (*grads.weights, *grads.biases)
    if not all(np.all(np.isfinite(g)) for g in gradients):
        raise FloatingPointError("non-finite gradient in Adam update")
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    mc, vc = 1.0 - b1 ** t, 1.0 - b2 ** t
    updated, ms, vs = [], [], []
    for p, g, m, v in zip((*params.weights, *params.biases), gradients, state.m, state.v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        updated.append(p - config.step_size * (m / mc) / (np.sqrt(v / vc) + ADAM_EPS))
        ms.append(m)
        vs.append(v)
    k = params.num_layers
    return LayerParams(updated[:k], updated[k:]), LayerAdamState(ms, vs, t)


def train_steps_by_layers(params, state, X, y, weights, config, epochs=None):
    """The per-layer form of ``nn.train_steps``: a fresh gradient from
    ``loss_and_grad`` and fresh parameters from ``adam_step_by_layers``
    on every step."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    epochs = config.epochs if epochs is None else epochs
    rng = np.random.default_rng(config.seed)
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = perm[start : start + config.batch_size]
            _, grads = loss_and_grad(params, X[idx], y[idx], weights[idx])
            params, state = adam_step_by_layers(params, grads, state, config)
    return params, state


def replay_task_by_stacking(params, state, batch, memory, represented, train_cfg, epochs):
    """The stacking form of ``harness._replay_task``: every mixed minibatch is
    a fresh ``vstack`` of the batch rows and the memory rows it draws, with
    memory weights rescaled to sum to ``represented``; its own loop steps
    on copies of ``params`` and ``state``."""
    params, state = params.copy(), state.copy()
    grads = nn.MlpParams.zeros(params.layer_dims)
    rng = np.random.default_rng(train_cfg.seed)
    n = batch.num_examples
    if memory.size == 0:
        for _ in range(epochs):
            perm = rng.permutation(n)
            for start in range(0, n, train_cfg.batch_size):
                idx = perm[start : start + train_cfg.batch_size]
                nn.weighted_gradient(
                    params, batch.features[idx], batch.labels[idx], np.ones(len(idx)), grads
                )
                nn.adam_step(params, grads, state, train_cfg)
        return params, state
    total = float(memory.weights.sum())
    if total <= 0.0:
        raise ValueError("memory weights sum to a non-positive value")
    scaled = memory.weights * (represented / total)
    half = max(1, train_cfg.batch_size // 2)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, half):
            cur = perm[start : start + half]
            pick = rng.integers(0, memory.size, size=half)
            X = np.vstack([batch.features[cur], memory.features[pick]])
            y = np.concatenate([batch.labels[cur], memory.labels[pick]])
            w = np.concatenate([np.ones(len(cur)), scaled[pick]])
            nn.weighted_gradient(params, X, y, w, grads)
            nn.adam_step(params, grads, state, train_cfg)
    return params, state


def replay_batches_per_minibatch(n: int, m: int, half: int, epochs: int, rng):
    """The mixed-minibatch sampler ``harness._replay_task`` used when it drew
    each minibatch's memory rows with their own ``rng.integers`` call: rows
    ``n + j`` index memory row ``j`` of the stacked [batch; memory]."""
    return (
        np.concatenate([cur, n + rng.integers(0, m, size=half)])
        for cur in nn.shuffled_batches(n, half, epochs, rng)
    )


def local_gmc_update(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    current_params: MlpParams,
    config: EmbeddingConfig,
) -> RehearsalMemory:
    """Gradient matching at the current iterate instead of initialization.

    Embeddings of the stored examples and the batch are recomputed at
    ``current_params`` (a single draw), so nothing is cached across
    updates; the target is the column sum of this local embedding, and
    up to ``memory.capacity`` columns are selected.

    The standalone form of ``harness.UPDATES["gmc_local"]``, which embeds
    and then hands the selection to ``memory.gmc_update``.
    """
    all_features, all_labels = _stack_examples(memory, batch_features, batch_labels)
    pool = GradientMatrix(embed_batch_at_params([current_params], all_features, all_labels, config))
    target = pool.data.sum(axis=1)
    selection = omp_select(pool, target, min(memory.capacity, pool.shape[1]))
    idx = selection.indices
    return _next_memory(memory, batch_labels, all_features[idx], all_labels[idx], selection.weights)


def per_example_gradient(params, example: tuple[np.ndarray, int], scope: str = "full") -> np.ndarray:
    """Gradient of one example's cross-entropy loss, flattened.

    Computed by ``loss_and_grad`` on the example alone with weight 1,
    independently of the batched per-example path.  With scope
    "last_layer" only the output-layer block, the tail of the full
    gradient, is returned.
    """
    features, label = example
    X = np.asarray(features, dtype=np.float64)[None, :]
    _, grads = loss_and_grad(params, X, np.asarray([label]), np.ones(1))
    full = grads.flat
    if scope == "last_layer":
        return full[-(grads.weights[-1].size + grads.biases[-1].size):]
    return full


def num_params(arch) -> int:
    """Parameter count of an MLP, weights and biases of every layer."""
    return sum(fi * fo + fo for fi, fo in arch.layer_dims())


def facility_location_objective(selected: np.ndarray, points: np.ndarray, bound: float) -> float:
    """Sum over points of the best similarity (bound - distance) to the selection."""
    selected = np.atleast_2d(np.asarray(selected, dtype=np.float64))
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    diffs = points[:, None, :] - selected[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=2))
    return float((bound - dists.min(axis=1)).sum())


def omp_select_by_gathers(G, target: np.ndarray, n: int) -> CoresetSelection:
    """The plain form of ``omp_select``: every pick refits the weights,
    forms the residual and scores it against every column, and the
    selected columns are gathered from ``G.data`` for the cross term,
    the refit and the residual.  Expects valid arguments (no checks)."""
    target = np.asarray(target, dtype=np.float64)
    norms = G.column_norms
    admissible = norms > 0.0
    safe_norms = np.where(admissible, norms, 1.0)
    indices: list[int] = []
    weights = np.zeros(0)
    factor = np.zeros((n, n))
    residual = target.copy()
    truncated = False

    while len(indices) < n:
        ratios = np.abs((residual @ G.data) / safe_norms)
        ratios[~admissible] = -np.inf
        k = int(np.argmax(ratios))
        if not np.isfinite(ratios[k]):
            truncated = True  # no admissible column left
            break
        cross = G.data[:, indices].T @ G.data[:, k] if indices else np.zeros(0)
        try:
            cholesky_append(factor, cross, float(norms[k]) ** 2)
        except SingularGramError:
            truncated = True
            break
        indices.append(k)
        admissible[k] = False
        rhs = G.data[:, indices].T @ target
        # a C-ordered copy: scipy solves a strided view by another path, with other bits
        chol = factor[: len(indices), : len(indices)].copy()
        weights = solve_triangular(chol.T, solve_triangular(chol, rhs, lower=True), lower=False)
        residual = target - G.data[:, indices] @ weights

    return CoresetSelection(np.asarray(indices, dtype=np.int64), weights, truncated=truncated)


class GramDictionary:
    """A dictionary known only by its Gram matrix K = GᵀG and its first
    scores c0 = Gᵀt against one target t.  It answers every call
    ``omp_select`` makes of a ``GradientMatrix`` by lookups into K and c0
    and has no ``data`` attribute, so a selection through it shows the
    loop reads no column of G itself."""

    def __init__(self, data: np.ndarray, target: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        self.shape = data.shape
        self.target = np.asarray(target, dtype=np.float64)
        self.gram = data.T @ data
        self.first_scores = self.target @ data
        self.column_norms = np.sqrt(np.diag(self.gram))

    def check_target(self, t: np.ndarray) -> None:
        if not np.array_equal(t, self.target):
            raise ValueError("a Gram dictionary answers for its own target only")

    def scores(self, v: np.ndarray) -> np.ndarray:
        self.check_target(v)
        return self.first_scores.copy()

    def picks(self, n: int) -> "_GramPicks":
        return _GramPicks(self)


class _GramPicks:
    """One selection's state over a ``GramDictionary``: the picked indices S."""

    def __init__(self, dictionary: GramDictionary):
        self.dictionary = dictionary
        self.selected: list[int] = []

    def cross(self, k: int) -> np.ndarray:
        return self.dictionary.gram[self.selected, k]

    def add(self, k: int) -> None:
        self.selected.append(k)

    def gram_column(self, k: int) -> np.ndarray:
        return self.dictionary.gram[k]

    def rhs(self, t: np.ndarray) -> np.ndarray:
        self.dictionary.check_target(t)
        return self.dictionary.first_scores[self.selected]

    def rescore(self, t: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        self.dictionary.check_target(t)
        np.subtract(self.dictionary.first_scores, self.dictionary.gram[:, self.selected] @ w, out=out)


def sign_matrix(proj_dim: int, input_dim: int, seed: int) -> np.ndarray:
    """The whole (proj_dim, input_dim) matrix of ``grad_embed.sign_projection``:
    a copy of each yielded block, taken before the next one overwrites it,
    stacked in order."""
    return np.concatenate([block.copy() for block in sign_projection(proj_dim, input_dim, seed)])


def sign_projection_one_shot(proj_dim: int, input_dim: int, seed: int) -> np.ndarray:
    """The (proj_dim, input_dim) {+1, -1} matrix drawn by one call for the
    whole matrix, then mapped to floats out of place."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(proj_dim, input_dim)).astype(np.float64) * 2.0 - 1.0


def batch_gradients_by_concatenation(params, X: np.ndarray, y: np.ndarray, scope: str) -> np.ndarray:
    """The concatenating form of ``grad_embed._batch_gradients``: one
    einsum and one concatenation per layer, then one across layers."""
    if scope not in ("full", "last_layer"):
        raise ValueError(f"unknown gradient scope {scope!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    activations, pre, delta = _output_delta(params, X, y)
    blocks = []
    for _, delta, inputs in _backprop(params, activations, pre, delta):
        dw = np.einsum("bo,bi->boi", delta, inputs).reshape(len(y), -1)
        blocks.append(np.concatenate([dw, delta], axis=1))
        if scope == "last_layer":
            return blocks[0]
    return np.concatenate(blocks[::-1], axis=1)


def embed_batch_by_concatenation(draws, features, labels, config) -> np.ndarray:
    """The concatenating form of ``grad_embed.embed_batch_at_params``: the
    per-draw blocks are concatenated, transposed and copied into the
    dictionary, and the projection is divided out of place."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    blocks = []
    for j, params in enumerate(draws):
        if config.mode == "random_projection":
            grads = batch_gradients_by_concatenation(params, features, labels, "full")
            proj = sign_projection_one_shot(config.proj_dim, grads.shape[1], config.projection_seed + j)
            blocks.append(grads @ proj.T / np.sqrt(config.proj_dim))
        else:
            blocks.append(batch_gradients_by_concatenation(params, features, labels, "last_layer"))
    return np.concatenate(blocks, axis=1).T


# The memory bound of the layout that held each draw's whole (N, P)
# gradient matrix and streamed its sign matrix in blocks of 1024 rows,
# kept verbatim with the constants and pass count it read: the blocked
# layout's ``grad_embed.embedding_peak_bytes`` must never exceed it.
_PROJECT_BLOCK_ROWS = 1024
_SIGN_BLOCK_ROWS = 64
_OBJECT_BYTES = 256
_CALL_BYTES = 2**12


def pass_bytes_with_two_deltas(layer_dims: list[tuple[int, int]], rows: int, first: int = 0) -> int:
    hidden = [fan_out for _, fan_out in layer_dims[:-1]]
    classes = layer_dims[-1][1]
    widest = max(hidden[first:], default=0)
    per_row = 8 * (2 * sum(hidden) + 3 * classes + 2 * widest + 4) + classes + widest
    return rows * per_row + 8 * min(np.getbufsize(), rows * max(hidden + [classes]))


def _draw_layout_with_the_gradients_whole(config, layer_dims):
    if config.mode == "random_projection":
        block = min(config.proj_dim, _PROJECT_BLOCK_ROWS)
        return 0, nn.param_count(layer_dims), config.proj_dim, block
    first = len(layer_dims) - 1
    width = nn.param_count(layer_dims[first:])
    return first, width, width, 0


def embedding_peak_bytes_with_the_gradients_whole(config, arch, num_examples: int) -> int:
    dims = arch.layer_dims()
    first, width, rows, block = _draw_layout_with_the_gradients_whole(config, dims)
    N, dim = num_examples, config.draws * rows
    loop = 8 * width * (N + block + min(block, _SIGN_BLOCK_ROWS)) + pass_bytes_with_two_deltas(dims, N, first)
    draw = 8 * nn.param_count(dims) + _OBJECT_BYTES * (2 * len(dims) + 3)
    held = _CALL_BYTES + config.draws * draw + 8 * (dim + block) * N
    return held + max(loop, 8 * (dim + 2) * N)


def class_balance_by_rescan(n: int, rng):
    """The rescanning eviction rule of ``memory.class_balance_update``:
    class counts and the largest class's members are rebuilt from the
    whole memory for every item offered to it when full."""

    def evict(labels, y, seen, num_classes):
        counts: dict[int, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        if counts.get(y, 0) >= n // num_classes:
            return None
        largest = max(counts, key=lambda c: (counts[c], -c))
        members = [i for i, lab in enumerate(labels) if lab == largest]
        return members[int(rng.integers(0, len(members)))]

    return evict


@dataclass
class _Candidates:
    """One threshold's candidate set with its accumulated objective value."""

    features: list[np.ndarray] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    value: float = 0.0


@dataclass
class SetScanSieveState:
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


def facility_location_by_set_scans(
    memory: RehearsalMemory,
    batch_features: np.ndarray,
    batch_labels: np.ndarray,
    n: int,
    state: SetScanSieveState,
) -> RehearsalMemory:
    """The set-scanning form of ``memory.facility_location_update``: every
    threshold set keeps its own list of member points, and an offered item
    runs one distance pass per open set over that set's stacked list."""
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
    return _next_memory(memory, batch_labels, best.features, best.labels)
