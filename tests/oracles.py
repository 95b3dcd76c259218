"""Reference computations the tests check the library against.

Each one is the plain, one-example-at-a-time form of something the
library computes in batch, so a test can compare the two.
"""

import numpy as np
from scipy.linalg import solve_triangular

from gmcoreset.matching_pursuit import (
    CoresetSelection,
    GradientMatrix,
    SingularGramError,
    cholesky_append,
)
from gmcoreset.nn import _backprop, _output_delta, loss_and_grad


def project(gradient: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(S @ gradient) / sqrt(d) for a (d, P) sign matrix S; preserves inner products in expectation."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != (matrix.shape[1],):
        raise ValueError(
            f"gradient has length {gradient.shape}, projection expects {matrix.shape[1]}"
        )
    return (matrix @ gradient) / np.sqrt(matrix.shape[0])


def flatten(params) -> np.ndarray:
    """Concatenate [W1, b1, W2, b2, ...] in C order."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def per_example_gradient(params, example: tuple[np.ndarray, int], scope: str = "full") -> np.ndarray:
    """Gradient of one example's cross-entropy loss, flattened.

    Computed by ``nn.loss_and_grad`` on the example alone with weight 1,
    independently of the batched per-example path.  With scope
    "last_layer" only the output-layer block, the tail of the full
    gradient, is returned.
    """
    features, label = example
    X = np.asarray(features, dtype=np.float64)[None, :]
    _, grads = loss_and_grad(params, X, np.asarray([label]), np.ones(1))
    full = flatten(grads)
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
    """The gather-based form of ``omp_select``: the selected columns are
    gathered from ``G.data`` for the cross term, the refit and the
    residual on every pick.  Expects valid arguments (no checks)."""
    target = np.asarray(target, dtype=np.float64)
    norms = G.column_norms
    admissible = norms > 0.0
    safe_norms = np.where(admissible, norms, 1.0)
    indices: list[int] = []
    weights = np.zeros(0)
    chol = np.zeros((0, 0))
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
            chol = cholesky_append(chol, cross, float(norms[k]) ** 2)
        except SingularGramError:
            truncated = True
            break
        indices.append(k)
        admissible[k] = False
        rhs = G.data[:, indices].T @ target
        weights = solve_triangular(chol.T, solve_triangular(chol, rhs, lower=True), lower=False)
        residual = target - G.data[:, indices] @ weights

    return CoresetSelection(np.asarray(indices, dtype=np.int64), weights, truncated=truncated)


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
    activations, pre, _, delta = _output_delta(params, X, y)
    blocks = []
    for _, delta, inputs in _backprop(params, activations, pre, delta):
        dw = np.einsum("bo,bi->boi", delta, inputs).reshape(len(y), -1)
        blocks.append(np.concatenate([dw, delta], axis=1))
        if scope == "last_layer":
            return blocks[0]
    return np.concatenate(blocks[::-1], axis=1)


def embed_batch_by_concatenation(draws, features, labels, config) -> GradientMatrix:
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
    return GradientMatrix(np.concatenate(blocks, axis=1).T)


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
