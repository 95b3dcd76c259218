"""Reference computations the tests check the library against.

Each one is the plain, one-example-at-a-time form of something the
library computes in batch, so a test can compare the two.
"""

import numpy as np

from gmcoreset.grad_embed import _batch_gradients


def project(gradient: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(S @ gradient) / sqrt(d) for a (d, P) sign matrix S; preserves inner products in expectation."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != (matrix.shape[1],):
        raise ValueError(
            f"gradient has length {gradient.shape}, projection expects {matrix.shape[1]}"
        )
    return (matrix @ gradient) / np.sqrt(matrix.shape[0])


def per_example_gradient(params, example: tuple[np.ndarray, int], scope: str = "full") -> np.ndarray:
    """Gradient of one example's cross-entropy loss, flattened.

    With scope "last_layer" only the output-layer block is returned,
    which equals the corresponding tail block of the full gradient.
    """
    features, label = example
    X = np.asarray(features, dtype=np.float64)[None, :]
    return _batch_gradients(params, X, np.asarray([label]), scope)[0]


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
