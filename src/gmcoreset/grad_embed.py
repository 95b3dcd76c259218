"""Finite-dimensional gradient embeddings of labeled examples.

An example's embedding stacks its per-example loss gradient at several
parameter draws from the model's initialization distribution, reduced
per draw either by a random sign projection or by restriction to the
output-layer gradient (computable without a full backward pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching_pursuit import GradientMatrix
from .nn import MlpArch, MlpParams, _backprop, _output_delta, init_sample


@dataclass(frozen=True)
class EmbeddingConfig:
    """How gradients are turned into fixed-size vectors.

    Args:
      draws: number of parameter draws stacked into the embedding.
      mode: "random_projection" projects the full gradient onto random
        sign vectors; "last_layer" keeps the output-layer gradient.
      proj_dim: projection size per draw (random_projection only).
      projection_seed: seed of the sign matrices; draw j uses
        projection_seed + j.
      init_seed: seed of the parameter draws; draw j uses init_seed + j.
    """

    draws: int = 4
    mode: str = "random_projection"
    proj_dim: int = 2000
    projection_seed: int = 0
    init_seed: int = 0

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.mode not in ("random_projection", "last_layer"):
            raise ValueError(f"unknown embedding mode {self.mode!r}")
        if self.mode == "random_projection" and self.proj_dim < 1:
            raise ValueError("proj_dim must be >= 1 in random_projection mode")
        if self.init_seed < 0 or self.projection_seed < 0:
            raise ValueError("init_seed and projection_seed must be >= 0")


# Rows of the sign matrix drawn per call of the generator: bounds the
# int64 draw buffer at _SIGN_BLOCK_ROWS * input_dim * 8 bytes.
_SIGN_BLOCK_ROWS = 64


def last_layer_size(arch: MlpArch) -> int:
    """Output-layer parameter count: k * penultimate_width + k."""
    return arch.num_classes * arch.penultimate_width + arch.num_classes


def embedding_dim(config: EmbeddingConfig, arch: MlpArch) -> int:
    """Total embedding dimension D for the given architecture."""
    if config.mode == "random_projection":
        return config.draws * config.proj_dim
    return config.draws * last_layer_size(arch)


def sign_projection(proj_dim: int, input_dim: int, seed: int) -> np.ndarray:
    """Sample a (proj_dim, input_dim) {+1, -1} matrix; bit-identical for equal seeds (PCG64).

    The matrix is allocated once and filled _SIGN_BLOCK_ROWS rows at a
    time from int64 draws in {0, 1}, then mapped to {-1, +1} in place.
    Bounded int64 draws take 32 bits at a time from the generator, which
    carries a spare half-word across calls, so the blocks draw the same
    stream as a single call for the whole matrix would.  (Narrower
    dtypes draw from a buffer that is dropped between calls; they would
    give a different matrix.)

    Projecting by it and scaling by 1/sqrt(proj_dim) preserves inner
    products in expectation.
    """
    rng = np.random.default_rng(seed)
    signs = np.empty((proj_dim, input_dim))
    for start in range(0, proj_dim, _SIGN_BLOCK_ROWS):
        rows = signs[start:start + _SIGN_BLOCK_ROWS]
        rows[...] = rng.integers(0, 2, size=rows.shape)
    signs *= 2.0
    signs -= 1.0
    return signs


def _batch_gradients(params: MlpParams, X: np.ndarray, y: np.ndarray, scope: str) -> np.ndarray:
    """Per-example loss gradients, one row per example, in one (N, P) array.

    scope "full" backpropagates the single-example cross-entropy through
    all layers; row i is example i's gradient flattened as
    [W1, b1, ..., Wk, bk].  "last_layer" keeps only the output-layer
    block [Wk, bk], the closed form (softmax - onehot) x penultimate
    activation.  The array is allocated once: each layer's outer product
    delta x input is written by ``einsum(..., out=)`` into a view of its
    column block, and its bias block is delta itself.
    """
    if scope not in ("full", "last_layer"):
        raise ValueError(f"unknown gradient scope {scope!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    activations, pre, _, delta = _output_delta(params, X, y)
    sizes = [w.size + b.size for w, b in zip(params.weights, params.biases)]
    grads = np.empty((len(y), sizes[-1] if scope == "last_layer" else sum(sizes)))
    stop = grads.shape[1]
    for layer, delta, inputs in _backprop(params, activations, pre, delta):
        shape = params.weights[layer].shape
        bias = stop - shape[0]
        start = bias - shape[0] * shape[1]
        dw = grads[:, start:bias].reshape(len(y), *shape)
        assert np.shares_memory(dw, grads), "weight block must be a view of the gradient matrix"
        np.einsum("bo,bi->boi", delta, inputs, out=dw)
        grads[:, bias:stop] = delta
        if scope == "last_layer":
            break
        stop = start
    return grads


def embed_batch_at_params(
    draws: list[MlpParams],
    features: np.ndarray,
    labels: np.ndarray,
    config: EmbeddingConfig,
) -> GradientMatrix:
    """Embed a batch at explicit parameter draws (columns = examples).

    The D x N result is allocated once, C-contiguous, and ``GradientMatrix``
    keeps it without a copy.  Draw j fills rows [j*d, (j+1)*d) with the
    transpose of its (N, d) block: the per-example gradients projected by
    that draw's sign matrix and divided by sqrt(proj_dim) in place, or
    the output-layer gradients in last_layer mode.  Each draw's gradients
    and sign matrix are released before the next draw is built, and the
    projection is one product over all N rows.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    if config.mode == "random_projection":
        rows = config.proj_dim
    else:
        rows = draws[0].weights[-1].size + draws[0].biases[-1].size
    out = np.empty((len(draws) * rows, len(features)))
    for j, params in enumerate(draws):
        if config.mode == "random_projection":
            grads = _batch_gradients(params, features, labels, "full")
            proj = sign_projection(config.proj_dim, grads.shape[1], config.projection_seed + j)
            block = grads @ proj.T
            del grads, proj
            block /= np.sqrt(config.proj_dim)
        else:
            block = _batch_gradients(params, features, labels, "last_layer")
        out[j * rows:(j + 1) * rows] = block.T
        del block
    return GradientMatrix(out)


def embed_batch(
    features: np.ndarray,
    labels: np.ndarray,
    arch: MlpArch,
    config: EmbeddingConfig,
) -> GradientMatrix:
    """Embed a batch at ``config.draws`` initialization draws.

    Deterministic given (init_seed, projection_seed, batch order); the
    column of example i stacks its per-draw reduced gradients.
    """
    draws = [init_sample(arch, config.init_seed + j) for j in range(config.draws)]
    return embed_batch_at_params(draws, features, labels, config)
