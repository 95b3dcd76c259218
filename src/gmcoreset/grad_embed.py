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
from .nn import MlpArch, MlpParams, _forward, _softmax, init_sample


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

    Projecting by it and scaling by 1/sqrt(proj_dim) preserves inner
    products in expectation.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(proj_dim, input_dim)).astype(np.float64) * 2.0 - 1.0


def _batch_gradients(params: MlpParams, X: np.ndarray, y: np.ndarray, scope: str) -> np.ndarray:
    """Per-example loss gradients, one row per example.

    scope "full" backpropagates the single-example cross-entropy through
    all layers and flattens [W1, b1, ..., Wk, bk]; "last_layer" uses the
    closed form (softmax - onehot) x penultimate activation.
    """
    if scope not in ("full", "last_layer"):
        raise ValueError(f"unknown gradient scope {scope!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    activations, pre, logits = _forward(params, X)
    if not np.all(np.isfinite(logits)):
        bad = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        raise FloatingPointError(f"non-finite activations for example {bad}")
    delta = _softmax(logits)
    delta[np.arange(len(y)), y] -= 1.0

    blocks = []
    for layer in range(params.num_layers - 1, -1, -1):
        if layer < params.num_layers - 1:
            delta = (delta @ params.weights[layer + 1]) * (pre[layer] > 0.0)
        dw = np.einsum("bo,bi->boi", delta, activations[layer]).reshape(len(y), -1)
        blocks.append(np.concatenate([dw, delta], axis=1))
        if scope == "last_layer":
            return blocks[0]
    return np.concatenate(blocks[::-1], axis=1)


def embed_batch_at_params(
    draws: list[MlpParams],
    features: np.ndarray,
    labels: np.ndarray,
    config: EmbeddingConfig,
) -> GradientMatrix:
    """Embed a batch at explicit parameter draws (columns = examples)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    blocks = []
    for j, params in enumerate(draws):
        if config.mode == "random_projection":
            grads = _batch_gradients(params, features, labels, "full")
            proj = sign_projection(config.proj_dim, grads.shape[1], config.projection_seed + j)
            blocks.append(grads @ proj.T / np.sqrt(config.proj_dim))
        else:
            blocks.append(_batch_gradients(params, features, labels, "last_layer"))
    return GradientMatrix(np.concatenate(blocks, axis=1).T)


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
