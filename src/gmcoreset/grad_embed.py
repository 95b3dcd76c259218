"""Finite-dimensional gradient embeddings of labeled examples.

An example's embedding stacks its per-example loss gradient at several
parameter draws from the model's initialization distribution, reduced
per draw either by a random sign projection or by restriction to the
output-layer gradient (computable without a full backward pass).

The sign matrix of a draw never exists whole: ``sign_projection`` yields
it in blocks of _PROJECT_BLOCK_ROWS rows, each a view of one reused
buffer, and each block's product with the draw's gradients goes straight
into its rows of the dictionary.  Only the sign rows are chunked, never
the examples: a block is the single product's BLAS call restricted to
its rows, each entry still one dot product over all P gradient
coordinates.  A projection of at most _PROJECT_BLOCK_ROWS rows is one
block, the single product itself.  Larger ones matched the single
product bit for bit wherever the last block filled whole register tiles
of the BLAS kernel (multiples of 16 rows on an AVX-512 OpenBLAS host),
proj_dim = 2000 among them.  A 37-row last block rounded 0.15-0.3% of
the entries differently, by at most 4e-16 relative, as the single
product itself does between BLAS thread counts.  Chunking the examples
is not exact even at proj_dim = 2000: 1333-example chunks changed 1876
of 8M entries at N = 4000, P = 18 180.  ``embedding_peak_bytes`` gives
the memory this takes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .matching_pursuit import GradientMatrix
from .nn import (
    MlpArch, MlpParams, _backprop, _output_delta, init_sample, param_count, pass_bytes,
)


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

# Rows of the sign matrix yielded per block, a multiple of _SIGN_BLOCK_ROWS.
# Each block's product repacks the whole (N, P) gradient buffer inside
# BLAS, so smaller blocks trade time for memory.  perfbench select-offline
# (D = 8000, N = 4000, P = 18 180; 35 s runs, 2-vCPU OpenBLAS host),
# median run and peak RSS: one 2000-row product 14.2 s, 1181 MB;
# 1024-row blocks 14.4 s, 1076 MB; 512-row blocks 15.2 s, 989 MB.
_PROJECT_BLOCK_ROWS = 1024

# Python objects in ``embedding_peak_bytes``, since a tiny model's draws are
# mostly these: each draw's MlpParams holds 2L + 3 objects of at most
# _OBJECT_BYTES (itself, its two lists, its weight and bias views), and the
# call's own frames, array headers and random generators take at most
# _CALL_BYTES.
_OBJECT_BYTES = 256
_CALL_BYTES = 2**12


def _draw_layout(
    config: EmbeddingConfig, layer_dims: list[tuple[int, int]]
) -> tuple[int, int, int, int]:
    """One draw's (first kept layer, gradient width P, dictionary rows, sign-block rows B).

    random_projection keeps every layer and projects its P gradient
    coordinates onto proj_dim sign rows, B = min(proj_dim,
    _PROJECT_BLOCK_ROWS) at a time; last_layer keeps the output layer,
    whose P coordinates are the draw's rows (B = 0).
    """
    if config.mode == "random_projection":
        block = min(config.proj_dim, _PROJECT_BLOCK_ROWS)
        return 0, param_count(layer_dims), config.proj_dim, block
    first = len(layer_dims) - 1
    width = param_count(layer_dims[first:])
    return first, width, width, 0


def embedding_dim(config: EmbeddingConfig, arch: MlpArch) -> int:
    """Total embedding dimension D for the given architecture."""
    _, _, rows, _ = _draw_layout(config, arch.layer_dims())
    return config.draws * rows


def embedding_peak_bytes(config: EmbeddingConfig, arch: MlpArch, num_examples: int) -> int:
    """Bytes ``embed_batch`` holds at its peak for ``num_examples`` examples.

    Counted from ``_draw_layout``'s P, B and D = draws * rows, in float64
    unless noted.  Held throughout: the ``draws`` parameter vectors and
    their Python objects, the D x N dictionary and the (N, B) product
    buffer.  During the draw loop, beside them: one draw's (N, P) gradient
    buffer, its forward and backward pass (``pass_bytes``) and, in
    random_projection mode, one block of B sign rows with the int64 draw
    buffer of up to _SIGN_BLOCK_ROWS rows that fills it.  After the loop:
    the D x N squares ``GradientMatrix`` takes for its column norms and
    their two N-vector reductions (its one-byte finiteness mask comes and
    goes before them).  The peak is the larger of the two phases.  Pure
    arithmetic, so it can bound a config before anything is allocated.
    """
    dims = arch.layer_dims()
    first, width, rows, block = _draw_layout(config, dims)
    N, dim = num_examples, config.draws * rows
    loop = 8 * width * (N + block + min(block, _SIGN_BLOCK_ROWS)) + pass_bytes(dims, N, first)
    draw = 8 * param_count(dims) + _OBJECT_BYTES * (2 * len(dims) + 3)
    held = _CALL_BYTES + config.draws * draw + 8 * (dim + block) * N
    return held + max(loop, 8 * (dim + 2) * N)


def sign_projection(proj_dim: int, input_dim: int, seed: int) -> Iterator[np.ndarray]:
    """Yield a (proj_dim, input_dim) {+1, -1} matrix in row blocks; bit-identical for equal seeds (PCG64).

    Each block holds the next _PROJECT_BLOCK_ROWS rows (fewer in the last
    one) and is a view of one buffer that the next block overwrites:
    copy a block to keep it.  The buffer is filled _SIGN_BLOCK_ROWS rows
    at a time from int64 draws in {0, 1}, then mapped to {-1, +1} in
    place.  Bounded int64 draws take 32 bits at a time from the
    generator, which carries a spare half-word across calls, so the
    blocks draw the same stream as a single call for the whole matrix
    would.  (Narrower dtypes draw from a buffer that is dropped between
    calls; they would give a different matrix.)

    Projecting by it and scaling by 1/sqrt(proj_dim) preserves inner
    products in expectation.
    """
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(proj_dim, _PROJECT_BLOCK_ROWS), input_dim))
    for start in range(0, proj_dim, _PROJECT_BLOCK_ROWS):
        signs = buffer[:min(_PROJECT_BLOCK_ROWS, proj_dim - start)]
        for row in range(0, len(signs), _SIGN_BLOCK_ROWS):
            rows = signs[row:row + _SIGN_BLOCK_ROWS]
            rows[...] = rng.integers(0, 2, size=rows.shape)
        signs *= 2.0
        signs -= 1.0
        yield signs


def _batch_gradients(
    params: MlpParams, X: np.ndarray, y: np.ndarray, first: int, grads: np.ndarray
) -> np.ndarray:
    """Per-example loss gradients of layers ``first`` on, one row per example, into ``grads``.

    Row i of the C-ordered (N, P) buffer ``grads`` becomes example i's
    gradient of those layers laid out as ``MlpParams.flat``.  ``first = 0``
    backpropagates the single-example cross-entropy through all layers;
    the output layer alone is the closed form (softmax - onehot) x
    penultimate activation, and computes no hidden layer's delta.  Each
    layer's outer product delta x input is written by ``einsum(...,
    out=)`` into its ``MlpParams`` weight view of ``grads``, and its bias
    view is delta itself.
    """
    out = MlpParams(grads, params.layer_dims[first:])
    activations, pre, _, delta = _output_delta(params, X, y)
    for layer, delta, inputs in _backprop(params, activations, pre, delta):
        np.einsum("bo,bi->boi", delta, inputs, out=out.weights[layer - first])
        out.biases[layer - first][...] = delta
        if layer == first:
            break
    return grads


def embed_batch_at_params(
    draws: list[MlpParams],
    features: np.ndarray,
    labels: np.ndarray,
    config: EmbeddingConfig,
) -> GradientMatrix:
    """Embed a batch at explicit parameter draws (columns = examples).

    The D x N result is allocated once, C-contiguous, and ``GradientMatrix``
    keeps it without a copy.  Draw j fills rows [j*d, (j+1)*d).  One (N, P)
    gradient buffer of the draw's kept layers (``_draw_layout``) is
    allocated before the first draw and refilled for every draw.  In
    random_projection mode, for each block S of the draw's sign matrix as
    ``sign_projection`` yields it, grads @ S.T goes into one reused (N, B)
    product buffer and its transpose into the block's rows; the draw's
    rows are then divided by sqrt(proj_dim) in place.  In last_layer mode
    the rows are the transposed output-layer gradients.
    The gradient buffer is dropped before ``GradientMatrix`` squares the
    dictionary for its column norms.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    num_examples = len(features)
    first, width, rows, block_rows = _draw_layout(config, draws[0].layer_dims)
    products = np.empty(num_examples * block_rows)
    out = np.empty((len(draws) * rows, num_examples))
    grads = np.empty((num_examples, width))
    for j, params in enumerate(draws):
        block = out[j * rows:(j + 1) * rows]
        _batch_gradients(params, features, labels, first, grads)
        if config.mode == "random_projection":
            start = 0
            for signs in sign_projection(rows, width, config.projection_seed + j):
                # contiguous for a short last block too, like the single product's output
                product = products[:num_examples * len(signs)].reshape(num_examples, len(signs))
                np.matmul(grads, signs.T, out=product)
                block[start:start + len(signs)] = product.T
                start += len(signs)
            del signs  # a view of the sign buffer: the next draw's generator makes its own
            block /= np.sqrt(config.proj_dim)
        else:
            block[...] = grads.T
    del grads  # before the column norms take their D x N temporary
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
