"""Finite-dimensional gradient embeddings of labeled examples.

An example's embedding stacks its per-example loss gradient at several
parameter draws from the model's initialization distribution, reduced
per draw either by a random sign projection or by restriction to the
output-layer gradient (computable without a full backward pass).

A draw's rows of the dictionary are its (N, P) per-example gradient
matrix times its (proj_dim, P) sign matrix, transposed.  The shorter of the
two is held whole and the other streamed _BLOCK_ROWS rows at a time
through one reused buffer: ``sign_projection`` yields the sign matrix in
blocks, and a block of examples' gradient rows is written from the deltas
and inputs of one forward and backward pass over the whole batch (in
last_layer mode those rows, transposed, are the draw's rows).  Each
block's product goes straight into its rows and columns of the
dictionary, each entry still one dot product over all P gradient
coordinates.  On an AVX-512 OpenBLAS host the blocks reproduce the single
product bit for bit when every block starts on the kernel's 16-row
register tiles and proj_dim is a multiple of 8, so that the sign rows end
in whole 8-row tiles: at N = 4000, P = 18 180, proj_dim = 2000, 512-,
1008- and 1024-example blocks changed none of the 8M entries at one and
at two BLAS threads, where 1333-example blocks changed 1889 and 1876.
Otherwise the entries of the last proj_dim mod 8 sign rows may round
differently, by at most 4e-16 relative, as the single product itself
does between BLAS thread counts: a 37-row last sign block changed
0.15-0.3% of the entries, 512-example blocks against 300 sign rows 319
of 307 200.  So may a block product small enough for OpenBLAS's
small-matrix kernel (at most 1200 entries and 1e6 multiply-adds: a short
last block of a small model).  A one-row product, which numpy hands to
gemv, never comes from a block of examples: ``_example_blocks`` keeps
the last one at _TILE_ROWS rows or more.  ``embedding_peak_bytes`` gives
the memory this takes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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

# Rows per block of whichever of a draw's sign matrix and gradient matrix
# is streamed, a multiple of _SIGN_BLOCK_ROWS and of the _TILE_ROWS-row
# register tiles of the BLAS kernel.  perfbench select-offline (D = 8000,
# N = 4000, P = 18 180; 35 s runs, 2-vCPU OpenBLAS host), medians of ten
# runs: the whole gradient matrix with 1024-row sign blocks 1074 MB peak
# RSS and 14.6 s; the whole sign matrix with 512-example blocks 695 MB
# and 14.3 s.
_BLOCK_ROWS = 512
_TILE_ROWS = 16

# Python objects in ``embedding_peak_bytes``, since a tiny model's draws are
# mostly these: each draw's MlpParams holds 2L + 3 objects of at most
# _OBJECT_BYTES (itself, its two lists, its weight and bias views), and the
# call's own frames, array headers and random generators take at most
# _CALL_BYTES.
_OBJECT_BYTES = 256
_CALL_BYTES = 2**12


def _draw_layout(
    config: EmbeddingConfig, layer_dims: list[tuple[int, int]], num_examples: int
) -> tuple[int, int, int, int, int]:
    """One draw's (first kept layer, gradient width P, dictionary rows,
    sign rows S, gradient rows R) for a batch of ``num_examples``.

    random_projection keeps every layer and projects its P gradient
    coordinates onto proj_dim sign rows; last_layer keeps the output layer,
    whose P coordinates are the draw's rows (S = 0).  Of the sign matrix
    (proj_dim rows) and the gradient matrix (N rows) the shorter is held
    whole and the other streamed _BLOCK_ROWS rows at a time; last_layer
    streams its gradients.  S and R are the rows of each held at once.
    """
    streamed = min(num_examples, _BLOCK_ROWS)
    if config.mode == "last_layer":
        first = len(layer_dims) - 1
        width = param_count(layer_dims[first:])
        return first, width, width, 0, streamed
    width, rows = param_count(layer_dims), config.proj_dim
    if num_examples >= rows:
        return 0, width, rows, rows, streamed
    return 0, width, rows, min(rows, _BLOCK_ROWS), num_examples


def embedding_dim(config: EmbeddingConfig, arch: MlpArch) -> int:
    """Total embedding dimension D for the given architecture."""
    _, _, rows, _, _ = _draw_layout(config, arch.layer_dims(), 1)  # rows do not depend on N
    return config.draws * rows


def embedding_peak_bytes(config: EmbeddingConfig, arch: MlpArch, num_examples: int) -> int:
    """Bytes ``embed_batch`` and a ``GradientMatrix`` of its result hold at
    their peak for ``num_examples`` examples.

    Counted from ``_draw_layout``'s P, S, R and D = draws * rows, in
    float64 unless noted.  Held throughout: the ``draws`` parameter vectors
    and their Python objects, the D x N dictionary and the (R, S) product
    buffer.  During the draw loop, beside them: R gradient rows, the draw's
    forward and backward pass (``pass_bytes``) and, in random_projection
    mode, S sign rows with the int64 draw buffer of up to _SIGN_BLOCK_ROWS
    rows that fills them.  After the loop: the D x N squares
    ``GradientMatrix`` takes for its column norms and their two N-vector
    reductions (its one-byte finiteness mask comes and goes before them).
    The peak is the larger of the two phases; the second also counts the
    draws and the product buffer, which ``embed_batch`` has freed by then.
    Pure arithmetic, so it can bound a config before anything is allocated.
    """
    dims = arch.layer_dims()
    first, width, rows, signs, grads = _draw_layout(config, dims, num_examples)
    N, dim = num_examples, config.draws * rows
    loop = 8 * width * (grads + signs + min(signs, _SIGN_BLOCK_ROWS)) + pass_bytes(dims, N, first)
    draw = 8 * param_count(dims) + _OBJECT_BYTES * (2 * len(dims) + 3)
    held = _CALL_BYTES + config.draws * draw + 8 * (dim * N + grads * signs)
    return held + max(loop, 8 * (dim + 2) * N)


def sign_projection(
    proj_dim: int, input_dim: int, seed: int, block_rows: int = _BLOCK_ROWS
) -> Iterator[np.ndarray]:
    """Yield a (proj_dim, input_dim) {+1, -1} matrix in row blocks; bit-identical for equal seeds (PCG64).

    Each block holds the next ``block_rows`` rows (fewer in the last one)
    and is a view of one buffer that the next block overwrites: copy a
    block to keep it.  The buffer is filled _SIGN_BLOCK_ROWS rows at a time
    from int64 draws in {0, 1}, then mapped to {-1, +1} in place.  Bounded
    int64 draws take 32 bits at a time from the generator, which carries a
    spare half-word across calls, so the blocks draw the same stream as a
    single call for the whole matrix would, whatever ``block_rows``.
    (Narrower dtypes draw from a buffer that is dropped between calls; they
    would give a different matrix.)

    Projecting by it and scaling by 1/sqrt(proj_dim) preserves inner
    products in expectation.
    """
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(proj_dim, block_rows), input_dim))
    for start in range(0, proj_dim, block_rows):
        signs = buffer[:min(block_rows, proj_dim - start)]
        for row in range(0, len(signs), _SIGN_BLOCK_ROWS):
            rows = signs[row:row + _SIGN_BLOCK_ROWS]
            rows[...] = rng.integers(0, 2, size=rows.shape)
        signs *= 2.0
        signs -= 1.0
        yield signs


def _kept_layers(
    params: MlpParams, X: np.ndarray, y: np.ndarray, first: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(delta, input) of layers ``first`` on, in layer order, from one
    forward and backward pass over the batch.

    Example i's loss gradient of a layer is delta[i] x input[i] for its
    weights and delta[i] for its bias.  ``first = 0`` backpropagates the
    single-example cross-entropy through all layers; the output layer
    alone is the closed form softmax - onehot with the penultimate
    activation, and computes no hidden layer's delta.
    """
    activations, pre, _, delta = _output_delta(params, X, y)
    kept = []
    for layer, delta, inputs in _backprop(params, activations, pre, delta):
        kept.append((delta, inputs))
        if layer == first:
            break
    return kept[::-1]


def _batch_gradients(
    kept: list[tuple[np.ndarray, np.ndarray]], start: int, grads: np.ndarray
) -> np.ndarray:
    """Per-example gradients of the ``kept`` layers from example ``start`` on, into ``grads``.

    Row i of the C-ordered (R, P) buffer ``grads`` becomes example
    start + i's gradient of those layers laid out as ``MlpParams.flat``.
    Each layer's outer product delta x input is written by ``einsum(...,
    out=)`` into its ``MlpParams`` weight view of ``grads``, and its bias
    view is delta itself.
    """
    rows = slice(start, start + len(grads))
    out = MlpParams(grads, [(inputs.shape[1], delta.shape[1]) for delta, inputs in kept])
    for weights, biases, (delta, inputs) in zip(out.weights, out.biases, kept):
        np.einsum("bo,bi->boi", delta[rows], inputs[rows], out=weights)
        biases[...] = delta[rows]
    return grads


def _example_blocks(num_examples: int, block_rows: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of ``block_rows`` examples, every start on a
    register tile.  A last block under _TILE_ROWS examples takes _TILE_ROWS
    more from the one before: numpy hands a one-row product to gemv, which
    rounds differently from the GEMM kernel of the single product."""
    starts = list(range(0, num_examples, block_rows))
    if len(starts) > 1 and num_examples - starts[-1] < _TILE_ROWS:
        starts[-1] -= _TILE_ROWS
    return list(zip(starts, starts[1:] + [num_examples]))


def embed_batch_at_params(
    draws: list[MlpParams],
    features: np.ndarray,
    labels: np.ndarray,
    config: EmbeddingConfig,
) -> np.ndarray:
    """Embed a batch at explicit parameter draws: the D x N dictionary, column i example i's.

    The result is allocated once, C-contiguous, so ``GradientMatrix`` keeps
    it without a copy.  Draw j fills rows [j*d, (j+1)*d).  Each draw
    runs one forward and backward pass over the batch and keeps its layers'
    deltas and inputs; from them each block of R examples' gradient rows
    (``_draw_layout``, ``_example_blocks``) is written once into one (R, P)
    buffer allocated before the first draw.  In last_layer mode the
    block's rows are its transposed gradients.  In random_projection mode,
    for each block S of the draw's sign matrix as ``sign_projection``
    yields it and each block of examples, grads @ S.T goes into one reused
    (R, S) product buffer and its transpose into the dictionary; one of the
    two has a single block, so the gradient matrix is held whole (R = N) or
    the sign matrix is.  The draw's rows are then divided by sqrt(proj_dim)
    in place.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    num_examples = len(features)
    first, width, rows, sign_rows, grad_rows = _draw_layout(
        config, draws[0].layer_dims, num_examples
    )
    products = np.empty(grad_rows * sign_rows)
    out = np.empty((len(draws) * rows, num_examples))
    grads = np.empty((grad_rows, width))
    blocks = _example_blocks(num_examples, grad_rows)
    for j, params in enumerate(draws):
        block = out[j * rows:(j + 1) * rows]
        kept = _kept_layers(params, features, labels, first)
        examples = ((at, _batch_gradients(kept, at, grads[:stop - at])) for at, stop in blocks)
        if len(blocks) == 1:
            examples = list(examples)  # the whole gradient matrix, for every sign block
        if config.mode == "random_projection":
            start = 0
            for signs in sign_projection(rows, width, config.projection_seed + j, sign_rows):
                for at, gradients in examples:
                    # contiguous for a short last block too, like the single product's output
                    shape = (len(gradients), len(signs))
                    product = products[:shape[0] * shape[1]].reshape(shape)
                    np.matmul(gradients, signs.T, out=product)
                    block[start:start + len(signs), at:at + len(gradients)] = product.T
                start += len(signs)
            del signs  # a view of the sign buffer: the next draw's generator makes its own
            block /= np.sqrt(config.proj_dim)
        else:
            for at, gradients in examples:
                block[:, at:at + len(gradients)] = gradients.T
        del kept, examples, gradients  # the pass's arrays, and a view of the gradient buffer
    return out


def embed_batch(
    features: np.ndarray,
    labels: np.ndarray,
    arch: MlpArch,
    config: EmbeddingConfig,
) -> np.ndarray:
    """Embed a batch at ``config.draws`` initialization draws (the D x N dictionary).

    Deterministic given (init_seed, projection_seed, batch order); the
    column of example i stacks its per-draw reduced gradients.
    """
    draws = [init_sample(arch, config.init_seed + j) for j in range(config.draws)]
    return embed_batch_at_params(draws, features, labels, config)
