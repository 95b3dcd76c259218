import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset import grad_embed, nn
from gmcoreset.grad_embed import (
    _BLOCK_ROWS,
    _SIGN_BLOCK_ROWS,
    EmbeddingConfig,
    _batch_gradients,
    _kept_layers,
    embed_batch,
    embed_batch_at_params,
    embedding_dim,
    embedding_peak_bytes,
    sign_projection,
)
from gmcoreset.matching_pursuit import GradientMatrix

from oracles import (
    batch_gradients_by_concatenation,
    embed_batch_by_concatenation,
    embedding_peak_bytes_with_the_gradients_whole,
    num_params,
    per_example_gradient,
    project,
    sign_matrix,
    sign_projection_one_shot,
)


def small_batch(seed, n=6, arch=None):
    arch = arch or nn.MlpArch(4, (8, 5), 3)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    return arch, X, y


# --- sign projections -----------------------------------------------------------


def test_sign_matrix_entries_and_reproducibility():
    a = sign_matrix(16, 40, seed=11)
    b = sign_matrix(16, 40, seed=11)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) == {-1.0, 1.0}


@pytest.mark.parametrize(
    "proj_dim, input_dim",
    [
        (_SIGN_BLOCK_ROWS - 1, 40),  # fewer rows than one block
        (2 * _SIGN_BLOCK_ROWS, 40),  # a whole number of blocks
        (2 * _SIGN_BLOCK_ROWS + 5, 40),  # a partial last block
        (4 * _BLOCK_ROWS + 5, 40),  # several yielded blocks, a partial last one
        (_SIGN_BLOCK_ROWS + 3, 333),  # odd input dimension
        (1, 333),
        (1, 1),
    ],
)
def test_sign_matrix_equals_one_shot_draw(proj_dim, input_dim):
    for seed in (0, 5):
        expected = sign_projection_one_shot(proj_dim, input_dim, seed)
        assert np.array_equal(sign_matrix(proj_dim, input_dim, seed), expected)


def test_sign_blocks_are_views_of_one_buffer():
    blocks = list(sign_projection(2 * _BLOCK_ROWS + 5, 7, seed=3))
    assert [len(b) for b in blocks] == [_BLOCK_ROWS, _BLOCK_ROWS, 5]
    assert all(np.shares_memory(b, blocks[0]) for b in blocks)


@pytest.mark.parametrize("block_rows", [_SIGN_BLOCK_ROWS, 3 * _SIGN_BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
def test_sign_matrix_is_the_same_in_any_block_rows(block_rows):
    proj_dim, input_dim = 2 * _BLOCK_ROWS + 5, 7
    blocks = [b.copy() for b in sign_projection(proj_dim, input_dim, 3, block_rows)]
    assert [len(b) for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
    expected = sign_projection_one_shot(proj_dim, input_dim, 3)
    assert np.array_equal(np.concatenate(blocks), expected)


def test_project_single_row():
    proj = sign_matrix(1, 2, seed=0)
    proj[:] = 1.0
    assert project(np.array([3.0, 4.0]), proj) == pytest.approx(7.0)


def test_project_zero_vector():
    proj = sign_matrix(8, 5, seed=1)
    assert np.allclose(project(np.zeros(5), proj), 0.0)


def test_project_rejects_length_mismatch():
    proj = sign_matrix(4, 5, seed=2)
    with pytest.raises(ValueError):
        project(np.zeros(6), proj)


def test_sketched_inner_products_are_unbiased():
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(64)
    v = u + 0.5 * rng.standard_normal(64)
    truth = u @ v
    estimates = [
        project(u, p) @ project(v, p)
        for p in (sign_matrix(256, 64, seed=s) for s in range(1000))
    ]
    assert abs(np.mean(estimates) - truth) <= 0.05 * abs(truth)


# --- per-example gradients --------------------------------------------------------


def test_confident_example_has_tiny_gradient():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = [40.0, 0.0]  # margin >= 30 toward class 0
    grad = per_example_gradient(params, (np.array([0.3, -0.2, 0.1]), 0), scope="full")
    assert np.linalg.norm(grad) <= 1e-9


def test_uniform_softmax_closed_form():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    # force the penultimate activation to e_1 and a uniform softmax
    params.weights[0][:] = 0.0
    params.biases[0][:] = [1.0, 0.0, 0.0, 0.0]
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    grad = per_example_gradient(params, (np.zeros(3), 0), scope="last_layer")
    weight_block = grad[: 2 * 4].reshape(2, 4)
    bias_block = grad[2 * 4 :]
    assert np.allclose(bias_block, [-0.5, 0.5])
    assert np.allclose(weight_block[:, 0], [-0.5, 0.5])
    assert np.allclose(weight_block[:, 1:], 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_last_layer_scope_is_tail_of_full_gradient(seed):
    arch, X, y, = small_batch(seed, n=1)
    params = nn.init_sample(arch, seed + 50)
    full = per_example_gradient(params, (X[0], int(y[0])), scope="full")
    config = EmbeddingConfig(draws=1, mode="last_layer")
    short = embed_batch_at_params([params], X, y, config)[:, 0]
    assert np.abs(full[-nn.param_count(arch.layer_dims()[-1:]):] - short).max() <= 1e-12


def test_non_finite_activation_reports_example_index():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 0)
    params.weights[0][:] = np.inf
    with pytest.raises(FloatingPointError, match="example 0"):
        embed_batch_at_params([params], np.ones((1, 2)), [1], EmbeddingConfig(draws=1, proj_dim=2))


# --- batch embeddings ---------------------------------------------------------------


def test_identical_examples_share_a_column():
    arch, X, y = small_batch(3)
    X[1], y[1] = X[0], y[0]
    config = EmbeddingConfig(draws=2, proj_dim=16, projection_seed=5, init_seed=6)
    G = embed_batch(X, y, arch, config)
    assert np.array_equal(G[:, 0], G[:, 1])


def test_paper_scale_dimensions():
    arch = nn.MlpArch(4, (8,), 3)
    config = EmbeddingConfig(draws=4, proj_dim=2000)
    assert embedding_dim(config, arch) == 8000
    G = embed_batch(*small_batch(0, n=2, arch=arch)[1:], arch=arch, config=config)
    assert G.shape[0] == 8000


def test_last_layer_embedding_dimension(monkeypatch):
    # last_layer keeps the output layer: for hidden = () layer 0, the whole model
    firsts, widths = [], []

    def recording_layers(params, X, y, first):
        firsts.append(first)
        return _kept_layers(params, X, y, first)

    def recording_gradients(kept, start, grads):
        widths.append(grads.shape[1])
        return _batch_gradients(kept, start, grads)

    monkeypatch.setattr(grad_embed, "_kept_layers", recording_layers)
    monkeypatch.setattr(grad_embed, "_batch_gradients", recording_gradients)
    for mode, hidden in itertools.product(["random_projection", "last_layer"], [(9, 7), ()]):
        arch = nn.MlpArch(6, hidden, 4)
        config = EmbeddingConfig(draws=3, mode=mode, proj_dim=5)
        firsts.clear()
        widths.clear()
        G = embed_batch(*small_batch(1, n=2, arch=arch)[1:], arch=arch, config=config)
        first = len(hidden) if mode == "last_layer" else 0
        assert firsts == [first] * config.draws
        assert widths == [nn.param_count(arch.layer_dims()[first:])] * config.draws
        rows = 5 if mode == "random_projection" else 4 * (hidden or (6,))[-1] + 4
        assert G.shape[0] == 3 * rows == embedding_dim(config, arch)


def test_columns_match_componentwise_recomputation():
    arch, X, y = small_batch(8)
    config = EmbeddingConfig(draws=3, proj_dim=12, projection_seed=2, init_seed=9)
    G = embed_batch(X, y, arch, config)
    P = num_params(arch)
    for i in range(len(y)):
        parts = []
        for j in range(config.draws):
            params = nn.init_sample(arch, config.init_seed + j)
            grad = per_example_gradient(params, (X[i], int(y[i])), scope="full")
            proj = sign_matrix(config.proj_dim, P, config.projection_seed + j)
            parts.append(project(grad, proj))
        assert np.abs(G[:, i] - np.concatenate(parts)).max() <= 1e-12


def test_column_sum_equals_embedding_of_summed_gradients():
    arch, X, y = small_batch(10, n=12)
    config = EmbeddingConfig(draws=2, proj_dim=20, projection_seed=3, init_seed=4)
    G = embed_batch(X, y, arch, config)
    P = num_params(arch)
    parts = []
    for j in range(config.draws):
        params = nn.init_sample(arch, config.init_seed + j)
        total = np.zeros(P)
        for i in range(len(y)):
            total += per_example_gradient(params, (X[i], int(y[i])), scope="full")
        proj = sign_matrix(config.proj_dim, P, config.projection_seed + j)
        parts.append(project(total, proj))
    expected = np.concatenate(parts)
    actual = G.sum(axis=1)
    assert np.abs(actual - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())


def test_embedding_is_deterministic():
    arch, X, y = small_batch(11)
    config = EmbeddingConfig(draws=2, proj_dim=10, projection_seed=7, init_seed=8)
    a = embed_batch(X, y, arch, config)
    b = embed_batch(X, y, arch, config)
    assert np.array_equal(a, b)


def test_embedding_at_explicit_params_matches_seeded_draws():
    arch, X, y = small_batch(12)
    config = EmbeddingConfig(draws=2, proj_dim=10, projection_seed=1, init_seed=2)
    draws = [nn.init_sample(arch, config.init_seed + j) for j in range(2)]
    assert np.array_equal(
        embed_batch(X, y, arch, config),
        embed_batch_at_params(draws, X, y, config),
    )


def test_empty_batch_is_rejected():
    arch = nn.MlpArch(3, (4,), 2)
    with pytest.raises(ValueError):
        embed_batch(np.zeros((0, 3)), np.zeros(0, dtype=int), arch, EmbeddingConfig(draws=1, proj_dim=4))


@pytest.mark.parametrize("field", ["init_seed", "projection_seed"])
def test_embedding_config_rejects_negative_seed(field):
    with pytest.raises(ValueError, match="must be >= 0"):
        EmbeddingConfig(**{field: -1})


# --- in-place construction: bit-identical to the concatenating form ---------------


def blocked_embedding(num_examples, draws, mode, proj_dim, hidden=(16, 12)):
    arch, X, y = small_batch(21, n=num_examples, arch=nn.MlpArch(9, hidden, 4))
    config = EmbeddingConfig(draws=draws, mode=mode, proj_dim=proj_dim, projection_seed=3, init_seed=5)
    params = [nn.init_sample(arch, config.init_seed + j) for j in range(draws)]
    G = embed_batch_at_params(params, X, y, config)
    return G, embed_batch_by_concatenation(params, X, y, config)


# With proj_dim = 37 every batch of 37 examples or more holds the sign matrix
# whole and streams the examples in blocks of _BLOCK_ROWS: 1200 ends in a
# 176-row block, 560 in a 48-row one; 1 and 7 hold the gradients whole.
@pytest.mark.parametrize("num_examples", [1, 7, 511, 512, 560, 1200])
@pytest.mark.parametrize("draws", [1, 2, 3])
@pytest.mark.parametrize("mode", ["random_projection", "last_layer"])
def test_embedding_equals_concatenating_form(num_examples, draws, mode):
    G, expected = blocked_embedding(num_examples, draws, mode, proj_dim=37)
    assert G.flags.c_contiguous
    assert np.array_equal(G, expected)
    assert np.array_equal(GradientMatrix(G).column_norms, GradientMatrix(expected).column_norms)


# proj_dim = 1232 exceeds every batch here, so the gradients are held whole
# and the sign matrix streamed: blocks of 512, 512 and 208 rows.
@pytest.mark.parametrize("num_examples", [511, 512, 513, 1030, 1200])
@pytest.mark.parametrize("draws", [1, 2, 3])
def test_embedding_with_the_gradients_whole_equals_concatenating_form(num_examples, draws):
    G, expected = blocked_embedding(num_examples, draws, "random_projection", proj_dim=1232)
    assert np.array_equal(G, expected)
    assert np.array_equal(GradientMatrix(G).column_norms, GradientMatrix(expected).column_norms)


@pytest.mark.parametrize(
    "num_examples, last_blocks",
    [
        # one example over a whole number of blocks: the last block takes 16
        # more rows from the block before it, since numpy hands a one-row
        # product to gemv, which rounds differently
        (513, [(0, 496), (496, 513)]),
        (1025, [(512, 1008), (1008, 1025)]),
        (1040, [(512, 1024), (1024, 1040)]),  # a 16-row block of its own
    ],
)
def test_embedding_after_a_one_example_remainder_equals_concatenating_form(num_examples, last_blocks):
    assert grad_embed._example_blocks(num_examples, _BLOCK_ROWS)[-2:] == last_blocks
    for mode in ["random_projection", "last_layer"]:
        G, expected = blocked_embedding(num_examples, 2, mode, proj_dim=304, hidden=(64, 32))
        assert np.array_equal(G, expected)


@pytest.mark.parametrize("num_examples", [513, 1030])
@pytest.mark.parametrize("draws", [1, 3])
def test_embedding_after_a_short_last_example_block_of_a_small_model_agrees_to_rounding(
    num_examples, draws
):
    # A last block of 17 or 22 examples: its gradient rows are copied
    # exactly, but its product with the 37 sign rows of a 416-parameter
    # model (under 1200 entries and 1e6 multiply-adds) goes to OpenBLAS's
    # small-matrix kernel, which may round differently from the single
    # product's GEMM kernel.
    G, expected = blocked_embedding(num_examples, draws, "last_layer", proj_dim=37)
    assert np.array_equal(G, expected)
    G, expected = blocked_embedding(num_examples, draws, "random_projection", proj_dim=37)
    scale = np.abs(expected).max()
    assert np.abs(G - expected).max() <= 1e-14 * scale


def test_embedding_in_example_blocks_off_the_sign_tiles_agrees_to_rounding():
    # 300 sign rows end in 4 that fill no whole 8-row register tile; the
    # kernel may then round those rows' entries of a block of examples
    # differently from the single product (as it does between BLAS thread
    # counts).  A proj_dim that is a multiple of 8 matches bit for bit.
    G, expected = blocked_embedding(1024, 2, "random_projection", proj_dim=300, hidden=(64, 32))
    scale = np.abs(expected).max()
    assert np.abs(G - expected).max() <= 1e-14 * scale
    G, expected = blocked_embedding(1024, 2, "random_projection", proj_dim=296, hidden=(64, 32))
    assert np.array_equal(G, expected)


def several_sign_blocks(proj_dim):
    arch, X, y = small_batch(24, n=300, arch=nn.MlpArch(9, (16, 12), 4))
    config = EmbeddingConfig(draws=2, proj_dim=proj_dim, projection_seed=4, init_seed=6)
    params = [nn.init_sample(arch, config.init_seed + j) for j in range(config.draws)]
    G = embed_batch_at_params(params, X, y, config)
    return G, embed_batch_by_concatenation(params, X, y, config)


def test_embedding_in_several_sign_blocks_equals_one_product():
    # Two whole blocks and a partial third of 48 rows; the oracle projects
    # by the whole sign matrix in one product.
    G, expected = several_sign_blocks(2 * _BLOCK_ROWS + 48)
    assert np.array_equal(G, expected)
    assert np.array_equal(GradientMatrix(G).column_norms, GradientMatrix(expected).column_norms)


def test_embedding_after_a_short_last_sign_block_agrees_to_rounding():
    # A 37-row last block fills no whole register tile of the BLAS kernel,
    # which may then round its last rows differently from the single
    # product (as the single product does between BLAS thread counts).
    G, expected = several_sign_blocks(2 * _BLOCK_ROWS + 37)
    scale = np.abs(expected).max()
    assert np.abs(G - expected).max() <= 1e-14 * scale


@pytest.mark.parametrize("hidden", [(16, 12), (6,), ()])
@pytest.mark.parametrize("scope", ["full", "last_layer"])
def test_batch_gradients_equal_concatenating_form(hidden, scope):
    arch, X, y = small_batch(22, n=50, arch=nn.MlpArch(9, hidden, 4))
    params = nn.init_sample(arch, 1)
    first = 0 if scope == "full" else len(hidden)
    expected = batch_gradients_by_concatenation(params, X, y, scope)
    kept = _kept_layers(params, X, y, first)
    grads = np.full(expected.shape, np.nan)
    assert np.array_equal(_batch_gradients(kept, 0, grads), expected)
    for start, stop in [(0, 16), (16, 17), (17, 50)]:
        grads = np.full((stop - start, expected.shape[1]), np.nan)
        assert np.array_equal(_batch_gradients(kept, start, grads), expected[start:stop])


def test_last_layer_gradients_compute_no_hidden_layer_delta(monkeypatch):
    # _backprop computes a hidden layer's delta only when asked for the
    # next item, so the layers drawn from it are the deltas computed.
    arch, X, y = small_batch(26, n=10, arch=nn.MlpArch(9, (16, 12), 4))
    params = nn.init_sample(arch, 2)
    drawn = []

    def counting_backprop(*args):
        for item in nn._backprop(*args):
            drawn.append(item[0])
            yield item

    monkeypatch.setattr(grad_embed, "_backprop", counting_backprop)
    _kept_layers(params, X, y, params.num_layers - 1)
    assert drawn == [params.num_layers - 1]
    _kept_layers(params, X, y, 0)
    assert drawn == [2, 2, 1, 0]


def test_embedding_holds_one_gradient_and_one_sign_matrix_at_a_time():
    # The traced peak stays near one draw's gradients, its sign matrix, the
    # output and one (N, proj_dim) product block; copies of the gradients or
    # of the output, or a previous draw's arrays kept alive, exceed it.
    arch = nn.MlpArch(20, (64, 64), 10)
    num_examples, config = 1000, EmbeddingConfig(draws=2, proj_dim=500)
    _, X, y = small_batch(23, n=num_examples, arch=arch)
    grad_bytes = 8 * num_examples * num_params(arch)
    sign_bytes = 8 * config.proj_dim * num_params(arch)
    out_bytes = 8 * embedding_dim(config, arch) * num_examples
    block_bytes = 8 * num_examples * config.proj_dim
    tracemalloc.start()
    try:
        embed_batch(X, y, arch, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * (grad_bytes + sign_bytes + out_bytes + block_bytes)


def test_embedding_holds_one_gradient_buffer_and_one_sign_block():
    # The traced peak stays near the dictionary, one (N, P) gradient buffer
    # refilled for every draw, one block of sign rows with its int64 draw
    # buffer, and the block's (N, rows) product; the whole sign matrix, an
    # (N, proj_dim) product or a fresh gradient array per draw exceeds it.
    arch = nn.MlpArch(20, (64, 64), 10)
    num_examples = 1000
    config = EmbeddingConfig(draws=2, proj_dim=2 * _BLOCK_ROWS + 13)
    _, X, y = small_batch(25, n=num_examples, arch=arch)
    grad_bytes = 8 * num_examples * num_params(arch)
    out_bytes = 8 * embedding_dim(config, arch) * num_examples
    sign_block_bytes = 8 * _BLOCK_ROWS * num_params(arch)
    product_bytes = 8 * num_examples * _BLOCK_ROWS
    draw_bytes = 8 * _SIGN_BLOCK_ROWS * num_params(arch)
    tracemalloc.start()
    try:
        embed_batch(X, y, arch, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * (grad_bytes + out_bytes + sign_block_bytes + product_bytes + draw_bytes)
    # the draw loop is the larger phase here: its gradients and sign block
    # outweigh the dictionary's squares
    draws_bytes = config.draws * (8 * num_params(arch) + grad_embed._OBJECT_BYTES * (2 * 3 + 3))
    assert embedding_peak_bytes(config, arch, num_examples) == (
        grad_embed._CALL_BYTES + draws_bytes + out_bytes + product_bytes
        + grad_bytes + sign_block_bytes + draw_bytes + nn.pass_bytes(arch.layer_dims(), num_examples)
    )


def test_embedding_holds_the_sign_matrix_and_one_gradient_block():
    # With more examples than sign rows the traced peak stays near the
    # dictionary, the whole sign matrix with its int64 draw buffer, one
    # block of _BLOCK_ROWS gradient rows with its product, and the pass's
    # arrays; the draw's whole (N, P) gradient matrix alone exceeds it.
    arch = nn.MlpArch(20, (64, 64), 10)
    num_examples, config = 2000, EmbeddingConfig(draws=2, proj_dim=300)
    _, X, y = small_batch(28, n=num_examples, arch=arch)
    P = num_params(arch)
    out_bytes = 8 * embedding_dim(config, arch) * num_examples
    sign_bytes = 8 * config.proj_dim * P
    grad_block_bytes = 8 * _BLOCK_ROWS * P
    product_bytes = 8 * _BLOCK_ROWS * config.proj_dim
    draw_bytes = 8 * _SIGN_BLOCK_ROWS * P
    pass_bytes = nn.pass_bytes(arch.layer_dims(), num_examples)
    tracemalloc.start()
    try:
        embed_batch(X, y, arch, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * num_examples * P
    held = out_bytes + sign_bytes + grad_block_bytes + product_bytes + draw_bytes + pass_bytes
    assert peak < 1.1 * held
    draws_bytes = config.draws * (8 * P + grad_embed._OBJECT_BYTES * (2 * 3 + 3))
    assert embedding_peak_bytes(config, arch, num_examples) == (
        grad_embed._CALL_BYTES + draws_bytes + out_bytes + product_bytes
        + grad_block_bytes + sign_bytes + draw_bytes + pass_bytes
    )


def test_embedding_peak_of_a_huge_config_is_arithmetic():
    # at 1e11 draws the dictionary's squares are the larger phase
    arch = nn.MlpArch(4, (8,), 3)
    P, N = num_params(arch), 100
    draw_bytes = 8 * P + grad_embed._OBJECT_BYTES * (2 * 2 + 3)
    projected = EmbeddingConfig(draws=10**11, proj_dim=2000)
    last = EmbeddingConfig(draws=10**11, mode="last_layer")
    last_rows = nn.param_count(arch.layer_dims()[-1:])
    for config, rows, block in [(projected, 2000, _BLOCK_ROWS), (last, last_rows, 0)]:
        dim = 10**11 * rows
        assert embedding_peak_bytes(config, arch, N) == (
            grad_embed._CALL_BYTES + 10**11 * draw_bytes + 8 * (dim + block) * N + 8 * (dim + 2) * N
        )


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["random_projection", "last_layer"]),
    draws=st.integers(1, 4),
    proj_dim=st.integers(1, 4 * _BLOCK_ROWS),
    hidden=st.lists(st.integers(1, 48), max_size=2).map(tuple),
    num_examples=st.integers(200, 1100),
    num_classes=st.integers(2, 5),
)
def test_embedding_peak_bytes_bounds_the_traced_peak_within_half_again(
    mode, draws, proj_dim, hidden, num_examples, num_classes
):
    arch = nn.MlpArch(8, hidden, num_classes)
    config = EmbeddingConfig(draws=draws, mode=mode, proj_dim=proj_dim)
    _, X, y = small_batch(27, n=num_examples, arch=arch)
    tracemalloc.start()
    try:
        GradientMatrix(embed_batch(X, y, arch, config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= embedding_peak_bytes(config, arch, num_examples) <= 1.5 * peak


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["random_projection", "last_layer"]),
    draws=st.integers(1, 8),
    proj_dim=st.integers(1, 5000),
    input_dim=st.integers(1, 3000),
    hidden=st.lists(st.integers(1, 2000), max_size=4).map(tuple),
    num_examples=st.integers(1, 50_000),
    num_classes=st.integers(2, 100),
)
def test_embedding_peak_bytes_never_exceeds_the_whole_gradient_layout(
    mode, draws, proj_dim, input_dim, hidden, num_examples, num_classes
):
    arch = nn.MlpArch(input_dim, hidden, num_classes)
    config = EmbeddingConfig(draws=draws, mode=mode, proj_dim=proj_dim)
    assert embedding_peak_bytes(config, arch, num_examples) <= (
        embedding_peak_bytes_with_the_gradients_whole(config, arch, num_examples)
    )
