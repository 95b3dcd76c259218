import numpy as np
import pytest

from gmcoreset import nn
from gmcoreset.grad_embed import (
    EmbeddingConfig,
    embed_batch,
    embed_batch_at_params,
    embedding_dim,
    last_layer_size,
    sign_projection,
)

from oracles import num_params, per_example_gradient, project


def small_batch(seed, n=6, arch=None):
    arch = arch or nn.MlpArch(4, (8, 5), 3)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    return arch, X, y


# --- sign projections -----------------------------------------------------------


def test_sign_matrix_entries_and_reproducibility():
    a = sign_projection(16, 40, seed=11)
    b = sign_projection(16, 40, seed=11)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) == {-1.0, 1.0}


def test_project_single_row():
    proj = sign_projection(1, 2, seed=0)
    proj[:] = 1.0
    assert project(np.array([3.0, 4.0]), proj) == pytest.approx(7.0)


def test_project_zero_vector():
    proj = sign_projection(8, 5, seed=1)
    assert np.allclose(project(np.zeros(5), proj), 0.0)


def test_project_rejects_length_mismatch():
    proj = sign_projection(4, 5, seed=2)
    with pytest.raises(ValueError):
        project(np.zeros(6), proj)


def test_sketched_inner_products_are_unbiased():
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(64)
    v = u + 0.5 * rng.standard_normal(64)
    truth = u @ v
    estimates = [
        project(u, p) @ project(v, p)
        for p in (sign_projection(256, 64, seed=s) for s in range(1000))
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
    short = per_example_gradient(params, (X[0], int(y[0])), scope="last_layer")
    assert np.abs(full[-last_layer_size(arch):] - short).max() <= 1e-12


def test_non_finite_activation_reports_example_index():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 0)
    params.weights[0][:] = np.inf
    with pytest.raises(FloatingPointError, match="example 0"):
        per_example_gradient(params, (np.ones(2), 1))


# --- batch embeddings ---------------------------------------------------------------


def test_identical_examples_share_a_column():
    arch, X, y = small_batch(3)
    X[1], y[1] = X[0], y[0]
    config = EmbeddingConfig(draws=2, proj_dim=16, projection_seed=5, init_seed=6)
    G = embed_batch(X, y, arch, config)
    assert np.array_equal(G.data[:, 0], G.data[:, 1])


def test_paper_scale_dimensions():
    arch = nn.MlpArch(4, (8,), 3)
    config = EmbeddingConfig(draws=4, proj_dim=2000)
    assert embedding_dim(config, arch) == 8000
    G = embed_batch(*small_batch(0, n=2, arch=arch)[1:], arch=arch, config=config)
    assert G.data.shape[0] == 8000


def test_last_layer_embedding_dimension():
    arch = nn.MlpArch(6, (9, 7), 4)
    config = EmbeddingConfig(draws=3, mode="last_layer")
    G = embed_batch(*small_batch(1, n=2, arch=arch)[1:], arch=arch, config=config)
    assert G.data.shape[0] == 3 * (4 * 7 + 4) == embedding_dim(config, arch)


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
            proj = sign_projection(config.proj_dim, P, config.projection_seed + j)
            parts.append(project(grad, proj))
        assert np.abs(G.data[:, i] - np.concatenate(parts)).max() <= 1e-12


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
        proj = sign_projection(config.proj_dim, P, config.projection_seed + j)
        parts.append(project(total, proj))
    expected = np.concatenate(parts)
    actual = G.data.sum(axis=1)
    assert np.abs(actual - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())


def test_embedding_is_deterministic():
    arch, X, y = small_batch(11)
    config = EmbeddingConfig(draws=2, proj_dim=10, projection_seed=7, init_seed=8)
    a = embed_batch(X, y, arch, config)
    b = embed_batch(X, y, arch, config)
    assert np.array_equal(a.data, b.data)


def test_embedding_at_explicit_params_matches_seeded_draws():
    arch, X, y = small_batch(12)
    config = EmbeddingConfig(draws=2, proj_dim=10, projection_seed=1, init_seed=2)
    draws = [nn.init_sample(arch, config.init_seed + j) for j in range(2)]
    assert np.array_equal(
        embed_batch(X, y, arch, config).data,
        embed_batch_at_params(draws, X, y, config).data,
    )


def test_empty_batch_is_rejected():
    arch = nn.MlpArch(3, (4,), 2)
    with pytest.raises(ValueError):
        embed_batch(np.zeros((0, 3)), np.zeros(0, dtype=int), arch, EmbeddingConfig(draws=1, proj_dim=4))


@pytest.mark.parametrize("field", ["init_seed", "projection_seed"])
def test_embedding_config_rejects_negative_seed(field):
    with pytest.raises(ValueError, match="must be >= 0"):
        EmbeddingConfig(**{field: -1})
