import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset.matching_pursuit import (
    GradientMatrix,
    SingularGramError,
    cholesky_append,
    omp_select,
    refit_weights,
    selection_residual,
)


def random_instance(seed, D, N):
    rng = np.random.default_rng(seed)
    return GradientMatrix(rng.standard_normal((D, N))), rng.standard_normal(D)


# --- dictionary type ---------------------------------------------------------


def test_gradient_matrix_caches_norms():
    G = GradientMatrix(np.array([[3.0, 0.0], [4.0, 2.0]]))
    assert np.allclose(G.column_norms, [5.0, 2.0])


def test_gradient_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        GradientMatrix(np.array([[1.0, np.nan]]))


def test_gradient_matrix_rejects_empty():
    with pytest.raises(ValueError):
        GradientMatrix(np.zeros((0, 3)))


# --- cholesky append ---------------------------------------------------------


def test_append_to_empty_factor():
    grown = cholesky_append(np.zeros((0, 0)), np.zeros(0), 9.0)
    assert np.allclose(grown, [[3.0]])


def test_append_two_by_two():
    # Gram [[4, 2], [2, 5]]: l21 = 2/2 = 1, l22 = sqrt(5 - 1) = 2
    first = cholesky_append(np.zeros((0, 0)), np.zeros(0), 4.0)
    grown = cholesky_append(first, np.array([2.0]), 5.0)
    assert np.allclose(grown, [[2.0, 0.0], [1.0, 2.0]])
    assert np.allclose(grown @ grown.T, [[4.0, 2.0], [2.0, 5.0]])


@pytest.mark.parametrize("seed", range(10))
def test_incremental_matches_one_shot_factorization(seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((9, 4))
    gram = cols.T @ cols
    chol = np.zeros((0, 0))
    for j in range(4):
        chol = cholesky_append(chol, gram[:j, j], gram[j, j])
    oracle = np.linalg.cholesky(gram)
    assert np.abs(chol - oracle).max() <= 1e-10


def test_append_rejects_dependent_column():
    first = cholesky_append(np.zeros((0, 0)), np.zeros(0), 4.0)
    # cross = 2 * 2 means the new column is the old one scaled: schur = 0
    with pytest.raises(SingularGramError):
        cholesky_append(first, np.array([4.0]), 4.0)


def test_append_rejects_nonpositive_diag():
    with pytest.raises(ValueError):
        cholesky_append(np.zeros((0, 0)), np.zeros(0), 0.0)


# --- weight refits ------------------------------------------------------------


def test_refit_orthonormal_columns():
    G = GradientMatrix(np.eye(4))
    target = np.array([1.0, -2.0, 0.5, 3.0])
    idx = np.array([0, 3])
    chol = np.eye(2)
    weights = refit_weights(G, idx, target, chol)
    assert np.allclose(weights, G.data[:, idx].T @ target)


def test_refit_single_column():
    G = GradientMatrix(np.array([[2.0], [0.0]]))
    chol = cholesky_append(np.zeros((0, 0)), np.zeros(0), 4.0)
    weights = refit_weights(G, np.array([0]), np.array([4.0, 0.0]), chol)
    assert np.allclose(weights, [2.0])


@pytest.mark.parametrize("seed", range(10))
def test_refit_matches_pseudo_inverse(seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((10, 3))
    target = rng.standard_normal(10)
    G = GradientMatrix(cols)
    gram = cols.T @ cols
    chol = np.zeros((0, 0))
    for j in range(3):
        chol = cholesky_append(chol, gram[:j, j], gram[j, j])
    weights = refit_weights(G, np.arange(3), target, chol)
    oracle = np.linalg.pinv(cols) @ target
    assert np.abs(weights - oracle).max() <= 1e-8
    # residual orthogonal to every selected column
    residual = target - cols @ weights
    for j in range(3):
        assert abs(cols[:, j] @ residual) <= 1e-8 * np.linalg.norm(target) * G.column_norms[j]


def test_refit_rejects_empty_selection():
    G = GradientMatrix(np.eye(2))
    with pytest.raises(ValueError):
        refit_weights(G, np.array([], dtype=int), np.ones(2), np.zeros((0, 0)))


# --- greedy selection ----------------------------------------------------------


def test_orthonormal_dictionary_picks_largest_coefficients():
    G = GradientMatrix(np.eye(3))
    sel = omp_select(G, np.array([2.0, 0.0, -1.0]), 2)
    assert sel.indices.tolist() == [0, 2]
    assert np.allclose(sel.weights, [2.0, -1.0])
    assert np.allclose(selection_residual(G, np.array([2.0, 0.0, -1.0]), sel), 0.0)
    assert not sel.truncated


def test_target_in_span_of_one_column():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((6, 5))
    target = 5.0 * data[:, 1]
    sel = omp_select(GradientMatrix(data), target, 1)
    assert sel.indices.tolist() == [1]
    assert np.allclose(sel.weights, [5.0])
    assert np.linalg.norm(selection_residual(GradientMatrix(data), target, sel)) <= 1e-12


def test_weights_match_least_squares_oracle():
    G, target = random_instance(42, 8, 20)
    sel = omp_select(G, target, 4)
    oracle, *_ = np.linalg.lstsq(G.data[:, sel.indices], target, rcond=None)
    assert np.abs(sel.weights - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())


def test_tie_breaks_toward_lowest_index():
    G = GradientMatrix(np.eye(2))
    sel = omp_select(G, np.array([1.0, 1.0]), 1)
    assert sel.indices.tolist() == [0]


def test_zero_norm_columns_are_skipped():
    data = np.array([[0.0, 1.0], [0.0, 1.0]])
    sel = omp_select(GradientMatrix(data), np.array([2.0, 2.0]), 1)
    assert sel.indices.tolist() == [1]


def test_dependent_candidate_truncates_selection():
    col = np.array([1.0, 2.0, 0.0])
    data = np.stack([col, 2 * col, -col], axis=1)
    target = 3.0 * col
    sel = omp_select(GradientMatrix(data), target, 3)
    assert sel.truncated
    assert sel.size == 1
    assert np.linalg.norm(selection_residual(GradientMatrix(data), target, sel)) <= 1e-12


def test_preconditions():
    G = GradientMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="columns"):
        omp_select(G, np.ones(2), 4)
    with pytest.raises(ValueError, match="dimension"):
        omp_select(G, np.ones(2), 3)
    with pytest.raises(ValueError):
        omp_select(G, np.ones(5), 1)
    with pytest.raises(ValueError):
        omp_select(G, np.array([1.0, np.inf]), 1)
    with pytest.raises(ValueError):
        omp_select(G, np.ones(2), 0)


# --- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_residual_monotone_and_prefix_consistent(seed, n):
    G, target = random_instance(seed, 12, 18)
    full = omp_select(G, target, n)
    previous = np.linalg.norm(target)
    for t in range(1, full.size + 1):
        prefix = omp_select(G, target, t)
        assert prefix.indices.tolist() == full.indices[:t].tolist()
        res = np.linalg.norm(selection_residual(G, target, prefix))
        assert res <= previous + 1e-10
        previous = res


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_support_optimality_and_orthogonality(seed):
    G, target = random_instance(seed, 10, 25)
    sel = omp_select(G, target, 5)
    sub = G.data[:, sel.indices]
    oracle, *_ = np.linalg.lstsq(sub, target, rcond=None)
    assert np.abs(sel.weights - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())
    residual = selection_residual(G, target, sel)
    bound = 1e-8 * np.linalg.norm(target)
    for j, col in enumerate(sub.T):
        assert abs(col @ residual) <= bound * G.column_norms[sel.indices[j]]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_exact_recovery_on_orthogonal_columns(seed, k):
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((10, 6)))
    G = GradientMatrix(basis)
    support = rng.choice(6, size=k, replace=False)
    coeffs = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    target = basis[:, support] @ coeffs
    sel = omp_select(G, target, 4 if k <= 4 else k)
    res = np.linalg.norm(selection_residual(G, target, sel))
    assert res <= 1e-8 * np.linalg.norm(target)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_scaling_the_target_scales_the_weights(seed, scale):
    G, target = random_instance(seed, 9, 14)
    base = omp_select(G, target, 3)
    scaled = omp_select(G, scale * target, 3)
    assert base.indices.tolist() == scaled.indices.tolist()
    assert np.allclose(scaled.weights, scale * base.weights, rtol=1e-9, atol=1e-12)
