import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from gmcoreset.matching_pursuit import (
    GRAM_MAX_RATIO,
    GradientMatrix,
    SingularGramError,
    _solve_lower,
    cholesky_append,
    omp_select,
    refit_weights,
    selection_residual,
)
from oracles import GramDictionary, omp_select_by_gathers


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


# --- triangular solves ---------------------------------------------------------


def gram_factor(rng, m, log10_cond):
    """C-ordered Cholesky factor of an m x m Gram matrix of condition 10**log10_cond."""
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    spectrum = np.logspace(0, -log10_cond, m)
    return np.linalg.cholesky((basis * spectrum) @ basis.T)


@pytest.mark.parametrize("log10_cond", [1, 12], ids=["well", "ill"])
@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300])
def test_solve_lower_equals_solve_triangular_bit_for_bit(m, log10_cond):
    rng = np.random.default_rng(m)
    for _ in range(3):
        lower = gram_factor(rng, m, log10_cond)
        rhs = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7)
        forward = solve_triangular(lower, rhs, lower=True)
        backward = solve_triangular(lower.T, rhs, lower=False)
        assert np.isfinite(forward).all() and np.isfinite(backward).all()
        assert np.array_equal(_solve_lower(lower, rhs), forward)
        assert np.array_equal(_solve_lower(lower, rhs, transposed=True), backward)


def test_solve_lower_raises_on_a_zero_diagonal():
    with pytest.raises(SingularGramError):
        _solve_lower(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))


def test_overflowing_solves_raise_instead_of_returning_inf():
    tiny = np.array([[1e-160]])
    with pytest.raises(ValueError, match="non-finite"):
        _solve_lower(tiny, np.array([1e200]))
    with pytest.raises(ValueError, match="non-finite"):
        cholesky_append(tiny, np.array([1e200]), 1.0)
    # The forward solve gives 1e160; only the back substitution overflows.
    with pytest.raises(ValueError, match="non-finite"):
        refit_weights(np.ones((1, 1)).T @ np.ones(1), tiny)


@pytest.mark.parametrize("diagonal", [0.0, -1.0])
def test_refit_rejects_a_nonpositive_factor_diagonal(diagonal):
    lower = np.array([[1.0, 0.0], [0.5, diagonal]])
    with pytest.raises(SingularGramError):
        refit_weights(np.eye(2).T @ np.ones(2), lower)


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


@pytest.mark.parametrize("seed", range(5))
def test_append_in_place_equals_the_copying_form_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((30, 12))
    gram = cols.T @ cols
    chol, buffer = np.zeros((0, 0)), np.zeros((12, 12))
    rows = buffer[:0]
    for j in range(12):
        chol = cholesky_append(chol, gram[:j, j], gram[j, j])
        rows = cholesky_append(rows, gram[:j, j], gram[j, j], out=buffer)
        assert np.shares_memory(rows, buffer)
        assert np.array_equal(rows[:, :j + 1], chol)
    with pytest.raises(ValueError, match="no room"):
        cholesky_append(rows, gram[:, 0], 1.0, out=buffer)


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
    weights = refit_weights(G.data[:, idx].T @ target, chol)
    assert np.allclose(weights, G.data[:, idx].T @ target)


def test_refit_single_column():
    G = GradientMatrix(np.array([[2.0], [0.0]]))
    chol = cholesky_append(np.zeros((0, 0)), np.zeros(0), 4.0)
    weights = refit_weights(G.data[:, [0]].T @ np.array([4.0, 0.0]), chol)
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
    weights = refit_weights(G.data[:, np.arange(3)].T @ target, chol)
    oracle = np.linalg.pinv(cols) @ target
    assert np.abs(weights - oracle).max() <= 1e-8
    # residual orthogonal to every selected column
    residual = target - cols @ weights
    for j in range(3):
        assert abs(cols[:, j] @ residual) <= 1e-8 * np.linalg.norm(target) * G.column_norms[j]


def test_refit_rejects_empty_selection():
    with pytest.raises(ValueError):
        refit_weights(np.zeros(0), np.zeros((0, 0)))


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


def test_overflowing_column_norms_raise_instead_of_selecting_nothing():
    # squared entries of 1e200 overflow, so every norm is inf and every ratio NaN
    G = GradientMatrix(np.random.default_rng(0).standard_normal((8, 5)) * 1e200)
    assert np.isinf(G.column_norms).all()
    with pytest.raises(ValueError, match="column norms overflow"):
        omp_select(G, np.ones(8), 3)


def test_overflowing_first_scores_raise():
    G = GradientMatrix(np.ones((8, 5)))
    with pytest.raises(ValueError, match=r"target @ G overflow"):
        omp_select(G, np.full(8, 1e308), 3)


def _oracle_cases():
    """(name, dictionary, target, n) on seeded random dictionaries."""
    rng = np.random.default_rng(2024)
    plain = rng.standard_normal((16, 30))
    zeros = rng.standard_normal((16, 30))
    zeros[:, [0, 7, 19]] = 0.0
    duplicates = rng.standard_normal((16, 30))
    duplicates[:, 10:20] = duplicates[:, :10]
    low_rank = rng.standard_normal((16, 4)) @ rng.standard_normal((4, 30))
    wide = rng.standard_normal((12, 40))
    tall = rng.standard_normal((40, 12))
    cases = [
        ("plain", plain, rng.standard_normal(16), 10),
        ("zero-norm", zeros, zeros.sum(axis=1), 12),
        ("duplicates", duplicates, duplicates.sum(axis=1), 14),
        ("low-rank", low_rank, rng.standard_normal(16), 8),
        ("n-equals-D", wide, wide.sum(axis=1), 12),
        ("n-equals-N", tall, rng.standard_normal(40), 12),
    ]
    # Streaming shape, N <= min(D, GRAM_MAX_RATIO * n): scores from the full Gram.
    rng = np.random.default_rng(2026)
    D, N, n = 128, 90, 40
    gram_plain = rng.standard_normal((D, N))
    gram_zeros = rng.standard_normal((D, N))
    gram_zeros[:, [3, 41, 88]] = 0.0
    gram_duplicates = rng.standard_normal((D, N))
    gram_duplicates[:, 45:] = gram_duplicates[:, :45]
    gram_low_rank = rng.standard_normal((D, 10)) @ rng.standard_normal((10, N))
    cases += [
        ("gram-plain", gram_plain, rng.standard_normal(D), n),
        ("gram-zero-norm", gram_zeros, gram_zeros.sum(axis=1), n),
        ("gram-duplicates", gram_duplicates, gram_duplicates.sum(axis=1), n),
        ("gram-low-rank", gram_low_rank, rng.standard_normal(D), n),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,data,target,n", _oracle_cases())
def test_selection_equals_the_gather_loop_bit_for_bit(name, data, target, n):
    G = GradientMatrix(data)
    sel = omp_select(G, target, n)
    oracle = omp_select_by_gathers(G, target, n)
    assert np.array_equal(sel.indices, oracle.indices)
    assert np.array_equal(sel.weights, oracle.weights)
    assert sel.truncated == oracle.truncated
    if name == "low-rank":
        assert sel.truncated and sel.size == 4


def test_gram_cases_take_scores_from_the_full_gram():
    for param in _oracle_cases():
        name, data, _, n = param.values
        D, N = data.shape
        if name.startswith("gram-"):
            assert N <= min(D, GRAM_MAX_RATIO * n), name


def test_duplicate_tie_resolves_as_the_plain_loop_does():
    """Columns 0 and 5 are equal, so their exact scores tie up to the
    rounding of the correlation product, which with OpenBLAS favours
    column 5 at the second pick.  The recurrence's scores favour column 0;
    the tie guard rescores that pick from the explicit residual."""
    rng = np.random.default_rng(2)
    data = rng.standard_normal((8, 6))
    data[:, 5] = data[:, 0]
    target = rng.standard_normal(8)
    G = GradientMatrix(data)
    sel = omp_select(G, target, 3)
    oracle = omp_select_by_gathers(G, target, 3)
    assert np.array_equal(sel.indices, oracle.indices)
    assert np.array_equal(sel.weights, oracle.weights)
    assert sel.truncated == oracle.truncated


def test_selection_without_the_full_gram_stays_below_its_size():
    D, N, n = 512, 8000, 50
    G, target = random_instance(11, D, N)
    tracemalloc.start()
    try:
        sel = omp_select(G, target, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sel.size == n
    assert peak < N * N * 8


@st.composite
def degenerate_instances(draw):
    """(dictionary, target, n) with zero-norm and duplicate columns, rank below n, n = min(D, N)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D, N = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    rank = draw(st.integers(1, min(D, N)))
    data = rng.standard_normal((D, rank)) @ rng.standard_normal((rank, N))
    data[:, draw(st.lists(st.integers(0, N - 1), max_size=3))] = 0.0
    for copy, source in draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=3)):
        data[:, copy] = data[:, source]
    target = data.sum(axis=1) if draw(st.booleans()) else rng.standard_normal(D)
    n = min(D, N) if draw(st.booleans()) else draw(st.integers(1, min(D, N)))
    return data, target, n


@settings(max_examples=150, deadline=None)
@given(instance=degenerate_instances())
def test_selection_equals_the_gather_loop_on_degenerate_dictionaries(instance):
    data, target, n = instance
    G = GradientMatrix(data)
    sel = omp_select(G, target, n)
    oracle = omp_select_by_gathers(G, target, n)
    assert np.array_equal(sel.indices, oracle.indices)
    assert np.array_equal(sel.weights, oracle.weights)
    assert sel.truncated == oracle.truncated


def test_selection_through_a_gram_only_dictionary_makes_the_same_picks():
    """``omp_select`` through a dictionary that has only K = GᵀG and Gᵀt
    (no ``data``) picks as it does through the dense ``GradientMatrix``, on
    both sides of the Gram policy, so the loop's calls are all it needs."""
    rng = np.random.default_rng(23)
    sides, truncations = set(), 0
    for case in range(200):
        D, N = int(rng.integers(20, 121)), int(rng.integers(20, 201))
        n = int(rng.integers(1, min(D, N) + 1))
        if case % 5 == 4:  # rank below n: the selection truncates
            rank = int(rng.integers(1, min(D, N) + 1))
            data = rng.standard_normal((D, rank)) @ rng.standard_normal((rank, N))
        else:
            data = rng.standard_normal((D, N))
        target = data.sum(axis=1) if case % 2 else rng.standard_normal(D)
        gram_only = GramDictionary(data, target)
        assert not hasattr(gram_only, "data")
        dense = omp_select(GradientMatrix(data), target, n)
        lookup = omp_select(gram_only, target, n)
        assert np.array_equal(lookup.indices, dense.indices), (case, D, N, n)
        assert lookup.truncated == dense.truncated, (case, D, N, n)
        assert np.allclose(lookup.weights, dense.weights, rtol=1e-9, atol=0.0), (case, D, N, n)
        sides.add(N <= min(D, GRAM_MAX_RATIO * n))
        truncations += dense.truncated
    assert sides == {True, False} and truncations > 0


class _CountsGathers(np.ndarray):
    """ndarray that counts indexing with a list or an array (a gather)."""

    gathers = 0

    def __getitem__(self, index):
        parts = index if isinstance(index, tuple) else (index,)
        if any(isinstance(part, (list, np.ndarray)) for part in parts):
            type(self).gathers += 1
        return super().__getitem__(index)


def test_selection_gathers_no_columns():
    G, target = random_instance(5, 32, 60)
    plain = omp_select(G, target, 20)
    G.data = G.data.view(_CountsGathers)
    _CountsGathers.gathers = 0
    counted = omp_select(G, target, 20)
    assert _CountsGathers.gathers == 0
    assert np.array_equal(counted.indices, plain.indices)
    assert np.array_equal(counted.weights, plain.weights)


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
