import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gmcoreset import nn
from gmcoreset.grad_embed import EmbeddingConfig, embed_batch
from gmcoreset.matching_pursuit import GradientMatrix, omp_select, selection_residual
from gmcoreset.memory import (
    RehearsalMemory,
    SieveState,
    class_balance_update,
    facility_location_update,
    gmc_update,
    local_gmc_update,
    reservoir_update,
    sliding_window_update,
)

from oracles import facility_location_objective


def fake_batch(n, dims=3, label=0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)), np.full(n, label, dtype=np.int64)


def random_embeddings(seed, D, N):
    return GradientMatrix(np.random.default_rng(seed).standard_normal((D, N)))


# --- gradient-matching updates ------------------------------------------------


def test_first_update_equals_offline_selection():
    for seed in range(5):
        G = random_embeddings(seed, 16, 12)
        feats, labels = fake_batch(12, seed=seed)
        memory = gmc_update(RehearsalMemory.empty(4), feats, labels, G, 4)
        offline = omp_select(G, G.data.sum(axis=1), 4)
        assert memory.size == offline.size
        assert np.array_equal(memory.embeddings, G.data[:, offline.indices])
        assert np.array_equal(memory.weights, offline.weights)
        assert np.array_equal(memory.features, feats[offline.indices])


def test_identical_examples_collapse_to_one():
    col = np.random.default_rng(3).standard_normal(8)
    G = GradientMatrix(np.tile(col[:, None], (1, 5)))
    feats, labels = fake_batch(5, seed=3)
    memory = gmc_update(RehearsalMemory.empty(5), feats, labels, G, 5)
    assert memory.size == 1
    assert memory.weights[0] == pytest.approx(5.0)
    residual = memory.target - memory.embeddings @ memory.weights
    assert np.linalg.norm(residual) <= 1e-9


def test_target_accumulates_column_sums():
    n = 6
    memory = RehearsalMemory.empty(n)
    total = np.zeros(16)
    for t in range(3):
        G = random_embeddings(100 + t, 16, 10)
        feats, labels = fake_batch(10, seed=t)
        memory = gmc_update(memory, feats, labels, G, n)
        total += G.data.sum(axis=1)
    assert np.abs(memory.target - total).max() <= 1e-9 * max(1.0, np.abs(total).max())
    assert memory.seen == 30


def test_continual_pays_a_price_against_offline():
    # restricted dictionaries in the D >= N regime; greedy selection is not
    # monotone in the dictionary, so low-dimensional instances can invert this
    for seed in [3, 5, 6, 9, 15]:
        G1 = GradientMatrix(np.random.default_rng([seed, 0]).standard_normal((64, 15)))
        G2 = GradientMatrix(np.random.default_rng([seed, 1]).standard_normal((64, 15)))
        n = 5
        feats, labels = fake_batch(15, seed=seed)
        m1 = gmc_update(RehearsalMemory.empty(n), feats, labels, G1, n)
        m2 = gmc_update(m1, feats, labels, G2, n)
        target = G1.data.sum(axis=1) + G2.data.sum(axis=1)
        continual = np.linalg.norm(target - m2.embeddings @ m2.weights)
        full = GradientMatrix(np.hstack([G1.data, G2.data]))
        offline_res = np.linalg.norm(
            selection_residual(full, target, omp_select(full, target, n))
        )
        assert continual >= offline_res - 1e-10


def test_gmc_update_rejects_dimension_change():
    memory = gmc_update(
        RehearsalMemory.empty(3), *fake_batch(5), random_embeddings(0, 8, 5), 3
    )
    with pytest.raises(ValueError, match="dimension"):
        gmc_update(memory, *fake_batch(5), random_embeddings(0, 9, 5), 3)


def test_gmc_residual_never_exceeds_target_norm():
    memory = RehearsalMemory.empty(4)
    for t in range(3):
        G = random_embeddings(50 + t, 32, 9)
        memory = gmc_update(memory, *fake_batch(9, seed=t), G, 4)
        residual = np.linalg.norm(memory.target - memory.embeddings @ memory.weights)
        assert residual <= np.linalg.norm(memory.target) + 1e-12


# --- local gradient matching ----------------------------------------------------


@pytest.fixture
def local_setup():
    arch = nn.MlpArch(3, (6,), 2)
    config = EmbeddingConfig(draws=1, proj_dim=24, projection_seed=2, init_seed=7)
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    return arch, config, feats, labels


def test_local_update_is_deterministic(local_setup):
    arch, config, feats, labels = local_setup
    params = nn.init_sample(arch, 7)
    a = local_gmc_update(RehearsalMemory.empty(4), feats, labels, params, 4, config)
    b = local_gmc_update(RehearsalMemory.empty(4), feats, labels, params, 4, config)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.weights, b.weights)


def test_local_update_matches_single_draw_gmc(local_setup):
    arch, config, feats, labels = local_setup
    params = nn.init_sample(arch, config.init_seed)  # the draw gmc would use
    local = local_gmc_update(RehearsalMemory.empty(4), feats, labels, params, 4, config)
    G = embed_batch(feats, labels, arch, config)
    offline = gmc_update(RehearsalMemory.empty(4), feats, labels, G, 4)
    assert np.array_equal(local.features, offline.features)
    assert np.allclose(local.weights, offline.weights)


def test_local_embeddings_track_the_iterate(local_setup):
    arch, config, feats, labels = local_setup
    before = embed_batch(feats, labels, arch, config)
    moved = nn.init_sample(arch, 99)
    from gmcoreset.grad_embed import embed_batch_at_params

    after = embed_batch_at_params([moved], feats, labels, config)
    assert np.abs(before.data - after.data).max() > 1e-6


def test_local_update_does_not_cache_embeddings(local_setup):
    arch, config, feats, labels = local_setup
    params = nn.init_sample(arch, 0)
    memory = local_gmc_update(RehearsalMemory.empty(4), feats, labels, params, 4, config)
    assert memory.embeddings is None and memory.target is None


# --- reservoir -------------------------------------------------------------------


def test_reservoir_keeps_everything_until_full():
    feats, labels = fake_batch(4)
    memory = reservoir_update(
        RehearsalMemory.empty(10), feats, labels, 10, np.random.default_rng(0)
    )
    assert memory.size == 4
    assert np.array_equal(memory.features, feats)
    assert np.all(memory.weights == 1.0)


def test_reservoir_is_deterministic_per_seed():
    feats, labels = fake_batch(50)
    a = reservoir_update(RehearsalMemory.empty(5), feats, labels, 5, np.random.default_rng(4))
    b = reservoir_update(RehearsalMemory.empty(5), feats, labels, 5, np.random.default_rng(4))
    assert np.array_equal(a.features, b.features)


def _inclusion_counts(order, trials, n=3, items=10, base_seed=0):
    counts = np.zeros(items)
    for trial in range(trials):
        rng = np.random.default_rng([base_seed, trial])
        feats = np.asarray(order, dtype=float)[:, None]
        memory = reservoir_update(
            RehearsalMemory.empty(n), feats, np.zeros(items, dtype=np.int64), n, rng
        )
        for v in memory.features[:, 0]:
            counts[int(v)] += 1
    return counts


def test_reservoir_inclusion_is_uniform():
    trials = 20000
    counts = _inclusion_counts(np.arange(10), trials)
    assert chisquare(counts, f_exp=np.full(10, trials * 0.3)).pvalue > 0.01


def test_reservoir_uniform_under_permuted_arrival():
    trials = 8000
    order = np.random.default_rng(123).permutation(10)
    counts = _inclusion_counts(order, trials, base_seed=77)
    assert chisquare(counts, f_exp=np.full(10, trials * 0.3)).pvalue > 0.01


# --- class balancing ----------------------------------------------------------------


def test_class_balance_trace():
    feats = np.arange(5, dtype=float)[:, None]
    labels = np.array([0, 0, 0, 1, 1])
    memory = class_balance_update(
        RehearsalMemory.empty(4), feats, labels, 4, np.random.default_rng(0)
    )
    counts = np.bincount(memory.labels, minlength=2)
    assert counts.tolist() == [2, 2]


def test_class_balance_single_class_stream():
    feats, labels = fake_batch(9, label=3)
    memory = class_balance_update(
        RehearsalMemory.empty(4), feats, labels, 4, np.random.default_rng(0)
    )
    assert memory.size == 4
    assert set(memory.labels.tolist()) == {3}


def test_class_balance_balanced_supply():
    rng = np.random.default_rng(5)
    labels = np.tile(np.arange(3), 30)
    feats = rng.standard_normal((90, 2))
    memory = class_balance_update(
        RehearsalMemory.empty(9), feats, labels, 9, np.random.default_rng(1)
    )
    assert np.bincount(memory.labels, minlength=3).tolist() == [3, 3, 3]


# --- sliding window ------------------------------------------------------------------


def test_sliding_window_keeps_most_recent():
    feats = np.arange(5, dtype=float)[:, None]
    memory = sliding_window_update(
        RehearsalMemory.empty(3), feats, np.zeros(5, dtype=np.int64), 3
    )
    assert memory.features[:, 0].tolist() == [2.0, 3.0, 4.0]


def test_sliding_window_short_stream():
    feats = np.arange(2, dtype=float)[:, None]
    memory = sliding_window_update(
        RehearsalMemory.empty(5), feats, np.zeros(2, dtype=np.int64), 5
    )
    assert memory.features[:, 0].tolist() == [0.0, 1.0]


def test_sliding_window_across_batches():
    m = RehearsalMemory.empty(5)
    a = np.arange(4, dtype=float)[:, None]
    b = np.arange(4, 8, dtype=float)[:, None]
    m = sliding_window_update(m, a, np.zeros(4, dtype=np.int64), 5)
    m = sliding_window_update(m, b, np.zeros(4, dtype=np.int64), 5)
    assert m.features[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert m.seen == 8


# --- facility location ----------------------------------------------------------------


def test_sieve_covers_all_distinct_points_with_room():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((6, 2)) * 3.0
    labels = np.zeros(6, dtype=np.int64)
    state, memory = facility_location_update(SieveState(), feats, labels, 8)
    objective = facility_location_objective(memory.features, feats, state.bound)
    assert objective == pytest.approx(6 * state.bound, rel=1e-9)


def test_sieve_selects_one_point_per_cluster():
    rng = np.random.default_rng(21)
    cluster_a = rng.standard_normal((12, 2)) * 0.2 + [10.0, 0.0]
    cluster_b = rng.standard_normal((12, 2)) * 0.2 - [10.0, 0.0]
    feats = np.vstack([cluster_a, cluster_b])
    labels = np.repeat([0, 1], 12)
    order = rng.permutation(24)
    state, memory = facility_location_update(SieveState(), feats[order], labels[order], 2)
    assert memory.size == 2
    assert set(memory.labels.tolist()) == {0, 1}
    # brute force over all pairs agrees that the optimum straddles the clusters
    best, best_val = None, -np.inf
    for i in range(24):
        for j in range(i + 1, 24):
            val = facility_location_objective(feats[[i, j]], feats, state.bound)
            if val > best_val:
                best, best_val = (i, j), val
    assert {labels[best[0]], labels[best[1]]} == {0, 1}


def test_sieve_duplicate_gain_is_zero():
    from gmcoreset.memory import _Candidates, _marginal_gain

    cand = _Candidates([np.array([1.0, 2.0])], [0], value=4.0)
    assert _marginal_gain(np.array([1.0, 2.0]), cand, bound=4.0) == 0.0


def test_sieve_objective_beats_singletons():
    rng = np.random.default_rng(31)
    feats = rng.standard_normal((30, 3))
    labels = np.zeros(30, dtype=np.int64)
    state, memory = facility_location_update(SieveState(), feats, labels, 4)
    chosen = facility_location_objective(memory.features, feats, state.bound)
    for i in range(30):
        single = facility_location_objective(feats[[i]], feats, state.bound)
        assert chosen >= single - 1e-9


def test_sieve_memory_respects_capacity_across_batches():
    state = SieveState()
    for t in range(4):
        feats, labels = fake_batch(20, seed=t)
        state, memory = facility_location_update(state, feats, labels, 3)
        assert memory.size <= 3


# --- shared properties ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    batch_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
)
def test_every_strategy_respects_capacity(seed, n, batch_sizes):
    rng = np.random.default_rng(seed)
    memories = {
        "reservoir": RehearsalMemory.empty(n),
        "class_balance": RehearsalMemory.empty(n),
        "sliding_window": RehearsalMemory.empty(n),
        "gmc": RehearsalMemory.empty(n),
    }
    sieve = SieveState()
    for b, size in enumerate(batch_sizes):
        feats = rng.standard_normal((size, 2))
        labels = rng.integers(0, 3, size=size)
        memories["reservoir"] = reservoir_update(memories["reservoir"], feats, labels, n, rng)
        memories["class_balance"] = class_balance_update(
            memories["class_balance"], feats, labels, n, rng
        )
        memories["sliding_window"] = sliding_window_update(
            memories["sliding_window"], feats, labels, n
        )
        G = GradientMatrix(np.random.default_rng([seed, b]).standard_normal((8, size)))
        memories["gmc"] = gmc_update(memories["gmc"], feats, labels, G, n)
        sieve, fl_memory = facility_location_update(sieve, feats, labels, n)
        assert fl_memory.size <= n
        for memory in memories.values():
            assert memory.size <= n
            assert len(memory.weights) == memory.size
