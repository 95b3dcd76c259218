import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gmcoreset import harness, nn
from gmcoreset.grad_embed import EmbeddingConfig, embed_batch
from gmcoreset.matching_pursuit import GradientMatrix, omp_select, selection_residual
from gmcoreset.memory import (
    RehearsalMemory,
    SieveState,
    _admit_each,
    class_balance_update,
    facility_location_update,
    gmc_update,
    reservoir_update,
    sliding_window_update,
)
from gmcoreset.scenarios import (
    make_class_incremental,
    standardize_features,
    synth_blobs,
    train_test_split,
)

from oracles import (
    SetScanSieveState,
    class_balance_by_rescan,
    facility_location_by_set_scans,
    facility_location_objective,
)


def fake_batch(n, dims=3, label=0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dims)), np.full(n, label, dtype=np.int64)


def random_embeddings(seed, D, N):
    return np.random.default_rng(seed).standard_normal((D, N))


def local_update(memory, feats, labels, params, config):
    """``harness.UPDATES["gmc_local"]`` on ``memory``, embedding at ``params``."""
    rehearsal = SimpleNamespace(memory=memory, embedding=config)
    return harness.UPDATES["gmc_local"](rehearsal, feats, labels, params)


# --- gradient-matching updates ------------------------------------------------


def test_first_update_equals_offline_selection():
    for seed in range(5):
        G = random_embeddings(seed, 16, 12)
        feats, labels = fake_batch(12, seed=seed)
        selection, memory = gmc_update(RehearsalMemory(4), feats, labels, G)
        offline = omp_select(GradientMatrix(G), G.sum(axis=1), 4)
        assert np.array_equal(selection.indices, offline.indices)
        assert memory.size == offline.size
        assert np.array_equal(memory.embeddings, G[:, offline.indices])
        assert np.array_equal(memory.weights, offline.weights)
        assert np.array_equal(memory.features, feats[offline.indices])


def test_identical_examples_collapse_to_one():
    col = np.random.default_rng(3).standard_normal(8)
    G = np.tile(col[:, None], (1, 5))
    feats, labels = fake_batch(5, seed=3)
    _, memory = gmc_update(RehearsalMemory(5), feats, labels, G)
    assert memory.size == 1
    assert memory.weights[0] == pytest.approx(5.0)
    residual = memory.target - memory.embeddings @ memory.weights
    assert np.linalg.norm(residual) <= 1e-9


def test_target_accumulates_column_sums():
    n = 6
    memory = RehearsalMemory(n)
    total = np.zeros(16)
    for t in range(3):
        G = random_embeddings(100 + t, 16, 10)
        feats, labels = fake_batch(10, seed=t)
        _, memory = gmc_update(memory, feats, labels, G)
        total += G.sum(axis=1)
    assert np.abs(memory.target - total).max() <= 1e-9 * max(1.0, np.abs(total).max())
    assert memory.seen == 30


def test_continual_pays_a_price_against_offline():
    # restricted dictionaries in the D >= N regime; greedy selection is not
    # monotone in the dictionary, so low-dimensional instances can invert this
    for seed in [3, 5, 6, 9, 15]:
        G1 = np.random.default_rng([seed, 0]).standard_normal((64, 15))
        G2 = np.random.default_rng([seed, 1]).standard_normal((64, 15))
        n = 5
        feats, labels = fake_batch(15, seed=seed)
        _, m1 = gmc_update(RehearsalMemory(n), feats, labels, G1)
        _, m2 = gmc_update(m1, feats, labels, G2)
        target = G1.sum(axis=1) + G2.sum(axis=1)
        continual = np.linalg.norm(target - m2.embeddings @ m2.weights)
        full = GradientMatrix(np.hstack([G1, G2]))
        offline_res = np.linalg.norm(
            selection_residual(full, target, omp_select(full, target, n))
        )
        assert continual >= offline_res - 1e-10


def test_gmc_update_returns_its_selection_over_the_pool():
    # the selection indexes columns of the pool [memory | batch], whose
    # picked rows, weights and columns are the next memory
    _, memory = gmc_update(RehearsalMemory(4), *fake_batch(6), random_embeddings(0, 16, 6))
    feats, labels = fake_batch(5, label=1, seed=1)
    G = random_embeddings(1, 16, 5)
    selection, matched = gmc_update(memory, feats, labels, G)
    idx = selection.indices
    assert selection.size == matched.size == 4 and not selection.truncated
    assert np.array_equal(matched.features, np.vstack([memory.features, feats])[idx])
    assert np.array_equal(matched.labels, np.concatenate([memory.labels, labels])[idx])
    assert np.array_equal(matched.weights, selection.weights)
    assert np.array_equal(matched.embeddings, np.hstack([memory.embeddings, G])[:, idx])


def test_gmc_update_returns_a_truncated_selection():
    # two distinct rows, each offered three times: no third independent column
    feats, labels = fake_batch(2, seed=2)
    feats, labels = np.tile(feats, (3, 1)), np.tile(labels, 3)
    G = np.tile(random_embeddings(2, 8, 2), 3)
    selection, memory = gmc_update(RehearsalMemory(4), feats, labels, G)
    assert selection.truncated
    assert memory.size == selection.size == 2 < memory.capacity


def test_gmc_update_rejects_dimension_change():
    _, memory = gmc_update(
        RehearsalMemory(3), *fake_batch(5), random_embeddings(0, 8, 5)
    )
    with pytest.raises(ValueError, match="dimension"):
        gmc_update(memory, *fake_batch(5), random_embeddings(0, 9, 5))


def test_gmc_update_rejects_non_finite_columns_before_selecting():
    # the update's GradientMatrix is the only finiteness check of an embedding
    _, memory = gmc_update(RehearsalMemory(3), *fake_batch(5), random_embeddings(0, 8, 5))
    bad = random_embeddings(1, 8, 5)
    bad[2, 4] = np.inf
    for start in (RehearsalMemory(3), memory):
        with pytest.raises(ValueError, match="non-finite"):
            gmc_update(start, *fake_batch(5, seed=1), bad)


def test_gmc_update_rejects_a_memory_without_embedding_columns():
    """A baseline's memory holds examples but no columns to reselect them by;
    selecting from the batch's columns alone would index the wrong rows."""
    memory = reservoir_update(RehearsalMemory(10), *fake_batch(10), np.random.default_rng(0))
    with pytest.raises(ValueError, match="embedding columns"):
        gmc_update(memory, *fake_batch(30, seed=1), random_embeddings(0, 16, 30))


def test_gmc_residual_never_exceeds_target_norm():
    memory = RehearsalMemory(4)
    for t in range(3):
        G = random_embeddings(50 + t, 32, 9)
        _, memory = gmc_update(memory, *fake_batch(9, seed=t), G)
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
    a = local_update(RehearsalMemory(4), feats, labels, params, config)
    b = local_update(RehearsalMemory(4), feats, labels, params, config)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.weights, b.weights)


def test_local_update_matches_single_draw_gmc(local_setup):
    arch, config, feats, labels = local_setup
    params = nn.init_sample(arch, config.init_seed)  # the draw gmc would use
    local = local_update(RehearsalMemory(4), feats, labels, params, config)
    G = embed_batch(feats, labels, arch, config)
    _, offline = gmc_update(RehearsalMemory(4), feats, labels, G)
    assert np.array_equal(local.features, offline.features)
    assert np.allclose(local.weights, offline.weights)


def test_local_embeddings_track_the_iterate(local_setup):
    arch, config, feats, labels = local_setup
    before = embed_batch(feats, labels, arch, config)
    moved = nn.init_sample(arch, 99)
    from gmcoreset.grad_embed import embed_batch_at_params

    after = embed_batch_at_params([moved], feats, labels, config)
    assert np.abs(before - after).max() > 1e-6


def test_local_update_does_not_cache_embeddings(local_setup):
    arch, config, feats, labels = local_setup
    params = nn.init_sample(arch, 0)
    memory = local_update(RehearsalMemory(4), feats, labels, params, config)
    assert memory.embeddings is None and memory.target is None


# --- reservoir -------------------------------------------------------------------


def test_reservoir_keeps_everything_until_full():
    feats, labels = fake_batch(4)
    memory = reservoir_update(
        RehearsalMemory(10), feats, labels, np.random.default_rng(0)
    )
    assert memory.size == 4
    assert np.array_equal(memory.features, feats)
    assert np.all(memory.weights == 1.0)


def test_reservoir_is_deterministic_per_seed():
    feats, labels = fake_batch(50)
    a = reservoir_update(RehearsalMemory(5), feats, labels, np.random.default_rng(4))
    b = reservoir_update(RehearsalMemory(5), feats, labels, np.random.default_rng(4))
    assert np.array_equal(a.features, b.features)


def _inclusion_counts(order, trials, n=3, items=10, base_seed=0):
    counts = np.zeros(items)
    for trial in range(trials):
        rng = np.random.default_rng([base_seed, trial])
        feats = np.asarray(order, dtype=float)[:, None]
        memory = reservoir_update(
            RehearsalMemory(n), feats, np.zeros(items, dtype=np.int64), rng
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
        RehearsalMemory(4), feats, labels, np.random.default_rng(0)
    )
    counts = np.bincount(memory.labels, minlength=2)
    assert counts.tolist() == [2, 2]


def test_class_balance_single_class_stream():
    feats, labels = fake_batch(9, label=3)
    memory = class_balance_update(
        RehearsalMemory(4), feats, labels, np.random.default_rng(0)
    )
    assert memory.size == 4
    assert set(memory.labels.tolist()) == {3}


def test_class_balance_balanced_supply():
    rng = np.random.default_rng(5)
    labels = np.tile(np.arange(3), 30)
    feats = rng.standard_normal((90, 2))
    memory = class_balance_update(
        RehearsalMemory(9), feats, labels, np.random.default_rng(1)
    )
    assert np.bincount(memory.labels, minlength=3).tolist() == [3, 3, 3]


# --- sliding window ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 12),
    num_classes=st.integers(1, 5),
    batch_sizes=st.lists(st.integers(1, 30), min_size=1, max_size=4),
)
def test_class_balance_equals_the_rescanning_rule(seed, n, num_classes, batch_sizes):
    data = np.random.default_rng(seed)
    # a skewed class mix, so the largest class changes during the stream
    mix = data.dirichlet(np.full(num_classes, 0.5))
    memory = expected = RehearsalMemory(n)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in batch_sizes:
        feats = data.standard_normal((size, 2))
        labels = data.choice(num_classes, size=size, p=mix)
        memory = class_balance_update(memory, feats, labels, rng)
        expected = _admit_each(expected, feats, labels, class_balance_by_rescan(n, oracle_rng))
        assert np.array_equal(memory.labels, expected.labels)
        assert np.array_equal(memory.features, expected.features)
        assert np.array_equal(memory.weights, expected.weights)
        assert (memory.seen, memory.classes_seen) == (expected.seen, expected.classes_seen)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_sliding_window_keeps_most_recent():
    feats = np.arange(5, dtype=float)[:, None]
    memory = sliding_window_update(
        RehearsalMemory(3), feats, np.zeros(5, dtype=np.int64)
    )
    assert memory.features[:, 0].tolist() == [2.0, 3.0, 4.0]


def test_sliding_window_short_stream():
    feats = np.arange(2, dtype=float)[:, None]
    memory = sliding_window_update(
        RehearsalMemory(5), feats, np.zeros(2, dtype=np.int64)
    )
    assert memory.features[:, 0].tolist() == [0.0, 1.0]


def test_sliding_window_across_batches():
    m = RehearsalMemory(5)
    a = np.arange(4, dtype=float)[:, None]
    b = np.arange(4, 8, dtype=float)[:, None]
    m = sliding_window_update(m, a, np.zeros(4, dtype=np.int64))
    m = sliding_window_update(m, b, np.zeros(4, dtype=np.int64))
    assert m.features[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0, 7.0]
    assert m.seen == 8


# --- facility location ----------------------------------------------------------------


def test_sieve_covers_all_distinct_points_with_room():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((6, 2)) * 3.0
    labels = np.zeros(6, dtype=np.int64)
    state = SieveState()
    memory = facility_location_update(RehearsalMemory(8), feats, labels, state)
    objective = facility_location_objective(memory.features, feats, state.bound)
    assert objective == pytest.approx(6 * state.bound, rel=1e-9)


def test_sieve_selects_one_point_per_cluster():
    rng = np.random.default_rng(21)
    cluster_a = rng.standard_normal((12, 2)) * 0.2 + [10.0, 0.0]
    cluster_b = rng.standard_normal((12, 2)) * 0.2 - [10.0, 0.0]
    feats = np.vstack([cluster_a, cluster_b])
    labels = np.repeat([0, 1], 12)
    order = rng.permutation(24)
    state = SieveState()
    memory = facility_location_update(
        RehearsalMemory(2), feats[order], labels[order], state
    )
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
    state, x = SieveState(), np.array([1.0, 2.0])
    facility_location_update(RehearsalMemory(8), x[None], np.zeros(1, dtype=np.int64), state)
    assert state.sizes.tolist() == [1] * len(state.sizes)  # every set took x and filled its row
    assert state.distances(x)[state.slots].min(axis=1).tolist() == [0.0] * len(state.sizes)


def test_sieve_objective_beats_singletons():
    rng = np.random.default_rng(31)
    feats = rng.standard_normal((30, 3))
    labels = np.zeros(30, dtype=np.int64)
    state = SieveState()
    memory = facility_location_update(RehearsalMemory(4), feats, labels, state)
    chosen = facility_location_objective(memory.features, feats, state.bound)
    for i in range(30):
        single = facility_location_objective(feats[[i]], feats, state.bound)
        assert chosen >= single - 1e-9


def test_sieve_memory_respects_capacity_across_batches():
    state, memory = SieveState(), RehearsalMemory(3)
    for t in range(4):
        feats, labels = fake_batch(20, seed=t)
        memory = facility_location_update(memory, feats, labels, state)
        assert memory.size <= 3


def test_sieve_rejects_overflowing_distances_before_changing_its_state():
    # every squared distance is at most bound^2 = (2 ||x||)^2: finite at 6e153, not at 7e153
    state, memory = SieveState(), RehearsalMemory(3)
    memory = facility_location_update(memory, *fake_batch(5), state)
    feats, labels = fake_batch(4, seed=1)
    feats[2, 0] = 7e153
    before = copy.deepcopy(vars(state))
    with pytest.raises(ValueError, match="facility location distances overflow"):
        facility_location_update(memory, feats, labels, state)
    for key, value in vars(state).items():
        assert np.array_equal(value, before[key]), key
    feats[2, 0] = 6e153
    assert facility_location_update(memory, feats, labels, state).size <= 3


def test_sieve_keeps_the_first_best_set_fallback_first():
    def sieve(values, fallback):
        """Thresholds j = 3, 4, ... holding one point labelled j each, of objectives ``values``,
        and a fallback of one point labelled 9 when ``fallback``."""
        state = SieveState(bound=1.0)
        state.respan(3, 2 + len(values), 2)
        for row, value in enumerate(values):
            state.slots[row] = state.store(np.full(2, row + 3.0), row + 3)
        state.sizes[:], state.values[:] = 1, values
        state.fallback = [state.store(np.full(2, 9.0), 9)] if fallback else []
        return state

    no_items = np.zeros((0, 2)), np.zeros(0, dtype=np.int64)

    def pick(values, fallback=False):
        memory = facility_location_update(RehearsalMemory(2), *no_items, sieve(values, fallback))
        return memory.labels.tolist()

    assert pick([2.0, 1.0, 2.0]) == [3]  # the lowest threshold of the tied best
    assert pick([1.0, 2.0, 2.0], fallback=True) == [4]
    assert pick([0.0], fallback=True) == [9]  # the fallback, of objective 0, wins a tie
    assert pick([0.0]) == []


def _sieve_sets(state):
    """(value, member labels in admission order) of the fallback and of every live threshold."""
    if isinstance(state, SetScanSieveState):
        sets = {j: (c.value, c.labels) for j, c in state.sets.items()}
        return (state.fallback.value, state.fallback.labels), sets
    lo, hi = state.span or (0, -1)
    sets = {
        j: (float(state.values[row]), state.labels[state.slots[row, : state.sizes[row]]].tolist())
        for row, j in enumerate(range(lo, hi + 1))
    }
    return (0.0, state.labels[state.fallback].tolist()), sets


def _stream_both(feats, labels, n, batch_sizes):
    """Stream the items through the sieve and the set-scan oracle side by side, comparing the
    memories, the bound and every live set after each batch; returns the sieve state."""
    state, oracle_state = SieveState(), SetScanSieveState()
    memory = oracle = RehearsalMemory(n)
    start = 0
    for size in batch_sizes:
        X, y = feats[start : start + size], labels[start : start + size]
        start += size
        memory = facility_location_update(memory, X, y, state)
        oracle = facility_location_by_set_scans(oracle, X, y, n, oracle_state)
        assert np.array_equal(memory.features, oracle.features)
        assert np.array_equal(memory.labels, oracle.labels)
        assert memory.seen == oracle.seen
        assert state.bound == oracle_state.bound
        assert _sieve_sets(state) == _sieve_sets(oracle_state)
    return state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.sampled_from([1, 2, 7, 50, 200]),
    dims=st.integers(1, 4),
    zeros=st.integers(0, 4),
    growth=st.sampled_from([1.0, 8.0]),
    jump=st.sampled_from([1.0, 1e3]),
    batch_sizes=st.lists(st.integers(1, 120), min_size=1, max_size=4),
)
def test_sieve_equals_the_set_scans(seed, n, dims, zeros, growth, jump, batch_sizes):
    # a zero-norm prefix takes the fallback path, copies of earlier items are
    # duplicates, a growing scale raises the bound so that sets drop off, a jump
    # in scale halfway moves every threshold past the old span, and small n
    # closes sets
    rng = np.random.default_rng(seed)
    total = sum(batch_sizes)
    feats = rng.standard_normal((total, dims)) * growth ** (np.arange(total) / total)[:, None]
    feats[total // 2 :] *= jump
    feats[:zeros] = 0.0
    for i in range(1, total):
        if rng.random() < 0.25:
            feats[i] = feats[rng.integers(0, i)]
    labels = rng.integers(0, 5, size=total)
    _stream_both(feats, labels, n, batch_sizes)


def test_sieve_equals_the_set_scans_at_replay_scale():
    # the replay benchmark's stream: 10 standardized classes in five tasks of two, n = 200
    data = synth_blobs(seed=0, n_per_class=250, num_classes=10, dims=8)
    train, test = standardize_features(*train_test_split(data, 0.2, 0))
    scenario = make_class_incremental(train, test, 2)
    feats = np.vstack([b.features for b in scenario.batches])
    labels = np.concatenate([b.labels for b in scenario.batches])
    state = _stream_both(feats, labels, 200, [b.num_examples for b in scenario.batches])
    assert state.sizes.max() == 200 and (state.sizes < 200).any()  # some sets closed, some open


def test_sieve_gain_is_the_member_distance_even_above_the_bound():
    # x and -x lie 2|x| apart, and rounding puts that distance one ulp above the
    # bound 2|x|: the gain of -x must still be that distance, so a set's spare
    # row entries must repeat a member rather than stand for the bound
    x = np.array([-0.5442589828573099, -0.31630015636915454, 0.4116305363741328,
                  1.0425133694426776])
    assert np.sqrt(((x - -x) ** 2).sum()) > 2.0 * np.linalg.norm(x)
    _stream_both(np.vstack([x, 0.5 * x, -x]), np.arange(3), 3, [3])


class _CountsPasses:
    """numpy, with every sqrt call (one per distance pass) recorded beside the number of
    distinct store slots the open sets hold at the time."""

    def __init__(self, state, n):
        self.state, self.n, self.passes = state, n, []

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, a):
        held = self.state.slots[self.state.sizes < self.n]
        self.passes.append((len(a), len(np.unique(held[held >= 0]))))
        return np.sqrt(a)


def test_sieve_measures_each_item_once_against_the_store(monkeypatch):
    import gmcoreset.memory

    rng = np.random.default_rng(5)
    first, second = rng.standard_normal((10, 3)), rng.standard_normal((60, 3))
    labels = np.zeros(70, dtype=np.int64)
    state, n = SieveState(), 7  # sets close while the second batch streams
    memory = facility_location_update(RehearsalMemory(n), first, labels[:10], state)
    counting = _CountsPasses(state, n)
    monkeypatch.setattr(gmcoreset.memory, "np", counting)
    facility_location_update(memory, second, labels[10:], state)
    assert len(counting.passes) == len(second)
    # every pass covers exactly the stored members of the open sets, not the closed sets' own
    assert all(rows == held for rows, held in counting.passes)
    assert min(rows for rows, _ in counting.passes) < state.count
    # each admitted item is stored once
    assert state.count <= len(first) + len(second)
    assert len(np.unique(state.points[: state.count], axis=0)) == state.count


# --- shared properties ---------------------------------------------------------------


LOCAL_ARCH = nn.MlpArch(3, (6,), 4)
UPDATES = {
    "gmc": lambda m, X, y, rng, sieve: gmc_update(m, X, y, rng.standard_normal((16, len(y))))[1],
    "gmc_local": lambda m, X, y, rng, sieve: local_update(
        m, X, y, nn.init_sample(LOCAL_ARCH, 0), EmbeddingConfig(draws=1, proj_dim=24)
    ),
    "reservoir": lambda m, X, y, rng, sieve: reservoir_update(m, X, y, rng),
    "class_balance": lambda m, X, y, rng, sieve: class_balance_update(m, X, y, rng),
    "sliding_window": lambda m, X, y, rng, sieve: sliding_window_update(m, X, y),
    "facility_location": lambda m, X, y, rng, sieve: facility_location_update(m, X, y, sieve),
}


@pytest.mark.parametrize("method", sorted(UPDATES))
def test_updates_count_items_and_classes_offered(method):
    # class 2 arrives only in the first batch, so a memory may drop it while
    # the bookkeeping must keep it
    rng = np.random.default_rng(0)
    batches = [np.array([2, 0, 2, 2, 0, 2, 0]), np.array([3, 3, 0, 3, 3])]
    memory, sieve = RehearsalMemory(4), SieveState()
    for labels in batches:
        memory = UPDATES[method](memory, rng.standard_normal((len(labels), 3)), labels, rng, sieve)
    assert memory.seen == 12
    assert memory.classes_seen == (0, 2, 3)
    assert all(type(c) is int for c in memory.classes_seen)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 6),
    batch_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
)
def test_every_strategy_respects_capacity(seed, n, batch_sizes):
    rng = np.random.default_rng(seed)
    memories = {
        "reservoir": RehearsalMemory(n),
        "class_balance": RehearsalMemory(n),
        "sliding_window": RehearsalMemory(n),
        "gmc": RehearsalMemory(n),
        "gmc_local": RehearsalMemory(n),
    }
    sieve, fl_memory = SieveState(), RehearsalMemory(n)
    params = nn.init_sample(nn.MlpArch(2, (4,), 3), seed)
    for b, size in enumerate(batch_sizes):
        feats = rng.standard_normal((size, 2))
        labels = rng.integers(0, 3, size=size)
        memories["reservoir"] = reservoir_update(memories["reservoir"], feats, labels, rng)
        memories["class_balance"] = class_balance_update(
            memories["class_balance"], feats, labels, rng
        )
        memories["sliding_window"] = sliding_window_update(
            memories["sliding_window"], feats, labels
        )
        G = np.random.default_rng([seed, b]).standard_normal((8, size))
        _, memories["gmc"] = gmc_update(memories["gmc"], feats, labels, G)
        memories["gmc_local"] = local_update(
            memories["gmc_local"], feats, labels, params, EmbeddingConfig(draws=1, proj_dim=8)
        )
        fl_memory = facility_location_update(fl_memory, feats, labels, sieve)
        assert fl_memory.size <= n
        assert fl_memory.capacity == n
        for memory in memories.values():
            assert memory.size <= n
            assert memory.capacity == n
            assert len(memory.weights) == memory.size
