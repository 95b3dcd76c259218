import numpy as np
import pytest

from gmcoreset import harness, memory as mem, nn
from gmcoreset.grad_embed import EmbeddingConfig
from gmcoreset.harness import (
    ExperimentConfig,
    aggregate_rows,
    method_embedding,
    run_gdumb,
    run_replay,
    sweep,
)
from gmcoreset.harness import _train_seed
from gmcoreset.memory import reservoir_update, RehearsalMemory
from gmcoreset.scenarios import make_class_incremental, make_sorted_scenario, synth_blobs


def tiny_config(**kwargs):
    defaults = dict(
        methods=("reservoir",),
        paradigm="gdumb",
        memory_sizes=(20,),
        seeds=(0,),
        train=nn.TrainConfig(batch_size=10, epochs=3, seed=0),
        embedding=EmbeddingConfig(draws=2, proj_dim=24),
        hidden=(8,),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture
def tiny_scenario():
    data = synth_blobs(seed=0, n_per_class=30, num_classes=3, dims=4, drift=1.5)
    return make_sorted_scenario(data, num_batches=3, seed=0)


@pytest.fixture
def single_batch_scenario():
    data = synth_blobs(seed=1, n_per_class=20, num_classes=2, dims=4)
    return make_sorted_scenario(data, num_batches=1, seed=0)


# --- retrain-from-scratch paradigm ----------------------------------------------


@pytest.mark.parametrize("method", ["reservoir", "sliding_window", "gmc"])
def test_full_capacity_single_batch_matches_plain_training(single_batch_scenario, method):
    scen = single_batch_scenario
    batch = scen.batches[0]
    config = tiny_config(methods=(method,), memory_sizes=(batch.num_examples,))
    seed = 3
    rows = run_gdumb(scen, method, batch.num_examples, config, seed)
    assert len(rows) == 1

    arch = nn.MlpArch(scen.num_features, config.hidden, scen.num_classes)
    params = nn.init_sample(arch, seed ^ 0)
    # every strategy keeps the whole batch at full capacity; for gmc the exact
    # least-squares weights against the column sum are all ones (D >= N)
    trained = nn.train(
        params, batch.features, batch.labels, np.ones(batch.num_examples),
        nn.TrainConfig(batch_size=10, epochs=3, seed=_train_seed(seed, 0)),
    )
    expected = nn.evaluate(trained, scen.test.features, scen.test.labels)
    assert rows[0].test_accuracy == pytest.approx(expected, abs=1e-12)


def test_gdumb_emits_one_row_per_task():
    data = synth_blobs(seed=2, n_per_class=40, num_classes=10, dims=6)
    scen = make_class_incremental(data, classes_per_task=2, seed=0)
    config = tiny_config()
    rows = run_gdumb(scen, "reservoir", 20, config, seed=1)
    assert [r.task_index for r in rows] == [0, 1, 2, 3, 4]
    assert all(r.paradigm == "gdumb" and r.method == "reservoir" for r in rows)
    assert all(r.wall_time > 0 for r in rows)


def test_gdumb_memory_never_exceeds_capacity(tiny_scenario, monkeypatch):
    observed = []
    original = mem.reservoir_update

    def spy(memory, feats, labels, n, rng):
        out = original(memory, feats, labels, n, rng)
        observed.append(out.size)
        return out

    monkeypatch.setattr(mem, "reservoir_update", spy)
    run_gdumb(tiny_scenario, "reservoir", 7, tiny_config(memory_sizes=(7,)), seed=0)
    assert observed and all(size <= 7 for size in observed)


def test_gdumb_accuracy_is_a_function_of_memory_and_seed(tiny_scenario):
    config = tiny_config()
    seed = 5
    rows = run_gdumb(tiny_scenario, "reservoir", 20, config, seed)

    # rebuild the memory stream independently, retrain from it and compare
    # against the recorded accuracy of the middle task
    rng = np.random.default_rng(seed)
    memory = RehearsalMemory.empty(20)
    for t in range(2):
        batch = tiny_scenario.batches[t]
        memory = reservoir_update(memory, batch.features, batch.labels, 20, rng)

    arch = nn.MlpArch(tiny_scenario.num_features, config.hidden, tiny_scenario.num_classes)
    params = nn.init_sample(arch, seed ^ 1)
    trained = nn.train(
        params, memory.features, memory.labels, memory.weights,
        nn.TrainConfig(batch_size=10, epochs=3, seed=_train_seed(seed, 1)),
    )
    accuracy = nn.evaluate(trained, tiny_scenario.test.features, tiny_scenario.test.labels)
    assert accuracy == rows[1].test_accuracy


def test_gdumb_local_matching_uses_the_previous_iterate(tiny_scenario, monkeypatch):
    seen_params = []
    original = mem.local_gmc_update

    def spy(memory, feats, labels, params, n, config):
        seen_params.append(params.flatten().copy())
        return original(memory, feats, labels, params, n, config)

    monkeypatch.setattr(mem, "local_gmc_update", spy)
    rows = run_gdumb(tiny_scenario, "gmc_local", 10, tiny_config(), seed=1)
    assert len(rows) == tiny_scenario.num_tasks
    assert len(seen_params) == tiny_scenario.num_tasks
    # the first update sees the fresh draw; later ones see trained iterates
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    assert np.array_equal(seen_params[0], nn.init_sample(arch, 1 ^ 0).flatten())
    assert np.abs(seen_params[1] - seen_params[0]).max() > 0


def test_gdumb_infeasible_memory_size_raises(tiny_scenario):
    config = tiny_config(methods=("gmc",), memory_sizes=(1000,))
    with pytest.raises(ValueError, match="embedding dimension"):
        run_gdumb(tiny_scenario, "gmc", 1000, config, seed=0)


# --- experience replay ------------------------------------------------------------


def test_replay_single_batch_equals_plain_training(single_batch_scenario):
    scen = single_batch_scenario
    config = tiny_config(paradigm="replay")
    seed = 4
    rows = run_replay(scen, "reservoir", 20, config, seed)
    assert len(rows) == 1

    arch = nn.MlpArch(scen.num_features, config.hidden, scen.num_classes)
    params = nn.init_sample(arch, seed)
    batch = scen.batches[0]
    trained = nn.train(
        params, batch.features, batch.labels, np.ones(batch.num_examples),
        nn.TrainConfig(batch_size=10, epochs=3, seed=_train_seed(seed, 0)),
    )
    expected = nn.evaluate(trained, scen.test.features, scen.test.labels)
    assert rows[0].test_accuracy == pytest.approx(expected, abs=1e-12)


def test_replay_repeated_batch_does_not_hurt():
    data = synth_blobs(seed=6, n_per_class=40, num_classes=2, dims=4)
    single = make_sorted_scenario(data, num_batches=1, seed=0)
    doubled = harness.ContinualScenario(
        [single.batches[0], single.batches[0]], single.test, "sorted"
    )
    config = tiny_config(paradigm="replay", train=nn.TrainConfig(batch_size=10, epochs=6, seed=0))
    one = run_replay(single, "reservoir", 100, config, seed=0)
    two = run_replay(doubled, "reservoir", 100, config, seed=0)
    assert two[-1].test_accuracy >= one[-1].test_accuracy - 1e-12


def test_replay_never_reinitializes_the_model(tiny_scenario, monkeypatch):
    calls = []
    original = nn.init_sample

    def spy(arch, seed):
        calls.append(seed)
        return original(arch, seed)

    monkeypatch.setattr(nn, "init_sample", spy)
    run_replay(tiny_scenario, "sliding_window", 10, tiny_config(paradigm="replay"), seed=2)
    assert len(calls) == 1  # one draw for the whole stream


def test_gdumb_reinitializes_every_task(tiny_scenario, monkeypatch):
    calls = []
    original = nn.init_sample

    def spy(arch, seed):
        calls.append(seed)
        return original(arch, seed)

    monkeypatch.setattr(nn, "init_sample", spy)
    run_gdumb(tiny_scenario, "sliding_window", 10, tiny_config(), seed=2)
    # one warm-up draw plus one fresh draw per task, seeded seed xor task
    assert calls[1:] == [2 ^ 0, 2 ^ 1, 2 ^ 2]


def test_replay_local_matching_sees_each_new_iterate(tiny_scenario, monkeypatch):
    seen_params = []
    original = mem.local_gmc_update

    def spy(memory, feats, labels, params, n, config):
        seen_params.append(params.flatten().copy())
        return original(memory, feats, labels, params, n, config)

    monkeypatch.setattr(mem, "local_gmc_update", spy)
    run_replay(tiny_scenario, "gmc_local", 10, tiny_config(paradigm="replay"), seed=0)
    assert len(seen_params) == tiny_scenario.num_tasks
    for earlier, later in zip(seen_params, seen_params[1:]):
        assert np.abs(earlier - later).max() > 0  # training moved the iterate


# --- sweeps -------------------------------------------------------------------------


def test_sweep_row_and_aggregate_counts(tiny_scenario):
    config = tiny_config(
        methods=("reservoir", "sliding_window"), memory_sizes=(10, 20), seeds=(0, 1)
    )
    result = sweep(config, tiny_scenario)
    assert len(result.rows) == 2 * 2 * 2 * 3
    assert len(result.aggregates) == 4
    assert not result.failures


def test_sweep_aggregates_match_recomputation(tiny_scenario):
    config = tiny_config(methods=("reservoir",), memory_sizes=(10,), seeds=(0, 1, 2))
    result = sweep(config, tiny_scenario)
    finals = [r.test_accuracy for r in result.rows if r.task_index == 2]
    agg = result.aggregates[0]
    assert agg.mean_final_acc == pytest.approx(np.mean(finals), abs=1e-12)
    assert agg.std_final_acc == pytest.approx(np.std(finals, ddof=1), abs=1e-12)
    assert agg.num_seeds == 3


def test_sweep_is_deterministic(tiny_scenario):
    config = tiny_config(methods=("reservoir",), memory_sizes=(10,), seeds=(0, 1))
    a = sweep(config, tiny_scenario)
    b = sweep(config, tiny_scenario)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.method, ra.memory_size, ra.seed, ra.task_index) == (
            rb.method, rb.memory_size, rb.seed, rb.task_index
        )
        assert ra.test_accuracy == rb.test_accuracy


def test_sweep_parallel_cells_match_serial(tiny_scenario):
    config = tiny_config(methods=("reservoir", "sliding_window"), memory_sizes=(10,), seeds=(0,))
    serial = sweep(config, tiny_scenario, jobs=1)
    parallel = sweep(config, tiny_scenario, jobs=2)
    assert [r.test_accuracy for r in serial.rows] == [r.test_accuracy for r in parallel.rows]


def test_sweep_records_partial_failures_and_continues(tiny_scenario, monkeypatch):
    original = mem.reservoir_update
    calls = {"count": 0}

    def flaky(memory, feats, labels, n, rng):
        calls["count"] += 1
        if calls["count"] == 2:  # fail on the second task of the first cell
            raise RuntimeError("synthetic fault")
        return original(memory, feats, labels, n, rng)

    monkeypatch.setattr(mem, "reservoir_update", flaky)
    config = tiny_config(methods=("reservoir", "sliding_window"), memory_sizes=(10,), seeds=(0,))
    result = sweep(config, tiny_scenario)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.method == "reservoir" and failure.task_index == 1
    # the failing cell kept its first row; the healthy cell has all three
    reservoir_rows = [r for r in result.rows if r.method == "reservoir"]
    window_rows = [r for r in result.rows if r.method == "sliding_window"]
    assert len(reservoir_rows) == 1 and len(window_rows) == 3


def test_aggregate_rows_skip_partial_runs(tiny_scenario):
    rows = run_gdumb(tiny_scenario, "reservoir", 10, tiny_config(memory_sizes=(10,)), 0)
    partial = rows[:-1]
    assert aggregate_rows(partial, tiny_scenario.num_tasks) == []


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        ExperimentConfig(methods=("nonsense",))
    with pytest.raises(ValueError, match="paradigm"):
        ExperimentConfig(paradigm="other")
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(seeds=(1, 1))
    with pytest.raises(ValueError, match="memory sizes must be >= 1"):
        ExperimentConfig(memory_sizes=(10, 0))
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        ExperimentConfig(seeds=(0, -1))


@pytest.mark.parametrize("method, mode", [
    ("gmc", "random_projection"), ("gmc_last_layer", "last_layer"), ("gmc_local", "random_projection"),
])
def test_each_gmc_method_pins_its_embedding_mode(method, mode):
    for configured in ("random_projection", "last_layer"):
        config = ExperimentConfig(embedding=EmbeddingConfig(mode=configured))
        assert method_embedding(config, method, seed=0).mode == mode
