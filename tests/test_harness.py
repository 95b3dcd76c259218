import concurrent.futures
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmcoreset import harness, memory as mem, nn
from gmcoreset.grad_embed import EmbeddingConfig
from gmcoreset.cli import aggregate_rows
from gmcoreset.harness import (
    ExperimentConfig,
    method_embedding,
    run_cell,
    sweep,
)
from gmcoreset.harness import _train_seed
from gmcoreset.matching_pursuit import GradientMatrix
from gmcoreset.memory import (
    RehearsalMemory, SieveState, facility_location_update, reservoir_update,
)
from gmcoreset.scenarios import (
    Dataset, make_class_incremental, make_sorted_scenario, synth_blobs, train_test_split,
)

from oracles import local_gmc_update, replay_batches_per_minibatch, replay_task_by_stacking


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
    return make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=3)


@pytest.fixture
def single_batch_scenario():
    data = synth_blobs(seed=1, n_per_class=20, num_classes=2, dims=4)
    return make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=1)


# --- resources ------------------------------------------------------------------


@pytest.mark.parametrize("paradigm", harness.PARADIGMS)
@pytest.mark.parametrize("hidden", [(64, 64), (256,)])
def test_run_cell_peak_stays_within_the_learner_bound(paradigm, hidden):
    data = synth_blobs(seed=0, n_per_class=50, num_classes=4, dims=8)
    scenario = make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=2)
    config = tiny_config(paradigm=paradigm, hidden=hidden)
    arch = nn.MlpArch(scenario.num_features, hidden, scenario.num_classes)
    tracemalloc.start()
    try:
        _, failure = run_cell(scenario, "reservoir", 20, config, 0)
        assert failure is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the parameter-sized vectors the bound counts are all there at once:
    # ten in replay, which carries its Adam moments across tasks, eight in gdumb
    replay = paradigm == "replay"
    assert 8 * (10 if replay else 8) * nn.param_count(arch.layer_dims()) <= peak
    assert peak <= nn.learner_peak_bytes(
        arch, config.train.batch_size, scenario.test.num_examples, replay
    )


# --- retrain-from-scratch paradigm ----------------------------------------------


@pytest.mark.parametrize("method", ["reservoir", "sliding_window", "gmc"])
def test_full_capacity_single_batch_matches_plain_training(single_batch_scenario, method):
    scen = single_batch_scenario
    batch = scen.batches[0]
    config = tiny_config(methods=(method,), memory_sizes=(batch.num_examples,))
    seed = 3
    rows, failure = run_cell(scen, method, batch.num_examples, config, seed)
    assert failure is None
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
    scen = make_class_incremental(*train_test_split(data, 0.2, 0), classes_per_task=2)
    config = tiny_config()
    rows, failure = run_cell(scen, "reservoir", 20, config, seed=1)
    assert failure is None
    assert [r.task_index for r in rows] == [0, 1, 2, 3, 4]
    assert all(r.paradigm == "gdumb" and r.method == "reservoir" for r in rows)
    assert all(r.wall_time > 0 for r in rows)


def test_gdumb_memory_never_exceeds_capacity(tiny_scenario, monkeypatch):
    observed = []
    original = mem.reservoir_update

    def spy(memory, feats, labels, rng):
        out = original(memory, feats, labels, rng)
        observed.append(out.size)
        return out

    monkeypatch.setattr(mem, "reservoir_update", spy)
    config = tiny_config(memory_sizes=(7,))
    _, failure = run_cell(tiny_scenario, "reservoir", 7, config, seed=0)
    assert failure is None
    assert observed and all(size <= 7 for size in observed)


def test_gdumb_accuracy_is_a_function_of_memory_and_seed(tiny_scenario):
    config = tiny_config()
    seed = 5
    rows, failure = run_cell(tiny_scenario, "reservoir", 20, config, seed)
    assert failure is None

    # rebuild the memory stream independently, retrain from it and compare
    # against the recorded accuracy of the middle task
    rng = np.random.default_rng(seed)
    memory = RehearsalMemory(20)
    for t in range(2):
        batch = tiny_scenario.batches[t]
        memory = reservoir_update(memory, batch.features, batch.labels, rng)

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
    original = harness.embed_batch_at_params

    def spy(draws, feats, labels, config):
        seen_params.append(draws[0].flat.copy())
        return original(draws, feats, labels, config)

    monkeypatch.setattr(harness, "embed_batch_at_params", spy)
    rows, failure = run_cell(tiny_scenario, "gmc_local", 10, tiny_config(), seed=1)
    assert failure is None
    assert len(rows) == tiny_scenario.num_tasks
    assert len(seen_params) == tiny_scenario.num_tasks
    # the first update sees the fresh draw; later ones see trained iterates
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    assert np.array_equal(seen_params[0], nn.init_sample(arch, 1 ^ 0).flat)
    assert np.abs(seen_params[1] - seen_params[0]).max() > 0


def test_gdumb_empty_memory_evaluates_the_fresh_draw(tiny_scenario, monkeypatch):
    trained = []
    monkeypatch.setitem(
        harness.UPDATES, "reservoir",
        lambda r, X, y, learner: (None, mem.RehearsalMemory(r.memory.capacity)),
    )
    monkeypatch.setattr(nn, "train", lambda *args: trained.append(args))
    seed = 5
    rows, failure = run_cell(tiny_scenario, "reservoir", 10, tiny_config(), seed)
    assert failure is None
    assert trained == []
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    test = tiny_scenario.test
    assert [r.test_accuracy for r in rows] == [
        nn.evaluate(nn.init_sample(arch, seed ^ t), test.features, test.labels)
        for t in range(tiny_scenario.num_tasks)
    ]


def test_gdumb_infeasible_memory_size_raises(tiny_scenario):
    config = tiny_config(methods=("gmc",), memory_sizes=(1000,))
    with pytest.raises(ValueError, match="embedding dimension"):
        run_cell(tiny_scenario, "gmc", 1000, config, seed=0)


# --- experience replay ------------------------------------------------------------


def test_replay_single_batch_equals_plain_training(single_batch_scenario):
    scen = single_batch_scenario
    config = tiny_config(paradigm="replay")
    seed = 4
    rows, failure = run_cell(scen, "reservoir", 20, config, seed)
    assert failure is None
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
    single = make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=1)
    doubled = harness.ContinualScenario(
        [single.batches[0], single.batches[0]], single.test, "sorted"
    )
    config = tiny_config(paradigm="replay", train=nn.TrainConfig(batch_size=10, epochs=6, seed=0))
    one, failure = run_cell(single, "reservoir", 100, config, seed=0)
    assert failure is None
    two, failure = run_cell(doubled, "reservoir", 100, config, seed=0)
    assert failure is None
    assert two[-1].test_accuracy >= one[-1].test_accuracy - 1e-12


def test_replay_never_reinitializes_the_model(tiny_scenario, monkeypatch):
    calls = []
    original = nn.init_sample

    def spy(arch, seed):
        calls.append(seed)
        return original(arch, seed)

    monkeypatch.setattr(nn, "init_sample", spy)
    config = tiny_config(paradigm="replay")
    _, failure = run_cell(tiny_scenario, "sliding_window", 10, config, seed=2)
    assert failure is None
    assert len(calls) == 1  # one draw for the whole stream


def test_gdumb_reinitializes_every_task(tiny_scenario, monkeypatch):
    calls = []
    original = nn.init_sample

    def spy(arch, seed):
        calls.append(seed)
        return original(arch, seed)

    monkeypatch.setattr(nn, "init_sample", spy)
    _, failure = run_cell(tiny_scenario, "sliding_window", 10, tiny_config(), seed=2)
    assert failure is None
    # one warm-up draw plus one fresh draw per task, seeded seed xor task
    assert calls[1:] == [2 ^ 0, 2 ^ 1, 2 ^ 2]


def test_replay_local_matching_sees_each_new_iterate(tiny_scenario, monkeypatch):
    seen_params = []
    original = harness.embed_batch_at_params

    def spy(draws, feats, labels, config):
        seen_params.append(draws[0].flat.copy())
        return original(draws, feats, labels, config)

    monkeypatch.setattr(harness, "embed_batch_at_params", spy)
    config = tiny_config(paradigm="replay")
    _, failure = run_cell(tiny_scenario, "gmc_local", 10, config, seed=0)
    assert failure is None
    assert len(seen_params) == tiny_scenario.num_tasks
    for earlier, later in zip(seen_params, seen_params[1:]):
        assert np.abs(earlier - later).max() > 0  # training moved the iterate


def test_replay_task_leaves_params_and_state_unchanged(tiny_scenario):
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    first, second = tiny_scenario.batches[:2]
    config = nn.TrainConfig(batch_size=10, epochs=3, seed=0)
    params = nn.init_sample(arch, 0)
    state = nn.AdamState.zeros(params)
    full = reservoir_update(
        RehearsalMemory(10), first.features, first.labels, np.random.default_rng(0)
    )
    for memory in (RehearsalMemory(10), full):
        kept = params.flat.copy(), state.m.copy(), state.v.copy()
        trained, moved = harness._replay_task(params, state, second, memory, config, 2)
        assert moved.step > 0 and not np.array_equal(trained.flat, params.flat)
        for before, now in zip(kept, (params.flat, state.m, state.v)):
            assert np.array_equal(before, now)
        assert state.step == 0


def replay_memories(first):
    """Memories after the first batch, keyed by kind: none, reservoir, facility
    location, and a reservoir memory with three negative weights (every mixed
    minibatch still has a positive weight sum)."""
    reservoir = reservoir_update(
        RehearsalMemory(10), first.features, first.labels, np.random.default_rng(0)
    )
    signed = RehearsalMemory(
        capacity=10, features=reservoir.features, labels=reservoir.labels,
        weights=np.where(np.arange(10) % 4 == 1, -0.2, 1.5), seen=reservoir.seen,
    )
    sieve = facility_location_update(
        RehearsalMemory(10), first.features, first.labels, SieveState()
    )
    return {
        "empty": RehearsalMemory(10), "reservoir": reservoir,
        "facility_location": sieve, "negative-weights": signed,
    }


@pytest.mark.parametrize("batch_size", [1, 7, 10])
@pytest.mark.parametrize("kind", ["empty", "reservoir", "facility_location", "negative-weights"])
@pytest.mark.parametrize("rows", [None, 3], ids=["full-batch", "batch-shorter-than-half"])
def test_replay_task_equals_minibatches_by_stacking(tiny_scenario, batch_size, kind, rows):
    first, second = tiny_scenario.batches[:2]
    if rows is not None:
        second = Dataset(second.features[:rows], second.labels[:rows])
    memory = replay_memories(first)[kind]
    assert memory.seen == (first.num_examples if memory.size else 0)
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    config = nn.TrainConfig(step_size=0.05, batch_size=batch_size, seed=9)
    # moments from an earlier task, so the state threaded through is not all zeros
    start = nn.init_sample(arch, 2)
    params, state = harness._replay_task(
        start, nn.AdamState.zeros(start), first, RehearsalMemory(10), config, 1
    )
    got, got_state = harness._replay_task(params, state, second, memory, config, 2)
    want, want_state = replay_task_by_stacking(
        params, state, second, memory, memory.seen, config, 2
    )
    assert np.array_equal(got.flat, want.flat)
    assert np.array_equal(got_state.m, want_state.m)
    assert np.array_equal(got_state.v, want_state.v)
    assert got_state.step == want_state.step > state.step


def replayed_batches(n, m, batch_size, epochs, seed):
    """The row-index arrays ``harness._replay_task`` feeds ``nn.train_steps``
    for a batch of ``n`` rows and a memory of ``m``."""
    rng = np.random.default_rng(0)
    batch = Dataset(rng.standard_normal((n, 2)), np.zeros(n, dtype=np.int64))
    memory = RehearsalMemory(
        m, rng.standard_normal((m, 2)), np.zeros(m, dtype=np.int64), np.ones(m), seen=m
    )
    params = nn.init_sample(nn.MlpArch(2, (), 2), 0)
    fed = []

    def record(params, state, X, y, weights, config, batches):
        fed.extend(batches)
        return params, state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "train_steps", record)
        harness._replay_task(
            params, nn.AdamState.zeros(params), batch, memory,
            nn.TrainConfig(batch_size=batch_size, seed=seed), epochs,
        )
    return fed


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60), half=st.integers(1, 8), odd=st.integers(0, 1),
    m=st.integers(1, 50), epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
)
@example(n=7, half=3, odd=0, m=1, epochs=2, seed=0)
@example(n=2, half=8, odd=1, m=13, epochs=3, seed=1)
def test_replay_draws_the_stream_of_the_per_minibatch_sampler(n, half, odd, m, epochs, seed):
    got = replayed_batches(n, m, 2 * half + odd, epochs, seed)
    want = list(replay_batches_per_minibatch(n, m, half, epochs, np.random.default_rng(seed)))
    assert len(got) == len(want) == epochs * -(-n // half)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# --- the step counts the benchmark's traced spans rest on ------------------------------


def count_steps(monkeypatch, module, name):
    """Open a new count at every call of ``module.name``; count each
    ``nn.adam_step`` call in the open one."""
    steps = []
    opener, adam_step = getattr(module, name), nn.adam_step

    def opening(*args):
        steps.append(0)
        return opener(*args)

    def counting(*args):
        steps[-1] += 1
        return adam_step(*args)

    monkeypatch.setattr(module, name, opening)
    monkeypatch.setattr(nn, "adam_step", counting)
    return steps


def test_gdumb_trains_once_per_task_for_epochs_times_batches_steps(tiny_scenario, monkeypatch):
    steps = count_steps(monkeypatch, nn, "train")
    n, config = 15, tiny_config(memory_sizes=(15,))
    _, failure = run_cell(tiny_scenario, "reservoir", n, config, seed=0)
    assert failure is None
    seen = np.cumsum([b.num_examples for b in tiny_scenario.batches])
    batch, epochs = config.train.batch_size, config.train.epochs
    assert steps == [epochs * -(-min(n, s) // batch) for s in seen]


def test_replay_steps_epochs_times_minibatches_per_task(tiny_scenario, monkeypatch):
    steps = count_steps(monkeypatch, harness, "_replay_task")
    monkeypatch.setattr(nn, "train", None)  # replay never calls it
    config = tiny_config(paradigm="replay", replay_epochs=2)
    _, failure = run_cell(tiny_scenario, "reservoir", 15, config, seed=0)
    assert failure is None
    sizes = [b.num_examples for b in tiny_scenario.batches]
    batch = config.train.batch_size
    # the first task trains on the batch alone, later ones on half batch, half memory
    assert steps == [2 * -(-sizes[0] // batch)] + [2 * -(-s // (batch // 2)) for s in sizes[1:]]


def adam_steps(monkeypatch, scenario, paradigm, epochs):
    steps = count_steps(monkeypatch, harness, "run_cell")
    config = tiny_config(paradigm=paradigm, train=nn.TrainConfig(batch_size=10, epochs=epochs))
    _, failure = harness.run_cell(scenario, "reservoir", 15, config, 0)
    assert failure is None
    return steps.pop()


@pytest.mark.parametrize("paradigm", harness.PARADIGMS)
def test_zero_epochs_take_no_adam_step_in_either_paradigm(tiny_scenario, monkeypatch, paradigm):
    assert adam_steps(monkeypatch, tiny_scenario, paradigm, epochs=0) == 0


def test_replay_trains_each_task_at_least_one_epoch_below_one_epoch_per_task(
    tiny_scenario, monkeypatch
):
    # three tasks: one epoch in all floors to one per task, as three in all give
    assert tiny_scenario.num_tasks == 3
    one = adam_steps(monkeypatch, tiny_scenario, "replay", epochs=1)
    assert one == adam_steps(monkeypatch, tiny_scenario, "replay", epochs=3) > 0


def record_training_scopes(monkeypatch):
    """Patch the learner so each gradient and Adam call records which of
    ``nn.train`` / ``nn.train_steps`` are open around it."""
    open_scopes, calls = [], []

    def scoped(name, fn):
        def wrapper(*args):
            open_scopes.append(name)
            try:
                return fn(*args)
            finally:
                open_scopes.pop()
        return wrapper

    def recorded(name, fn):
        def wrapper(*args):
            calls.append((name, tuple(open_scopes)))
            return fn(*args)
        return wrapper

    for name in ("train", "train_steps"):
        monkeypatch.setattr(nn, name, scoped(name, getattr(nn, name)))
    for name in ("weighted_gradient", "adam_step"):
        monkeypatch.setattr(nn, name, recorded(name, getattr(nn, name)))
    return calls


@pytest.mark.parametrize("paradigm", ["gdumb", "replay"])
@pytest.mark.parametrize("method", ["reservoir", "facility_location", "gmc"])
def test_every_learner_step_runs_inside_the_training_loop(
    tiny_scenario, monkeypatch, paradigm, method
):
    # the benchmark attributes learner time by the nn.train / nn.train_steps spans
    calls = record_training_scopes(monkeypatch)
    if paradigm == "replay":
        monkeypatch.setattr(nn, "train", None)  # replay never calls it
    config = tiny_config(paradigm=paradigm, methods=(method,), memory_sizes=(10,))
    _, failure = harness.run_cell(tiny_scenario, method, 10, config, 0)
    assert failure is None
    names = [name for name, _ in calls]
    assert names.count("adam_step") == names.count("weighted_gradient") > 0
    outer = ("train", "train_steps") if paradigm == "gdumb" else ("train_steps",)
    assert all(scopes == outer for _, scopes in calls)


# --- sweeps -------------------------------------------------------------------------


def test_sweep_row_and_aggregate_counts(tiny_scenario):
    config = tiny_config(
        methods=("reservoir", "sliding_window"), memory_sizes=(10, 20), seeds=(0, 1)
    )
    rows, failures = sweep(config, tiny_scenario)
    assert len(rows) == 2 * 2 * 2 * 3
    assert len(aggregate_rows(rows)) == 4 * 3
    assert len([a for a in aggregate_rows(rows) if a.task_index == 2]) == 4
    assert not failures


def test_sweep_aggregates_match_recomputation(tiny_scenario):
    config = tiny_config(methods=("reservoir",), memory_sizes=(10,), seeds=(0, 1, 2))
    rows, _ = sweep(config, tiny_scenario)
    finals = [r.test_accuracy for r in rows if r.task_index == 2]
    [agg] = [a for a in aggregate_rows(rows) if a.task_index == 2]
    assert agg.mean_acc == pytest.approx(np.mean(finals), abs=1e-12)
    assert agg.std_acc == pytest.approx(np.std(finals, ddof=1), abs=1e-12)
    assert agg.num_seeds == 3


def test_sweep_is_deterministic(tiny_scenario):
    config = tiny_config(methods=("reservoir",), memory_sizes=(10,), seeds=(0, 1))
    a, _ = sweep(config, tiny_scenario)
    b, _ = sweep(config, tiny_scenario)
    for ra, rb in zip(a, b):
        assert (ra.method, ra.memory_size, ra.seed, ra.task_index) == (
            rb.method, rb.memory_size, rb.seed, rb.task_index
        )
        assert ra.test_accuracy == rb.test_accuracy


def test_sweep_parallel_cells_match_serial(tiny_scenario):
    config = tiny_config(methods=("reservoir", "sliding_window"), memory_sizes=(10,), seeds=(0,))
    serial, _ = sweep(config, tiny_scenario, jobs=1)
    parallel, _ = sweep(config, tiny_scenario, jobs=2)
    assert [r.test_accuracy for r in serial] == [r.test_accuracy for r in parallel]


class InProcessExecutor:
    """Stands in for ProcessPoolExecutor: runs each submitted cell at once, in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("methods, jobs, pools", [
    (("reservoir", "sliding_window", "class_balance"), 64, [3]),
    (("reservoir", "sliding_window", "class_balance"), 2, [2]),
    (("reservoir",), 8, []),  # a single cell runs in this process
])
def test_sweep_starts_no_more_workers_than_cells(tiny_scenario, monkeypatch, methods, jobs, pools):
    started = []

    class RecordingExecutor(InProcessExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    config = tiny_config(methods=methods, memory_sizes=(10,), seeds=(0,))
    rows, failures = sweep(config, tiny_scenario, jobs=jobs)
    assert started == pools
    assert len(rows) == len(methods) * 3 and not failures


def test_sweep_records_partial_failures_and_continues(tiny_scenario, monkeypatch):
    original = mem.reservoir_update
    calls = {"count": 0}

    def flaky(memory, feats, labels, rng):
        calls["count"] += 1
        if calls["count"] == 2:  # fail on the second task of the first cell
            raise RuntimeError("synthetic fault")
        return original(memory, feats, labels, rng)

    monkeypatch.setattr(mem, "reservoir_update", flaky)
    config = tiny_config(methods=("reservoir", "sliding_window"), memory_sizes=(10,), seeds=(0,))
    rows, failures = sweep(config, tiny_scenario)
    assert len(failures) == 1
    failure = failures[0]
    assert failure.method == "reservoir" and failure.task_index == 1
    assert failure.message == "synthetic fault"
    # the failing cell kept its first row; the healthy cell has all three
    reservoir_rows = [r for r in rows if r.method == "reservoir"]
    window_rows = [r for r in rows if r.method == "sliding_window"]
    assert len(reservoir_rows) == 1 and len(window_rows) == 3


def test_sweep_fails_a_lost_worker_process_at_task_minus_one(tiny_scenario, monkeypatch):
    lost = "A process in the process pool was terminated abruptly"

    class LosingExecutor(InProcessExecutor):
        """The sliding_window cell's worker process dies; the others run."""

        def submit(self, fn, *args):
            if args[1] != "sliding_window":
                return super().submit(fn, *args)
            future = Future()
            future.set_exception(BrokenProcessPool(lost))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LosingExecutor)
    config = tiny_config(
        methods=("reservoir", "sliding_window", "class_balance"), memory_sizes=(10,), seeds=(0,)
    )
    rows, failures = sweep(config, tiny_scenario, jobs=2)
    assert [(f.method, f.memory_size, f.seed, f.task_index, f.message)
            for f in failures] == [("sliding_window", 10, 0, -1, lost)]
    assert [(r.method, r.task_index) for r in rows] == [
        (method, t) for method in ("class_balance", "reservoir") for t in range(3)
    ]


def test_sweep_fails_a_cell_that_cannot_start_at_task_minus_one(tiny_scenario):
    # gmc's embedding dimension is 2 * 24 = 48, so it cannot hold 100 examples; reservoir can
    config = tiny_config(methods=("gmc", "reservoir"), memory_sizes=(100,), seeds=(0,))
    (serial, serial_failures), (parallel, parallel_failures) = (
        sweep(config, tiny_scenario, jobs=jobs) for jobs in (1, 2)
    )
    [failure] = serial_failures
    assert (failure.method, failure.memory_size, failure.seed, failure.task_index) == (
        "gmc", 100, 0, -1
    )
    assert "exceed the embedding dimension 48" in failure.message
    assert parallel_failures == serial_failures
    assert [(r.method, r.task_index) for r in serial] == [("reservoir", t) for t in range(3)]
    assert [r.test_accuracy for r in parallel] == [r.test_accuracy for r in serial]


def test_parallel_sweep_keeps_every_cell_after_a_failure(tiny_scenario):
    # gmc_local at size 20, seed 2 fails at task 2 (its refit weights sum below
    # zero); it is the first cell, so every later cell is still pending then
    config = tiny_config(
        paradigm="replay", methods=("gmc_local", "reservoir"), memory_sizes=(20,), seeds=(2, 0)
    )
    serial, parallel = (sweep(config, tiny_scenario, jobs=jobs) for jobs in (1, 2))

    def rows(result):
        return [(r.method, r.memory_size, r.seed, r.task_index, r.test_accuracy)
                for r in result[0]]

    def failures(result):
        return [(f.method, f.memory_size, f.seed, f.task_index, f.message)
                for f in result[1]]

    assert [failure[:4] for failure in failures(serial)] == [("gmc_local", 20, 2, 2)]
    assert len(serial[0]) == 2 + 3 * 3
    assert rows(parallel) == rows(serial)
    assert failures(parallel) == failures(serial)


def test_aggregate_rows_skip_partial_runs(tiny_scenario):
    config = tiny_config(memory_sizes=(10,))
    rows, failure = run_cell(tiny_scenario, "reservoir", 10, config, 0)
    assert failure is None
    partial = rows[:-1]
    final = tiny_scenario.num_tasks - 1
    assert [a for a in aggregate_rows(partial) if a.task_index == final] == []


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
    for epochs in (0, -1):
        with pytest.raises(ValueError, match="replay_epochs must be >= 1"):
            ExperimentConfig(replay_epochs=epochs)


@pytest.mark.parametrize("method, mode", [
    ("gmc", "random_projection"), ("gmc_last_layer", "last_layer"), ("gmc_local", "random_projection"),
])
def test_each_gmc_method_pins_its_embedding_mode(method, mode):
    for configured in ("random_projection", "last_layer"):
        config = ExperimentConfig(embedding=EmbeddingConfig(mode=configured))
        assert method_embedding(config, method, seed=0).mode == mode


# The memory update each method's UPDATES entry must reach, by its name in
# the memory module: perfbench times every update through that name.
UPDATE_NAMES = {
    "gmc": "gmc_update",
    "gmc_last_layer": "gmc_update",
    "gmc_local": "gmc_update",
    "reservoir": "reservoir_update",
    "class_balance": "class_balance_update",
    "sliding_window": "sliding_window_update",
    "facility_location": "facility_location_update",
}


@pytest.mark.parametrize("method", harness.METHODS)
def test_rehearsal_update_calls_the_memory_module_attribute(tiny_scenario, monkeypatch, method):
    calls = []
    recorded = mem.RehearsalMemory(20)
    # gmc_update returns (selection, next memory); the harness keeps the memory
    result = (None, recorded) if UPDATE_NAMES[method] == "gmc_update" else recorded
    monkeypatch.setattr(mem, UPDATE_NAMES[method], lambda *args: calls.append(args) or result)
    batch = tiny_scenario.batches[0]
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    rehearsal = harness.Rehearsal(tiny_config(methods=(method,)), method, 20, arch, seed=0)
    params = nn.init_sample(arch, 0)
    assert next(rehearsal.updates([batch], lambda: params))[1] is recorded
    assert rehearsal.memory is recorded
    assert len(calls) == 1 and calls[0][1] is batch.features and calls[0][2] is batch.labels


@pytest.mark.parametrize("method", harness.GMC_METHODS)
def test_a_gmc_update_builds_one_gradient_matrix(tiny_scenario, monkeypatch, method):
    # the update's dictionary is the only one: the embedding hands over a
    # plain array, and gmc_update stacks it with the memory's columns once
    built = []
    original = GradientMatrix.__post_init__

    def counting(self):
        built.append(self.shape)
        original(self)

    monkeypatch.setattr(GradientMatrix, "__post_init__", counting)
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    rehearsal = harness.Rehearsal(tiny_config(methods=(method,)), method, 5, arch, seed=0)
    params = nn.init_sample(arch, 0)
    offered = 0
    stream = rehearsal.updates(tiny_scenario.batches[:2], lambda: params)
    for batch in tiny_scenario.batches[:2]:
        stored = rehearsal.memory.size
        built.clear()
        next(stream)
        offered += batch.num_examples
        assert len(built) == 1
        assert built[0][1] == stored + batch.num_examples
    assert rehearsal.memory.size == 5 and rehearsal.memory.seen == offered


# --- the update stream --------------------------------------------------------------


def read_no_learner():
    raise AssertionError("an update that needs no learner called it")


def gdumb_records(scenario, method, size, seed):
    """The records of a gdumb cell's stream, with a learner that raises if called."""
    config = tiny_config(methods=(method,), memory_sizes=(size,))
    arch = nn.MlpArch(scenario.num_features, (8,), scenario.num_classes)
    return list(harness.Rehearsal(config, method, size, arch, seed).updates(
        scenario.batches, read_no_learner
    ))


@pytest.mark.parametrize("method, size", [
    *((m, 10) for m in harness.METHODS if m != "gmc_local"),
    ("gmc_last_layer", 40),  # truncates: see the test below
])
def test_a_gdumb_stream_needs_no_learner_and_is_what_run_cell_trains_on(
    tiny_scenario, monkeypatch, method, size
):
    records = gdumb_records(tiny_scenario, method, size, seed=3)
    assert len(records) == tiny_scenario.num_tasks
    assert all((selection is None) == (method not in harness.GMC_METHODS) for selection, _ in records)
    trained, train = [], nn.train
    monkeypatch.setattr(
        nn, "train", lambda params, X, y, w, cfg: trained.append((X, y, w)) or train(params, X, y, w, cfg)
    )
    config = tiny_config(methods=(method,), memory_sizes=(size,))
    rows, failure = run_cell(tiny_scenario, method, size, config, seed=3)
    assert failure is None and len(rows) == len(trained) == tiny_scenario.num_tasks
    for (X, y, weights), (_, memory) in zip(trained, records):
        assert np.array_equal(X, memory.features)
        assert np.array_equal(y, memory.labels)
        assert np.array_equal(weights, memory.weights)


@pytest.mark.parametrize("paradigm", harness.PARADIGMS)
def test_local_matching_reads_the_learner_once_per_update(tiny_scenario, monkeypatch, paradigm):
    # gdumb's update t reads the params task t - 1 trained (task 0 the fresh draw);
    # replay's reads those task t has just trained on the batch
    reads, trained = [], []
    updates, train_steps = harness.Rehearsal.updates, nn.train_steps

    def reading(self, batches, learner):
        def read():
            params = learner()
            reads.append(params.flat.copy())
            return params

        return updates(self, batches, read)

    def training(*args):
        params, state = train_steps(*args)
        trained.append(params.flat.copy())
        return params, state

    monkeypatch.setattr(harness.Rehearsal, "updates", reading)
    monkeypatch.setattr(nn, "train_steps", training)
    seed = 1
    config = tiny_config(methods=("gmc_local",), paradigm=paradigm, memory_sizes=(10,))
    rows, failure = run_cell(tiny_scenario, "gmc_local", 10, config, seed)
    assert failure is None and len(rows) == tiny_scenario.num_tasks
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    expected = [nn.init_sample(arch, seed).flat, *trained[:-1]] if paradigm == "gdumb" else trained
    assert len(reads) == len(expected) == tiny_scenario.num_tasks
    assert all(np.array_equal(read, want) for read, want in zip(reads, expected))


@pytest.mark.parametrize("paradigm", harness.PARADIGMS)
def test_an_update_raising_mid_stream_fails_its_cell_at_that_task(
    tiny_scenario, monkeypatch, paradigm
):
    # the stream passes the update's error out of next(): it neither swallows it nor
    # ends the stream, so the cell fails at that task and the sweep runs the next cell
    config = tiny_config(
        methods=("reservoir", "sliding_window"), paradigm=paradigm, memory_sizes=(10,)
    )
    healthy, _ = run_cell(tiny_scenario, "reservoir", 10, config, 0)
    original = mem.reservoir_update
    offered_before_task_2 = sum(b.num_examples for b in tiny_scenario.batches[:2])

    def failing_at_task_2(memory, feats, labels, rng):
        if memory.seen == offered_before_task_2:
            raise RuntimeError("synthetic fault at task 2")
        return original(memory, feats, labels, rng)

    monkeypatch.setattr(mem, "reservoir_update", failing_at_task_2)
    arch = nn.MlpArch(tiny_scenario.num_features, (8,), tiny_scenario.num_classes)
    stream = harness.Rehearsal(config, "reservoir", 10, arch, 0).updates(
        tiny_scenario.batches, read_no_learner
    )
    next(stream)
    next(stream)
    with pytest.raises(RuntimeError, match="^synthetic fault at task 2$"):
        next(stream)

    rows, failure = run_cell(tiny_scenario, "reservoir", 10, config, 0)
    assert [(r.task_index, r.test_accuracy) for r in rows] == [
        (r.task_index, r.test_accuracy) for r in healthy[:2]
    ]
    assert failure == harness.CellFailure("reservoir", 10, 0, 2, "synthetic fault at task 2")
    swept, failures = sweep(config, tiny_scenario)
    assert failures == [failure]
    assert [(r.method, r.task_index) for r in swept] == [
        ("reservoir", 0), ("reservoir", 1), *(("sliding_window", t) for t in range(3))
    ]


def test_a_truncating_update_carries_truncated_through_the_stream(tiny_scenario):
    # gmc_last_layer's draws span at most (k - 1)(h + 1) * draws = 2 * 9 * 2 = 36 of
    # its D = 3 * 9 * 2 = 54 dimensions, so a memory of 40 truncates once a pool
    # holds more than 36 columns
    records = gdumb_records(tiny_scenario, "gmc_last_layer", 40, seed=3)
    assert [selection.truncated for selection, _ in records] == [False, True, True]
    for selection, memory in records:
        assert memory.size == selection.size <= 36


def assert_learner_arrays(features, labels, weights):
    """The dtypes and alignment nn and memory take as given and convert no more."""
    assert (features.dtype, labels.dtype, weights.dtype) == (np.float64, np.int64, np.float64)
    assert features.ndim == 2 and labels.shape == weights.shape == (len(features),)


@pytest.mark.parametrize("paradigm", harness.PARADIGMS)
@pytest.mark.parametrize("method", harness.METHODS)
def test_every_memory_and_training_set_holds_the_learner_s_dtypes(
    tiny_scenario, monkeypatch, method, paradigm
):
    memories, training_sets = [], []
    updates, train_steps = harness.Rehearsal.updates, nn.train_steps

    def updating(self, batches, learner):
        for selection, memory in updates(self, batches, learner):
            memories.append(memory)
            yield selection, memory

    def training(params, state, X, y, weights, config, batches):
        training_sets.append((X, y, weights))
        return train_steps(params, state, X, y, weights, config, batches)

    monkeypatch.setattr(harness.Rehearsal, "updates", updating)
    monkeypatch.setattr(nn, "train_steps", training)
    config = tiny_config(methods=(method,), paradigm=paradigm, memory_sizes=(10,))
    _, failure = run_cell(tiny_scenario, method, 10, config, 0)
    assert failure is None
    assert len(memories) == tiny_scenario.num_tasks and len(training_sets) >= 2
    for memory in memories:
        assert memory.size
        assert_learner_arrays(memory.features, memory.labels, memory.weights)
    for arrays in training_sets:
        assert_learner_arrays(*arrays)


@pytest.mark.parametrize("labels, weights", [(6, 7), (5, 6)], ids=["longer-weights", "shorter-labels"])
def test_train_steps_rejects_labels_or_weights_of_another_length(labels, weights):
    # checked once over the whole arrays: a row index would cut a longer array
    # silently, and run past a shorter one
    params = nn.init_sample(nn.MlpArch(4, (8,), 2), 0)
    batches = nn.shuffled_batches(6, 3, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^batch, labels and weights must have equal length$"):
        nn.train_steps(
            params, nn.AdamState.zeros(params), np.zeros((6, 4)), np.zeros(labels, dtype=np.int64),
            np.ones(weights), nn.TrainConfig(batch_size=3), batches,
        )


LOCAL_ARCH = nn.MlpArch(3, (6,), 4)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    capacity=st.integers(1, 6),
    batch_sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
)
@example(seed=0, capacity=4, batch_sizes=[4, 3, 9])  # fills the memory exactly, then holds it full
def test_local_matching_equals_the_standalone_local_update(seed, capacity, batch_sizes):
    # UPDATES["gmc_local"] embeds in the harness and selects through
    # gmc_update; the oracle does both in one function.  Both see the same
    # iterate per update, starting from an empty memory.
    rng = np.random.default_rng(seed)
    config = EmbeddingConfig(draws=1, proj_dim=24, projection_seed=seed % 7)
    rehearsal = SimpleNamespace(memory=RehearsalMemory(capacity), embedding=config)
    expected = RehearsalMemory(capacity)
    for b, size in enumerate(batch_sizes):
        feats = rng.standard_normal((size, 3))
        labels = rng.integers(0, 4, size=size)
        params = nn.init_sample(LOCAL_ARCH, seed + b)
        rehearsal.memory = harness.UPDATES["gmc_local"](rehearsal, feats, labels, lambda: params)[1]
        expected = local_gmc_update(expected, feats, labels, params, config)
        actual = rehearsal.memory
        assert np.array_equal(actual.features, expected.features)
        assert np.array_equal(actual.labels, expected.labels)
        assert np.array_equal(actual.weights, expected.weights)
        assert (actual.seen, actual.classes_seen) == (expected.seen, expected.classes_seen)
        assert actual.embeddings is None and actual.target is None
        assert actual.capacity == capacity
