"""Benchmark runner: rehearsal paradigms over (method, memory size, seed) grids.

Two paradigms are supported.  Retrain-from-scratch ("gdumb"): after
every batch the memory is updated, the model is reinitialized and
trained on the memory alone.  Experience replay ("replay"): a single
model trains through the stream on minibatches mixed half from the
current batch and half from the memory, and the memory is updated after
each task.  Every run emits one result row per task.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import memory as mem
from . import nn
from .grad_embed import EmbeddingConfig, embed_batch, embedding_dim
from .scenarios import ContinualScenario, Dataset

METHODS = (
    "gmc",
    "gmc_last_layer",
    "gmc_local",
    "reservoir",
    "class_balance",
    "sliding_window",
    "facility_location",
)
GMC_METHODS = ("gmc", "gmc_last_layer", "gmc_local")
PARADIGMS = ("gdumb", "replay")
DEFAULT_MEMORY_SIZES = (100, 200, 500, 1000, 2000, 5000)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a scenario crossed with methods, memory sizes and seeds."""

    methods: tuple[str, ...] = ("gmc",)
    paradigm: str = "gdumb"
    memory_sizes: tuple[int, ...] = DEFAULT_MEMORY_SIZES
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    train: nn.TrainConfig = field(default_factory=nn.TrainConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    hidden: tuple[int, ...] = (128, 128)
    replay_epochs: int | None = None

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.methods or not self.memory_sizes or not self.seeds:
            raise ValueError("methods, memory_sizes and seeds must be non-empty")
        if min(self.memory_sizes) < 1:
            raise ValueError(f"memory sizes must be >= 1, got {self.memory_sizes}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")


@dataclass
class ResultRow:
    scenario: str
    paradigm: str
    method: str
    memory_size: int
    seed: int
    task_index: int
    test_accuracy: float
    wall_time: float

    def __post_init__(self):
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")


@dataclass
class AggregateRow:
    scenario: str
    paradigm: str
    method: str
    memory_size: int
    mean_final_acc: float
    std_final_acc: float
    num_seeds: int


@dataclass
class CellFailure:
    method: str
    memory_size: int
    seed: int
    task_index: int
    message: str


@dataclass
class SweepResult:
    rows: list[ResultRow]
    aggregates: list[AggregateRow]
    failures: list[CellFailure]


class PartialRunError(RuntimeError):
    """A task failed mid-run; carries the rows completed so far."""

    def __init__(self, rows: list[ResultRow], task_index: int, cause: Exception):
        super().__init__(f"task {task_index} failed: {cause}")
        self.rows = rows
        self.task_index = task_index
        self.cause = cause


def method_embedding(config: ExperimentConfig, method: str, seed: int) -> EmbeddingConfig:
    """Per-run embedding: the method pins the mode, the seed shifts the draws.

    Local matching re-embeds at the current iterate, a single draw.
    """
    emb = config.embedding
    if method == "gmc":
        emb = replace(emb, mode="random_projection")
    elif method == "gmc_last_layer":
        emb = replace(emb, mode="last_layer")
    elif method == "gmc_local":
        emb = replace(emb, mode="random_projection", draws=1)
    return replace(emb, init_seed=emb.init_seed + seed, projection_seed=emb.projection_seed + seed)


def max_memory_size(config: ExperimentConfig, method: str, arch: nn.MlpArch) -> int | None:
    """Largest feasible memory: gradient matching needs an embedding dimension D >= n."""
    if method not in GMC_METHODS:
        return None
    return embedding_dim(method_embedding(config, method, 0), arch)


def _train_seed(seed: int, task: int) -> int:
    # keep the shuffle stream distinct from the init stream of seed ^ task
    return 1_000_003 + (seed ^ task)


class Rehearsal:
    """One cell's rehearsal method: its memory, sieve state, embedding and rng.

    Building one rejects a memory size the method cannot support.
    """

    def __init__(
        self, config: ExperimentConfig, method: str, memory_size: int, arch: nn.MlpArch, seed: int
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        limit = max_memory_size(config, method, arch)
        if limit is not None and memory_size > limit:
            raise ValueError(
                f"memory size {memory_size} exceeds the embedding dimension {limit} "
                f"for method {method}; a valid selection requires D >= n"
            )
        self.method = method
        self.memory_size = memory_size
        self.arch = arch
        self.embedding = method_embedding(config, method, seed)
        self.rng = np.random.default_rng(seed)
        self.memory = mem.RehearsalMemory.empty(memory_size)
        self.sieve = mem.SieveState()

    def update(self, batch: Dataset, params: nn.MlpParams) -> mem.RehearsalMemory:
        """Offer one batch; local matching embeds at ``params``."""
        X, y, n, method = batch.features, batch.labels, self.memory_size, self.method
        if method in ("gmc", "gmc_last_layer"):
            G = embed_batch(X, y, self.arch, self.embedding)
            self.memory = mem.gmc_update(self.memory, X, y, G, n)
        elif method == "gmc_local":
            self.memory = mem.local_gmc_update(self.memory, X, y, params, n, self.embedding)
        elif method == "reservoir":
            self.memory = mem.reservoir_update(self.memory, X, y, n, self.rng)
        elif method == "class_balance":
            self.memory = mem.class_balance_update(self.memory, X, y, n, self.rng)
        elif method == "sliding_window":
            self.memory = mem.sliding_window_update(self.memory, X, y, n)
        else:
            self.sieve, self.memory = mem.facility_location_update(self.sieve, X, y, n)
        return self.memory


def run_gdumb(
    scenario: ContinualScenario,
    method: str,
    memory_size: int,
    config: ExperimentConfig,
    seed: int,
) -> list[ResultRow]:
    """Update memory, reinitialize, retrain from scratch, evaluate - per task."""
    arch = nn.MlpArch(scenario.num_features, config.hidden, scenario.num_classes)
    rehearsal = Rehearsal(config, method, memory_size, arch, seed)
    current_params = nn.init_sample(arch, seed ^ 0)
    rows: list[ResultRow] = []
    for t, batch in enumerate(scenario.batches):
        started = time.perf_counter()
        try:
            memory = rehearsal.update(batch, current_params)
            params = nn.init_sample(arch, seed ^ t)
            if memory.size:
                params = nn.train(
                    params, memory.features, memory.labels, memory.weights,
                    replace(config.train, seed=_train_seed(seed, t)),
                )
            accuracy = nn.evaluate(params, scenario.test.features, scenario.test.labels)
            current_params = params
        except Exception as exc:
            raise PartialRunError(rows, t, exc) from exc
        rows.append(ResultRow(
            scenario.kind, "gdumb", method, memory_size, seed, t,
            accuracy, time.perf_counter() - started,
        ))
    return rows


def _replay_task(params, state, batch, memory, represented, train_cfg, epochs):
    """Train on minibatches mixed half from the batch, half from memory.

    Memory examples carry their stored weights rescaled to sum to the
    number of stream items the memory stands in for, so batch and memory
    contribute in proportion to their data masses.  With an empty memory
    this reduces exactly to plain minibatch training on the batch.
    """
    if memory.size == 0:
        return nn.train_steps(
            params, state, batch.features, batch.labels,
            np.ones(batch.num_examples), train_cfg, epochs,
        )
    total = float(memory.weights.sum())
    if total <= 0.0:
        raise ValueError("memory weights sum to a non-positive value")
    scaled = memory.weights * (represented / total)
    rng = np.random.default_rng(train_cfg.seed)
    n = batch.num_examples
    half = max(1, train_cfg.batch_size // 2)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, half):
            cur = perm[start : start + half]
            pick = rng.integers(0, memory.size, size=half)
            X = np.vstack([batch.features[cur], memory.features[pick]])
            y = np.concatenate([batch.labels[cur], memory.labels[pick]])
            w = np.concatenate([np.ones(len(cur)), scaled[pick]])
            _, grads = nn.loss_and_grad(params, X, y, w)
            params, state = nn.adam_step(params, grads, state, train_cfg)
    return params, state


def run_replay(
    scenario: ContinualScenario,
    method: str,
    memory_size: int,
    config: ExperimentConfig,
    seed: int,
) -> list[ResultRow]:
    """One model trained through the stream; memory updated after each task."""
    arch = nn.MlpArch(scenario.num_features, config.hidden, scenario.num_classes)
    rehearsal = Rehearsal(config, method, memory_size, arch, seed)
    epochs = config.replay_epochs
    if epochs is None:
        epochs = max(1, config.train.epochs // scenario.num_tasks)
    params = nn.init_sample(arch, seed)
    adam = nn.AdamState.zeros(params)
    represented = 0
    rows: list[ResultRow] = []
    for t, batch in enumerate(scenario.batches):
        started = time.perf_counter()
        try:
            params, adam = _replay_task(
                params, adam, batch, rehearsal.memory, represented,
                replace(config.train, seed=_train_seed(seed, t)), epochs,
            )
            rehearsal.update(batch, params)
            accuracy = nn.evaluate(params, scenario.test.features, scenario.test.labels)
        except Exception as exc:
            raise PartialRunError(rows, t, exc) from exc
        represented += batch.num_examples
        rows.append(ResultRow(
            scenario.kind, "replay", method, memory_size, seed, t,
            accuracy, time.perf_counter() - started,
        ))
    return rows


def run_cell(
    scenario: ContinualScenario,
    method: str,
    memory_size: int,
    config: ExperimentConfig,
    seed: int,
) -> list[ResultRow]:
    runner = run_gdumb if config.paradigm == "gdumb" else run_replay
    return runner(scenario, method, memory_size, config, seed)


def _run_cell_args(args):
    return run_cell(*args)


def sweep(config: ExperimentConfig, scenario: ContinualScenario, jobs: int = 1) -> SweepResult:
    """Run the full grid; cells are independent and may run in parallel.

    Rows are sorted into a canonical order so the output is
    deterministic for a given seed set regardless of execution order;
    per-cell failures are recorded and the sweep continues.
    """
    cells = [
        (scenario, method, size, config, seed)
        for method in config.methods
        for size in config.memory_sizes
        for seed in config.seeds
    ]
    rows: list[ResultRow] = []
    failures: list[CellFailure] = []

    def collect(cell, outcome, error=None):
        _, method, size, _, seed = cell
        if error is None:
            rows.extend(outcome)
        else:
            partial = error.rows if isinstance(error, PartialRunError) else []
            task = error.task_index if isinstance(error, PartialRunError) else -1
            rows.extend(partial)
            failures.append(CellFailure(method, size, seed, task, str(error)))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_cell_args, cell) for cell in cells]
            for cell, fut in zip(cells, futures):
                try:
                    collect(cell, fut.result())
                except Exception as exc:
                    collect(cell, None, exc)
    else:
        for cell in cells:
            try:
                collect(cell, run_cell(*cell))
            except Exception as exc:
                collect(cell, None, exc)

    rows.sort(key=lambda r: (r.scenario, r.paradigm, r.method, r.memory_size, r.seed, r.task_index))
    return SweepResult(rows, aggregate_rows(rows, scenario.num_tasks), failures)


def aggregate_rows(rows: list[ResultRow], num_tasks: int) -> list[AggregateRow]:
    """Mean/std of the final-task accuracy per (method, memory size)."""
    final: dict[tuple, list[float]] = {}
    meta: dict[tuple, ResultRow] = {}
    for row in rows:
        if row.task_index == num_tasks - 1:
            key = (row.scenario, row.paradigm, row.method, row.memory_size)
            final.setdefault(key, []).append(row.test_accuracy)
            meta[key] = row
    out = []
    for key in sorted(final):
        accs = np.asarray(final[key])
        std = float(accs.std(ddof=1)) if len(accs) > 1 else 0.0
        out.append(AggregateRow(*key, float(accs.mean()), std, len(accs)))
    return out
