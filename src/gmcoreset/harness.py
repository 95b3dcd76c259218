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
from dataclasses import dataclass, field, replace

import numpy as np

from . import memory as mem
from . import nn
from .grad_embed import EmbeddingConfig, embed_batch, embed_batch_at_params, embedding_dim
from .scenarios import ContinualScenario, Dataset

# What each gradient-matching method pins of the run's embedding; local
# matching re-embeds at the current iterate, a single draw.
GMC_PINS = {
    "gmc": {"mode": "random_projection"},
    "gmc_last_layer": {"mode": "last_layer"},
    "gmc_local": {"mode": "random_projection", "draws": 1},
}
GMC_METHODS = tuple(GMC_PINS)


def _matched(r: Rehearsal, X, y, p):
    return mem.gmc_update(r.memory, X, y, embed_batch(X, y, r.arch, r.embedding))[1]


def _matched_locally(r: Rehearsal, X, y, p):
    """Embed the stored examples and the batch at ``p`` and match their whole column sum;
    the next memory keeps neither columns nor target, so nothing is cached across updates."""
    m = r.memory.size
    features, labels = mem._stack_examples(r.memory, X, y)
    columns = embed_batch_at_params([p], features, labels, r.embedding)
    stored = replace(r.memory, embeddings=columns[:, :m], target=None)
    _, matched = mem.gmc_update(stored, X, y, columns[:, m:])
    matched.embeddings = matched.target = None
    return matched


# How each method offers a batch (X, y) to a Rehearsal r; local matching
# embeds at the learner's params p.  Each entry looks its update up in
# ``memory`` when called, so a rebound module attribute is the one that runs.
UPDATES = {
    "gmc": _matched,
    "gmc_last_layer": _matched,
    "gmc_local": _matched_locally,
    "reservoir": lambda r, X, y, p: mem.reservoir_update(r.memory, X, y, r.rng),
    "class_balance": lambda r, X, y, p: mem.class_balance_update(r.memory, X, y, r.rng),
    "sliding_window": lambda r, X, y, p: mem.sliding_window_update(r.memory, X, y),
    "facility_location": lambda r, X, y, p: mem.facility_location_update(r.memory, X, y, r.sieve),
}
METHODS = tuple(UPDATES)
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
        for name in ("methods", "memory_sizes", "seeds"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must be distinct")
        if not self.methods or not self.memory_sizes or not self.seeds:
            raise ValueError("methods, memory_sizes and seeds must be non-empty")
        if min(self.memory_sizes) < 1:
            raise ValueError(f"memory sizes must be >= 1, got {self.memory_sizes}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {self.seeds}")
        if self.replay_epochs is not None and self.replay_epochs < 1:
            raise ValueError(f"replay_epochs must be >= 1, got {self.replay_epochs}")


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
class CellFailure:
    method: str
    memory_size: int
    seed: int
    task_index: int
    message: str


def method_embedding(config: ExperimentConfig, method: str, seed: int) -> EmbeddingConfig:
    """Per-run embedding: the method pins what ``GMC_PINS`` says, the seed shifts the draws."""
    emb = replace(config.embedding, **GMC_PINS.get(method, {}))
    return replace(emb, init_seed=emb.init_seed + seed, projection_seed=emb.projection_seed + seed)


def feasible_memory_sizes(
    config: ExperimentConfig, arch: nn.MlpArch, requested: tuple[int, ...] = ()
) -> tuple[int, ...]:
    """Memory sizes every method can hold: gradient matching needs an embedding dimension D >= n.

    Returns ``requested``, or when it is empty the defaults up to the smallest D
    of the gradient-matching methods; a requested size above that D raises.
    ``gmc_last_layer``'s output delta sums to zero over the k classes, so
    each draw, k(h + 1) rows for a last hidden width h, spans at most
    (k - 1)(h + 1) dimensions; a memory above that rank truncates.
    """
    limit = min(
        (embedding_dim(method_embedding(config, m, 0), arch)
         for m in config.methods if m in GMC_METHODS),
        default=float("inf"),
    )
    bad = [size for size in requested if size > limit]
    if bad:
        raise ValueError(
            f"memory sizes {bad} exceed the embedding dimension {limit}; "
            f"gradient matching requires D >= n"
        )
    sizes = tuple(requested) or tuple(s for s in DEFAULT_MEMORY_SIZES if s <= limit)
    if not sizes:
        raise ValueError(f"no default memory size is feasible for embedding dimension {limit}")
    return sizes


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
        feasible_memory_sizes(replace(config, methods=(method,)), arch, (memory_size,))
        self.method = method
        self.arch = arch
        self.embedding = method_embedding(config, method, seed)
        self.rng = np.random.default_rng(seed)
        self.memory = mem.RehearsalMemory(memory_size)
        self.sieve = mem.SieveState()

    def update(self, batch: Dataset, params: nn.MlpParams) -> mem.RehearsalMemory:
        """Offer one batch through ``UPDATES``; local matching embeds at ``params``."""
        self.memory = UPDATES[self.method](self, batch.features, batch.labels, params)
        return self.memory


def _replay_task(params, state, batch, memory, train_cfg, epochs):
    """``nn.train_steps`` on minibatches mixed half from the batch, half from memory.

    Each epoch cuts a shuffle of the batch into halves of ``batch_size``,
    each joined by as many memory rows drawn with replacement.  Memory
    weights are rescaled to sum to ``memory.seen``, the stream items the
    memory stands in for, so batch and memory count by their data masses.
    An empty memory gives plain minibatch training on the batch.
    """
    rng = np.random.default_rng(train_cfg.seed)
    n, m = batch.num_examples, memory.size
    if m == 0:
        batches = nn.shuffled_batches(n, train_cfg.batch_size, epochs, rng)
        return nn.train_steps(
            params, state, batch.features, batch.labels, np.ones(n), train_cfg, batches
        )
    total = float(memory.weights.sum())
    if total <= 0.0:
        raise ValueError("memory weights sum to a non-positive value")
    half = max(1, train_cfg.batch_size // 2)
    full, rest = divmod(n, half)

    def mixed():
        # an epoch's shuffle, then its memory draws in one call: the same
        # stream as one draw of ``half`` rows per minibatch
        for perm in nn.shuffled_batches(n, n, epochs, rng):
            drawn = n + rng.integers(0, m, size=(full + (rest > 0), half))
            yield from np.concatenate([perm[: full * half].reshape(full, half), drawn[:full]], axis=1)
            if rest:
                yield np.concatenate([perm[full * half :], drawn[full]])

    return nn.train_steps(
        params, state,
        np.vstack([batch.features, memory.features]),
        np.concatenate([batch.labels, memory.labels]),
        np.concatenate([np.ones(n), memory.weights * (memory.seen / total)]),
        train_cfg, mixed(),
    )


def run_cell(
    scenario: ContinualScenario,
    method: str,
    memory_size: int,
    config: ExperimentConfig,
    seed: int,
) -> tuple[list[ResultRow], CellFailure | None]:
    """One (method, memory size, seed) cell of ``config.paradigm``: a row per completed task,
    and the ``CellFailure`` of the task that raised, or None.

    A cell that cannot start, such as one whose memory size the method cannot hold, raises.
    """
    arch = nn.MlpArch(scenario.num_features, config.hidden, scenario.num_classes)
    rehearsal = Rehearsal(config, method, memory_size, arch, seed)
    epochs = config.replay_epochs or max(1, config.train.epochs // scenario.num_tasks)
    params = nn.init_sample(arch, seed)  # gdumb's first draw, seed ^ 0, is replay's only one
    # replay's Adam moments carry over from task to task; gdumb's nn.train starts afresh
    adam = None if config.paradigm == "gdumb" else nn.AdamState.zeros(params)
    rows: list[ResultRow] = []
    for t, batch in enumerate(scenario.batches):
        started = time.perf_counter()
        train_cfg = replace(config.train, seed=_train_seed(seed, t))
        try:
            if config.paradigm == "gdumb":
                memory = rehearsal.update(batch, params)
                params = nn.init_sample(arch, seed ^ t)
                if memory.size:
                    params = nn.train(
                        params, memory.features, memory.labels, memory.weights, train_cfg
                    )
            else:
                params, adam = _replay_task(
                    params, adam, batch, rehearsal.memory, train_cfg, epochs
                )
                rehearsal.update(batch, params)
            accuracy = nn.evaluate(params, scenario.test.features, scenario.test.labels)
        except Exception as exc:
            return rows, CellFailure(method, memory_size, seed, t, str(exc))
        rows.append(ResultRow(
            scenario.kind, config.paradigm, method, memory_size, seed, t,
            accuracy, time.perf_counter() - started,
        ))
    return rows, None


def sweep(
    config: ExperimentConfig, scenario: ContinualScenario, jobs: int = 1
) -> tuple[list[ResultRow], list[CellFailure]]:
    """Run the full grid: its cells' rows and failures, as ``run_cell`` returns one cell's.

    Cells are independent and may run in parallel; at most
    min(jobs, number of cells) worker processes start.  Rows are
    sorted into a canonical order so the output is deterministic for a
    given seed set regardless of execution order; per-cell failures are
    recorded and the sweep continues.
    """
    cells = [
        (scenario, method, size, config, seed)
        for method in config.methods
        for size in config.memory_sizes
        for seed in config.seeds
    ]
    rows: list[ResultRow] = []
    failures: list[CellFailure] = []

    def collect(cell, result):
        """Add the rows and failure ``result()`` returns; a cell that could not start, or
        whose worker process was lost, fails at task -1."""
        try:
            done, failure = result()
        except Exception as error:
            _, method, size, _, seed = cell
            done, failure = [], CellFailure(method, size, seed, -1, str(error))
        rows.extend(done)
        if failure:
            failures.append(failure)

    workers = min(jobs, len(cells))
    if workers > 1:
        # imported here: multiprocessing costs a serial run's start-up about 30 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, *cell) for cell in cells]
            for cell, fut in zip(cells, futures):
                collect(cell, fut.result)
    else:
        for cell in cells:
            collect(cell, lambda: run_cell(*cell))

    rows.sort(key=lambda r: (r.scenario, r.paradigm, r.method, r.memory_size, r.seed, r.task_index))
    return rows, failures
