"""Gradient-matching coresets and rehearsal-memory baselines for continual learning."""

from .grad_embed import EmbeddingConfig, embed_batch
from .harness import ExperimentConfig, ResultRow, run_cell, sweep
from .matching_pursuit import CoresetSelection, GradientMatrix, omp_select
from .memory import (
    RehearsalMemory,
    SieveState,
    class_balance_update,
    facility_location_update,
    gmc_update,
    reservoir_update,
    sliding_window_update,
)
from .nn import AdamState, MlpArch, MlpParams, TrainConfig, evaluate, init_sample, train
from .scenarios import (
    ContinualScenario,
    Dataset,
    class_frequencies,
    load_csv,
    make_class_incremental,
    make_iid_incremental,
    make_sorted_scenario,
    synth_blobs,
    train_test_split,
)

__version__ = "0.1.0"
