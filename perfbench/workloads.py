"""The benchmark's workloads: inputs from a seed, one CLI call, its output check.

Every workload maps the benchmark seed onto the data seed, the sweep
seed list and the embedding seeds, runs with ``jobs = 1``, and drives
the program only through ``gmcoreset.cli.main``.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

SELECT_SIZE = 100
SELECT_ROWS_PER_CLASS = 1000
SELECT_CLASSES = 4
SELECT_DIMS = 8
SELECT_DRAWS = 4  # the CLI default; the select call below passes no --draws
WEIGHT_RTOL = 1e-9  # BLAS thread counts move the refit weights by ~1e-13


@dataclass
class Prepared:
    """A workload's inputs for one seed and what a correct call must produce."""

    seed: int
    planned_tasks: int  # result rows of one call: cells x tasks, or 1 for select
    examples: int  # stream examples x cells, or CSV rows
    expected_counts: dict[str, int]  # span name -> calls in one traced call
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    failed_tasks: int
    message: str = ""


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SweepWorkload:
    """``gmcoreset run`` on a synthetic stream; checked by the sha256 of raw.csv."""

    def __init__(self, name: str, why: str, settings: dict):
        self.name, self.why, self.settings = name, why, settings

    def config_text(self, seed: int) -> str:
        values = {
            **self.settings,
            "dataset": "synthetic",
            "data_seed": seed,
            "seeds": seed,
            "init_seed": seed,
            "proj_seed": seed,
            "jobs": 1,
        }
        return "".join(f"{key} = {value}\n" for key, value in values.items())

    def prepare(self, seed: int, workdir: str) -> Prepared:
        from gmcoreset import cli, harness

        path = os.path.join(workdir, f"{self.name}.cfg")
        text = self.config_text(seed)
        with open(path, "w") as fh:
            fh.write(text)
        cfg = cli.resolve_config(cli.parse_config_text(text, path), {})
        if cfg["jobs"] != 1:
            raise ValueError("the benchmark runs every sweep with jobs = 1")
        scenario = cli.build_scenario(cfg)
        methods = cfg["methods"]
        cells = len(methods) * len(cfg["memory_sizes"]) * len(cfg["seeds"])
        tasks = scenario.num_tasks
        per_method = len(cfg["memory_sizes"]) * len(cfg["seeds"]) * tasks
        embedded = sum(m in ("gmc", "gmc_last_layer") for m in methods) * per_method
        projected = methods.count("gmc") * per_method
        matched = sum(m in harness.GMC_METHODS for m in methods) * per_method
        gdumb = cfg["paradigm"] == "gdumb"
        return Prepared(
            seed=seed,
            planned_tasks=cells * tasks,
            examples=cells * sum(b.num_examples for b in scenario.batches),
            expected_counts={
                "harness.run_cell": cells,
                "grad_embed.embed_batch": embedded,
                "grad_embed.sign_projection": projected * cfg["draws"],
                "matching_pursuit.omp_select": matched,
                "nn.train": cells * tasks if gdumb else 0,
            },
            inputs={"config": path, "tasks": tasks},
        )

    def argv(self, prepared: Prepared, outdir: str) -> list[str]:
        return ["run", "--config", prepared.inputs["config"], "--out", outdir]

    def _rows(self, outdir: str) -> list[dict]:
        with open(os.path.join(outdir, "raw.csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def reference_of(self, outdir: str) -> str:
        return sha256_file(os.path.join(outdir, "raw.csv"))

    def check(self, prepared: Prepared, outdir: str, rc: int, reference) -> Outcome:
        planned = prepared.planned_tasks
        if rc != 0:
            return Outcome(False, planned, f"exit code {rc}")
        digest = self.reference_of(outdir)
        if reference is not None and digest != reference:
            return Outcome(False, planned, f"raw.csv sha256 {digest} != reference {reference}")
        rows = len(self._rows(outdir))
        if rows != planned:
            return Outcome(False, planned, f"raw.csv has {rows} rows, expected {planned}")
        return Outcome(True, 0)

    def quality(self, prepared: Prepared, outdir: str) -> float:
        """Mean final-task test accuracy over the sweep's cells."""
        last = str(prepared.inputs["tasks"] - 1)
        accs = [float(r["test_accuracy"]) for r in self._rows(outdir) if r["task_index"] == last]
        return float(np.mean(accs))


class SelectWorkload:
    """``gmcoreset select`` at CLI defaults on a synthetic CSV."""

    name = "select-offline"
    why = (
        "one-shot selection on a large dictionary (D = 8000, n/N = 1/40); embedding "
        "sets the time and the memory peak, no training runs"
    )

    def prepare(self, seed: int, workdir: str) -> Prepared:
        from gmcoreset import scenarios

        data = scenarios.synth_blobs(seed, SELECT_ROWS_PER_CLASS, SELECT_CLASSES, SELECT_DIMS)
        path = os.path.join(workdir, "select.csv")
        scenarios.save_csv(data, path)
        return Prepared(
            seed=seed,
            planned_tasks=1,
            examples=data.num_examples,
            expected_counts={
                "harness.run_cell": 0,
                "grad_embed.embed_batch": 1,
                "grad_embed.sign_projection": SELECT_DRAWS,
                "matching_pursuit.omp_select": 1,
                "nn.train": 0,
            },
            inputs={"csv": path, "data": data},
        )

    def argv(self, prepared: Prepared, outdir: str) -> list[str]:
        seed = str(prepared.seed)
        return [
            "select", prepared.inputs["csv"], "-n", str(SELECT_SIZE),
            "--out", os.path.join(outdir, "coreset.csv"),
            "--init-seed", seed, "--proj-seed", seed,
        ]

    def _coreset(self, outdir: str) -> tuple[np.ndarray, np.ndarray]:
        with open(os.path.join(outdir, "coreset.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return (
            np.array([int(r["row_index"]) for r in rows], dtype=np.int64),
            np.array([float(r["weight"]) for r in rows]),
        )

    def reference_of(self, outdir: str) -> dict:
        indices, weights = self._coreset(outdir)
        return {"indices": indices.tolist(), "weights": [float(w) for w in weights]}

    def check(self, prepared: Prepared, outdir: str, rc: int, reference) -> Outcome:
        if rc != 0:
            return Outcome(False, 1, f"exit code {rc}")
        indices, weights = self._coreset(outdir)
        n_rows = prepared.examples
        if (
            len(indices) != SELECT_SIZE
            or len(np.unique(indices)) != len(indices)
            or indices.min() < 0
            or indices.max() >= n_rows
            or not np.all(np.isfinite(weights))
        ):
            return Outcome(False, 1, "coreset.csv is not 100 distinct rows with finite weights")
        if reference is not None:
            if indices.tolist() != reference["indices"]:
                return Outcome(False, 1, "selected row indices differ from the reference")
            want = np.asarray(reference["weights"])
            if not np.allclose(weights, want, rtol=WEIGHT_RTOL, atol=0.0):
                worst = float(np.max(np.abs(weights - want) / np.abs(want)))
                return Outcome(False, 1, f"weights differ from the reference by {worst:.3e} (rel)")
        return Outcome(True, 0)

    def quality(self, prepared: Prepared, outdir: str) -> float:
        """Accuracy on every CSV row of an MLP trained on the weighted coreset."""
        from gmcoreset import nn, scenarios

        data = prepared.inputs["data"]
        data, _ = scenarios.standardize_features(data, data)
        indices, weights = self._coreset(outdir)
        arch = nn.MlpArch(data.num_features, (128, 128), data.num_classes)
        params = nn.train(
            nn.init_sample(arch, prepared.seed),
            data.features[indices], data.labels[indices], weights,
            nn.TrainConfig(batch_size=10, epochs=50, seed=prepared.seed),
        )
        return nn.evaluate(params, data.features, data.labels)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "stream-gdumb",
            "streaming re-selection on a small dictionary (D = 1024, n/N about 1/2); "
            "OMP dominates the gmc cell, the reservoir cell is almost pure learner",
            {
                "scenario": "sorted",
                "synth_classes": 4,
                "synth_per_class": 625,
                "synth_dims": 8,
                "synth_drift": 2.0,
                "num_batches": 10,
                "paradigm": "gdumb",
                "methods": "gmc,reservoir",
                "memory_sizes": 200,
                "hidden": "32,32",
                "proj_dim": 256,
                "draws": 4,
                "epochs": 20,
                "batch_size": 10,
            },
        ),
        SelectWorkload(),
        SweepWorkload(
            "replay-baselines",
            "learner step loop and baseline memory updates with no embedding or OMP "
            "call: the bypass workload for selection and embedding changes",
            {
                "scenario": "class_incremental",
                "synth_classes": 10,
                "synth_per_class": 250,
                "synth_dims": 8,
                "synth_drift": 0.0,
                "classes_per_task": 2,
                "paradigm": "replay",
                "methods": "reservoir,class_balance,facility_location",
                "memory_sizes": 200,
                "hidden": "32,32",
                "epochs": 20,
                "batch_size": 10,
            },
        ),
    )
}
