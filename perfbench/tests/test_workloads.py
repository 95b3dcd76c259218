import json
import os
import shutil
import subprocess
import sys

import numpy as np
from gmcoreset import cli

from perfbench import layers, run, tracer
from perfbench.workloads import WORKLOADS, SelectWorkload, SweepWorkload, sha256_file

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = SweepWorkload(
    "tiny",
    "a few seconds of every sweep layer",
    {
        "scenario": "sorted",
        "synth_classes": 2,
        "synth_per_class": 30,
        "synth_dims": 3,
        "synth_drift": 2.0,
        "num_batches": 3,
        "paradigm": "gdumb",
        "methods": "gmc,reservoir",
        "memory_sizes": 8,
        "hidden": "4",
        "proj_dim": 8,
        "draws": 2,
        "epochs": 1,
        "batch_size": 4,
    },
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_tiny(tmp_path, seed=0, traced=False):
    prepared = TINY.prepare(seed, str(tmp_path))
    outdir = str(tmp_path / f"out{seed}")
    if not traced:
        return prepared, outdir, cli.main(TINY.argv(prepared, outdir)), None
    with tracer.Tracer(layers.tracer_modules(), layers.PROBES, layers.UNTRACED) as tr:
        rc = cli.main(TINY.argv(prepared, outdir))
    return prepared, outdir, rc, tr.spans


def test_output_check_rejects_a_one_byte_change_to_raw_csv(tmp_path):
    prepared, outdir, rc, _ = _run_tiny(tmp_path)
    reference = TINY.reference_of(outdir)
    assert TINY.check(prepared, outdir, rc, reference).ok
    path = os.path.join(outdir, "raw.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    open(path, "wb").write(bytes(data))
    outcome = TINY.check(prepared, outdir, rc, reference)
    assert not outcome.ok
    assert outcome.failed_tasks == prepared.planned_tasks
    assert not TINY.check(prepared, outdir, 1, None).ok


def test_workload_seed_changes_the_generated_inputs(tmp_path):
    a = TINY.prepare(0, str(tmp_path))
    text_a = open(a.inputs["config"]).read()
    b = TINY.prepare(1, str(tmp_path))
    assert text_a != open(b.inputs["config"]).read()
    batches = [cli.build_scenario(cli.resolve_config(cli.parse_config_text(TINY.config_text(s)), {}))
               .batches[0].features for s in (0, 1)]
    assert not np.array_equal(*batches)

    select = SelectWorkload()
    digests = []
    for seed in (0, 0, 1):
        prepared = select.prepare(seed, str(tmp_path))
        digests.append(sha256_file(prepared.inputs["csv"]))
    assert digests[0] == digests[1] != digests[2]


def test_select_check_pins_indices_and_weights(tmp_path):
    select = SelectWorkload()
    prepared = select.prepare(0, str(tmp_path))
    rows = np.arange(100) * 7
    weights = np.linspace(1.0, 2.0, 100)

    def write(w, idx=rows):
        with open(tmp_path / "coreset.csv", "w") as fh:
            fh.write("row_index,weight\n")
            fh.writelines(f"{i},{float(x)!r}\n" for i, x in zip(idx, w))

    write(weights)
    reference = select.reference_of(str(tmp_path))
    write(weights * (1 + 1e-13))
    assert select.check(prepared, str(tmp_path), 0, reference).ok
    write(weights * (1 + 1e-6))
    assert not select.check(prepared, str(tmp_path), 0, reference).ok
    write(weights, rows[::-1])
    assert not select.check(prepared, str(tmp_path), 0, reference).ok


def test_traced_call_emits_every_per_layer_metric_and_complete_counts(tmp_path):
    prepared, outdir, rc, spans = _run_tiny(tmp_path, traced=True)
    assert rc == 0 and TINY.check(prepared, outdir, rc, None).ok
    counts = layers.span_counts(spans)
    for name, want in prepared.expected_counts.items():
        assert counts.get(name, 0) == want, name
    assert prepared.expected_counts["grad_embed.embed_batch"] == 3
    metrics = layers.per_layer_metrics(spans, 0.0)
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert list(metrics) == list(spec)
    assert layers.PER_LAYER_UNITS == spec
    assert metrics["matching_pursuit.omp_calls"] == 3
    assert metrics["nn.steps"] > 0 and metrics["harness.cells"] == 2
    assert 0.0 < metrics["memory.admit_ratio"] <= 1.0
    for name in ("grad_embed.embed_s", "harness.self_s", "cli.self_s", "nn.train_self_s"):
        assert metrics[name] >= 0.0, name


def test_end_to_end_units_match_the_benchmark_spec():
    spec = _spec()
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path))
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-gdumb", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

