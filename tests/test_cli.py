import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset import cli, harness, nn, scenarios
from gmcoreset.cli import ConfigError, main, parse_config_text, resolve_config
from gmcoreset.grad_embed import EmbeddingConfig
from gmcoreset.harness import _train_seed, method_embedding, run_cell
from gmcoreset.scenarios import (
    Dataset, make_sorted_scenario, save_csv, standardize_features, synth_blobs, train_test_split,
)


MINIMAL_CONFIG = """
# desk-scale smoke configuration
scenario = sorted
dataset = synthetic
synth_classes = 3
synth_per_class = 25
synth_dims = 4
synth_drift = 1.0
num_batches = 3
methods = reservoir
memory_sizes = 15
seeds = 0
epochs = 2
batch_size = 10
hidden = 8
proj_dim = 16
draws = 2
"""


def write_config(tmp_path, text=MINIMAL_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_blob_csv(tmp_path, seed=0, n_per_class=20, classes=2, dims=4):
    data = synth_blobs(seed=seed, n_per_class=n_per_class, num_classes=classes, dims=dims)
    path = tmp_path / "data.csv"
    save_csv(data, str(path))
    return str(path), data


# --- configuration parsing -----------------------------------------------------


def test_parse_flat_config():
    values = parse_config_text("a = 1\n# comment\nb= x,y # trailing\n\n")
    assert values == {"a": "1", "b": "x,y"}


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("not a kv line")


def test_resolve_rejects_unknown_keys_listing_all():
    with pytest.raises(ConfigError) as err:
        resolve_config({"zzz": "1", "aaa": "2", "epochs": "5"}, {})
    assert "aaa" in str(err.value) and "zzz" in str(err.value)


def test_overrides_beat_file_values_beat_defaults():
    cfg = resolve_config({"epochs": "7", "draws": "3"}, {"draws": "9"})
    assert cfg["epochs"] == 7          # file beats default
    assert cfg["draws"] == 9           # flag beats file
    assert cfg["batch_size"] == 100    # default


def test_schema_defaults_are_the_dataclass_defaults():
    config = cli.experiment_config(resolve_config({}, {}))
    assert config == harness.ExperimentConfig(memory_sizes=harness.DEFAULT_MEMORY_SIZES)


# --- select ----------------------------------------------------------------------


def test_select_full_size_keeps_every_row(tmp_path):
    path, data = write_blob_csv(tmp_path)
    out = str(tmp_path / "coreset.csv")
    code = main([
        "select", path, "-n", str(data.num_examples), "--out", out,
        "--label-column", "label", "--proj-dim", "16", "--draws", "4", "--hidden", "8",
    ])
    assert code == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    assert sorted(int(r[0]) for r in rows) == list(range(data.num_examples))


def test_select_rejects_size_beyond_embedding_dim(tmp_path, capsys):
    path, _ = write_blob_csv(tmp_path)
    code = main([
        "select", path, "-n", "33", "--out", str(tmp_path / "x.csv"),
        "--label-column", "label", "--proj-dim", "8", "--draws", "4",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "D >= n" in err and "32" in err


def test_select_rejects_size_beyond_dataset_size(tmp_path, capsys):
    path, data = write_blob_csv(tmp_path)  # 40 rows, D = 4 * 16 = 64 >= 41
    code = main([
        "select", path, "-n", str(data.num_examples + 1), "--out", str(tmp_path / "x.csv"),
        "--label-column", "label", "--proj-dim", "16", "--draws", "4", "--hidden", "8",
    ])
    assert code == 2
    assert f"dataset size {data.num_examples}" in capsys.readouterr().err


def test_select_rejects_empty_coreset_before_embedding(tmp_path, capsys, monkeypatch):
    path, _ = write_blob_csv(tmp_path)
    monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    code = main([
        "select", path, "-n", "0", "--out", str(tmp_path / "x.csv"), "--label-column", "label",
    ])
    assert code == 2
    assert "memory sizes must be >= 1" in capsys.readouterr().err


def test_select_rejects_single_class_before_embedding(tmp_path, capsys, monkeypatch):
    path, _ = write_blob_csv(tmp_path, classes=1)
    monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    out = tmp_path / "x.csv"
    code = main([
        "select", path, "-n", "2", "--out", str(out), "--label-column", "label",
        "--hidden", "8", "--proj-dim", "16", "--draws", "2",
    ])
    assert code == 2
    assert "single class" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out, message", [
    (".", "is a directory"), ("missing/coreset.csv", "does not exist"),
], ids=["directory", "missing-parent"])
def test_select_unwritable_out_exits_two_before_embedding(tmp_path, capsys, monkeypatch, out, message):
    path, _ = write_blob_csv(tmp_path)
    monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    code = main([
        "select", path, "-n", "2", "--out", str(tmp_path / out), "--label-column", "label",
        "--hidden", "8", "--proj-dim", "16", "--draws", "2",
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_select_rejects_an_embedding_beyond_physical_memory_before_embedding(
    tmp_path, capsys, monkeypatch
):
    # 1e11 draws pass the D >= n check; never run such a config unpatched
    path, _ = write_blob_csv(tmp_path)
    monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    out = tmp_path / "x.csv"
    code = main([
        "select", path, "-n", "2", "--out", str(out), "--label-column", "label",
        "--hidden", "8", "--proj-dim", "16", "--draws", "100000000000",
    ])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--init-seed", "--proj-seed"])
def test_select_rejects_negative_seed(tmp_path, capsys, flag):
    path, _ = write_blob_csv(tmp_path)
    code = main([
        "select", path, "-n", "3", "--out", str(tmp_path / "x.csv"),
        "--label-column", "label", flag, "-1",
    ])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_select_output_reproduces_first_task_accuracy(tmp_path):
    # feed the select output into a weighted training run and compare with the
    # retrain-from-scratch harness on the same single batch and seeds
    from gmcoreset.harness import ExperimentConfig, run_cell

    data = synth_blobs(seed=3, n_per_class=25, num_classes=2, dims=4)
    scen = make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=1)
    batch = scen.batches[0]
    seed = 2
    config = ExperimentConfig(
        methods=("gmc",), memory_sizes=(10,), seeds=(seed,),
        train=nn.TrainConfig(batch_size=10, epochs=3, seed=0),
        embedding=EmbeddingConfig(draws=2, proj_dim=16), hidden=(8,),
    )
    rows, failure = run_cell(scen, "gmc", 10, config, seed)
    assert failure is None

    csv_path = tmp_path / "batch.csv"
    save_csv(Dataset(batch.features, batch.labels), str(csv_path))
    emb = method_embedding(config, "gmc", seed)
    out = str(tmp_path / "sel.csv")
    code = main([
        "select", str(csv_path), "-n", "10", "--out", out, "--no-standardize",
        "--proj-dim", "16", "--draws", "2", "--hidden", "8",
        "--init-seed", str(emb.init_seed), "--proj-seed", str(emb.projection_seed),
    ])
    assert code == 0
    picked = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    idx = np.array([int(r[0]) for r in picked])
    weights = np.array([float(r[1]) for r in picked])

    arch = nn.MlpArch(4, (8,), 2)
    params = nn.init_sample(arch, seed ^ 0)
    trained = nn.train(
        params, batch.features[idx], batch.labels[idx], weights,
        nn.TrainConfig(batch_size=10, epochs=3, seed=_train_seed(seed, 0)),
    )
    accuracy = nn.evaluate(trained, scen.test.features, scen.test.labels)
    assert accuracy == rows[0].test_accuracy


def test_select_notes_a_coreset_smaller_than_asked(tmp_path, capsys):
    # three distinct rows, each repeated ten times: no fourth independent gradient
    distinct = synth_blobs(seed=0, n_per_class=1, num_classes=3, dims=4)
    path = tmp_path / "repeated.csv"
    save_csv(Dataset(np.tile(distinct.features, (10, 1)), np.tile(distinct.labels, 10)), str(path))
    out = str(tmp_path / "coreset.csv")
    code = main([
        "select", str(path), "-n", "5", "--out", out,
        "--hidden", "8", "--proj-dim", "16", "--draws", "2",
    ])
    assert code == 0
    assert len(open(out).read().strip().splitlines()) == 1 + 3
    assert "wrote 3 of the 5 rows asked for" in capsys.readouterr().err


def test_select_fails_loudly_when_gradient_norms_overflow(tmp_path, capsys):
    # unstandardized features of drift 1e200 give gradients whose squared norms overflow
    path = tmp_path / "data.csv"
    save_csv(synth_blobs(seed=0, n_per_class=25, num_classes=3, dims=4, drift=1e200), str(path))
    out = tmp_path / "coreset.csv"
    code = main([
        "select", str(path), "-n", "5", "--out", str(out), "--no-standardize",
        "--label-column", "label", "--hidden", "8", "--proj-dim", "16", "--draws", "2",
    ])
    assert code == 1
    assert "column norms overflow" in capsys.readouterr().err
    assert not out.exists()


def test_select_rejects_a_feature_whose_mean_overflows_before_embedding(
    tmp_path, capsys, monkeypatch
):
    # values near 1e306 are finite, but 400 of them sum past the float64 range
    rng = np.random.default_rng(0)
    path = tmp_path / "huge.csv"
    save_csv(Dataset(1e306 * (1.0 + rng.random((400, 3))), np.arange(400) % 2), str(path))
    monkeypatch.setattr(cli, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    out = tmp_path / "coreset.csv"
    code = main([
        "select", str(path), "-n", "5", "--out", str(out), "--standardize",
        "--label-column", "label", "--hidden", "8", "--proj-dim", "16", "--draws", "2",
    ])
    assert code == 2
    assert "error: feature 0's mean or spread overflows" in capsys.readouterr().err
    assert not out.exists()


def test_select_reads_a_csv_named_synthetic(tmp_path, monkeypatch):
    # run's dataset key names the built-in generator "synthetic"; select's argument is a path
    data = synth_blobs(seed=0, n_per_class=10, num_classes=2, dims=4)
    save_csv(data, str(tmp_path / "synthetic"))
    monkeypatch.chdir(tmp_path)
    code = main([
        "select", "synthetic", "-n", str(data.num_examples), "--out", "coreset.csv",
        "--label-column", "label", "--proj-dim", "16", "--draws", "4", "--hidden", "8",
    ])
    assert code == 0
    rows = [line.split(",") for line in open("coreset.csv").read().strip().splitlines()[1:]]
    assert sorted(int(r[0]) for r in rows) == list(range(data.num_examples))


def test_select_standardizes_into_one_new_array(tmp_path, monkeypatch):
    built = []

    def recording(*datasets):
        standardized = standardize_features(*datasets)
        built.append(len(standardized))
        return standardized

    monkeypatch.setattr(scenarios, "standardize_features", recording)
    path, _ = write_blob_csv(tmp_path)
    out = str(tmp_path / "coreset.csv")
    assert main(["select", path, "-n", "5", "--out", out, "--proj-dim", "16"]) == 0
    assert built == [1]  # the CSV's rows, with no second array of them thrown away


def test_select_missing_file_is_a_usage_error(tmp_path, capsys):
    code = main(["select", str(tmp_path / "nope.csv"), "-n", "3", "--out", "o.csv"])
    assert code == 2


# --- run -------------------------------------------------------------------------


def test_run_minimal_config_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == [
        "class_frequencies.csv", "manifest.txt", "raw.csv", "scenario.txt", "timings.csv",
    ]
    raw = open(os.path.join(out, "raw.csv")).read().splitlines()
    assert raw[0] == cli.RAW_HEADER
    assert len(raw) == 1 + 3  # header + one row per task


def test_run_replay_paradigm(tmp_path):
    cfg = write_config(tmp_path, MINIMAL_CONFIG + "\nreplay_epochs = 2\n")
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out, "--paradigm", "replay"]) == 0
    raw = open(os.path.join(out, "raw.csv")).read()
    assert "sorted,replay,reservoir,15,0," in raw
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "paradigm = replay" in manifest and "replay_epochs = 2" in manifest


def test_scenario_manifest_records_kind_seed_and_sizes(tmp_path):
    # later lines override MINIMAL_CONFIG's: 200 examples, 160 of them cut into 4 batches
    cfg = write_config(tmp_path, MINIMAL_CONFIG + (
        "synth_per_class = 50\nsynth_classes = 4\nsynth_dims = 5\nsynth_drift = 1.0\n"
        "data_seed = 7\nnum_batches = 4\n"
    ))
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    text = open(os.path.join(out, "scenario.txt")).read()
    assert "kind = sorted" in text
    assert "seed = 7" in text
    assert "batch_sizes = 40,40,40,40" in text
    assert "test_size = 40" in text


def test_run_fails_loudly_when_gradient_norms_overflow(tmp_path, capsys):
    text = MINIMAL_CONFIG.replace("methods = reservoir", "methods = gmc")
    cfg = write_config(tmp_path, text.replace("synth_drift = 1.0", "synth_drift = 1e200")
                       + "standardize = false\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "cell failed: method=gmc memory_size=15 seed=0 task=0: " in err
    assert "column norms overflow" in err


def test_run_fails_loudly_when_the_adam_second_moment_overflows(tmp_path, capsys):
    # reservoir embeds nothing, so the first overflow is in the learner's Adam step
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("synth_drift = 1.0", "synth_drift = 1e200")
                       + "standardize = false\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "cell failed: method=reservoir memory_size=15 seed=0 task=0: " in err
    assert "Adam second moment overflows" in err


def test_run_fails_loudly_when_facility_location_distances_overflow(tmp_path, capsys):
    text = MINIMAL_CONFIG.replace("methods = reservoir", "methods = facility_location")
    cfg = write_config(tmp_path, text.replace("synth_drift = 1.0", "synth_drift = 1e300")
                       + "standardize = false\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "cell failed: method=facility_location memory_size=15 seed=0 task=0: " in err
    assert "facility location distances overflow" in err


def test_run_rejects_a_feature_whose_spread_overflows_before_any_cell(
    tmp_path, capsys, monkeypatch
):
    # standardize is on: feature 0's spread overflows, and dividing by it would zero the feature
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("synth_drift = 1.0", "synth_drift = 1e300")
                       + "standardize = true\n")
    out = tmp_path / "o"
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "error: feature 0's mean or spread overflows" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_key_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL_CONFIG + "\nbogus_key = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_run_malformed_config_line_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL_CONFIG + "epochs 5\n")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err
    assert not out.exists()


def test_run_override_is_recorded_in_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out, "--memory-sizes", "5,10"]) == 0
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "memory_sizes = 5,10" in manifest
    raw = open(os.path.join(out, "raw.csv")).read()
    assert ",5,0," in raw and ",10,0," in raw


def test_run_is_reproducible_from_its_manifest(tmp_path):
    cfg = write_config(tmp_path)
    first = str(tmp_path / "first")
    assert main(["run", "--config", cfg, "--out", first]) == 0
    again = str(tmp_path / "again")
    manifest = os.path.join(first, "manifest.txt")
    assert main(["run", "--config", manifest, "--out", again]) == 0
    assert (
        open(os.path.join(first, "raw.csv")).read()
        == open(os.path.join(again, "raw.csv")).read()
    )


@pytest.mark.parametrize("extra, flags", [
    ("", []),
    ("paradigm = replay\nreplay_epochs = 2\nstep_size = 0.01\nstandardize = false\n",
     ["--seed", "0", "--memory-sizes", "5,10"]),
    ("scenario = class_incremental\nclasses_per_task = 1\ntest_fraction = 0.3\n",
     ["--method", "reservoir, sliding_window", "--jobs", "1"]),
])
@pytest.mark.parametrize("out_name", ["results", "run 1 = a;b,c"])
def test_every_manifest_reads_back_to_the_resolved_config(tmp_path, extra, flags, out_name):
    cfg = write_config(tmp_path, MINIMAL_CONFIG + extra)
    out = str(tmp_path / out_name)
    assert main(["run", "--config", cfg, "--out", out, *flags]) == 0
    with open(os.path.join(out, "manifest.txt")) as fh:
        from_manifest = resolve_config(parse_config_text(fh.read()), {})
    args = cli.build_parser().parse_args(["run", "--config", cfg, "--out", out, *flags])
    with open(cfg) as fh:
        assert from_manifest == cli.resolve_args(args, parse_config_text(fh.read()))


@pytest.mark.parametrize("value", ["runs/run#1", "runs/a\nb", "runs/a\rb", "runs/a\x0cb", "runs/a "])
def test_a_value_the_manifest_cannot_hold_exits_two_at_both_entry_points(tmp_path, capsys, value):
    # parse_config_text cuts a line at '#', splits it at a line break and strips
    # the value, so such a value would not read back from manifest.txt
    out = tmp_path / value
    assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    assert "would not read back from the manifest" in capsys.readouterr().err
    assert not glob.glob(str(tmp_path / "runs*"))
    path, _ = write_blob_csv(tmp_path)
    assert main(["select", path, "-n", "3", "--label-column", "label", "--out", str(out)]) == 2
    assert "would not read back from the manifest" in capsys.readouterr().err


def test_run_infeasible_memory_size_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("reservoir", "gmc"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--memory-sizes", "64"])
    assert code == 2
    assert "D >= n" in capsys.readouterr().err


def test_run_out_that_is_a_file_exits_two_before_any_cell(tmp_path, capsys, monkeypatch):
    out = tmp_path / "taken"
    out.write_text("")
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_run_rejects_single_class_data_before_any_cell(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("synth_classes = 3", "synth_classes = 1"))
    out = tmp_path / "o"
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", "--config", cfg, "--out", str(out), "--method", "gmc,reservoir"]) == 2
    assert cli.SINGLE_CLASS in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["gmc", "gmc_last_layer"])
def test_run_rejects_an_embedding_beyond_physical_memory_before_any_cell(
    tmp_path, capsys, monkeypatch, method
):
    # 1e11 draws pass the D >= n check; never run such a config unpatched.
    # (gmc_local pins a single draw, so the key does not reach it.)
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("draws = 2", "draws = 100000000000"))
    out = tmp_path / "o"
    for module in (cli, harness):
        monkeypatch.setattr(module, "embed_batch", lambda *a, **k: pytest.fail("embedded"))
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", "--config", cfg, "--out", str(out), "--method", f"reservoir,{method}"]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_model_beyond_physical_memory_before_any_cell(tmp_path, capsys, monkeypatch):
    # hidden 100000,100000 has about 1e10 parameters: never run such a config unpatched
    cfg = write_config(tmp_path, MINIMAL_CONFIG.replace("hidden = 8", "hidden = 100000,100000"))
    out = tmp_path / "o"
    monkeypatch.setattr(harness, "sweep", lambda *a, **k: pytest.fail("a cell ran"))
    assert main(["run", "--config", cfg, "--out", str(out), "--method", "reservoir"]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, flags, message", [
    ("", ["--memory-sizes", "0"], "memory sizes must be >= 1"),
    ("", ["--seed", "-1"], "seeds must be >= 0"),
    ("init_seed = -1\n", [], "init_seed and projection_seed must be >= 0"),
    ("proj_seed = -1\n", [], "init_seed and projection_seed must be >= 0"),
    ("", ["--jobs", "0"], "jobs must be >= 1"),
    ("", ["--jobs", "-2"], "jobs must be >= 1"),
    ("paradigm = replay\nreplay_epochs = 0\n", [], "replay_epochs must be >= 1"),
    ("paradigm = replay\nreplay_epochs = -1\n", [], "replay_epochs must be >= 1"),
    ("step_size = nan\n", [], "step_size must be positive and finite"),
    ("step_size = inf\n", [], "step_size must be positive and finite"),
    ("step_size = -1\n", [], "step_size must be positive and finite"),
    ("", ["--method", "reservoir,reservoir"], "methods must be distinct"),
    ("", ["--memory-sizes", "10,10"], "memory_sizes must be distinct"),
    ("scenario = class_incremental\nclasses_per_task = 0\n", [],
     "classes_per_task must be >= 1"),
    ("test_fraction = inf\n", [], "test fraction must lie in (0, 1)"),
    ("sort_feature = -99\n", [], "feature index -99 out of range"),
    ("num_batches = 0\n", [], "num_batches must be >= 1"),
], ids=["memory-size-0", "seed-minus-1", "init-seed-minus-1", "proj-seed-minus-1",
        "jobs-0", "jobs-minus-2", "replay-epochs-0", "replay-epochs-minus-1",
        "step-size-nan", "step-size-inf", "step-size-minus-1",
        "duplicate-methods", "duplicate-memory-sizes", "classes-per-task-0",
        "test-fraction-inf", "sort-feature-minus-99", "num-batches-0"])
def test_run_rejects_out_of_range_values_up_front(tmp_path, capsys, line, flags, message):
    cfg = write_config(tmp_path, MINIMAL_CONFIG + line)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_the_embedding_key(tmp_path, capsys):
    # each gmc method fixes its own embedding mode, so the key would be ignored
    cfg = write_config(tmp_path, MINIMAL_CONFIG + "embedding = last_layer\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "embedding" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--embedding", "last_layer"])
    assert exc.value.code == 2


# MINIMAL_CONFIG has hidden 8, 3 classes, proj_dim 16 and 2 draws, so D is 32
# projected, 2 * (3 * 8 + 3) = 54 on the last layer, and 16 for local
# matching's single draw
@pytest.mark.parametrize("method, dim", [("gmc", 32), ("gmc_last_layer", 54), ("gmc_local", 16)])
def test_memory_size_beyond_embedding_dim_is_rejected_at_both_entry_points(
    tmp_path, capsys, method, dim
):
    cfg_path = write_config(tmp_path)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--method", method, "--memory-sizes", str(dim + 1)])
    assert code == 2
    assert f"embedding dimension {dim};" in capsys.readouterr().err

    cfg = resolve_config(parse_config_text(MINIMAL_CONFIG), {"methods": method})
    with pytest.raises(ValueError, match=f"embedding dimension {dim};"):
        run_cell(cli.build_scenario(cfg), method, dim + 1, cli.experiment_config(cfg), seed=0)

    # select has no mode of local matching
    modes = {"gmc": "random_projection", "gmc_last_layer": "last_layer"}
    if method in modes:
        path, _ = write_blob_csv(tmp_path, n_per_class=20, classes=3)
        code = main(["select", path, "-n", str(dim + 1), "--out", str(tmp_path / "x.csv"),
                     "--label-column", "label", "--embedding", modes[method],
                     "--hidden", "8", "--proj-dim", "16", "--draws", "2"])
        assert code == 2
        assert f"embedding dimension {dim};" in capsys.readouterr().err


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_resolves_and_is_feasible(path):
    with open(path) as fh:
        cfg = resolve_config(parse_config_text(fh.read(), path), {})
    scenario = cli.build_scenario(cfg)
    config = cli.experiment_config(cfg)
    arch = nn.MlpArch(scenario.num_features, config.hidden, scenario.num_classes)
    sizes = harness.feasible_memory_sizes(config, arch, cfg["memory_sizes"])
    assert sizes == cfg["memory_sizes"]


@pytest.mark.parametrize("kind", ["sorted", "class_incremental", "iid_incremental"])
def test_build_scenario_splits_once(tmp_path, kind):
    path, _ = write_blob_csv(tmp_path)
    overrides = {"scenario": kind, "dataset": path, "classes_per_task": "1", "data_seed": "3"}
    cfg = resolve_config(parse_config_text(MINIMAL_CONFIG), overrides)
    scenario = cli.build_scenario(cfg)
    train, test = standardize_features(
        *train_test_split(cli.load_dataset(cfg), cfg["test_fraction"], cfg["data_seed"])
    )
    assert np.array_equal(scenario.test.features, test.features)
    assert np.array_equal(scenario.test.labels, test.labels)

    def sorted_rows(parts):
        rows = np.vstack([np.column_stack([p.features, p.labels]) for p in parts])
        return rows[np.lexsort(rows.T)]

    assert np.array_equal(sorted_rows(scenario.batches), sorted_rows([train]))
    other = cli.build_scenario({**cfg, "data_seed": 4})
    assert not np.array_equal(other.test.features, scenario.test.features)


def test_run_default_memory_sizes_are_restricted_to_feasible(tmp_path):
    text = MINIMAL_CONFIG.replace("memory_sizes = 15\n", "").replace(
        "methods = reservoir", "methods = gmc"
    ).replace("seeds = 0", "seeds = 0\nepochs = 1")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out, "--proj-dim", "64"]) == 0
    manifest = open(os.path.join(out, "manifest.txt")).read()
    # D = 2 * 64 = 128, so only the smallest default size survives
    assert "memory_sizes = 100\n" in manifest


# --- report -----------------------------------------------------------------------


@pytest.fixture
def finished_run(tmp_path):
    cfg = write_config(
        tmp_path, MINIMAL_CONFIG.replace("seeds = 0", "seeds = 0,1,2,3,4")
    )
    out = str(tmp_path / "results")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    return out


def test_report_aggregates_over_seeds(finished_run):
    assert main(["report", finished_run]) == 0
    lines = open(os.path.join(finished_run, "report_final_accuracy.csv")).read().splitlines()
    assert lines[0] == cli.AGG_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[2] == "reservoir" and fields[6] == "5"

    raw = cli.read_raw_csv(os.path.join(finished_run, "raw.csv"))
    finals = [r.test_accuracy for r in raw if r.task_index == 2]
    assert float(fields[4]) == pytest.approx(np.mean(finals), abs=1e-12)
    assert float(fields[5]) == pytest.approx(np.std(finals, ddof=1), abs=1e-12)


def test_report_per_task_table(finished_run):
    assert main(["report", finished_run, "--memory-size", "15"]) == 0
    lines = open(os.path.join(finished_run, "report_per_task.csv")).read().splitlines()
    assert len(lines) == 1 + 3  # one line per task
    assert lines[1].split(",")[4] == "0"


def test_report_unknown_memory_size_exits_two(finished_run, capsys):
    assert main(["report", finished_run, "--memory-size", "16"]) == 2
    err = capsys.readouterr().err
    assert "memory size 16 is not in" in err and err.rstrip().endswith("holds sizes 15")
    assert not os.path.exists(os.path.join(finished_run, "report_per_task.csv"))


def test_report_out_that_is_a_file_exits_two(finished_run, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["report", finished_run, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def write_results(out, raw_lines, num_batches):
    """A results directory holding only raw.csv and the scenario.txt ``report`` reads."""
    os.makedirs(out)
    with open(os.path.join(out, "raw.csv"), "w") as fh:
        fh.write(cli.RAW_HEADER + "\n" + "".join(line + "\n" for line in raw_lines))
    with open(os.path.join(out, "scenario.txt"), "w") as fh:
        fh.write(f"kind = sorted\nnum_batches = {num_batches}\n")


def test_report_needs_raw_csv_and_scenario_txt(tmp_path, capsys):
    out = str(tmp_path / "fake")
    write_results(out, ["sorted,gdumb,reservoir,10,0,0,0.75,"], num_batches=1)
    assert main(["report", out]) == 0
    assert sorted(os.listdir(out)) == [
        "raw.csv", "report_final_accuracy.csv", "report_per_task.csv", "scenario.txt"
    ]
    for name in ("report_final_accuracy.csv", "report_per_task.csv"):
        os.remove(os.path.join(out, name))
    os.remove(os.path.join(out, "scenario.txt"))
    assert main(["report", out]) == 1
    assert "scenario.txt" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["raw.csv"]


def test_report_std_of_identical_accuracies_is_zero(tmp_path):
    out = str(tmp_path / "fake")
    write_results(out, [f"sorted,gdumb,reservoir,10,{seed},0,0.75," for seed in range(3)], 1)
    assert main(["report", out]) == 0
    line = open(os.path.join(out, "report_final_accuracy.csv")).read().splitlines()[1]
    assert line.split(",")[4] == "0.75" and line.split(",")[5] == "0.0"


def test_report_table_marks_a_cell_without_a_final_row(tmp_path, capsys):
    out = str(tmp_path / "fake")
    lines = []
    for seed in range(2):
        lines.append(f"sorted,gdumb,gmc,10,{seed},0,0.5,")
        lines.append(f"sorted,gdumb,gmc,10,{seed},1,0.75,")
        lines.append(f"sorted,gdumb,gmc,20,{seed},0,0.5,")  # failed at task 1
    write_results(out, lines, num_batches=2)
    assert main(["report", out]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "final accuracy, sorted scenario, gdumb (2 seeds)"
    assert table[1].split() == ["method", "10", "20"]
    assert table[2].split() == ["gmc", "0.750±0.000", "failed"]


def test_report_marks_failed_when_one_seed_stops_before_the_final_task(tmp_path, capsys):
    out = str(tmp_path / "fake")
    lines = [
        f"sorted,gdumb,reservoir,10,{seed},{task},0.5," for seed in range(3) for task in range(2)
    ]
    for seed in (0, 2):
        lines += [f"sorted,gdumb,gmc,10,{seed},{task},0.75," for task in range(2)]
    lines.append("sorted,gdumb,gmc,10,1,0,0.5,")  # failed at task 1
    write_results(out, lines, num_batches=2)
    assert main(["report", out]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "final accuracy, sorted scenario, gdumb (3 seeds)"
    assert table[2].split() == ["gmc", "failed"]
    assert table[3].split() == ["reservoir", "0.500±0.000"]
    # the CSV keeps the mean of the seeds that finished, with their count
    final = open(os.path.join(out, "report_final_accuracy.csv")).read().splitlines()
    assert final[1:] == ["sorted,gdumb,gmc,10,0.75,0.0,2", "sorted,gdumb,reservoir,10,0.5,0.0,3"]


def test_report_marks_failed_when_every_cell_stops_before_the_final_task(tmp_path, capsys):
    # raw.csv alone reads like a finished 2-task run; scenario.txt says there were 3
    out = str(tmp_path / "fake")
    write_results(out, [
        f"sorted,gdumb,gmc,10,{seed},{task},0.75," for seed in range(2) for task in range(2)
    ], num_batches=3)
    assert main(["report", out]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[2].split() == ["gmc", "failed"]
    final = open(os.path.join(out, "report_final_accuracy.csv")).read()
    assert final == cli.AGG_HEADER + "\n"
    assert len(open(os.path.join(out, "report_per_task.csv")).read().splitlines()) == 1 + 2


FINAL_TASK = 2


@settings(max_examples=60, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(
            st.sampled_from(["gdumb", "replay"]), st.sampled_from(["gmc", "reservoir"]),
            st.sampled_from([10, 20]), st.integers(0, 4),
        ),
        # a cell's accuracy after each task it completed; a short list stopped early
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=FINAL_TASK + 1),
        min_size=1,
    ),
    order=st.randoms(use_true_random=False),
)
def test_aggregate_rows_match_numpy_over_any_row_order_and_seeds(cells, order):
    rows = [
        harness.ResultRow("sorted", paradigm, method, size, seed, task, accuracy, 0.0)
        for (paradigm, method, size, seed), accuracies in cells.items()
        for task, accuracy in enumerate(accuracies)
    ]
    order.shuffle(rows)
    aggregates = cli.aggregate_rows(rows)
    keys = {(r.scenario, r.paradigm, r.method, r.memory_size, r.task_index) for r in rows}
    assert [a[:5] for a in aggregates] == sorted(keys)
    for a in aggregates:
        accuracies = [
            r.test_accuracy for r in rows
            if (r.paradigm, r.method, r.memory_size, r.task_index)
            == (a.paradigm, a.method, a.memory_size, a.task_index)
        ]
        assert a.num_seeds == len(accuracies)
        assert a.mean_acc == np.mean(accuracies)
        assert a.std_acc == (np.std(accuracies, ddof=1) if len(accuracies) > 1 else 0.0)
        if a.task_index == FINAL_TASK:  # a cell that stopped before it adds no row
            assert a.num_seeds == sum(
                len(accuracies) > FINAL_TASK for key, accuracies in cells.items()
                if key[:3] == (a.paradigm, a.method, a.memory_size)
            )


def test_report_missing_input_exits_one(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing")]) == 1
