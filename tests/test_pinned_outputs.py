"""A tiny `run` in both paradigms, its `report` and a tiny `select`, pinned to recorded outputs.

The files in tests/pinned/ hold the outputs of exactly these commands:
run-<paradigm>.csv is the run's raw.csv, and run-<paradigm>/ holds every
other results file of the run and of `report --memory-size 10`, with the
table `report` prints as report.txt.  manifest.txt is pinned without its
two path lines, and timings.csv, whose wall times are measured, must
equal raw.csv but for them.  The shipped configs' raw.csv at seed 0 and
memory size 50 is pinned by its sha256.
A refactor must reproduce these files byte for byte and the coreset's
rows exactly (weights within rtol 1e-9); a change meant to alter
numerics re-records the files and says why.  The run covers all seven
methods, and the replay run keeps the known gmc_local failure at seed 1,
task 1 (refit weights whose sum is negative), so it exits 1 with partial
rows.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from gmcoreset.cli import main
from gmcoreset.scenarios import save_csv, synth_blobs

PINNED = os.path.join(os.path.dirname(__file__), "pinned")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED_RAW_SHA256 = {
    "sorted": "bb0937166b681c9db7da039b93c154434e5fae3dbfc1b6deaca8667fe9a21da3",
    "iid": "ea3e2b39640bbb64182db8aa170f973fc2cd4a6e8aadac457a2859c7a2a0d8fa",
}

# At the default step size three epochs barely move the learner and most
# methods give equal rows; at 0.1 all seven differ under gdumb.
RUN_CONFIG = """
scenario = sorted
dataset = synthetic
synth_classes = 3
synth_per_class = 40
synth_dims = 4
synth_drift = 1.0
num_batches = 3
methods = gmc,gmc_last_layer,gmc_local,reservoir,class_balance,sliding_window,facility_location
memory_sizes = 10
seeds = 0,1
epochs = 3
batch_size = 10
step_size = 0.1
hidden = 8
proj_dim = 16
draws = 2
"""

SELECT_FLAGS = ["-n", "10", "--label-column", "label", "--hidden", "8",
                "--proj-dim", "16", "--draws", "2"]


PARADIGMS = ["gdumb", "replay"]
# results files pinned byte for byte in tests/pinned/run-<paradigm>/
RESULTS_FILES = [
    "class_frequencies.csv", "scenario.txt", "report_final_accuracy.csv", "report_per_task.csv",
]


def pinned(name):
    return os.path.join(PINNED, name)


def pinned_bytes(name):
    with open(pinned(name), "rb") as fh:
        return fh.read()


def run_pinned(config, paradigm, out, jobs=1):
    """`run` on the pinned configuration: its exit code and what it wrote to stderr."""
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code = main(["run", "--config", str(config), "--paradigm", paradigm,
                     "--jobs", str(jobs), "--out", str(out)])
    return code, errors.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """paradigm -> (run's exit code, results directory, what `report --memory-size 10` prints)"""
    root = tmp_path_factory.mktemp("pinned")
    config = root / "pin.cfg"
    config.write_text(RUN_CONFIG)
    outcomes = {}
    for paradigm in PARADIGMS:
        out = root / paradigm
        code, _ = run_pinned(config, paradigm, out)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["report", str(out), "--memory-size", "10"]) == 0
        outcomes[paradigm] = code, out, printed.getvalue()
    return outcomes


@pytest.mark.parametrize("paradigm, code", [("gdumb", 0), ("replay", 1)])
def test_run_reproduces_pinned_raw_csv(runs, paradigm, code):
    got, out, _ = runs[paradigm]
    assert got == code
    assert (out / "raw.csv").read_bytes() == pinned_bytes(f"run-{paradigm}.csv")


def test_parallel_replay_run_reproduces_the_serial_run(tmp_path):
    config = tmp_path / "pin.cfg"
    config.write_text(RUN_CONFIG)
    serial, parallel = (run_pinned(config, "replay", tmp_path / f"jobs{jobs}", jobs)
                        for jobs in (1, 2))
    assert serial == parallel
    code, errors = parallel
    assert code == 1
    [line] = errors.splitlines()
    assert line.startswith("cell failed: method=gmc_local memory_size=10 seed=1 task=1: ")
    assert (tmp_path / "jobs2" / "raw.csv").read_bytes() == pinned_bytes("run-replay.csv")


@pytest.mark.parametrize("name", RESULTS_FILES)
@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_run_and_report_reproduce_pinned_results_files(runs, paradigm, name):
    _, out, _ = runs[paradigm]
    assert (out / name).read_bytes() == pinned_bytes(f"run-{paradigm}/{name}")


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_report_prints_the_pinned_table(runs, paradigm):
    _, _, printed = runs[paradigm]
    assert printed.encode() == pinned_bytes(f"run-{paradigm}/report.txt")


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_manifest_reproduces_pinned_lines_but_its_paths(runs, paradigm):
    _, out, _ = runs[paradigm]
    lines = (out / "manifest.txt").read_bytes().decode().splitlines(keepends=True)
    paths = [line for line in lines if line.startswith(("# source config:", "out ="))]
    assert paths == [f"# source config: {out.parent / 'pin.cfg'}\n", f"out = {out}\n"]
    kept = "".join(line for line in lines if line not in paths)
    assert kept.encode() == pinned_bytes(f"run-{paradigm}/manifest.txt")


@pytest.mark.parametrize("paradigm", PARADIGMS)
def test_timings_equal_raw_csv_but_for_a_positive_wall_time(runs, paradigm):
    _, out, _ = runs[paradigm]
    raw = (out / "raw.csv").read_bytes().decode().splitlines()
    timings = (out / "timings.csv").read_bytes().decode().splitlines()
    assert timings[0] == raw[0] and len(timings) == len(raw)
    for timed, row in zip(timings[1:], raw[1:]):
        fields, wall_time = timed.rsplit(",", 1)
        assert fields + "," == row
        assert float(wall_time) > 0


@pytest.mark.parametrize("mode", ["random_projection", "last_layer"])
def test_select_reproduces_pinned_coreset(tmp_path, mode):
    data_path = str(tmp_path / "data.csv")
    save_csv(synth_blobs(seed=0, n_per_class=40, num_classes=3, dims=4), data_path)
    out = str(tmp_path / "coreset.csv")
    assert main(["select", data_path, "--out", out, "--embedding", mode, *SELECT_FLAGS]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    want = np.loadtxt(pinned(f"select-{mode}.csv"), delimiter=",", skiprows=1)
    assert np.array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(SHIPPED_RAW_SHA256))
def test_shipped_config_reproduces_pinned_raw_csv_hash(tmp_path, name):
    config = os.path.join(CONFIGS, f"{name}.cfg")
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--seed", "0", "--memory-sizes", "50",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "raw.csv").read_bytes()).hexdigest() == SHIPPED_RAW_SHA256[name]
