"""scipy's LAPACK extension loads at the first selection, never at import or in runs that
select nothing, and ``scipy.linalg`` never loads; the process pool's modules load only for
a parallel sweep, and ``numpy.ma`` not at all.

Each check runs in a fresh interpreter, so modules loaded by other tests
do not count, and reports which modules the interpreter holds.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from gmcoreset import matching_pursuit, nn
from gmcoreset.grad_embed import EmbeddingConfig
from gmcoreset.harness import ExperimentConfig, run_cell
from gmcoreset.scenarios import make_sorted_scenario, save_csv, synth_blobs, train_test_split

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "gmcoreset")

TINY_RUN = """
scenario = sorted
dataset = synthetic
synth_classes = 3
synth_per_class = 20
synth_dims = 4
num_batches = 2
memory_sizes = 6
seeds = 0
epochs = 1
hidden = 8
proj_dim = 16
draws = 1
"""


def last_line_after(script: str, cwd) -> str:
    """The last line a fresh interpreter prints when it runs ``script``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def modules_after(statements: str, cwd) -> list[str]:
    """The modules a fresh interpreter holds after running ``statements``."""
    script = f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(last_line_after(script, cwd))


def scipy_modules_after(statements: str, cwd) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``statements``."""
    return [m for m in modules_after(statements, cwd) if m.split(".")[0] == "scipy"]


def run_statements(tmp_path, methods: str, paradigm: str) -> str:
    (tmp_path / "tiny.cfg").write_text(TINY_RUN + f"methods = {methods}\nparadigm = {paradigm}\n")
    argv = ["run", "--config", "tiny.cfg", "--out", "out"]
    return f"from gmcoreset.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("module", ["gmcoreset", "gmcoreset.cli"])
def test_importing_the_package_loads_no_scipy(tmp_path, module):
    assert scipy_modules_after(f"import {module}", tmp_path) == []


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    loaded = modules_after("import gmcoreset.cli", tmp_path)
    assert "multiprocessing" not in loaded and "concurrent.futures.process" not in loaded


def test_a_run_without_gradient_matching_loads_no_scipy(tmp_path):
    statements = run_statements(tmp_path, "reservoir,class_balance,facility_location", "replay")
    assert scipy_modules_after(statements, tmp_path) == []


def loads_lapack_alone(scipy_modules: list[str]) -> bool:
    return "scipy.linalg._flapack" in scipy_modules and "scipy.linalg" not in scipy_modules


def test_a_gradient_matching_run_loads_scipys_lapack_extension_alone(tmp_path):
    assert loads_lapack_alone(scipy_modules_after(run_statements(tmp_path, "gmc", "gdumb"), tmp_path))


def select_statements(tmp_path, out: str) -> str:
    """Statements that run ``select`` on a tiny CSV in ``tmp_path``, writing ``out``."""
    data = tmp_path / "data.csv"
    if not data.exists():
        save_csv(synth_blobs(seed=0, n_per_class=10, num_classes=3, dims=4), str(data))
    argv = ["select", "data.csv", "-n", "5", "--out", out, "--label-column", "label",
            "--hidden", "8", "--proj-dim", "16", "--draws", "1"]
    return f"from gmcoreset.cli import main\nassert main({argv!r}) == 0"


def test_select_loads_scipys_lapack_extension_alone(tmp_path):
    assert loads_lapack_alone(scipy_modules_after(select_statements(tmp_path, "coreset.csv"), tmp_path))


def test_a_gradient_matching_run_and_select_load_no_numpy_ma(tmp_path):
    for statements in (run_statements(tmp_path, "gmc", "gdumb"), select_statements(tmp_path, "out.csv")):
        assert "numpy.ma" not in modules_after(statements, tmp_path)


def test_select_is_the_same_whichever_loads_lapack_first_and_loads_it_once(tmp_path):
    # select loads the extension, scipy.linalg then reuses it, and the second select
    # finds it in the cache
    misses = "from gmcoreset import matching_pursuit\nprint(matching_pursuit._lapack.cache_info().misses)"
    script = "\n".join([
        select_statements(tmp_path, "first.csv"),
        "import numpy as np, scipy.linalg",
        "x = scipy.linalg.solve_triangular(np.array([[2.0, 0.0], [1.0, 4.0]]), [2.0, 9.0], lower=True)",
        "assert x.tolist() == [1.0, 2.0]",
        select_statements(tmp_path, "second.csv"),
        misses,
    ])
    assert last_line_after(script, tmp_path) == "1"
    # scipy.linalg loads the extension, and select reuses it
    script = "\n".join(["import scipy.linalg", select_statements(tmp_path, "after_linalg.csv"), misses])
    assert last_line_after(script, tmp_path) == "1"
    first = (tmp_path / "first.csv").read_bytes()
    assert (tmp_path / "second.csv").read_bytes() == first
    assert (tmp_path / "after_linalg.csv").read_bytes() == first


def test_a_missing_lapack_extension_fails_a_gradient_matching_cell_at_its_first_task(
    tmp_path, monkeypatch
):
    import scipy

    data = synth_blobs(seed=0, n_per_class=10, num_classes=3, dims=4)
    scenario = make_sorted_scenario(*train_test_split(data, 0.2, 0), num_batches=2)
    config = ExperimentConfig(
        methods=("gmc",), paradigm="gdumb", memory_sizes=(6,), seeds=(0,),
        train=nn.TrainConfig(batch_size=10, epochs=1, seed=0),
        embedding=EmbeddingConfig(draws=1, proj_dim=16), hidden=(8,),
    )
    empty = tmp_path / "linalg"
    empty.mkdir()
    matching_pursuit._lapack.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(scipy, "__path__", [str(tmp_path)])
            rows, failure = run_cell(scenario, "gmc", 6, config, seed=0)
    finally:
        matching_pursuit._lapack.cache_clear()
    assert rows == []
    assert failure.task_index == 0
    assert failure.message == f"scipy's LAPACK extension _flapack is not in {empty}"


def import_time_imports(node):
    """Modules named by the imports that run when ``node``'s module is imported:
    those outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield child.module or ""
        else:
            yield from import_time_imports(child)


def test_no_module_imports_scipy_at_import_time():
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            offenders += [f"{name}: {module}" for module in import_time_imports(tree)
                          if module.split(".")[0] == "scipy"]
    assert offenders == []
