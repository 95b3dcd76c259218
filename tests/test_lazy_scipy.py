"""scipy loads at the first selection, never at import or in runs that select nothing;
the process pool's modules load only for a parallel sweep.

Each check runs in a fresh interpreter, so modules loaded by other tests
do not count, and reports which modules the interpreter holds.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from gmcoreset.scenarios import save_csv, synth_blobs

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


def modules_after(statements: str, cwd) -> list[str]:
    """The modules a fresh interpreter holds after running ``statements``."""
    script = f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


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


def test_a_gradient_matching_run_loads_scipy(tmp_path):
    assert "scipy.linalg" in scipy_modules_after(run_statements(tmp_path, "gmc", "gdumb"), tmp_path)


def test_select_loads_scipy(tmp_path):
    save_csv(synth_blobs(seed=0, n_per_class=10, num_classes=3, dims=4), str(tmp_path / "data.csv"))
    argv = ["select", "data.csv", "-n", "5", "--out", "coreset.csv", "--label-column", "label",
            "--hidden", "8", "--proj-dim", "16", "--draws", "1"]
    statements = f"from gmcoreset.cli import main\nassert main({argv!r}) == 0"
    assert "scipy.linalg" in scipy_modules_after(statements, tmp_path)


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
