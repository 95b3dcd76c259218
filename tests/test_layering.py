"""The package's layers: embedding and selection import nothing above themselves.

Only ``harness`` combines the embedding (``grad_embed``) with
the selection rules (``memory``), and only ``memory`` reaches the solver
(``matching_pursuit``).  Each check parses a module's source, so imports
inside functions count too.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gmcoreset"
)

# module -> the package modules it may import
ALLOWED = {
    "memory": {"matching_pursuit"},
    "grad_embed": {"nn"},
    "harness": {"grad_embed", "memory", "nn", "scenarios"},
    "cli": {"grad_embed", "harness", "nn", "scenarios"},
}


def parsed(module: str, package: str = PACKAGE) -> ast.Module:
    with open(os.path.join(package, f"{module}.py")) as fh:
        return ast.parse(fh.read(), filename=f"{module}.py")


def package_imports(module: str, package: str = PACKAGE) -> set[str]:
    """The package modules ``module``'s source imports, by their names in the package."""
    found = set()
    for node in ast.walk(parsed(module, package)):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("gmcoreset.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "gmcoreset":
                continue
            # "from . import nn" and "from gmcoreset import nn" name the module last
            base = module.removeprefix("gmcoreset").lstrip(".").split(".")[0]
            found.update([base] if base else [alias.name for alias in node.names])
    return found


def test_package_imports_reads_every_import_form(tmp_path):
    source = (
        "import numpy\n"
        "from . import nn, harness as h\n"
        "from .memory import gmc_update\n"
        "from gmcoreset.scenarios import Dataset\n"
        "import gmcoreset.cli\n"
        "def late():\n"
        "    from .matching_pursuit import omp_select\n"
    )
    (tmp_path / "probe.py").write_text(source)
    assert package_imports("probe", str(tmp_path)) == {
        "nn", "harness", "memory", "scenarios", "cli", "matching_pursuit",
    }


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_the_layers_below_it(module):
    assert package_imports(module) <= ALLOWED[module]


def called_names(module: str) -> set[str]:
    """The names ``module``'s source calls, bare or as an attribute."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(parsed(module))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_only_harness_calls_both_the_embedding_and_the_selection():
    modules = [name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")]
    both = {m for m in modules if {"embed_batch", "gmc_update"} <= called_names(m)}
    assert both == {"harness"}
    assert not {"embed_batch", "gmc_update"} & called_names("cli")


def test_only_memory_imports_the_solver():
    # __init__ re-exports the solver's public names; no other layer may reach it
    modules = [name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")]
    importers = {m for m in modules if "matching_pursuit" in package_imports(m)}
    assert importers == {"__init__", "memory"}
