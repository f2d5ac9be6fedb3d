"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treeseg"
# gating keeps aggregate importable because perfbench/test_perfbench.py rebinds gating.aggregate
ALLOWED = {("gating", "aggregate")}


def unused_imports(path: Path) -> list[str]:
    """Names the module at ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_no_unused_import(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in ALLOWED]
    assert not unused, f"{path.name} imports {unused} and never uses them"


# Each module imports only modules before it in this order, so the package has
# no import cycle and each layer can be read without the ones after it.
LAYERS = ("errors", "seeding", "hierarchy", "distances", "losses", "evaluation", "gating", "training", "synth", "experiment", "cli")


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports by a relative import, anywhere in it."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            modules.update([node.module] if node.module else [alias.name for alias in node.names])
    return {name.split(".")[0] for name in modules}


def test_the_layer_order_names_every_module():
    assert set(LAYERS) == {p.stem for p in SRC.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_earlier_layers(name):
    later = sorted(package_imports(SRC / f"{name}.py") - set(LAYERS[: LAYERS.index(name)]))
    assert not later, f"{name} imports {later}, which are not before it in {LAYERS}"
