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
