"""Every name a library module imports is used in that module.

``runner`` keeps three names it never calls: ``bench/tracing.py`` wraps
the probed builders and ``wigner`` at ``otfsim.runner``, so a module that
calls them through ``runner`` shows in the per-layer trace.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "otfsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
KEPT = {"runner.py": {"chain_matrix", "effective_matrix", "wigner"}}


def imported_and_used(tree: ast.Module):
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    imported, used = imported_and_used(ast.parse((SRC / name).read_text()))
    assert imported - used <= KEPT.get(name, set())
