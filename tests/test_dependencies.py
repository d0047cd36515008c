"""The runtime stays numpy-only: every import in the package, at module
level or inside a function, names the standard library, numpy or the
package itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = Path(__file__).parent.parent / "src" / "dqmotion"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "dqmotion"}


def imported_modules(tree: ast.AST):
    """(line, top-level module) of every absolute import in `tree`;
    relative imports stay inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SOURCES.rglob("*.py")),
                         ids=lambda path: str(path.relative_to(SOURCES)))
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{path.relative_to(SOURCES)}:{line} imports {module}"
               for line, module in imported_modules(tree) if module not in ALLOWED]
    assert not foreign


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("import numpy.linalg\nfrom . import bvh\n\ndef f():\n    import scipy.linalg\n")
    assert [module for _, module in imported_modules(tree) if module not in ALLOWED] == ["scipy"]
