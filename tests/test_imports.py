"""numpy is the package's only runtime dependency: every module of
`src/lanecast` imports only numpy, lanecast itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lanecast").glob("*.py"))
ALLOWED = {"numpy", "lanecast", *sys.stdlib_module_names}


def absolute_imports(path):
    """The top-level package of every absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "lanes.py", "optim.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert sorted(set(absolute_imports(path)) - ALLOWED) == []
