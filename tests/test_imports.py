"""numpy is the package's only runtime dependency: every module of
`src/lanecast` imports only numpy, lanecast itself and the standard library.
And `fileio` is the one module that decides how a file is written or a JSON
document read."""

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


# what writes a file or reads a JSON document, as `module.name`
FILE_ACCESS = {"json.load", "json.loads", "os.open", "os.fdopen", "os.replace"}


def file_access(path):
    """Each use in `path` of tempfile or of a FILE_ACCESS name, and each
    `open` call but a binary read ("rb")."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name == "tempfile")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if node.module == "tempfile" or name in FILE_ACCESS:
                    yield name
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if f"{node.value.id}.{node.attr}" in FILE_ACCESS:
                yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not (modes and isinstance(modes[0], ast.Constant) and modes[0].value == "rb"):
                yield "open"


def test_fileio_writes_and_reads_json():
    fileio = next(path for path in SOURCES if path.name == "fileio.py")
    assert set(file_access(fileio)) == {"json.loads", "os.open", "os.fdopen", "os.replace", "open"}


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "fileio.py"],
                         ids=lambda path: path.name)
def test_only_fileio_writes_or_reads_json(path):
    assert list(file_access(path)) == []
