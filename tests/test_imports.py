"""Every name a package module imports is used in that module."""

import ast
import glob
import os

import pytest

import microcast

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(microcast.__file__), "*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_caught():
    source = "import os\nfrom typing import Callable, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == [(2, "Callable")]
