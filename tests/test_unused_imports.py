"""Every name a module of the package or a file of the tests imports is
used in that file.

`__init__.py` re-exports its imports, and `from __future__` imports switch
on language features, so neither counts.

Only `exactlin`, which holds the one JSON reader and writer, imports `json`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fproot"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    """The names bound by the imports of `source` that no expression reads."""
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


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Callable, List as L\n"
              "x: L[int] = []\n")
    assert unused_imports(source) == [(2, "os"), (3, "Callable")]


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str):
    """The top-level names of the modules that `source` imports from."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names.update(node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level)
    return {name.split(".")[0] for name in names}


def test_the_json_check_sees_every_form_of_import():
    for source in ("import json", "import json.encoder", "from json import dumps",
                   "from json.encoder import encode_basestring_ascii", "import os, json as j"):
        assert "json" in imported_modules(source), source
    assert "json" not in imported_modules("from .exactlin import dump_json, load_json")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_exactlin_imports_json(path):
    assert ("json" in imported_modules(path.read_text())) == (path.name == "exactlin.py")
