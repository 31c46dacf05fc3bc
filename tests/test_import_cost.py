"""No package module imports `dataclasses` or `hashlib`.

A CLI call starts a fresh interpreter and pays for every module it loads.
A frozen dataclass compiles its generated methods with exec when its class
is created (about 1 ms each), and hashlib loads OpenSSL (about 5 ms); the
package's records are NamedTuples and its cache key is zlib's CRC-32.
NumPy loads zlib itself.  CI checks the same at run time, relative to the
modules NumPy imports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensorstat"
MODULES = sorted(PACKAGE.glob("*.py"))
BANNED = {"dataclasses", "hashlib"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules `source` imports, at any depth of its syntax tree."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_checker_finds_nested_imports():
    source = "import os.path\nfrom dataclasses import dataclass\ndef f():\n    import hashlib\nfrom . import cli\n"
    assert imported_modules(source) == {"os", "dataclasses", "hashlib"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_hashlib(path):
    assert imported_modules(path.read_text()) & BANNED == set()
