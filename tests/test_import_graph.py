"""The routes are independent only if no route module imports another.

Each route module may read the shared series base `qseries` and the
Fibonacci combinatorics, and nothing else of the package; the shared
decode helpers live in `qseries` and are re-exported by `symfun`.
"""

import ast
from pathlib import Path

import pytest

import blocksep
from blocksep import qseries, symfun

SRC = Path(blocksep.__file__).resolve().parent
SHARED = {"qseries", "fibonacci"}


def package_imports(module: str) -> set[str]:
    """The package modules that module's relative imports name."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import a, b
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["transfer", "recurrence", "symfun", "bruteforce"])
def test_route_imports_only_shared_modules(module):
    assert package_imports(module) <= SHARED, module


def test_decode_helpers_are_the_shared_ones():
    assert symfun.SlotOverflowError is qseries.SlotOverflowError
    assert symfun.max_block_count is qseries.max_block_count is blocksep.max_block_count
