"""The routes are independent only if no route module imports another.

Each route module may read the shared series base `qseries` and the
Fibonacci combinatorics, and nothing else of the package; the shared
decode helpers live in `qseries` and are re-exported by `symfun`. No module
keeps an import it does not use, and starting the CLI imports none of the
introspection modules that `dataclasses` brings in.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocksep
from blocksep import qseries, symfun

SRC = Path(blocksep.__file__).resolve().parent
SHARED = {"qseries", "fibonacci"}


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The package modules that module's relative imports name."""
    tree = parse(module)
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


def unused_imports(module: str) -> set[str]:
    """The names module's top-level imports bind that it neither reads nor exports."""
    tree = parse(module)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read - exported


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports(module) == set()


# dataclasses imports inspect, which imports ast, dis and tokenize
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cli_start_up_imports_no_introspection_modules():
    # what a fresh interpreter adds by importing the CLI and building its parser,
    # the start-up every command pays; what site preloaded before does not count
    code = ("import sys; before = set(sys.modules); import blocksep.cli as c; c.build_parser(); "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    assert "blocksep.cli" in added.split()
    assert INTROSPECTION.isdisjoint(added.split())
