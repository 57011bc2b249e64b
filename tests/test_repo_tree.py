"""Git tracks sources only: no build, cache or benchmark output is committed."""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# bytecode, packaging and build trees, test caches, and the benchmark's result files
ARTEFACT = re.compile(r"(^|/)(__pycache__|build|[^/]*\.egg-info|\.hypothesis|\.pytest_cache)/"
                      r"|\.pyc$|^perfbench/out/")


@pytest.mark.parametrize("path, artefact", [
    ("src/blocksep/__pycache__/cli.cpython-311.pyc", True), ("tests/x.pyc", True),
    ("src/blocksep.egg-info/PKG-INFO", True), ("build/lib/blocksep/cli.py", True),
    ("perfbench/out/run.json", True), (".hypothesis/examples/x", True),
    (".pytest_cache/v/cache/nodeids", True), ("src/blocksep/cli.py", False),
    ("perfbench/run.py", False), ("tests/build_helpers.py", False),
])
def test_the_pattern_names_each_artefact(path, artefact):
    assert bool(ARTEFACT.search(path)) == artefact


def test_no_build_artefact_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                            timeout=60)
    if listed.returncode != 0:
        pytest.skip(f"git ls-files failed: {listed.stderr.decode().strip()}")
    assert [path for path in listed.stdout.decode().split("\0") if ARTEFACT.search(path)] == []
