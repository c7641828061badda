"""tools/bench_point.py unpacks the revision it measures against, HEAD^ or a named one."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_unpack_parent_at_an_explicit_revision(tmp_path):
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("the checkout is not a git work tree with a commit")
    spec = importlib.util.spec_from_file_location("bench_point", ROOT / "tools" / "bench_point.py")
    bench_point = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_point)
    assert bench_point.unpack_parent(tmp_path, "HEAD") == head.stdout.strip()
    committed = subprocess.run(["git", "show", "HEAD:src/spectralab/rootsolve.py"], cwd=ROOT,
                               capture_output=True, check=True).stdout
    assert (tmp_path / "src" / "spectralab" / "rootsolve.py").read_bytes() == committed
