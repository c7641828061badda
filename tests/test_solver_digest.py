"""tools/solver_digest.py reports a tree equal to itself, family by family."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_head_against_head_is_equal():
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("the checkout is not a git work tree with a commit")
    proc = subprocess.run([sys.executable, "tools/solver_digest.py", "--base", "HEAD",
                           "--family", "unity-4"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"base HEAD = {head.stdout.strip()}"
    assert [line.split()[:2] + line.split()[3:] for line in lines[1:]] == [
        ["unity-4", "threads=1", "equal"], ["unity-4", "threads=2", "equal"]]
