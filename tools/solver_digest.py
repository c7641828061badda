#!/usr/bin/env python3
"""Check that this checkout's critical-point solvers give the base revision's bits.

Run from the repository root:

    python3 tools/solver_digest.py [--base REV] [--family NAME ...]

The base revision REV (default HEAD^) is unpacked by
``bench_point.unpack_parent`` into a temporary directory. The inputs are
built once, from this checkout, and each tree solves them in its own
interpreter, on one and then on two compute threads. Per input family and
thread count the tool prints one SHA-256 of every solve's result on this
checkout, and marks it equal to the base revision's or different, with the
base's digest. A complex family hashes the roots, residuals and iteration
count of ``critical_points`` (or the type and message of the error it
raises); a real family hashes ``real_interlaced_critical_points``. The exit
status is 1 if any family differs, else 0. ``--family`` (repeatable)
solves only the named families. The full set takes about 35 s on 2 vCPUs.

Families:
  thm1-100, thm1-400, thm1-1600  thm1-convergence roots, seed 42, draws 0-2
  walsh-k2, walsh-k3             walsh-clusters roots, seed 9, streams 0-39
  discrepancy                    the n-th roots of unity but 1, n = 32...512
  gaussian-400                   complex Gaussian roots, default_rng(400), 3 draws
  trap, unity-4, double-crit     {0, 1e-9, i, i + 1e-9}, the fourth roots of
                                 unity, and roots with a double critical point
  conj-21, conj-101, conj-401    roots z, conj z and 0.3, default_rng(5)
  exp-gaps-200, halfnormal-gaps-200
                                 sorted Exp(1) and |N(0, 1)| roots, n = 200,
                                 default_rng(200), 10 draws
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREADS = (1, 2)
# correctly rounded roots of z^4 - 1.5 z^2 + z + 1, whose derivative has a
# double zero at 1/2 (DOUBLE_CRIT_ROOTS in tests/test_rootsolve.py)
DOUBLE_CRIT_ROOTS = [-1.2945061959490187, -0.5946377110072718,
                     0.9445719534781454 - 0.6378764180064217j,
                     0.9445719534781454 + 0.6378764180064217j]


def families() -> dict:
    """Each family's inputs, built from this checkout: name -> list of root arrays."""
    sys.path.insert(0, str(ROOT / "src"))
    from spectralab.labcli.experiments import _thm1_roots, _walsh_roots, stream_id_for
    from spectralab.randgen import RngStream

    out = {f"thm1-{n}": [_thm1_roots(RngStream(42, stream_id_for("thm1-convergence", t)), n)
                         for t in range(3)] for n in (100, 400, 1600)}
    for k in (2, 3):
        out[f"walsh-k{k}"] = [
            _walsh_roots(RngStream(9, stream_id_for("walsh-clusters", t)),
                         {"k": k, "radius": 0.5, "n_per_cluster": 20})[1] for t in range(40)]
    out["discrepancy"] = [np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
                          for n in range(32, 513)]
    rng = np.random.default_rng(400)
    out["gaussian-400"] = [[1, 1j] @ rng.normal(size=(2, 400)) for _ in range(3)]
    out["trap"] = [np.array([0, 1e-9, 1j, 1j + 1e-9])]
    out["unity-4"] = [np.array([1, 1j, -1, -1j])]
    out["double-crit"] = [np.array(DOUBLE_CRIT_ROOTS)]
    for degree in (21, 101, 401):
        z = [1, 1j] @ np.random.default_rng(5).normal(size=(2, degree // 2))
        out[f"conj-{degree}"] = [np.concatenate([z, z.conj(), [0.3]])]
    rng = np.random.default_rng(200)
    out["exp-gaps-200"] = [np.sort(rng.exponential(size=200)) for _ in range(10)]
    out["halfnormal-gaps-200"] = [np.sort(np.abs(rng.normal(size=200))) for _ in range(10)]
    return out


def solve(inputs: Path) -> dict:
    """{threads: {family: SHA-256}} of the spectralab this interpreter imports."""
    import spectralab.compute as compute
    from spectralab.errors import NumericalError
    from spectralab.polycore import RootPoly
    from spectralab.rootsolve import critical_points, real_interlaced_critical_points

    fams = {}
    with np.load(inputs) as data:
        for key in data.files:  # in the order they were saved
            fams.setdefault(key.rsplit("/", 1)[0], []).append(data[key])
    out = {}
    for threads in THREADS:
        compute._THREADS.count = threads
        out[threads] = {}
        for name, inputs in fams.items():
            h = hashlib.sha256()
            for roots in inputs:
                if np.iscomplexobj(roots):
                    try:
                        rep = critical_points(RootPoly(roots))
                    except NumericalError as exc:
                        h.update(f"{type(exc).__name__}: {exc}".encode())
                        continue
                    h.update(rep.roots.tobytes() + rep.residuals.tobytes())
                    h.update(str(rep.iterations).encode())
                else:
                    h.update(real_interlaced_critical_points(roots).tobytes())
            out[threads][name] = h.hexdigest()
    return out


def run_tree(tree: Path, inputs: Path) -> dict:
    """solve() in a new interpreter that imports the spectralab of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--solve", str(inputs)],
                          env=env, capture_output=True, text=True, check=True)
    return {int(threads): digests
            for threads, digests in json.loads(proc.stdout.splitlines()[-1]).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD^",
                        help="the revision to compare with (default: HEAD^)")
    parser.add_argument("--family", action="append",
                        help="solve only this family (repeatable; default: all)")
    parser.add_argument("--solve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.solve:
        print(json.dumps(solve(args.solve)))
        return 0

    sys.path.insert(0, str(ROOT / "tools"))
    from bench_point import unpack_parent

    fams = families()
    unknown = set(args.family or ()) - set(fams)
    if unknown:
        parser.error(f"unknown families: {', '.join(sorted(unknown))}")
    fams = {name: fams[name] for name in args.family or fams}
    with tempfile.TemporaryDirectory(prefix="solver-digest-") as tmp:
        inputs = Path(tmp) / "inputs.npz"
        np.savez(inputs, **{f"{name}/{i}": roots for name, rs in fams.items()
                            for i, roots in enumerate(rs)})
        base = Path(tmp) / "base"
        sha = unpack_parent(base, args.base)
        digests = {"change": run_tree(ROOT, inputs), "base": run_tree(base, inputs)}
    print(f"base {args.base} = {sha}")
    differ = 0
    for name in fams:
        for threads in THREADS:
            change, parent = digests["change"][threads][name], digests["base"][threads][name]
            differ += change != parent
            print(f"{name:20} threads={threads}  {change}  "
                  + ("equal" if change == parent else f"DIFFERENT, base {parent}"))
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
