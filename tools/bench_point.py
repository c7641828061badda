#!/usr/bin/env python3
"""Write one paired trajectory point of the benchmark and tier-1 to a JSON file.

Run from the repository root:

    python3 tools/bench_point.py BENCH_<n>.json [--base REV]

The point measures this checkout (the change) against the base revision REV
(default HEAD^, the parent commit), which is unpacked by ``git archive``
into a temporary directory; its SHA is kept as ``parent_sha``. For
each of the seeds 401, 402 and 403 and each workload of BENCHMARK.json, it
runs ``labbench/run.py --workload W --seed S --seconds 25 --trace 0`` in the
parent's tree and in this one, one right after the other, the parent first
at 401 and 403 and the change first at 402, and reads the end-to-end
metrics from each run's last stdout line. After these plain runs each
workload runs once more per side with ``--seed 401 --seconds 10 --trace 1``,
the parent first on every other workload, and every per-layer ``*.calls``
and ``*.self_s`` metric of the two runs is kept as a pair with its
change/parent ratio. ``ginibre-mix``'s trials run on two threads while the
tracer keeps one span stack per process, so its self times are flagged as
unreliable. Each workload's plain result file under labbench/out/ gives the
non-blank line count of src/, the failed requests and the trials.csv digest
of the first request of each kind (experiment and parameters). Then tier-1
runs once on this checkout: its pass and fail counts and total wall are
parsed from pytest's summary line, and each acceptance criterion's result
and wall from its 'criterion NN' line.

Per workload and metric the point holds every pair, the change/parent ratio
of each pair, the pairs the change wins, the median and range of each side
and the parent's interquartile range. One 25 s run swings by up to 30% on a
2-vCPU host, so read a point's delta from its pairs, not from its medians
against an older point's. The plain runs take about fifteen minutes; the
point records the wall of each phase. The last line printed is JSON: both
sides' non-blank src/ line counts, each phase's wall, then per workload and
metric the change/parent ratio of each pair and the wins; the file keeps the
rest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (401, 402, 403)
SECONDS = 25
TRACE_SEED, TRACE_SECONDS = 401, 10
# workloads whose trials run on two threads: the tracer keeps one span stack
# per process, so their self times mix both threads' spans
TWO_THREAD_TRIALS = ("ginibre-mix",)
CRITERION = re.compile(r"^criterion (\d\d) \[(.+)\] (PASS|FAIL) \(([\d.]+) s\)$", re.M)


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def unpack_parent(into: Path, rev: str = "HEAD^") -> str:
    """Unpack the files of revision ``rev`` into ``into``; returns its SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float = SECONDS,
             trace: int = 0) -> dict:
    """The metric values of one run of one workload in ``tree``, per layer if ``trace``."""
    proc = subprocess.run([sys.executable, "labbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def result_file(tree: Path, workload: str, seed: int) -> dict:
    path = tree / "labbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def first_digests(requests: list) -> dict:
    """trials.csv digest of the first plain request of each experiment and parameters."""
    out = {}
    for rec in requests:
        req = rec["request"]
        key = f"{req['experiment']} {json.dumps(req['params'], sort_keys=True)}"
        if rec["kind"] == "plain" and key not in out:
            out[key] = rec["digest"]
    return out


def tier1() -> dict:
    """Pass/fail counts, total wall and per-criterion results of one tier-1 run.

    The counts and wall come from pytest's summary line. ``-rA`` reports the
    captured output of passing tests too, so every acceptance criterion's
    'criterion NN [label] PASS|FAIL (t s)' line is in the output.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    wall = re.search(r" in ([\d.]+)s", summary)
    criteria = {num: {"label": label, "result": result, "wall_s": float(t)}
                for num, label, result, t in CRITERION.findall(proc.stdout)}
    return {"summary": summary.strip("= "), "counts": counts,
            "wall_s": float(wall.group(1)) if wall else None, "criteria": criteria}


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def paired(parent: list, change: list, higher_is_better: bool) -> dict:
    """The pairs of one metric, their change/parent ratios, the change's wins and both spreads."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {"pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
            "ratios": ratios,
            "wins": sum((r > 1) if higher_is_better else (r < 1) for r in ratios),
            "parent": {**spread(parent), "iqr": q3 - q1},
            "change": spread(change)}


def layer_pairs(parent: dict, change: dict) -> dict:
    """Each per-layer calls and self_s metric of two traced runs, with its change/parent ratio."""
    return {m: {"parent": parent[m], "change": change[m],
                "ratio": change[m] / parent[m] if parent[m] else None}
            for m in parent if m.endswith((".calls", ".self_s"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--base", default="HEAD^",
                        help="the revision to measure against (default: HEAD^)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    status = git("status", "--porcelain", "--", "src", "labbench")
    point = {"seeds": SEEDS, "seconds": SECONDS,
             "git_sha": git("rev-parse", "HEAD").stdout.strip(),
             # the SHA names the measured code only when src/ and labbench/ match it
             "src_matches_sha": status.returncode == 0 and not status.stdout.strip(),
             "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        point["parent_sha"] = unpack_parent(trees["parent"], args.base)
        runs = {side: {} for side in trees}
        start = time.perf_counter()
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[side][workload, seed] = run_once(trees[side], workload, seed)
        plain_s = time.perf_counter() - start
        traced = {side: {} for side in trees}
        for i, workload in enumerate(workloads):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                traced[side][workload] = run_once(trees[side], workload, TRACE_SEED,
                                                  TRACE_SECONDS, trace=1)
        point["wall_s"] = {"plain": plain_s, "traced": time.perf_counter() - start - plain_s}
        point["per_layer"] = {
            "seed": TRACE_SEED, "seconds": TRACE_SECONDS,
            "workloads": {w: {"self_s_reliable": w not in TWO_THREAD_TRIALS,
                              "pairs": layer_pairs(traced["parent"][w], traced["change"][w])}
                          for w in workloads}}
        for workload in workloads:
            files = {side: {seed: result_file(tree, workload, seed) for seed in SEEDS}
                     for side, tree in trees.items()}
            meta = files["change"][SEEDS[0]]["metadata"]
            point.setdefault("machine", {k: meta[k] for k in
                                         ("python", "numpy", "scipy", "numpy_blas", "nproc")})
            point.setdefault("src_nonblank_loc", {side: f[SEEDS[0]]["metadata"]["src_nonblank_loc"]
                                                  for side, f in files.items()})
            requests = {side: [rec for f in files[side].values() for rec in f["requests"]]
                        for side in trees}
            digests = {side: {seed: first_digests(f["requests"]) for seed, f in files[side].items()}
                       for side in trees}
            point["workloads"][workload] = {
                **{m: paired([runs["parent"][workload, s][m] for s in SEEDS],
                             [runs["change"][workload, s][m] for s in SEEDS], better)
                   for m, better in higher.items()},
                "requests": {side: len(recs) for side, recs in requests.items()},
                "failed": {side: sum(rec["failed"] for rec in recs)
                           for side, recs in requests.items()},
                "first_digests": digests["change"],
                "digests_equal_parent": digests["change"] == digests["parent"],
            }
    start = time.perf_counter()
    point["tier1"] = tier1()
    point["wall_s"]["tier1"] = time.perf_counter() - start
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"src_nonblank_loc": point["src_nonblank_loc"],
                      "wall_s": point["wall_s"],
                      **{w: {m: {"ratios": [round(r, 3) for r in v[m]["ratios"]],
                                 "wins": v[m]["wins"]}
                             for m in higher}
                         for w, v in point["workloads"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
