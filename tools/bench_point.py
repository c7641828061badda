#!/usr/bin/env python3
"""Write one trajectory point of the benchmark and tier-1 to a JSON file.

Run from the repository root:

    python3 tools/bench_point.py BENCH_<n>.json

For each of the seeds 401, 402 and 403 it runs every workload through
``labbench/run.py --workload all --seconds 25 --trace 0`` and reads the end-to-end
metrics from the run's last stdout line. Each workload's result file under
labbench/out/ gives the git SHA, the non-blank line count of src/, the failed
requests and the trials.csv digest of the first request of each kind
(experiment and parameters). Then tier-1 runs once: its pass and fail
counts and total wall are parsed from pytest's summary line, and each
acceptance criterion's result and wall from its 'criterion NN' line. The
point holds, per workload, the median and range of each metric over the
seeds. The runs take about six minutes; one 25 s run swings by up to 30% on
a 2-vCPU host, so compare points by their ranges, not by single values.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "labbench" / "out"
SEEDS = (401, 402, 403)
SECONDS = 25
METRICS = ("trials_per_s", "setup_s", "peak_rss_mb")
CRITERION = re.compile(r"^criterion (\d\d) \[(.+)\] (PASS|FAIL) \(([\d.]+) s\)$", re.M)


def run_seed(seed: int) -> dict:
    """The end-to-end metrics of every workload at one seed, keyed 'workload.metric'."""
    proc = subprocess.run([sys.executable, "labbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def result_file(workload: str, seed: int) -> dict:
    return json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))


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
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)

    runs = {seed: run_seed(seed) for seed in SEEDS}
    workloads = sorted({key.split(".")[0] for metrics in runs.values() for key in metrics})
    point = {"seeds": SEEDS, "seconds": SECONDS, "workloads": {}}
    for workload in workloads:
        files = {seed: result_file(workload, seed) for seed in SEEDS}
        meta = files[SEEDS[0]]["metadata"]
        point.setdefault("git_sha", meta["git_sha"])
        point.setdefault("src_nonblank_loc", meta["src_nonblank_loc"])
        point.setdefault("machine", {k: meta[k] for k in
                                     ("python", "numpy", "scipy", "numpy_blas", "nproc")})
        requests = [rec for f in files.values() for rec in f["requests"]]
        point["workloads"][workload] = {
            **{m: spread([runs[s][f"{workload}.{m}"]["value"] for s in SEEDS])
               for m in METRICS},
            "requests": len(requests),
            "failed": sum(rec["failed"] for rec in requests),
            "first_digests": {seed: first_digests(f["requests"]) for seed, f in files.items()},
        }
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "labbench"],
                            cwd=ROOT, capture_output=True, text=True)
    # the SHA names the measured code only when src/ and labbench/ match it
    point["src_matches_sha"] = status.returncode == 0 and not status.stdout.strip()
    point["tier1"] = tier1()
    args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({w: {m: v[m]["median"] for m in METRICS}
                      for w, v in point["workloads"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
