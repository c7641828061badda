#!/usr/bin/env python3
"""spectralab benchmark: registered experiments as a closed loop of requests.

Run from the repository root:

    python3 labbench/run.py --workload thm1-large --seed 1 --seconds 25 --trace 0

One client sends one ``run_experiment`` request at a time (``workers=1``) for
``--seconds`` seconds, in whole rounds of the workload's request mix (see
workloads.py), then repeats the first request and checks every output file.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs each round untraced and then traced and reports the per-layer metrics.
``--workload all`` runs every workload in its own process, one after another.
The last line of standard output is one JSON object. Request outputs, the
result file and the span file go under labbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from checks import request_problems, trials_digest
from workloads import NOCONV_PROBE, WORKLOADS, Request, request_seed, round_requests

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_CMD = "import spectralab, spectralab.labcli"


def _src_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup() -> list:
    """Wall seconds for fresh interpreters to import spectralab and its CLI.

    The first import is a warm-up (it may compile bytecode) and is dropped.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=_src_env(), check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def metadata(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        top, sha = git.stdout.split() if git.returncode == 0 else (None, None)
        sha = sha if top and Path(top).resolve() == ROOT.resolve() else None
    except OSError:
        sha = None
    loc = sum(1 for f in SRC.rglob("*.py")
              for line in f.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_nonblank_loc": loc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": 1,
    }


class Runner:
    """Sends requests one at a time and keeps a record of each."""

    def __init__(self, workload: str, seed: int, run_dir: Path, tracer=None):
        from spectralab import labcli

        self.labcli = labcli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.records = []

    def send(self, req, round_no: int, slot: int, kind: str = "plain") -> dict:
        out_dir = self.run_dir / f"r{round_no}-{slot}-{kind}"
        cfg = self.labcli.ExperimentConfig(req.experiment, req.seed, req.trials,
                                           req.params, out_dir)
        traced = kind == "traced"
        clock = self.tracer.clock if traced else time.perf_counter
        if traced:
            self.tracer.request = len(self.records)
        error = None
        with self.tracer if traced else contextlib.nullcontext():
            t0 = clock()
            try:
                self.labcli.run_experiment(cfg)
            except Exception as exc:  # a raising request is a failed request, not a crash
                error = f"{type(exc).__name__}: {exc}"
            wall = clock() - t0
        rec = {"round": round_no, "slot": slot, "kind": kind, "request": req._asdict(),
               "wall_s": wall, "error": error, "dir": out_dir}
        self.records.append(rec)
        return rec

    def run(self, seconds: float):
        """Whole rounds until ``seconds`` have passed, then the first request again."""
        first = round_requests(self.workload, self.seed, 0)[0]
        if self.tracer is not None:
            # without a warm-up the first plain request carries the cold start
            # and the tracing overhead reads low
            self.send(first, 0, 0, "warmup")
        start = time.perf_counter()
        round_no = 0
        while round_no == 0 or time.perf_counter() - start < seconds:
            for slot, req in enumerate(round_requests(self.workload, self.seed, round_no)):
                self.send(req, round_no, slot)
                if self.tracer is not None:
                    self.send(req, round_no, slot, "traced")
            round_no += 1
        self.rounds = round_no
        self.send(first, 0, 0, "rerun")

    def check(self):
        """Output checks and digests, after the timed span."""
        for rec in self.records:
            rec["problems"] = []
            rec["digest"] = None
            if rec["error"] is None:
                rec["problems"] = request_problems(Request(**rec["request"]), rec["dir"])
                rec["digest"] = trials_digest(rec["dir"])
        plain = {(rec["round"], rec["slot"]): rec for rec in self.records
                 if rec["kind"] == "plain"}
        for rec in self.records:
            # warm-up, traced copy and rerun must repeat the plain request byte for byte
            base = plain[(rec["round"], rec["slot"])]
            if (rec["digest"], rec["error"] is None) != (base["digest"], base["error"] is None):
                rec["problems"].append(f"trials.csv differs from the plain request "
                                       f"of round {rec['round']} slot {rec['slot']}")
            rec["failed"] = bool(rec["error"] or rec["problems"])
            rec["rows"] = 0 if rec["failed"] else _csv_rows(rec["dir"] / "trials.csv")

    def wall(self, kind: str) -> float:
        return sum(rec["wall_s"] for rec in self.records if rec["kind"] == kind)

    def bytes_written(self, kind: str) -> int:
        return sum(f.stat().st_size for rec in self.records if rec["kind"] == kind
                   if rec["dir"].is_dir() for f in rec["dir"].iterdir())

    def trials_per_s(self) -> tuple:
        """Rows of trials.csv per second of a slow round, and the sample count.

        A slow round sends every request of the mix at the 90th percentile of
        the wall its kind (experiment and parameters) took in this run. The
        host's fast spells come and go over minutes; its slow state is the
        steady one, so this tail repeats from run to run where the median
        does not (NOTES.md). Failed requests keep their wall and add no rows.
        """
        plain = [rec for rec in self.records if rec["kind"] == "plain"]
        walls = defaultdict(list)
        for rec in plain:
            req = rec["request"]
            walls[(req["experiment"], json.dumps(req["params"], sort_keys=True))].append(
                rec["wall_s"])
        copies = Counter((rec["request"]["experiment"],
                          json.dumps(rec["request"]["params"], sort_keys=True))
                         for rec in plain if rec["round"] == 0)
        slow_round = sum(n * _p90(walls[key]) for key, n in copies.items())
        rows_per_round = sum(rec["rows"] for rec in plain) / self.rounds
        return rows_per_round / slow_round, len(plain)

    def round_rates(self) -> list:
        """Rows of trials.csv completed per second of request wall, one value per round."""
        out = []
        for r in range(self.rounds):
            recs = [x for x in self.records if x["round"] == r and x["kind"] == "plain"]
            out.append(sum(x["rows"] for x in recs) / sum(x["wall_s"] for x in recs))
        return out


def _p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def noconv_probe(seed: int) -> int:
    """Draws of NOCONV_PROBE whose critical points raise NoConvergence.

    One trial per draw, no files written, no tracer; the draws depend only
    on the workload seed.
    """
    from spectralab import labcli
    from spectralab.errors import NoConvergence

    experiment, params, draws = NOCONV_PROBE
    count = 0
    for i in range(draws):
        cfg = labcli.ExperimentConfig(experiment, request_seed("noconv-probe", seed, 0, i),
                                      1, dict(params), None)
        try:
            labcli.run_experiment(cfg)
        except NoConvergence:
            count += 1
    return count


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _select(values: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names, in its order, with its units."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = None if trace else measure_setup()
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workload, seed, run_dir, tracer)
    runner.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check()

    records = runner.records
    failed = sum(rec["failed"] for rec in records)
    wrong = sum(bool(rec["problems"]) for rec in records)
    result = {"metadata": metadata(workload, seed), "seconds": seconds,
              "rounds": runner.rounds}
    if trace:
        values = tracer.metrics(runner.rounds)
        values["request_wall_s"] = runner.wall("traced") / runner.rounds
        values["trace_overhead_frac"] = runner.wall("traced") / runner.wall("plain") - 1.0
        values["labcli.bytes_written"] = runner.bytes_written("traced") / runner.rounds
        values["rootsolve.critical_points.noconv_k3"] = noconv_probe(seed)
        metrics = _select(values, spec["per_layer"])
        result["all_per_layer"] = values
        with gzip.open(OUT / f"{tag}-spans.csv.gz", "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request,ok\n")
            for s in tracer.finished_spans():
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.request},{int(s.ok)}\n")
    else:
        tps, samples = runner.trials_per_s()
        per_round = runner.round_rates()
        values = {"trials_per_s": tps,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = _select(values, spec["end_to_end"])
        result["samples"] = {"trials_per_s_requests": samples, "round_rates": per_round,
                             "setup_s": setup}
    shutil.rmtree(run_dir)
    result["requests"] = [{k: v for k, v in rec.items() if k != "dir"} for rec in records]
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"{workload} seed={seed}: {runner.rounds} rounds, "
          f"failed_frac={failed / len(records):.4f} ({failed}/{len(records)} requests), "
          f"{wrong} with wrong output")
    if not trace:
        print(f"  trials_per_s {tps:.4f} trials/s (p90 request walls, {samples} requests; "
              f"median round {statistics.median(per_round):.4f} over {len(per_round)} rounds)")
        print(f"  setup_s      {values['setup_s']:.4f} s (median of {len(setup)} imports)")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB (1 process)")
    for rec in records:
        if rec["failed"]:
            print(f"  failed: round {rec['round']} slot {rec['slot']} {rec['kind']} "
                  f"{rec['request']['experiment']} seed={rec['request']['seed']}: "
                  f"{rec['error'] or '; '.join(rec['problems'][:3])}")
    return {"correct": wrong == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; their metrics keyed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectralab" / "__init__.py").is_file():
        print(f"labbench: no src/spectralab under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
