"""Output checks run on each request's files after the timed span.

A request whose files fail any check counts as failed. The acceptance
criteria with statistical windows (4 and 6) are not checked here: a single
short request cannot decide them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Request, expected_rows

D1_RTOL = 1e-8


def trials_digest(out_dir: Path) -> str:
    return hashlib.sha256((Path(out_dir) / "trials.csv").read_bytes()).hexdigest()


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_problems(req: Request, row: dict) -> list:
    out = []
    for key, cell in row.items():
        try:
            value = float(cell)
        except (TypeError, ValueError):
            out.append(f"column {key}: not a number {cell!r}")
            continue
        if not math.isfinite(value):
            out.append(f"column {key}: not finite {cell!r}")
    if out:
        return out
    if req.experiment in ("exp-spacing", "matching-lln"):
        d1, mean = float(row["d1"]), float(row["mean_roots"])
        if abs(d1 - mean) > D1_RTOL * max(1.0, mean):
            out.append(f"trial {row['trial']}: d1 {d1!r} != mean_roots {mean!r}")
    elif req.experiment == "walsh-clusters":
        if int(row["violated"]) != 0:
            out.append(f"trial {row['trial']}: walsh bound violated")
    elif req.experiment == "discrepancy":
        if int(row["within_bound"]) != 1:
            out.append(f"n={row['n']}: discrepancy above the Erdos-Turan bound")
    return out


def request_problems(req: Request, out_dir: Path) -> list:
    """Everything wrong with one request's output files; empty when correct."""
    out_dir = Path(out_dir)
    rows = _read_csv(out_dir / "trials.csv")
    problems = []
    if len(rows) != expected_rows(req):
        problems.append(f"trials.csv has {len(rows)} rows, expected {expected_rows(req)}")
    for row in rows:
        problems.extend(_row_problems(req, row))
    if req.params.get("spectra"):
        spectra = _read_csv(out_dir / "spectra.csv")
        want = req.trials * req.params["n"]
        if len(spectra) != want:
            problems.append(f"spectra.csv has {len(spectra)} rows, expected {want}")
        for row in spectra:
            if not (math.isfinite(float(row["re"])) and math.isfinite(float(row["im"]))):
                problems.append(f"spectra.csv: non-finite eigenvalue in trial {row['trial']}")
                break
    return problems
