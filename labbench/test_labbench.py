"""Tests of the benchmark's own arithmetic, checks and tracer."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spectralab.rootsolve as rootsolve  # noqa: E402
from spectralab.labcli import experiments  # noqa: E402
from spectralab.polycore import RootPoly  # noqa: E402

from run import Runner  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WALSH, Request, round_requests  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span("a", 0.0, 10.0, -1, 0, True),
        Span("b", 1.0, 4.0, 0, 0, True),
        Span("c", 2.0, 3.0, 1, 0, True),
        Span("d", 5.0, 6.0, 0, 0, True),
        # overlaps d; the covered interval counts once
        Span("e", 5.5, 7.0, 0, 0, True),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5])


def test_self_time_clips_children_to_parent():
    spans = [Span("a", 0.0, 2.0, -1, 0, True), Span("b", 1.5, 3.0, 0, 0, True)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_perturbed_d1_counts_as_failed(tmp_path):
    runner = Runner("real-spacing", 3, tmp_path)
    req = Request("matching-lln", 3, {"n": 20}, 7)
    runner.send(req, 0, 0)
    runner.send(req, 1, 0)
    path = runner.records[1]["dir"] / "trials.csv"
    lines = path.read_text().splitlines()
    cols = lines[0].split(",")
    cells = lines[1].split(",")
    d1 = cols.index("d1")
    cells[d1] = repr(float(cells[d1]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    runner.check()
    assert [rec["failed"] for rec in runner.records] == [False, True]
    assert "d1" in runner.records[1]["problems"][0]


def test_traced_request_restores_originals(tmp_path):
    originals = (rootsolve.critical_points, experiments.critical_points,
                 vars(RootPoly)["__init__"], experiments.run_experiment)
    tracer = Tracer()
    runner = Runner("small-degree", 3, tmp_path, tracer)
    runner.send(Request("walsh-clusters", 1, {"k": 2, **WALSH}, 5), 0, 0, "traced")
    assert runner.records[0]["error"] is None
    assert {"labcli.run_experiment", "rootsolve.critical_points"} <= {
        s.name for s in tracer.finished_spans()}
    assert len(tracer.iterations) == 1
    assert rootsolve.critical_points is originals[0]
    assert experiments.critical_points is originals[1]
    assert vars(RootPoly)["__init__"] is originals[2]
    assert experiments.run_experiment is originals[3]


def test_round_requests_depend_only_on_seed():
    assert round_requests("ginibre-mix", 5, 2) == round_requests("ginibre-mix", 5, 2)
    assert round_requests("ginibre-mix", 5, 2) != round_requests("ginibre-mix", 6, 2)


def test_trials_per_s_takes_each_kind_at_its_p90(tmp_path):
    runner = Runner("real-spacing", 3, tmp_path)
    slow = Request("exp-spacing", 1, {"n": 10}, 0)
    fast = Request("matching-lln", 10, {"n": 20}, 0)
    for r, (w_slow, w_fast) in enumerate([(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]):
        for slot, (req, wall, rows) in enumerate([(slow, w_slow, 1), (fast, w_fast, 10),
                                                  (fast, w_fast, 10)]):
            runner.records.append({"round": r, "slot": slot, "kind": "plain",
                                   "request": req._asdict(), "wall_s": wall, "rows": rows})
    runner.rounds = 3
    tps, samples = runner.trials_per_s()
    # inclusive p90 of (1, 2, 3) is 2.8, of (0.1, 0.1, 0.2, 0.2, 0.3, 0.3) is 0.3
    assert samples == 9
    assert tps == pytest.approx(21 / (2.8 + 2 * 0.3))
