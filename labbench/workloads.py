"""The benchmark's workloads: the requests of one round, and their seeds.

A round is one pass through a workload's request mix. Each request is one
``run_experiment`` call. Request seeds are derived from the workload seed, the
round number and the request's slot in the round, so the same workload seed
always gives the same requests. NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple


class Request(NamedTuple):
    experiment: str
    trials: int
    params: dict
    seed: int


WALSH = {"n_per_cluster": 20, "radius": 0.5, "eps": 0.45}

# workload -> [(experiment, trials, params, copies per round)]
WORKLOADS = {
    "thm1-large": [
        ("thm1-convergence", 2,
         {"n_small": 100, "n_large": 1600, "diagnostics": 1,
          "grid_size": 96, "quad_nodes": 4096}, 1),
    ],
    "real-spacing": [
        ("exp-spacing", 1, {"n": 2000}, 1),
        ("matching-lln", 10, {"n": 200}, 8),
    ],
    "ginibre-mix": [
        ("ginibre-intensity", 20, {"n": 64, "spectra": 1}, 1),
        ("poisson-limit", 20, {"n": 64}, 1),
        ("spherical-count", 20, {"n": 32}, 1),
        ("product-symmetry", 20, {"n": 16}, 1),
        ("real-eig", 10000, {"k": 2, "factors": "1,2,4,8"}, 1),
    ],
    "small-degree": [
        ("walsh-clusters", 5, {"k": 2, **WALSH}, 16),
        ("discrepancy", 1, {"n_list": "32,64,128,256,512"}, 1),
    ],
}

# walsh-clusters at k=3 (degree 60) raises NoConvergence on a few percent of
# draws, so no workload sends it: a timed request that fails now and then
# makes two runs of the same code disagree. The traced run counts the defect
# on these fixed draws instead (NOTES.md, "Known defects").
NOCONV_PROBE = ("walsh-clusters", {"k": 3, **WALSH}, 100)


def request_seed(workload: str, seed: int, round_no: int, slot: int) -> int:
    tag = f"{workload}/{seed}/{round_no}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


def round_requests(workload: str, seed: int, round_no: int) -> list:
    """The requests of round ``round_no``, in the order they are sent."""
    out = []
    for experiment, trials, params, copies in WORKLOADS[workload]:
        for _ in range(copies):
            slot = len(out)
            out.append(Request(experiment, trials, dict(params),
                               request_seed(workload, seed, round_no, slot)))
    return out


def expected_rows(req: Request) -> int:
    """Rows of trials.csv a request must produce."""
    if req.experiment == "real-eig":
        return len(req.params["factors"].split(","))
    if req.experiment == "discrepancy":
        return len(req.params["n_list"].split(","))
    return req.trials
