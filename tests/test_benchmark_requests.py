"""Every request the benchmark sends must be a valid experiment configuration.

``labbench/workloads.py`` names experiments and their parameters by string.
A renamed experiment or parameter would only show when the benchmark runs;
this test checks each request's name against the registry and its parameters
against ``_coerce_params`` and the experiment's ``check`` here instead.
"""

import importlib.util
from pathlib import Path

import pytest

from spectralab.labcli.experiments import EXPERIMENTS, _coerce_params

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "labbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("labbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _requests() -> list:
    """(id, experiment, params) of every request kind and of the NoConvergence probe."""
    workloads = _load_workloads()
    out = [(f"{name}/{experiment}", experiment, params)
           for name, mix in workloads.WORKLOADS.items()
           for experiment, _, params, _ in mix]
    experiment, params, _ = workloads.NOCONV_PROBE
    out.append((f"noconv-probe/{experiment}", experiment, params))
    return out


REQUESTS = _requests()


def test_every_workload_is_read():
    assert {tag.split("/")[0] for tag, _, _ in REQUESTS} >= {
        "thm1-large", "real-spacing", "ginibre-mix", "small-degree", "noconv-probe"}


@pytest.mark.parametrize("tag, experiment, params", REQUESTS, ids=[r[0] for r in REQUESTS])
def test_request_is_a_valid_config(tag, experiment, params):
    assert experiment in EXPERIMENTS
    edef = EXPERIMENTS[experiment]
    coerced = _coerce_params(edef, params)
    if edef.check is not None:
        edef.check(coerced)
