"""Registered experiments: seeded execution, per-trial CSV, summary JSON.

Every experiment draws trial t from the stream (seed, hash(name) xor t), so
single trials are reproducible in isolation and the trial threads cannot
change results, only wall time. Rows are written in trial order with
repr-formatted floats: identical configurations produce byte-identical CSV.

An experiment is an ExperimentDef: a trial function, a summary function and
optional extra tables. The one runner, ``run_experiment``, owns the streams,
the trial threads and every output file; each trial draws from its stream
once.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .. import compute
from ..errors import BadParams, HypothesisViolated, NumericalError, UnknownExperiment
from ..matching import extremal_gap_statistic, zero_critical_distance
from ..measures import (
    ClusterSpec,
    EmpiricalMeasure,
    angular_discrepancy,
    cluster_deficiency,
    erdos_turan_rhs,
    ks_two_sample,
    poisson_jensen_residual,
    potential_diagnostics,
    sliced_wasserstein2d,
    walsh_constant,
)
from ..polycore import RootPoly, WeightedLogDeriv
from ..randgen import (
    RngStream,
    bernoulli_entries,
    gaussian_entries,
    sample_exponential,
    two_sequence_pick,
)
from ..rmt import (
    _expected_counts,
    eigenvalues,
    ginibre_intensity,
    power_intensity,
    power_spectrum_sample,
    real_eig_probability,
    sample_ginibre,
    sample_product_ensemble,
)
from ..rootsolve import critical_points
from .svg import emit_scatter_svg

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentDef",
    "TrialReport",
    "run_experiment",
    "stream_id_for",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def stream_id_for(name: str, trial: int) -> int:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return (tag ^ trial) & _MASK64


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    trials: int
    params: dict = field(default_factory=dict)
    output_dir: Path | None = None


@dataclass(frozen=True)
class TrialReport:
    experiment: str
    trial: int
    seed: int
    metrics: dict


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment, declared for the runner.

    trial(stream, params) -> (row, extras): one trial's trials.csv row and
    its side data by name; a ``spectrum`` extra (tuple of SpectrumSamples)
    feeds spectra.csv and scatter.svg. trials.csv holds ``columns`` first,
    then any other row keys in the order the trial returns them, so no row
    key is dropped. Point experiments name a list param in ``points`` and
    get one row per entry from trial(stream, params, entry, trials).
    summarize(params, rows, extras) -> summary dict.
    param_spec maps each parameter to (type, default) or (type, default,
    least): an int below its least value, or a point list with an entry
    below it, is refused. check(params) raises BadParams for the other
    values no trial can run with. The runner applies both, and refuses a
    non-finite float parameter, before it starts any trial.
    files(params) -> {file name: text}. scatter_radius(params) clips trial
    0's spectrum for scatter.svg; without it svg=1 writes no scatter.
    lapack_bound marks trials that spend their time inside LAPACK, which
    releases the GIL: the runner runs them two at a time on the process's
    compute threads (``compute.map_two``), with OpenBLAS held at one
    thread, or serially when OpenBLAS cannot be held.
    """

    name: str
    description: str
    columns: tuple
    param_spec: dict
    trial: Callable
    summarize: Callable
    check: Callable | None = None
    files: Callable | None = None
    points: str | None = None
    scatter_radius: Callable | None = None
    lapack_bound: bool = False


def _column(rows, key) -> list:
    return [row[key] for row in rows]


def _intensity_table(radii, values) -> str:
    lines = ["r,rho"]
    lines += [f"{repr(float(r))},{repr(float(v))}" for r, v in zip(radii, values)]
    return "\n".join(lines) + "\n"


# --- exp-spacing -----------------------------------------------------------

def _exp_spacing_check(params):
    if not params["rate"] > 0:
        raise BadParams("rate must be > 0")


def _exp_spacing_trial(stream, params):
    x = sample_exponential(stream, params["n"], params["rate"])
    gaps = extremal_gap_statistic(x)
    d1 = zero_critical_distance(RootPoly(np.sort(x)))
    return {
        "n": params["n"],
        "left_stat": gaps.left,
        "right_stat": gaps.right,
        "d1": d1,
        "mean_roots": float(np.mean(x)),
    }, {}


def _exp_spacing_summary(params, rows, extras):
    return {
        "median_left_stat": float(np.median(_column(rows, "left_stat"))),
        "median_right_stat": float(np.median(_column(rows, "right_stat"))),
        "mean_d1": float(np.mean(_column(rows, "d1"))),
        "mean_roots": float(np.mean(_column(rows, "mean_roots"))),
    }


# --- matching-lln ----------------------------------------------------------

def _matching_lln_trial(stream, params):
    g = stream.generator()
    x = np.abs(g.normal(0.0, 1.0, params["n"]))
    d1 = zero_critical_distance(RootPoly(np.sort(x)))
    return {"n": params["n"], "d1": d1, "mean_roots": float(np.mean(x))}, {}


def _matching_lln_summary(params, rows, extras):
    target = math.sqrt(2.0 / math.pi)
    mean_d1 = float(np.mean(_column(rows, "d1")))
    return {
        "mean_d1": mean_d1,
        "target_first_moment": target,
        "relative_gap": abs(mean_d1 - target) / target,
    }


# --- thm1-convergence ------------------------------------------------------

def _thm1_check(params):
    n_small, n_large = params["n_small"], params["n_large"]
    if n_small >= n_large:
        raise BadParams(f"n_small ({n_small}) must be below n_large ({n_large})")


def _thm1_roots(stream, n):
    """n roots picked from the golden-angle sequence a_k or from -a_k with probability 1/2."""
    a = np.exp(2j * np.pi * np.mod(np.arange(1, n + 1) * _GOLDEN, 1.0))
    return two_sequence_pick(a, -a, 0.5, stream.generator())


def _thm1_trial(stream, params):
    n_small, n_large = params["n_small"], params["n_large"]
    xi = _thm1_roots(stream, n_large)
    ref = np.exp(2j * np.pi * (np.arange(params["ref_points"]) + 0.5)
                 / params["ref_points"])
    ref_measure = EmpiricalMeasure(ref)
    proj_seed = stream.stream_id ^ stream.seed
    out, crit = {}, {}
    for label, m in (("small", n_small), ("large", n_large)):
        crit[label] = critical_points(RootPoly(xi[:m])).roots
        out[f"w1_{label}"] = sliced_wasserstein2d(
            EmpiricalMeasure(crit[label]), ref_measure, params["n_proj"], proj_seed)
    out["improved"] = int(out["w1_large"] < out["w1_small"])
    return out, {"xi": xi[:n_small], "crit": crit["small"]}


def _thm1_potential_report(params, xi, crit) -> dict:
    """Log-potential diagnostics of one sampled instance at size n_small.

    Probes the normalized log of the logarithmic derivative on a ring, the
    squared-log disk integral (grid_size controls the polar grid), and the
    boundary-integral identity relating the critical points to the roots
    (quad_nodes controls the trapezoid rule).
    """
    probes = 1.5 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    diag = potential_diagnostics(WeightedLogDeriv(xi), probes, eps=0.05, r=1.25,
                                 grid_size=params["grid_size"])
    z0 = 0.29 + 0.07j
    while min(np.min(np.abs(z0 - xi)), np.min(np.abs(z0 - crit))) < 1e-6:
        z0 += 0.001 + 0.002j
    pj = poisson_jensen_residual(crit, xi, z0, 2.0, params["quad_nodes"])
    out = diag.to_json_dict()
    out["boundary_identity_residual"] = float(pj)
    return out


def _thm1_summary(params, rows, extras):
    summary = {
        "median_w1_small": float(np.median(_column(rows, "w1_small"))),
        "median_w1_large": float(np.median(_column(rows, "w1_large"))),
        "fraction_improved": float(np.mean(_column(rows, "improved"))),
    }
    if params["diagnostics"]:
        # the last trial's instance, cut to n_small
        summary["diagnostics"] = _thm1_potential_report(params, **extras[-1])
    return summary


# --- ginibre-intensity -----------------------------------------------------

def _ginibre_bins(params):
    return np.linspace(params["r_lo"], params["r_hi"], params["bins"] + 1)


def _ginibre_expected(params) -> list:
    n = params["n"]
    return _expected_counts(n, [n * e * e for e in _ginibre_bins(params).tolist()])


def _ginibre_intensity_check(params):
    if not 0.0 <= params["r_lo"] < params["r_hi"]:
        raise BadParams("0 <= r_lo < r_hi required")
    # the summary's relative errors divide by the expected counts
    if min(_ginibre_expected(params)) <= 0.0:
        raise BadParams(f"a bin of [{params['r_lo']!r}, {params['r_hi']!r}] expects "
                        f"no eigenvalue at n = {params['n']}")


def _ginibre_intensity_trial(stream, params):
    n = params["n"]
    spec = eigenvalues(sample_ginibre(stream, n, 1.0 / n),
                       ensemble="ginibre", params={"variance": 1.0 / n})
    radii = np.abs(spec.eigenvalues)
    counts, _ = np.histogram(radii, bins=_ginibre_bins(params))
    return {f"count_b{i}": int(c) for i, c in enumerate(counts)}, {"spectrum": (spec,)}


def _ginibre_intensity_summary(params, rows, extras):
    edges = _ginibre_bins(params)
    mean_counts = np.array([np.mean(_column(rows, f"count_b{i}"))
                            for i in range(params["bins"])])
    expected = np.array(_ginibre_expected(params))
    rel_err = np.abs(mean_counts - expected) / expected
    return {
        "bin_edges": [float(e) for e in edges],
        "mean_counts": [float(c) for c in mean_counts],
        "expected_counts": [float(c) for c in expected],
        "max_relative_error": float(rel_err.max()),
    }


def _ginibre_intensity_files(params):
    n = params["n"]
    table_r = np.linspace(0.01, 1.25, 125)
    table_rho = n * ginibre_intensity(n, math.sqrt(n) * table_r)
    return {"intensity.csv": _intensity_table(table_r, table_rho)}


# --- poisson-limit ---------------------------------------------------------

def _poisson_limit_trial(stream, params):
    spec = power_spectrum_sample(stream, params["n"])
    radii = np.abs(spec.eigenvalues)
    count = int(np.sum((radii >= params["r_lo"]) & (radii <= params["r_hi"])))
    return {"count": count}, {"spectrum": (spec,)}


def _poisson_limit_summary(params, rows, extras):
    n = params["n"]
    counts = np.array(_column(rows, "count"), dtype=float)
    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1)) if counts.size > 1 else 0.0
    return {
        "mean_count": mean,
        "count_variance": var,
        # null, not NaN, when no trial counted an eigenvalue
        "variance_over_mean": var / mean if mean else None,
        "analytic_expected": _expected_counts(
            n, [n * params["r_lo"] ** (2.0 / n), n * params["r_hi"] ** (2.0 / n)])[0],
    }


def _poisson_limit_check(params):
    if not 0.0 < params["r_lo"] < params["r_hi"]:
        raise BadParams("0 < r_lo < r_hi required (intensity.csv starts at r_lo / 2)")


def _poisson_limit_files(params):
    table_r = np.linspace(0.5 * params["r_lo"], 2.0 * params["r_hi"], 121)
    return {"intensity.csv": _intensity_table(
        table_r, power_intensity(params["n"], table_r))}


# --- spherical-count -------------------------------------------------------

def _spherical_count_trial(stream, params):
    spec = sample_product_ensemble(stream, params["n"], (-1, +1))
    count = int(np.sum(np.abs(spec.eigenvalues) <= 1.0))
    return {"count_unit_disk": count}, {"spectrum": (spec,)}


def _spherical_count_summary(params, rows, extras):
    counts = np.array(_column(rows, "count_unit_disk"), dtype=float)
    return {
        "mean_count": float(np.mean(counts)),
        "expected_count": params["n"] / 2.0,
        "stderr": float(np.std(counts, ddof=1) / math.sqrt(counts.size))
        if counts.size > 1 else 0.0,
    }


# --- product-symmetry ------------------------------------------------------

def _parse_pattern(text: str):
    eps = tuple(1 if ch == "+" else -1 for ch in text)
    if not eps or any(ch not in "+-" for ch in text):
        raise BadParams(f"bad epsilon pattern {text!r}")
    return eps


def _product_symmetry_check(params):
    for key in ("pattern_a", "pattern_b"):
        _parse_pattern(params[key])


def _product_symmetry_trial(stream, params):
    g = stream.generator()
    spec_a = sample_product_ensemble(g, params["n"], _parse_pattern(params["pattern_a"]))
    spec_b = sample_product_ensemble(g, params["n"], _parse_pattern(params["pattern_b"]))
    return {
        "mean_radius_a": float(np.mean(np.abs(spec_a.eigenvalues))),
        "mean_radius_b": float(np.mean(np.abs(spec_b.eigenvalues))),
    }, {"spectrum": (spec_a, spec_b)}


def _product_symmetry_summary(params, rows, extras):
    pooled_a, pooled_b = (
        np.concatenate([np.abs(ex["spectrum"][i].eigenvalues) for ex in extras])
        for i in (0, 1))
    return {
        "ks_statistic": ks_two_sample(pooled_a, pooled_b),
        "pooled_points_each": int(pooled_a.size),
        "pattern_a": params["pattern_a"],
        "pattern_b": params["pattern_b"],
    }


# --- real-eig --------------------------------------------------------------

def _parse_int_list(text: str):
    try:
        vals = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise BadParams(f"bad integer list {text!r}") from exc
    if not vals:
        raise BadParams(f"empty integer list {text!r}")
    return vals


_ENTRY_SAMPLERS = {"gaussian": lambda q: gaussian_entries, "bernoulli": bernoulli_entries}


def _real_eig_check(params):
    if params["entries"] not in _ENTRY_SAMPLERS:
        raise BadParams(f"unknown entries kind {params['entries']!r}")


def _real_eig_point(stream, params, n_factors, trials):
    sampler = _ENTRY_SAMPLERS[params["entries"]](params["q"])
    est = real_eig_probability(stream, params["k"], n_factors, sampler, trials)
    return {"n_factors": n_factors, "p_hat": est.p_hat, "stderr": est.stderr,
            "mc_trials": est.trials}, {}


def _real_eig_summary(params, rows, extras):
    p_hats = _column(rows, "p_hat")
    stderrs = _column(rows, "stderr")
    monotone = all(p_hats[i + 1] >= p_hats[i] - 2.0 * max(stderrs[i], stderrs[i + 1])
                   for i in range(len(p_hats) - 1))
    return {
        "factors": list(_parse_int_list(params["factors"])),
        "p_hats": [float(p) for p in p_hats],
        "stderrs": [float(s) for s in stderrs],
        "monotone_within_2_stderr": bool(monotone),
        "entries": params["entries"],
    }


# --- walsh-clusters --------------------------------------------------------

def _walsh_roots(stream, params):
    """Cluster centers and the k * n_per_cluster roots of one walsh-clusters trial."""
    g = stream.generator()
    k = params["k"]
    radius = params["radius"]
    n_per = params["n_per_cluster"]
    # set-to-set separation of 5k needs center spacing 5k + 2*radius
    spacing = 5.0 * k + 2.0 * radius + 0.5
    centers = np.cumsum(spacing + g.random(k)) + 1j * g.normal(0.0, 0.5, k)
    roots = []
    for c in centers:
        rho = radius * np.sqrt(g.random(n_per))
        ang = 2.0 * np.pi * g.random(n_per)
        roots.append(c + rho * np.exp(1j * ang))
    return centers, np.concatenate(roots)


def _walsh_check(params):
    if params["radius"] <= 0:
        raise BadParams("radius must be > 0")
    try:
        walsh_constant(params["k"], params["eps"], 5.0 * params["k"])
    except HypothesisViolated as exc:
        raise BadParams(f"k={params['k']}, eps={params['eps']}: {exc}") from exc


def _walsh_trial(stream, params):
    k = params["k"]
    radius = params["radius"]
    eps = params["eps"]
    n_per = params["n_per_cluster"]
    centers, roots = _walsh_roots(stream, params)
    crit = critical_points(RootPoly(roots)).roots
    spec = ClusterSpec(centers, radius, 5.0 * k + 2.0 * radius)
    defs = cluster_deficiency(spec, crit, eps, n_per)
    bound = walsh_constant(k, eps, 5.0 * k)
    return {
        "max_deficiency": int(max(defs)),
        "bound": bound,
        "violated": int(max(defs) > bound),
    }, {}


def _walsh_summary(params, rows, extras):
    return {
        "violations": int(sum(_column(rows, "violated"))),
        "max_deficiency": int(max(_column(rows, "max_deficiency"))),
        "bound": float(rows[0]["bound"]),
    }


# --- discrepancy -----------------------------------------------------------

def _discrepancy_point(stream, params, n, trials):
    # zeros of the derivative of 1 + z + ... + z^n, whose roots are the
    # (n+1)-th roots of unity other than 1, plus the double root at 1
    # carried by the (z-1)^2 cofactor of the closed-form numerator
    roots = np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
    crit = critical_points(RootPoly(roots)).roots
    points = np.concatenate([crit, [1.0, 1.0]])
    disc = angular_discrepancy(points)
    coeffs = np.zeros(n + 2)
    coeffs[0] = 1.0
    coeffs[n] = -(n + 1.0)
    coeffs[n + 1] = n
    rhs = erdos_turan_rhs(coeffs, params["C"])
    return {
        "n": n,
        "discrepancy": disc,
        "discrepancy_sq": disc * disc,
        "et_rhs": rhs,
        "within_bound": int(disc * disc <= rhs),
    }, {}


def _discrepancy_summary(params, rows, extras):
    discs = _column(rows, "discrepancy")
    return {
        "sizes": list(_parse_int_list(params["n_list"])),
        "discrepancies": [float(d) for d in discs],
        "monotone_decreasing": bool(all(b < a for a, b in zip(discs, discs[1:]))),
        "all_within_bound": bool(all(_column(rows, "within_bound"))),
    }


# --- registry --------------------------------------------------------------

EXPERIMENTS = {edef.name: edef for edef in (
    ExperimentDef(
        "exp-spacing",
        "extremal zero/critical spacing statistics for exponential samples",
        ("trial", "n", "seed", "left_stat", "right_stat", "d1", "mean_roots"),
        dict(n=(int, 2000, 3), rate=(float, 1.0)),
        _exp_spacing_trial, _exp_spacing_summary,
        check=_exp_spacing_check,
    ),
    ExperimentDef(
        "matching-lln",
        "matching distance of half-normal-rooted polynomials vs the first moment",
        ("trial", "n", "seed", "d1", "mean_roots"),
        dict(n=(int, 200, 2)),
        _matching_lln_trial, _matching_lln_summary,
    ),
    ExperimentDef(
        "thm1-convergence",
        "critical-point measure convergence for two-sequence random picks",
        ("trial", "seed", "w1_small", "w1_large", "improved"),
        dict(n_small=(int, 100, 2), n_large=(int, 1600, 2), n_proj=(int, 64, 1),
             ref_points=(int, 2048, 1), diagnostics=(int, 0, 0), grid_size=(int, 96, 64),
             quad_nodes=(int, 4096, 1)),
        _thm1_trial, _thm1_summary,
        check=_thm1_check,
    ),
    ExperimentDef(
        "ginibre-intensity",
        "radial eigenvalue histogram against the kernel intensity",
        ("trial", "seed"),
        dict(n=(int, 64, 1), r_lo=(float, 0.2), r_hi=(float, 0.9), bins=(int, 7, 1)),
        _ginibre_intensity_trial, _ginibre_intensity_summary,
        check=_ginibre_intensity_check,
        files=_ginibre_intensity_files,
        scatter_radius=lambda params: math.inf,
        lapack_bound=True,
    ),
    ExperimentDef(
        "poisson-limit",
        "annulus counts of powered Ginibre spectra against the limit intensity",
        ("trial", "seed", "count"),
        dict(n=(int, 64, 1), r_lo=(float, 1.0), r_hi=(float, math.e)),
        _poisson_limit_trial, _poisson_limit_summary,
        check=_poisson_limit_check,
        files=_poisson_limit_files,
        scatter_radius=lambda params: 4.0 * params["r_hi"],
        lapack_bound=True,
    ),
    ExperimentDef(
        "spherical-count",
        "unit-disk eigenvalue counts of the inverse-pair product ensemble",
        ("trial", "seed", "count_unit_disk"),
        dict(n=(int, 32, 1)),
        _spherical_count_trial, _spherical_count_summary,
        scatter_radius=lambda params: 5.0,
        lapack_bound=True,
    ),
    ExperimentDef(
        "product-symmetry",
        "radial spectra of two inversion patterns with equal signature sum",
        ("trial", "seed", "mean_radius_a", "mean_radius_b"),
        dict(n=(int, 16, 1), pattern_a=(str, "-++"), pattern_b=(str, "++-")),
        _product_symmetry_trial, _product_symmetry_summary,
        check=_product_symmetry_check,
        lapack_bound=True,
    ),
    ExperimentDef(
        "real-eig",
        "probability that k x k matrix products have an all-real spectrum "
        "(one row per factor count; --trials sets the Monte Carlo budget)",
        ("trial", "seed", "n_factors", "p_hat", "stderr", "mc_trials"),
        dict(k=(int, 2, 1), factors=(str, "1,2,4,8", 1), entries=(str, "gaussian"),
             q=(float, 0.5)),
        _real_eig_point, _real_eig_summary,
        check=_real_eig_check,
        points="factors",
    ),
    ExperimentDef(
        "walsh-clusters",
        "critical-point deficiencies of clustered roots against the escape bound",
        ("trial", "seed", "max_deficiency", "bound", "violated"),
        dict(k=(int, 2, 1), n_per_cluster=(int, 20, 2), radius=(float, 0.5),
             eps=(float, 0.45)),
        _walsh_trial, _walsh_summary,
        check=_walsh_check,
    ),
    ExperimentDef(
        "discrepancy",
        "angular discrepancy of derivative zeros vs the coefficient bound "
        "(one row per size in n_list; --trials is ignored)",
        ("trial", "seed", "n", "discrepancy", "discrepancy_sq", "et_rhs",
         "within_bound"),
        dict(n_list=(str, "32,64,128,256", 2), C=(float, 10.0)),
        _discrepancy_point, _discrepancy_summary,
        points="n_list",
    ),
)}

_UNIVERSAL_PARAMS = {"svg": (int, 0, 0), "spectra": (int, 0, 0)}


def _coerce_params(edef: ExperimentDef, raw: dict) -> dict:
    spec = {**edef.param_spec, **_UNIVERSAL_PARAMS}
    out = {key: default for key, (_, default, *_) in spec.items()}
    for key, value in raw.items():
        if key not in spec:
            raise BadParams(f"unknown parameter {key!r} for {edef.name}")
        caster = spec[key][0]
        try:
            out[key] = caster(value)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"parameter {key!r}: cannot convert {value!r}") from exc
        if caster is float and not math.isfinite(out[key]):
            raise BadParams(f"parameter {key!r} must be finite, got {value!r}")
    for key, (_, _, *least) in spec.items():
        # the least value of a point list bounds each of its entries
        vals = _parse_int_list(out[key]) if key == edef.points else (out[key],)
        if least and min(vals) < least[0]:
            raise BadParams(f"parameter {key!r} must be >= {least[0]}")
    return out


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fresh_output_dir(path) -> Path:
    """The output directory, made if missing, without any file an earlier run wrote there."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for fname in ("trials.csv", "summary.json", "spectra.csv", "scatter.svg", "intensity.csv",
                  "failure.json"):
        (out / fname).unlink(missing_ok=True)
    return out


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a registered experiment and write trials.csv plus summary.json.

    Returns the summary payload. Trials run in this process: two at a time
    on the compute threads for ``lapack_bound`` experiments, serially for the
    rest. Identical configs produce byte-identical CSV files regardless of
    thread count. When a trial raises a NumericalError, failure.json
    (experiment, params, seed, trial, stream_id, error type and message) is
    written before the error propagates. Either outcome is written only
    after every file an earlier run left in the directory is removed.
    """
    if cfg.name not in EXPERIMENTS:
        raise UnknownExperiment(
            f"{cfg.name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    if cfg.trials < 1:
        raise BadParams("trials must be >= 1")
    edef = EXPERIMENTS[cfg.name]
    params = _coerce_params(edef, cfg.params)
    if edef.check is not None:
        edef.check(params)
    points = _parse_int_list(params[edef.points]) if edef.points else None
    t0 = time.perf_counter()

    def trial(t):
        """Row t on its own stream; runs on either compute thread."""
        stream = RngStream(cfg.seed, stream_id_for(cfg.name, t))
        args = (stream, params) if points is None else (stream, params, points[t], cfg.trials)
        try:
            row, extras = edef.trial(*args)
        except NumericalError as exc:
            # same type, plus what it takes to replay the trial on its own stream
            err = type(exc)(f"{cfg.name} trial {t} (seed {cfg.seed}, stream_id "
                            f"{stream.stream_id}): {exc}")
            err.failure = {"experiment": cfg.name, "params": params, "seed": cfg.seed,
                           "trial": t, "stream_id": stream.stream_id,
                           "error": type(exc).__name__, "message": str(exc)}
            raise err from exc
        return TrialReport(cfg.name, t, cfg.seed, row), extras

    n = cfg.trials if points is None else len(points)
    try:
        outs = compute.map_two(trial, n) if edef.lapack_bound else [trial(t) for t in range(n)]
    except NumericalError as exc:
        if cfg.output_dir is not None:
            (_fresh_output_dir(cfg.output_dir) / "failure.json").write_text(
                json.dumps(exc.failure, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        raise
    reports, extras = zip(*outs)
    summary = edef.summarize(params, [rep.metrics for rep in reports], extras)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    payload = {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "params": {k: params[k] for k in sorted(params)},
        "summary": summary,
        "wall_ms": wall_ms,
    }
    if cfg.output_dir is None:
        return payload
    out = _fresh_output_dir(cfg.output_dir)
    columns = edef.columns + tuple(k for k in reports[0].metrics if k not in edef.columns)
    lines = [",".join(columns)]
    for rep in reports:
        row = dict(rep.metrics, trial=rep.trial, seed=rep.seed)
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    files = {
        "trials.csv": "\n".join(lines) + "\n",
        "summary.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }
    files.update(edef.files(params) if edef.files else {})
    spectra = [f"{rep.trial},{rep.seed},{spec.ensemble},{spec.n},"
               f"{repr(float(z.real))},{repr(float(z.imag))}"
               for rep, ex in zip(reports, extras) if params["spectra"]
               for spec in ex.get("spectrum", ()) for z in spec.eigenvalues]
    if spectra:
        files["spectra.csv"] = "\n".join(["trial,seed,ensemble,n,re,im"] + spectra) + "\n"
    for fname, content in files.items():
        (out / fname).write_text(content, encoding="utf-8")
    if params["svg"] and edef.scatter_radius is not None:
        z = np.concatenate([spec.eigenvalues for spec in extras[0]["spectrum"]])
        z = z[np.abs(z) <= edef.scatter_radius(params)]
        if z.size:
            emit_scatter_svg(z, out / "scatter.svg")
    return payload
