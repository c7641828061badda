"""Registered experiments: seeded execution, per-trial CSV, summary JSON.

Every experiment draws trial t from the stream (seed, hash(name) xor t), so
single trials are reproducible in isolation and worker pools cannot change
results, only wall time. Rows are written in trial order with repr-formatted
floats: identical configurations produce byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc

from ..errors import BadParams, NumericalError, UnknownExperiment
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
    _poisson_log_cdf as _power_log_cdf,
    eigenvalues,
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
    "ExperimentResult",
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
    workers: int = 1


@dataclass(frozen=True)
class TrialReport:
    experiment: str
    trial: int
    seed: int
    metrics: dict
    wall_ms: float


class ExperimentResult(NamedTuple):
    reports: list
    summary: dict
    scatter: np.ndarray | None
    files: dict = {}


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    description: str
    columns: tuple
    param_spec: dict
    run: Callable


def _timed(name, fn, seed, trial, params):
    t0 = time.perf_counter()
    try:
        metrics = fn(seed, trial, params)
    except NumericalError as exc:
        # same type, plus what it takes to replay the trial on its own stream
        raise type(exc)(f"{name} trial {trial} (seed {seed}, stream_id "
                        f"{stream_id_for(name, trial)}): {exc}") from exc
    return metrics, (time.perf_counter() - t0) * 1000.0


def _run_trials(cfg: ExperimentConfig, fn, count: int | None = None) -> list:
    n = cfg.trials if count is None else count
    call = partial(_timed, cfg.name, fn)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outs = list(pool.map(call, [cfg.seed] * n, range(n), [cfg.params] * n))
    else:
        outs = [call(cfg.seed, t, cfg.params) for t in range(n)]
    return [TrialReport(cfg.name, t, cfg.seed, metrics, wall)
            for t, (metrics, wall) in enumerate(outs)]


def _spectrum_rows(params, trial, seed, spec):
    if not params.get("spectra"):
        return None
    return [(trial, seed, spec.ensemble, spec.n, float(z.real), float(z.imag))
            for z in spec.eigenvalues]


def _spectra_file(reports) -> dict:
    rows = []
    for rep in reports:
        rows.extend(rep.metrics.pop("_spectrum", None) or [])
    if not rows:
        return {}
    lines = ["trial,seed,ensemble,n,re,im"]
    lines += [f"{t},{s},{e},{n},{repr(re)},{repr(im)}" for t, s, e, n, re, im in rows]
    return {"spectra.csv": "\n".join(lines) + "\n"}


def _intensity_table(radii, values) -> str:
    lines = ["r,rho"]
    lines += [f"{repr(float(r))},{repr(float(v))}" for r, v in zip(radii, values)]
    return "\n".join(lines) + "\n"


# --- exp-spacing -----------------------------------------------------------

def _exp_spacing_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("exp-spacing", trial))
    x = sample_exponential(stream, params["n"], params["rate"])
    gaps = extremal_gap_statistic(x)
    d1 = zero_critical_distance(RootPoly(np.sort(x)))
    return {
        "n": params["n"],
        "left_stat": gaps.left,
        "right_stat": gaps.right,
        "d1": d1,
        "mean_roots": float(np.mean(x)),
    }


def _exp_spacing_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _exp_spacing_trial)
    left = [r.metrics["left_stat"] for r in reports]
    right = [r.metrics["right_stat"] for r in reports]
    summary = {
        "median_left_stat": float(np.median(left)),
        "median_right_stat": float(np.median(right)),
        "mean_d1": float(np.mean([r.metrics["d1"] for r in reports])),
        "mean_roots": float(np.mean([r.metrics["mean_roots"] for r in reports])),
    }
    return ExperimentResult(reports, summary, None)


# --- matching-lln ----------------------------------------------------------

def _matching_lln_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("matching-lln", trial))
    g = stream.generator()
    x = np.abs(g.normal(0.0, 1.0, params["n"]))
    d1 = zero_critical_distance(RootPoly(np.sort(x)))
    return {"n": params["n"], "d1": d1, "mean_roots": float(np.mean(x))}


def _matching_lln_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _matching_lln_trial)
    d1s = [r.metrics["d1"] for r in reports]
    target = math.sqrt(2.0 / math.pi)
    mean_d1 = float(np.mean(d1s))
    summary = {
        "mean_d1": mean_d1,
        "target_first_moment": target,
        "relative_gap": abs(mean_d1 - target) / target,
    }
    return ExperimentResult(reports, summary, None)


# --- thm1-convergence ------------------------------------------------------

def _circle_sequences(n: int):
    k = np.arange(1, n + 1)
    a = np.exp(2j * np.pi * np.mod(k * _GOLDEN, 1.0))
    return a, -a


def _thm1_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("thm1-convergence", trial))
    g = stream.generator()
    n_small, n_large = params["n_small"], params["n_large"]
    a, b = _circle_sequences(n_large)
    xi = two_sequence_pick(a, b, 0.5, g)
    ref = np.exp(2j * np.pi * (np.arange(params["ref_points"]) + 0.5)
                 / params["ref_points"])
    ref_measure = EmpiricalMeasure(ref)
    proj_seed = stream_id_for("thm1-convergence", trial) ^ seed
    out = {}
    for label, m in (("small", n_small), ("large", n_large)):
        crit = critical_points(RootPoly(xi[:m])).roots
        out[f"w1_{label}"] = sliced_wasserstein2d(
            EmpiricalMeasure(crit), ref_measure, params["n_proj"], proj_seed)
    out["improved"] = int(out["w1_large"] < out["w1_small"])
    return out


def _thm1_potential_report(cfg: ExperimentConfig) -> dict:
    """Log-potential diagnostics of one sampled instance at size n_small.

    Probes the normalized log of the logarithmic derivative on a ring, the
    squared-log disk integral (grid_size controls the polar grid), and the
    boundary-integral identity relating the critical points to the roots
    (quad_nodes controls the trapezoid rule).
    """
    params = cfg.params
    stream = RngStream(cfg.seed, stream_id_for("thm1-convergence", cfg.trials - 1))
    g = stream.generator()
    n = params["n_small"]
    a, b = _circle_sequences(n)
    xi = two_sequence_pick(a, b, 0.5, g)
    probes = 1.5 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    diag = potential_diagnostics(WeightedLogDeriv(xi), probes, eps=0.05, r=1.25,
                                 grid_size=params["grid_size"])
    crit = critical_points(RootPoly(xi)).roots
    z0 = 0.29 + 0.07j
    while min(np.min(np.abs(z0 - xi)), np.min(np.abs(z0 - crit))) < 1e-6:
        z0 += 0.001 + 0.002j
    pj = poisson_jensen_residual(crit, xi, z0, 2.0, params["quad_nodes"])
    out = diag.to_json_dict()
    out["boundary_identity_residual"] = float(pj)
    return out


def _thm1_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _thm1_trial)
    small = [r.metrics["w1_small"] for r in reports]
    large = [r.metrics["w1_large"] for r in reports]
    summary = {
        "median_w1_small": float(np.median(small)),
        "median_w1_large": float(np.median(large)),
        "fraction_improved": float(np.mean([r.metrics["improved"] for r in reports])),
    }
    if cfg.params["diagnostics"]:
        summary["diagnostics"] = _thm1_potential_report(cfg)
    return ExperimentResult(reports, summary, None)


# --- ginibre-intensity -----------------------------------------------------

def _ginibre_bins(params):
    return np.linspace(params["r_lo"], params["r_hi"], params["bins"] + 1)


def _ginibre_intensity_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("ginibre-intensity", trial))
    n = params["n"]
    spec = eigenvalues(sample_ginibre(stream, n, 1.0 / n),
                       ensemble="ginibre", params={"variance": 1.0 / n})
    radii = np.abs(spec.eigenvalues)
    counts, _ = np.histogram(radii, bins=_ginibre_bins(params))
    out = {f"count_b{i}": int(c) for i, c in enumerate(counts)}
    rows = _spectrum_rows(params, trial, seed, spec)
    if rows is not None:
        out["_spectrum"] = rows
    return out


def expected_ginibre_bin_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """Analytic expected eigenvalue counts per radial bin, variance-1/n entries.

    The radial intensity integrates, after u = n r^2, to
    int gammaincc(n, u) du over the transformed bin.
    """
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda u: gammaincc(n, u), n * lo * lo, n * hi * hi)
        out.append(val)
    return np.array(out)


def _ginibre_intensity_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _ginibre_intensity_trial)
    edges = _ginibre_bins(cfg.params)
    nbins = cfg.params["bins"]
    mean_counts = np.array([
        np.mean([r.metrics[f"count_b{i}"] for r in reports]) for i in range(nbins)])
    expected = expected_ginibre_bin_counts(cfg.params["n"], edges)
    rel_err = np.abs(mean_counts - expected) / expected
    stream = RngStream(cfg.seed, stream_id_for("ginibre-intensity", 0))
    scatter = eigenvalues(sample_ginibre(stream, cfg.params["n"],
                                         1.0 / cfg.params["n"])).eigenvalues
    summary = {
        "bin_edges": [float(e) for e in edges],
        "mean_counts": [float(c) for c in mean_counts],
        "expected_counts": [float(c) for c in expected],
        "max_relative_error": float(rel_err.max()),
    }
    n = cfg.params["n"]
    table_r = np.linspace(0.01, 1.25, 125)
    table_rho = [float(n * math.exp(_power_log_cdf(n, n * r * r))) / math.pi
                 for r in table_r]
    files = {"intensity.csv": _intensity_table(table_r, table_rho)}
    files.update(_spectra_file(reports))
    return ExperimentResult(reports, summary, scatter, files)


# --- poisson-limit ---------------------------------------------------------

def _poisson_limit_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("poisson-limit", trial))
    spec = power_spectrum_sample(stream, params["n"])
    radii = np.abs(spec.eigenvalues)
    count = int(np.sum((radii >= params["r_lo"]) & (radii <= params["r_hi"])))
    out = {"count": count}
    rows = _spectrum_rows(params, trial, seed, spec)
    if rows is not None:
        out["_spectrum"] = rows
    return out


def expected_power_annulus_count(n: int, r_lo: float, r_hi: float) -> float:
    """Exact expected count of powered eigenvalues in r_lo <= |mu| <= r_hi."""
    val, _ = quad(lambda w: gammaincc(n, w),
                  n * r_lo ** (2.0 / n), n * r_hi ** (2.0 / n))
    return float(val)


def _poisson_limit_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _poisson_limit_trial)
    counts = np.array([r.metrics["count"] for r in reports], dtype=float)
    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1)) if counts.size > 1 else 0.0
    stream = RngStream(cfg.seed, stream_id_for("poisson-limit", 0))
    scatter = power_spectrum_sample(stream, cfg.params["n"]).eigenvalues
    scatter = scatter[np.abs(scatter) <= 4.0 * cfg.params["r_hi"]]
    summary = {
        "mean_count": mean,
        "count_variance": var,
        "variance_over_mean": var / mean if mean else float("nan"),
        "analytic_expected": expected_power_annulus_count(
            cfg.params["n"], cfg.params["r_lo"], cfg.params["r_hi"]),
    }
    table_r = np.linspace(0.5 * cfg.params["r_lo"], 2.0 * cfg.params["r_hi"], 121)
    files = {"intensity.csv": _intensity_table(
        table_r, [power_intensity(cfg.params["n"], r) for r in table_r])}
    files.update(_spectra_file(reports))
    return ExperimentResult(reports, summary,
                            scatter if scatter.size else None, files)


# --- spherical-count -------------------------------------------------------

def _spherical_count_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("spherical-count", trial))
    spec = sample_product_ensemble(stream, params["n"], (-1, +1))
    out = {"count_unit_disk": int(np.sum(np.abs(spec.eigenvalues) <= 1.0))}
    rows = _spectrum_rows(params, trial, seed, spec)
    if rows is not None:
        out["_spectrum"] = rows
    return out


def _spherical_count_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _spherical_count_trial)
    counts = np.array([r.metrics["count_unit_disk"] for r in reports], dtype=float)
    stream = RngStream(cfg.seed, stream_id_for("spherical-count", 0))
    scatter = sample_product_ensemble(stream, cfg.params["n"], (-1, +1)).eigenvalues
    scatter = scatter[np.abs(scatter) <= 5.0]
    summary = {
        "mean_count": float(np.mean(counts)),
        "expected_count": cfg.params["n"] / 2.0,
        "stderr": float(np.std(counts, ddof=1) / math.sqrt(counts.size))
        if counts.size > 1 else 0.0,
    }
    files = _spectra_file(reports)
    return ExperimentResult(reports, summary,
                            scatter if scatter.size else None, files)


# --- product-symmetry ------------------------------------------------------

def _parse_pattern(text: str):
    eps = tuple(1 if ch == "+" else -1 for ch in text)
    if not eps or any(ch not in "+-" for ch in text):
        raise BadParams(f"bad epsilon pattern {text!r}")
    return eps


def _product_symmetry_trial(seed, trial, params):
    stream = RngStream(seed, stream_id_for("product-symmetry", trial))
    g = stream.generator()
    spec_a = sample_product_ensemble(g, params["n"], _parse_pattern(params["pattern_a"]))
    spec_b = sample_product_ensemble(g, params["n"], _parse_pattern(params["pattern_b"]))
    ra = np.abs(spec_a.eigenvalues)
    rb = np.abs(spec_b.eigenvalues)
    out = {
        "mean_radius_a": float(np.mean(ra)),
        "mean_radius_b": float(np.mean(rb)),
        "_radii_a": ra.tolist(),
        "_radii_b": rb.tolist(),
    }
    rows_a = _spectrum_rows(params, trial, seed, spec_a)
    rows_b = _spectrum_rows(params, trial, seed, spec_b)
    if rows_a is not None:
        out["_spectrum"] = rows_a + rows_b
    return out


def _product_symmetry_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _product_symmetry_trial)
    pooled_a = np.concatenate([r.metrics.pop("_radii_a") for r in reports])
    pooled_b = np.concatenate([r.metrics.pop("_radii_b") for r in reports])
    summary = {
        "ks_statistic": ks_two_sample(pooled_a, pooled_b),
        "pooled_points_each": int(pooled_a.size),
        "pattern_a": cfg.params["pattern_a"],
        "pattern_b": cfg.params["pattern_b"],
    }
    return ExperimentResult(reports, summary, None, _spectra_file(reports))


# --- real-eig --------------------------------------------------------------

def _parse_int_list(text: str):
    try:
        vals = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise BadParams(f"bad integer list {text!r}") from exc
    if not vals:
        raise BadParams(f"empty integer list {text!r}")
    return vals


def _real_eig_point(seed, index, params):
    factors = _parse_int_list(params["factors"])
    nf = factors[index]
    stream = RngStream(seed, stream_id_for("real-eig", index))
    if params["entries"] == "gaussian":
        sampler = gaussian_entries
    elif params["entries"] == "bernoulli":
        sampler = bernoulli_entries(params["q"])
    else:
        raise BadParams(f"unknown entries kind {params['entries']!r}")
    est = real_eig_probability(stream, params["k"], nf, sampler, params["mc_trials"])
    return {"n_factors": nf, "p_hat": est.p_hat, "stderr": est.stderr,
            "mc_trials": est.trials}


def _real_eig_run(cfg: ExperimentConfig) -> ExperimentResult:
    factors = _parse_int_list(cfg.params["factors"])
    params = dict(cfg.params)
    params["mc_trials"] = cfg.trials
    cfg2 = ExperimentConfig(cfg.name, cfg.seed, cfg.trials, params,
                            cfg.output_dir, cfg.workers)
    reports = _run_trials(cfg2, _real_eig_point, count=len(factors))
    p_hats = [r.metrics["p_hat"] for r in reports]
    stderrs = [r.metrics["stderr"] for r in reports]
    monotone = all(p_hats[i + 1] >= p_hats[i] - 2.0 * max(stderrs[i], stderrs[i + 1])
                   for i in range(len(p_hats) - 1))
    summary = {
        "factors": list(factors),
        "p_hats": [float(p) for p in p_hats],
        "stderrs": [float(s) for s in stderrs],
        "monotone_within_2_stderr": bool(monotone),
        "entries": cfg.params["entries"],
    }
    return ExperimentResult(reports, summary, None)


# --- walsh-clusters --------------------------------------------------------

def _walsh_roots(seed, trial, params):
    """Cluster centers and the k * n_per_cluster roots of one walsh-clusters trial."""
    g = RngStream(seed, stream_id_for("walsh-clusters", trial)).generator()
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


def _walsh_trial(seed, trial, params):
    k = params["k"]
    radius = params["radius"]
    eps = params["eps"]
    n_per = params["n_per_cluster"]
    centers, roots = _walsh_roots(seed, trial, params)
    crit = critical_points(RootPoly(roots)).roots
    spec = ClusterSpec(centers, radius, 5.0 * k + 2.0 * radius)
    defs = cluster_deficiency(spec, crit, eps, n_per)
    bound = walsh_constant(k, eps, 5.0 * k)
    return {
        "max_deficiency": int(max(defs)),
        "bound": bound,
        "violated": int(max(defs) > bound),
    }


def _walsh_run(cfg: ExperimentConfig) -> ExperimentResult:
    reports = _run_trials(cfg, _walsh_trial)
    summary = {
        "violations": int(sum(r.metrics["violated"] for r in reports)),
        "max_deficiency": int(max(r.metrics["max_deficiency"] for r in reports)),
        "bound": float(reports[0].metrics["bound"]),
    }
    return ExperimentResult(reports, summary, None)


# --- discrepancy -----------------------------------------------------------

def _discrepancy_point(seed, index, params):
    sizes = _parse_int_list(params["n_list"])
    n = sizes[index]
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
    }


def _discrepancy_run(cfg: ExperimentConfig) -> ExperimentResult:
    sizes = _parse_int_list(cfg.params["n_list"])
    reports = _run_trials(cfg, _discrepancy_point, count=len(sizes))
    discs = [r.metrics["discrepancy"] for r in reports]
    summary = {
        "sizes": list(sizes),
        "discrepancies": [float(d) for d in discs],
        "monotone_decreasing": bool(all(b < a for a, b in zip(discs, discs[1:]))),
        "all_within_bound": bool(all(r.metrics["within_bound"] for r in reports)),
    }
    return ExperimentResult(reports, summary, None)


# --- registry --------------------------------------------------------------

def _spec(**kw):
    return kw


EXPERIMENTS = {
    "exp-spacing": ExperimentDef(
        "exp-spacing",
        "extremal zero/critical spacing statistics for exponential samples",
        ("trial", "n", "seed", "left_stat", "right_stat", "d1", "mean_roots"),
        _spec(n=(int, 2000), rate=(float, 1.0)),
        _exp_spacing_run,
    ),
    "matching-lln": ExperimentDef(
        "matching-lln",
        "matching distance of half-normal-rooted polynomials vs the first moment",
        ("trial", "n", "seed", "d1", "mean_roots"),
        _spec(n=(int, 200)),
        _matching_lln_run,
    ),
    "thm1-convergence": ExperimentDef(
        "thm1-convergence",
        "critical-point measure convergence for two-sequence random picks",
        ("trial", "seed", "w1_small", "w1_large", "improved"),
        _spec(n_small=(int, 100), n_large=(int, 1600), n_proj=(int, 64),
              ref_points=(int, 2048), diagnostics=(int, 0), grid_size=(int, 96),
              quad_nodes=(int, 4096)),
        _thm1_run,
    ),
    "ginibre-intensity": ExperimentDef(
        "ginibre-intensity",
        "radial eigenvalue histogram against the kernel intensity",
        ("trial", "seed") + tuple(f"count_b{i}" for i in range(7)),
        _spec(n=(int, 64), r_lo=(float, 0.2), r_hi=(float, 0.9), bins=(int, 7)),
        _ginibre_intensity_run,
    ),
    "poisson-limit": ExperimentDef(
        "poisson-limit",
        "annulus counts of powered Ginibre spectra against the limit intensity",
        ("trial", "seed", "count"),
        _spec(n=(int, 64), r_lo=(float, 1.0), r_hi=(float, math.e)),
        _poisson_limit_run,
    ),
    "spherical-count": ExperimentDef(
        "spherical-count",
        "unit-disk eigenvalue counts of the inverse-pair product ensemble",
        ("trial", "seed", "count_unit_disk"),
        _spec(n=(int, 32)),
        _spherical_count_run,
    ),
    "product-symmetry": ExperimentDef(
        "product-symmetry",
        "radial spectra of two inversion patterns with equal signature sum",
        ("trial", "seed", "mean_radius_a", "mean_radius_b"),
        _spec(n=(int, 16), pattern_a=(str, "-++"), pattern_b=(str, "++-")),
        _product_symmetry_run,
    ),
    "real-eig": ExperimentDef(
        "real-eig",
        "probability that k x k matrix products have an all-real spectrum "
        "(one row per factor count; --trials sets the Monte Carlo budget)",
        ("trial", "seed", "n_factors", "p_hat", "stderr", "mc_trials"),
        _spec(k=(int, 2), factors=(str, "1,2,4,8"), entries=(str, "gaussian"),
              q=(float, 0.5)),
        _real_eig_run,
    ),
    "walsh-clusters": ExperimentDef(
        "walsh-clusters",
        "critical-point deficiencies of clustered roots against the escape bound",
        ("trial", "seed", "max_deficiency", "bound", "violated"),
        _spec(k=(int, 2), n_per_cluster=(int, 20), radius=(float, 0.5),
              eps=(float, 0.45)),
        _walsh_run,
    ),
    "discrepancy": ExperimentDef(
        "discrepancy",
        "angular discrepancy of derivative zeros vs the coefficient bound "
        "(one row per size in n_list; --trials is ignored)",
        ("trial", "seed", "n", "discrepancy", "discrepancy_sq", "et_rhs",
         "within_bound"),
        _spec(n_list=(str, "32,64,128,256"), C=(float, 10.0)),
        _discrepancy_run,
    ),
}

_UNIVERSAL_PARAMS = {"svg": (int, 0), "spectra": (int, 0)}


def _coerce_params(edef: ExperimentDef, raw: dict) -> dict:
    out = {}
    spec = dict(edef.param_spec)
    spec.update(_UNIVERSAL_PARAMS)
    for key, value in raw.items():
        if key not in spec:
            raise BadParams(f"unknown parameter {key!r} for {edef.name}")
        caster = spec[key][0]
        try:
            out[key] = caster(value)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"parameter {key!r}: cannot convert {value!r}") from exc
    for key, (_, default) in spec.items():
        out.setdefault(key, default)
    return out


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute a registered experiment and write trials.csv plus summary.json.

    Returns the summary payload. Identical configs produce byte-identical
    CSV files regardless of worker count.
    """
    if cfg.name not in EXPERIMENTS:
        raise UnknownExperiment(
            f"{cfg.name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    if cfg.trials < 1:
        raise BadParams("trials must be >= 1")
    edef = EXPERIMENTS[cfg.name]
    params = _coerce_params(edef, cfg.params)
    cfg = ExperimentConfig(cfg.name, cfg.seed, cfg.trials, params,
                           cfg.output_dir, cfg.workers)
    t0 = time.perf_counter()
    result = edef.run(cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    payload = {
        "experiment": cfg.name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "params": {k: params[k] for k in sorted(params)},
        "summary": result.summary,
        "wall_ms": wall_ms,
    }
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = [",".join(edef.columns)]
        for rep in result.reports:
            row = dict(rep.metrics)
            row["trial"] = rep.trial
            row["seed"] = rep.seed
            lines.append(",".join(_format_cell(row[c]) for c in edef.columns))
        (out / "trials.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "summary.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for fname, content in (result.files or {}).items():
            (out / fname).write_text(content, encoding="utf-8")
        if params.get("svg") and result.scatter is not None:
            emit_scatter_svg(result.scatter, out / "scatter.svg")
    return payload
