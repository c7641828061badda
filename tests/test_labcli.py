import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_outcome, clongdouble_polish, needs_long_double
from spectralab.errors import BadParams, EmptyMeasure, IoError, NoConvergence, UnknownExperiment
from spectralab.labcli import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_scatter_svg,
    run_experiment,
    stream_id_for,
)
import spectralab.labcli.experiments as expmod
from spectralab.labcli.cli import main
from spectralab.measures import (
    ClusterSpec,
    angular_discrepancy,
    cluster_deficiency,
    walsh_constant,
)
from spectralab.polycore import RootPoly
from spectralab.randgen import RngStream
from spectralab.rootsolve import critical_points

ALL_NAMES = {
    "thm1-convergence", "matching-lln", "exp-spacing", "ginibre-intensity",
    "poisson-limit", "spherical-count", "product-symmetry", "real-eig",
    "walsh-clusters", "discrepancy",
}

# columns are a stability contract: freeze them
GOLDEN_COLUMNS = {
    "exp-spacing": "trial,n,seed,left_stat,right_stat,d1,mean_roots",
    "matching-lln": "trial,n,seed,d1,mean_roots",
    "thm1-convergence": "trial,seed,w1_small,w1_large,improved",
    "ginibre-intensity": "trial,seed,count_b0,count_b1,count_b2,count_b3,"
                         "count_b4,count_b5,count_b6",
    "poisson-limit": "trial,seed,count",
    "spherical-count": "trial,seed,count_unit_disk",
    "product-symmetry": "trial,seed,mean_radius_a,mean_radius_b",
    "real-eig": "trial,seed,n_factors,p_hat,stderr,mc_trials",
    "walsh-clusters": "trial,seed,max_deficiency,bound,violated",
    "discrepancy": "trial,seed,n,discrepancy,discrepancy_sq,et_rhs,within_bound",
}

SMALL_PARAMS = {
    "exp-spacing": {"n": 30},
    "matching-lln": {"n": 25},
    "thm1-convergence": {"n_small": 12, "n_large": 40, "n_proj": 8, "ref_points": 64},
    "ginibre-intensity": {"n": 12},
    "poisson-limit": {"n": 10},
    "spherical-count": {"n": 6},
    "product-symmetry": {"n": 5},
    "real-eig": {"factors": "1,2"},
    "walsh-clusters": {"n_per_cluster": 5},
    "discrepancy": {"n_list": "8,16"},
}


# Pinned output files at SMALL_PARAMS, seed 7, 3 trials, with the extra
# parameters below: the SHA-256 of every file a run writes (summary.json
# without its wall_ms), keyed by file name. A file missing here must not be
# written. The digests were taken before the experiments moved onto the
# declarative runner and must not change when the runner does; floats come
# from LAPACK, so a different numpy/LAPACK build may need them recomputed.
# ginibre-intensity's intensity.csv was re-pinned when its table was fixed
# to the variance-1/n intensity (it had the Poisson mean and count swapped).
# discrepancy was re-pinned when Kuiper's statistic replaced the arc-pair
# loop (n = 16 now reads 2/17 correctly rounded, 1 ulp from before), and
# thm1-convergence when critical_points became deflated (w1_small moved by at
# most 4e-14 relative, towards the value at longdouble-refined points) and
# again when the repulsion sum below degree 80 became a row reduction
# (trial 0's w1_large moved by 1 ulp, onto its value at critical points
# polished to 50 digits), and again when critical_points turned its start
# points (w1_large moved by 2.1e-16 relative, boundary_identity_residual from
# 8.9e-16 to 1.3e-15, 1.1e-15 at 40-digit critical points;
# test_pinned_thm1_points_match_extended_newton checks the points).
# exp-spacing's trials.csv and both matching-lln files were re-pinned when
# the real gap solver took the fixed-weight rational step: one critical
# point moved by 1 ulp in exp-spacing trial 2
# and in matching-lln trial 2, so left_stat moved by at most 2.3e-16
# relative and d1 by 3.2e-16; no other column moved. Against d1 and
# left_stat at 40-digit critical points (mpmath 1.3.0), 7 of the 9 pinned
# values are unchanged, and exp-spacing trial 2's left_stat (0.6 -> 1.4 ulp)
# and matching-lln trial 2's d1 (0.6 -> 2.6 ulp) are farther; over 200
# draws at n = 30 the worst critical point went from 2.24 to 1.24 ulp off
# and the mean error stayed 0.25 ulp (CHANGES.md). The intensity.csv and
# summary.json of ginibre-intensity and poisson-limit were re-pinned when the
# Poisson tails moved from log-space sums to ratio-built windows and the
# expected counts from quadrature to a closed form: rho moved by at most
# 2.8e-15 relative (n = 12) and 2.2e-15 (n = 10), expected_counts by 2.6e-16
# and analytic_expected by 1 ulp. tests/test_rmt.py::TestPoissonOracles
# checks both tables and the counts against 40-digit mpmath.
PIN_EXTRA = {
    "ginibre-intensity": {"spectra": 1, "svg": 1},
    "poisson-limit": {"spectra": 1, "svg": 1},
    "spherical-count": {"spectra": 1, "svg": 1},
    "product-symmetry": {"spectra": 1, "svg": 1},
    "thm1-convergence": {"diagnostics": 1},
}

PINNED_DIGESTS = {
    "discrepancy": {
        "summary.json": "cbed4deb9ef32f9684e1e30c82e63b345df4b70edeaa257151ce48e62ef30508",
        "trials.csv": "ba533b2c625a9d91abb7ec4ecd242b41e609687f6ef07ad6e340c7b12afdac3d",
    },
    "exp-spacing": {
        "summary.json": "ae63899403ef03a757765ec8dee37c0286d572a0f6660969d8bce7bb1478f066",
        "trials.csv": "864d08e2ffd7172d5799f9a9d3245a9fb5aadf8a6053b52766b8a54bb03f431a",
    },
    "ginibre-intensity": {
        "intensity.csv": "ad037626ed4d66f435dcd316e903758a4a116b27ffa9c4dff0adf5d8316bc95c",
        "scatter.svg": "1adf195db085108ccae9c18b3696ee73e61f6b87c229fb878c785dbdd18a64cf",
        "spectra.csv": "e9f56b09f67adb8f3d77cd8c886b9dbb4e3bab2f27f2b9f684c0dc53f1f7ea61",
        "summary.json": "fff88c376f22485a4beefbd9a3ee0e70d0180841a072285aef3e4a8a8bcf563b",
        "trials.csv": "7425e7d80115794b8560c89e4bcff03ed7e4a28549c56bdb29cdb6e58f729ae3",
    },
    "matching-lln": {
        "summary.json": "bd6d2905253b55c5c9f75d93df3f453423418535f01a2ce61a3b72d1f0aafe51",
        "trials.csv": "fe9253dc7a68c8bb6cf2d58b35c1dcd12c8d20b44165d9b7d53c106cb74054a9",
    },
    "poisson-limit": {
        "intensity.csv": "3e31590afc43e68537a3afbeaf473699c47ac3f26fd051cb634fba013af53f10",
        "scatter.svg": "6cc3a1801adde8348c8b94cada0895f83019c9a75931d1f416a45de1c0074e41",
        "spectra.csv": "d428bd5a2514ddca08e6028778d17964b9d901a5bfba489db50abca45a9b67a6",
        "summary.json": "b37a8ae15b0cf099c6a88d5d7610d355c82e777f1a34681a80f0aa856e9d970c",
        "trials.csv": "b4e9650bbd141b07449855362e2efff250967c82d3aedbe0d82421cb48f1e294",
    },
    "product-symmetry": {
        "spectra.csv": "7343b9793af0b98c4af9d309ea81f00c0d792a0de5c359d8683f32b781911ac5",
        "summary.json": "e5a418a70ff18354f198d50c6cb4f11a1a86c6cb629f1284bf5214b9b0c8ee04",
        "trials.csv": "9f2e3ce65d55fca71d0cc63df3ee35e5c11d2b741df9fb71afefc09fc9ce3c54",
    },
    "real-eig": {
        "summary.json": "9133fba6a735ba70a5bbfc93902326957fb8670114ada80875a40a449da1919e",
        "trials.csv": "c2d30343d9e2dca2adfbfb2ba88f0d62e8ece2fa2ea3775f9201543ff53163b2",
    },
    "spherical-count": {
        "scatter.svg": "0bb0126fcee9f72a10490dc8ac044c1dc3539504085fddbe4014a6581476e2c4",
        "spectra.csv": "b614eee1613c8b35e305f23360b495c9bc0b2f08168fc4094a37eef9e87bfdb6",
        "summary.json": "bfe6fc08031a8a05916053e625d3dddc41bd9ecee9b4a5d00720ea28a427f9ab",
        "trials.csv": "a5df8cbac6b92e725d63d85b8180bbe36005deaba294735e3c64dd20b9860a17",
    },
    "thm1-convergence": {
        "summary.json": "ede36101493125fe41faed0dbb7a14dbb8b6bdc7258bc970a461acc1999c02ff",
        "trials.csv": "8c11616b567631cb48970bd70d85f34d0b095e8c9adf77bee36487075e00b9c7",
    },
    "walsh-clusters": {
        "summary.json": "55b8af6b1d2f85f9555d775a38332e623b59617c0ac8a09c3a1dc589d2066219",
        "trials.csv": "f893213f1f26b1df14bf2f044ceefdde4c9b6823423c93aefa85e50a8b19c423",
    },
}


def _output_digests(out_dir: Path) -> dict:
    out = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "summary.json":
            payload = json.loads(data)
            payload.pop("wall_ms")
            data = json.dumps(payload, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


class TestPinnedOutputs:
    # the ids keep the "-1" of the one-worker runs the digests were taken on
    @pytest.mark.parametrize("name", sorted(ALL_NAMES),
                             ids=[f"{name}-1" for name in sorted(ALL_NAMES)])
    def test_output_files_are_pinned(self, name, tmp_path):
        params = {**SMALL_PARAMS[name], **PIN_EXTRA.get(name, {})}
        run_experiment(ExperimentConfig(name, 7, 3, params, tmp_path))
        assert _output_digests(tmp_path) == PINNED_DIGESTS[name]

    def test_thm1_diagnostics_at_n100_are_pinned(self, tmp_path):
        # SMALL_PARAMS' n_small = 12 grid is too coarse a witness: at
        # n_small = 100 a 1-ulp drift of a3_integral or of one projected
        # distance changes a digest. Seed 7, 3 trials, as above. Re-pinned
        # when degrees >= 80 moved to row-reduction sums: w1_small moved by
        # at most 1.6e-16 relative, w1_large by 3.6e-16, and
        # boundary_identity_residual from 7.1e-15 to 6.2e-15 (7.5e-15 at
        # critical points from a 40-digit Newton polish, which the new points
        # match as closely in rms; CHANGES.md has the comparison). Re-pinned
        # when n_large = 400 crossed to the tiled repulsion sum: 31 of 1197
        # points moved, by at most 1.9e-15 relative; w1_large moved by at most
        # 1.9e-16 relative and w1_small and improved not at all. Against a
        # 40-digit Newton polish the moved points' rms relative error went
        # from 3.2e-16 to 5.6e-16 here, and from 4.9e-16 to 4.0e-16 over the
        # 1006 points that moved in 96 such draws (CHANGES.md). Re-pinned when
        # critical_points turned its start points: w1_small moved by at most
        # 1.6e-16 relative, w1_large by 1.8e-16, and boundary_identity_residual
        # from 6.2e-15 to 7.5e-15 (7.5e-15 to 8.4e-15 at 40-digit critical
        # points, by their order); test_pinned_thm1_points_match_extended_newton
        # checks the points.
        params = {"n_small": 100, "n_large": 400, "n_proj": 64, "ref_points": 2048,
                  "diagnostics": 1, "grid_size": 96}
        run_experiment(ExperimentConfig("thm1-convergence", 7, 3, params, tmp_path))
        assert _output_digests(tmp_path) == {
            "summary.json": "73f64e27a5b3aa87493a710da1bd848d65d0078811ea0903c3cb3f27654a9c1e",
            "trials.csv": "2c8f9e3bb20c7e2912ab4398958ffe99ce18f7148c868a6d126a45156d293fd7",
        }


@needs_long_double
@pytest.mark.parametrize("name", ["walsh-clusters", "discrepancy"])
def test_small_degree_pins_match_polished_points(name, tmp_path):
    # the solver-derived columns of the pinned runs above, recomputed from
    # their critical points after a clongdouble polish: the deficiency
    # columns must be equal, and the discrepancy columns within the ulp
    # distance measured on both rows (n = 8 and 16), which is 0
    run_experiment(ExperimentConfig(name, 7, 3, dict(SMALL_PARAMS[name]), tmp_path))
    rows = list(csv.DictReader((tmp_path / "trials.csv").open()))
    params = expmod._coerce_params(EXPERIMENTS[name], SMALL_PARAMS[name])

    def polished(roots):
        return clongdouble_polish(critical_points(RootPoly(roots)).roots, roots).astype(complex)

    for t, row in enumerate(rows):
        if name == "walsh-clusters":
            k, radius, eps = params["k"], params["radius"], params["eps"]
            centers, roots = expmod._walsh_roots(RngStream(7, stream_id_for(name, t)), params)
            defs = cluster_deficiency(ClusterSpec(centers, radius, 5.0 * k + 2.0 * radius),
                                      polished(roots), eps, params["n_per_cluster"])
            violated = int(max(defs) > walsh_constant(k, eps, 5.0 * k))
            assert (int(row["max_deficiency"]), int(row["violated"])) == (max(defs), violated)
        else:
            n = int(row["n"])
            roots = np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
            disc = angular_discrepancy(np.concatenate([polished(roots), [1.0, 1.0]]))
            for col, want in (("discrepancy", disc), ("discrepancy_sq", disc * disc)):
                assert float(row[col]) == want, (row["n"], col)


def run_fresh_python(script):
    """Run script in a new interpreter that imports this checkout's spectralab."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLazyScipy:
    def test_no_experiment_loads_scipy_submodules(self):
        # scipy.linalg is imported where rmt.generalized_schur calls it, and
        # no experiment does; the intensity experiments need no scipy at all
        script = textwrap.dedent(f"""
            import sys
            import spectralab, spectralab.labcli
            from spectralab.labcli import ExperimentConfig, run_experiment

            small = {SMALL_PARAMS!r}
            runs = sorted(small.items()) + [("ginibre-intensity", {{"n": 64}}),
                                            ("poisson-limit", {{"n": 64}})]
            lazy = ("scipy.special", "scipy.integrate", "scipy.linalg")
            for name, params in runs:
                run_experiment(ExperimentConfig(name, 7, 1, params))
                loaded = [m for m in lazy if m in sys.modules]
                assert not loaded, (name, params, loaded)
        """)
        run_fresh_python(script)

    def test_no_experiment_loads_scipy_on_two_threads(self):
        # with two compute threads and more than one trial, map_two looks up
        # numpy's bundled OpenBLAS and run_two holds it; neither may load scipy
        script = textwrap.dedent(f"""
            import sys
            import spectralab.compute as compute
            from spectralab.labcli import ExperimentConfig, run_experiment

            compute._THREADS.count = 2
            for name, params in sorted({SMALL_PARAMS!r}.items()):
                run_experiment(ExperimentConfig(name, 7, 3, params))
                assert "scipy" not in sys.modules, name
        """)
        run_fresh_python(script)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == ALL_NAMES

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(UnknownExperiment):
            run_experiment(ExperimentConfig("nope", 1, 1, {}, tmp_path))

    def test_bad_param_names_offender(self, tmp_path):
        with pytest.raises(BadParams, match="bogus"):
            run_experiment(ExperimentConfig("poisson-limit", 1, 1,
                                            {"bogus": "1"}, tmp_path))

    def test_bad_param_value(self, tmp_path):
        with pytest.raises(BadParams, match="n"):
            run_experiment(ExperimentConfig("poisson-limit", 1, 1,
                                            {"n": "eight"}, tmp_path))

    def test_trials_validated(self, tmp_path):
        with pytest.raises(BadParams):
            run_experiment(ExperimentConfig("poisson-limit", 1, 0, {}, tmp_path))


class TestWorkerPool:
    """There is no worker pool, and a refused run starts no trial."""

    @pytest.fixture
    def trials_run(self, monkeypatch):
        """The name of the experiment of every trial run, through each experiment's trial."""
        seen = []
        for name, edef in list(expmod.EXPERIMENTS.items()):
            def recorded(*args, name=name, trial=edef.trial):
                seen.append(name)
                return trial(*args)

            monkeypatch.setitem(expmod.EXPERIMENTS, name,
                                dataclasses.replace(edef, trial=recorded))
        return seen

    def test_trials_are_recorded(self, trials_run, tmp_path):
        run_experiment(ExperimentConfig("matching-lln", 7, 2, {"n": 25}, tmp_path))
        assert trials_run == ["matching-lln", "matching-lln"]

    @pytest.mark.parametrize("name, params", [
        ("ginibre-intensity", {"bins": 0}),
        ("thm1-convergence", {"n_small": 60, "n_large": 40}),
        ("product-symmetry", {"pattern_b": "+x-"}),
        ("real-eig", {"entries": "uniform"}),
    ])
    def test_bad_params_refused_before_the_pool(self, trials_run, name, params, tmp_path):
        with pytest.raises(BadParams):
            run_experiment(ExperimentConfig(name, 7, 4, params, tmp_path))
        assert trials_run == []

    def test_workers_flag_is_refused(self, trials_run, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--experiment", "matching-lln", "--trials", "2",
                  "--workers", "2", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert trials_run == []

    def test_workers_config_key_is_refused(self, trials_run, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("experiment=matching-lln\ntrials=2\nworkers=2\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
        assert "workers" in capsys.readouterr().err
        assert trials_run == []
        assert not (tmp_path / "o").exists()

    def test_import_loads_no_process_pool(self):
        script = textwrap.dedent("""
            import sys
            import spectralab, spectralab.labcli
            loaded = [m for m in ("multiprocessing", "concurrent.futures.process")
                      if m in sys.modules]
            assert not loaded, loaded
        """)
        run_fresh_python(script)


class TestSingleDraw:
    """Each trial's stream is drawn once; nothing is re-sampled for plots or diagnostics."""

    @pytest.mark.parametrize("name, sampler", [
        ("ginibre-intensity", "sample_ginibre"),
        ("poisson-limit", "power_spectrum_sample"),
        ("spherical-count", "sample_product_ensemble"),
        ("thm1-convergence", "two_sequence_pick"),
    ])
    def test_one_draw_per_trial(self, name, sampler, monkeypatch, tmp_path):
        calls = []
        original = getattr(expmod, sampler)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(expmod, sampler, counted)
        params = {**SMALL_PARAMS[name], **PIN_EXTRA[name], "svg": 1}
        run_experiment(ExperimentConfig(name, 7, 3, params, tmp_path))
        assert len(calls) == 3


class TestOutputs:
    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_minimal_run_schema(self, name, tmp_path):
        cfg = ExperimentConfig(name, 7, 1, dict(SMALL_PARAMS[name]), tmp_path / name)
        payload = run_experiment(cfg)
        lines = (tmp_path / name / "trials.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_COLUMNS[name]
        expected_rows = {"real-eig": 2, "discrepancy": 2}.get(name, 1)
        assert len(lines) == 1 + expected_rows
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert summary["experiment"] == name
        assert set(summary["summary"]) == set(payload["summary"])

    def test_rerun_is_byte_identical(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig("spherical-count", 11, 4, {"n": 6}, tmp_path / sub)
            run_experiment(cfg)
            digests.append(hashlib.sha256(
                (tmp_path / sub / "trials.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_rerun_removes_the_earlier_runs_files(self, tmp_path):
        # a run with spectra and scatter, then a plain one in the same
        # directory: it holds what the plain run writes in a fresh one
        first = {"n": 12, "spectra": 1, "svg": 1}
        run_experiment(ExperimentConfig("ginibre-intensity", 1, 2, first, tmp_path / "d"))
        assert {"spectra.csv", "scatter.svg"} < set(_output_digests(tmp_path / "d"))
        for sub in ("d", "fresh"):
            run_experiment(ExperimentConfig("ginibre-intensity", 2, 3, {"n": 12}, tmp_path / sub))
        assert _output_digests(tmp_path / "d") == _output_digests(tmp_path / "fresh")

    def test_failure_removes_the_earlier_runs_files(self, monkeypatch, tmp_path):
        params = {"n": 12, "spectra": 1, "svg": 1}
        run_experiment(ExperimentConfig("ginibre-intensity", 1, 2, params, tmp_path))
        before = _output_digests(tmp_path)
        # a run refused before any trial touches nothing
        with pytest.raises(BadParams):
            run_experiment(ExperimentConfig("ginibre-intensity", 1, 2, {"bins": 0}, tmp_path))
        assert _output_digests(tmp_path) == before

        def fails(stream, params):
            raise NoConvergence("forced")

        edef = EXPERIMENTS["ginibre-intensity"]
        monkeypatch.setitem(expmod.EXPERIMENTS, edef.name, dataclasses.replace(edef, trial=fails))
        with pytest.raises(NoConvergence):
            run_experiment(ExperimentConfig("ginibre-intensity", 2, 3, params, tmp_path))
        assert [path.name for path in tmp_path.iterdir()] == ["failure.json"]

    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_thread_and_worker_counts_do_not_change_csv(self, name, monkeypatch, tmp_path):
        # the name keeps its ids; trials run in one process, so only threads vary
        import spectralab.compute as compute

        outputs = set()
        for threads in (1, 2):
            monkeypatch.setattr(compute._THREADS, "count", threads)
            out = tmp_path / f"t{threads}"
            run_experiment(ExperimentConfig(name, 5, 4, dict(SMALL_PARAMS[name]), out))
            outputs.add((out / "trials.csv").read_bytes())
        assert len(outputs) == 1

    def test_exp_spacing_summary_keys(self, tmp_path):
        cfg = ExperimentConfig("exp-spacing", 42, 2, {"n": 30}, tmp_path / "es")
        payload = run_experiment(cfg)
        assert "median_left_stat" in payload["summary"]
        assert "median_right_stat" in payload["summary"]

    def test_exp_spacing_exact_law_at_small_scale(self, tmp_path):
        # rate 1e12 puts most gaps below 1e-15. Criterion 2's law d1 = mean(x)
        # is checked relative to mean_roots: the benchmark's absolute form,
        # |d1 - mean_roots| <= 1e-8 max(1, mean_roots), is 1e-8 here, 1e4 times
        # mean_roots, and would pass a solver that stops at its first midpoint
        run_experiment(ExperimentConfig("exp-spacing", 42, 3, {"n": 2000, "rate": 1e12},
                                        tmp_path))
        rows = np.genfromtxt(tmp_path / "trials.csv", delimiter=",", names=True)
        assert np.all(np.abs(rows["d1"] - rows["mean_roots"]) <= 1e-8 * rows["mean_roots"])

    def test_stream_ids_differ_across_experiments(self):
        assert stream_id_for("exp-spacing", 0) != stream_id_for("poisson-limit", 0)
        assert stream_id_for("exp-spacing", 1) == stream_id_for("exp-spacing", 0) ^ 1

    def test_discrepancy_defaults_decrease_within_bound(self, tmp_path):
        cfg = ExperimentConfig("discrepancy", 1, 1, {}, tmp_path / "d")
        payload = run_experiment(cfg)
        assert payload["summary"]["monotone_decreasing"]
        assert payload["summary"]["all_within_bound"]

    def test_discrepancy_is_the_double_point_mass(self, tmp_path):
        # the double root at 1 is an atom of mass 2/(n+1); the other derivative
        # zeros of 1 + z + ... + z^n are spread evenly enough in angle that
        # this atom alone sets the discrepancy
        sizes = (128, 256, 512)
        cfg = ExperimentConfig("discrepancy", 1, 1, {"n_list": "128,256,512"},
                               tmp_path / "d")
        run_experiment(cfg)
        rows = (tmp_path / "d" / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == len(sizes)
        cols = GOLDEN_COLUMNS["discrepancy"].split(",")
        for n, line in zip(sizes, rows):
            row = dict(zip(cols, line.split(",")))
            assert int(row["n"]) == n
            assert abs(float(row["discrepancy"]) - 2.0 / (n + 1)) <= 1e-9
            roots = np.exp(2j * np.pi * np.arange(1, n + 1) / (n + 1))
            crit = critical_points(RootPoly(roots)).roots
            assert np.abs(crit).max() <= 1.0 + 1e-9

    def test_spectra_and_intensity_files(self, tmp_path):
        cfg = ExperimentConfig("ginibre-intensity", 5, 2, {"n": 10, "spectra": 1},
                               tmp_path / "g")
        run_experiment(cfg)
        spectra = (tmp_path / "g" / "spectra.csv").read_text().splitlines()
        assert spectra[0] == "trial,seed,ensemble,n,re,im"
        assert len(spectra) == 1 + 2 * 10
        intensity = (tmp_path / "g" / "intensity.csv").read_text().splitlines()
        assert intensity[0] == "r,rho"

    def test_ginibre_intensity_table_integrates_to_n(self, tmp_path):
        # the variance-1/n intensity carries n eigenvalues: 2 pi int r rho dr = n
        # (the table starts at r = 0.01, which leaves out about n * 1e-4)
        n = 64
        run_experiment(ExperimentConfig("ginibre-intensity", 5, 1, {"n": n}, tmp_path))
        table = np.loadtxt(tmp_path / "intensity.csv", delimiter=",", skiprows=1)
        r, rho = table[:, 0], table[:, 1]
        assert 2.0 * np.pi * np.trapezoid(r * rho, r) == pytest.approx(n, rel=1e-3)

    @pytest.mark.parametrize("bins", [5, 9])
    def test_ginibre_columns_follow_bins(self, bins, tmp_path):
        cfg = ExperimentConfig("ginibre-intensity", 7, 2, {"n": 12, "bins": bins}, tmp_path)
        payload = run_experiment(cfg)
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,seed," + ",".join(f"count_b{i}" for i in range(bins))
        assert all(len(line.split(",")) == bins + 2 for line in lines[1:])
        assert len(payload["summary"]["mean_counts"]) == bins

    def test_thm1_diagnostics_record(self, tmp_path):
        cfg = ExperimentConfig(
            "thm1-convergence", 3, 1,
            {"n_small": 30, "n_large": 50, "n_proj": 4, "ref_points": 32,
             "diagnostics": 1, "grid_size": 64, "quad_nodes": 256},
            tmp_path / "t")
        payload = run_experiment(cfg)
        diag = payload["summary"]["diagnostics"]
        assert set(diag) >= {"a1_rate", "a2_rate", "a3_integral",
                             "boundary_identity_residual"}
        assert diag["boundary_identity_residual"] <= 1e-8
        saved = json.loads((tmp_path / "t" / "summary.json").read_text())
        assert "diagnostics" in saved["summary"]


class TestScatterSvg:
    def test_three_points_three_circles(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_scatter_svg([0.0, 1.0 + 1j, -1j], path)
        text = path.read_text()
        assert text.count("<circle") == 3
        assert text.startswith("<?xml")

    def test_fixed_axis_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_scatter_svg([0.5 + 0.5j, -1.0], p1)
        emit_scatter_svg([0.5 + 0.5j, -1.0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("write, expected", [
        (lambda d: emit_scatter_svg([], d / "empty.svg"), EmptyMeasure),
        (lambda d: emit_scatter_svg([1.0, 1j], d), IoError),
    ], ids=["empty-cloud", "directory-path"])
    def test_refusals(self, write, expected, tmp_path):
        assert_outcome(lambda: write(tmp_path), expected)

    def test_svg_param_writes_file(self, tmp_path):
        cfg = ExperimentConfig("poisson-limit", 5, 1, {"n": 8, "svg": 1},
                               tmp_path / "p")
        run_experiment(cfg)
        assert (tmp_path / "p" / "scatter.svg").exists()


class TestCli:
    def test_run_and_list_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--experiment", "discrepancy", "--trials", "1",
                   "--param", "n_list=8", "--out", str(out)])
        assert rc == 0
        assert (out / "trials.csv").exists()

    def test_unknown_experiment_exit_2(self):
        assert main(["run", "--experiment", "does-not-exist"]) == 2

    def test_bad_param_exit_2(self, tmp_path):
        rc = main(["run", "--experiment", "poisson-limit", "--trials", "1",
                   "--param", "n=x", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("name,params", [
        ("ginibre-intensity", ["bins=0"]),
        ("thm1-convergence", ["n_small=60", "n_large=40"]),
        ("thm1-convergence", ["n_small=40", "n_large=40"]),
        ("product-symmetry", ["pattern_a=+-x"]),
        ("real-eig", ["entries=uniform"]),
        ("ginibre-intensity", ["n=0"]),
        ("poisson-limit", ["n=0"]),
        ("spherical-count", ["n=0"]),
        ("product-symmetry", ["n=0"]),
        ("real-eig", ["factors=0"]),
        ("real-eig", ["factors=-1"]),
        ("real-eig", ["k=0"]),
        ("thm1-convergence", ["n_proj=0"]),
        ("thm1-convergence", ["diagnostics=1", "grid_size=8"]),
        ("walsh-clusters", ["k=0"]),
        ("ginibre-intensity", ["r_lo=0.9", "r_hi=0.2"]),
        ("poisson-limit", ["r_lo=3", "r_hi=1"]),
        ("walsh-clusters", ["radius=-1"]),
        ("walsh-clusters", ["eps=0"]),
        ("walsh-clusters", ["eps=20"]),
        ("poisson-limit", ["r_lo=0"]),
        ("exp-spacing", ["rate=-1"]),
        ("exp-spacing", ["rate=0"]),
        ("ginibre-intensity", ["r_hi=inf"]),
        ("walsh-clusters", ["eps=nan"]),
        ("discrepancy", ["C=nan"]),
        ("ginibre-intensity", ["r_lo=6", "r_hi=7"]),
        ("real-eig", ["factors=1,x"]),
        ("discrepancy", ["n_list=,"]),
    ])
    def test_refused_param_values_exit_2(self, name, params, tmp_path):
        args = ["run", "--experiment", name, "--trials", "1", "--out", str(tmp_path / "x")]
        for param in params:
            args += ["--param", param]
        assert main(args) == 2
        assert not (tmp_path / "x" / "trials.csv").exists()

    def test_poisson_limit_refuses_r_lo_0_before_any_trial(self, monkeypatch, tmp_path):
        # its intensity table starts at r_lo / 2, where r_lo = 0 has no intensity
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(expmod, "power_spectrum_sample", no_trial)
        with pytest.raises(BadParams, match="r_lo"):
            run_experiment(ExperimentConfig("poisson-limit", 42, 1, {"r_lo": 0.0}, tmp_path))
        # ginibre-intensity's bins may start at the origin
        run_experiment(ExperimentConfig("ginibre-intensity", 42, 1,
                                        {"n": 12, "r_lo": 0.0}, tmp_path / "g"))

    def test_ginibre_intensity_refuses_empty_bins_before_any_trial(self, monkeypatch,
                                                                  tmp_path):
        # at n = 64 no eigenvalue is expected past radius 6: the relative
        # errors would divide by expected counts that are 0
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(expmod, "sample_ginibre", no_trial)
        with pytest.raises(BadParams, match="expects no eigenvalue"):
            run_experiment(ExperimentConfig("ginibre-intensity", 7, 2,
                                            {"r_lo": 6.0, "r_hi": 7.0}, tmp_path))
        assert not tmp_path.joinpath("summary.json").exists()

    def test_poisson_limit_with_no_counts_writes_null_ratio(self, tmp_path, capsys):
        # no eigenvalue reaches the annulus, so the mean count is 0 and
        # variance / mean has no value; summary.json must stay standard JSON
        out = tmp_path / "p"
        assert main(["run", "--experiment", "poisson-limit", "--seed", "7", "--trials", "3",
                     "--param", "n=16", "--param", "r_lo=1e6", "--param", "r_hi=2e6",
                     "--out", str(out)]) == 0
        assert "variance_over_mean: None" in capsys.readouterr().out

        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        payload = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert payload["summary"]["mean_count"] == 0.0
        assert payload["summary"]["variance_over_mean"] is None

    def test_numerical_failure_exit_3(self, monkeypatch, tmp_path):
        import spectralab.labcli.cli as climod

        def boom(cfg):
            raise NoConvergence("forced")

        monkeypatch.setattr(climod, "run_experiment", boom)
        rc = main(["run", "--experiment", "poisson-limit", "--trials", "1",
                   "--out", str(tmp_path / "y")])
        assert rc == 3

    def test_resample_limit_exit_3_with_failure_record(self, monkeypatch, tmp_path):
        # every factor counts as ill-conditioned, so the redraw cap is hit
        import spectralab.rmt as rmt

        monkeypatch.setattr(rmt, "_COND_LIMIT", 0.0)
        out = tmp_path / "s"
        assert main(["run", "--experiment", "spherical-count", "--trials", "1",
                     "--out", str(out)]) == 3
        assert json.loads((out / "failure.json").read_text())["error"] == "ResampleLimit"

    def test_svg_flag_writes_the_param_scatter(self, tmp_path):
        args = ["run", "--experiment", "poisson-limit", "--seed", "5", "--trials", "1",
                "--param", "n=8"]
        assert main(args + ["--svg", "--out", str(tmp_path / "flag")]) == 0
        assert main(args + ["--param", "svg=1", "--out", str(tmp_path / "param")]) == 0
        svg = [(tmp_path / sub / "scatter.svg").read_bytes() for sub in ("flag", "param")]
        assert svg[0] == svg[1]

    def test_numerical_error_names_trial_and_stream(self, monkeypatch, tmp_path):
        solved = []

        def fails_second(p):
            solved.append(p)
            if len(solved) == 2:
                raise NoConvergence("forced")
            return critical_points(p)

        monkeypatch.setattr(expmod, "critical_points", fails_second)
        cfg = ExperimentConfig("walsh-clusters", 7, 3, {"n_per_cluster": 5},
                               tmp_path / "w")
        with pytest.raises(NoConvergence) as info:
            run_experiment(cfg)
        message = str(info.value)
        assert message.startswith("walsh-clusters trial 1 (seed 7, stream_id "
                                  f"{stream_id_for('walsh-clusters', 1)})")
        assert message.endswith("forced")

    def test_numerical_failure_writes_failure_record(self, monkeypatch, tmp_path):
        solved = []

        def fails_second(p):
            solved.append(p)
            if len(solved) == 2:
                raise NoConvergence("forced")
            return critical_points(p)

        monkeypatch.setattr(expmod, "critical_points", fails_second)
        out = tmp_path / "w"
        rc = main(["run", "--experiment", "walsh-clusters", "--seed", "7", "--trials", "3",
                   "--param", "n_per_cluster=5", "--out", str(out)])
        assert rc == 3
        assert not (out / "trials.csv").exists()
        record = json.loads((out / "failure.json").read_text())
        params = json.loads(json.dumps(expmod._coerce_params(
            expmod.EXPERIMENTS["walsh-clusters"], {"n_per_cluster": 5})))
        assert record == {"experiment": "walsh-clusters", "params": params, "seed": 7,
                          "trial": 1, "stream_id": stream_id_for("walsh-clusters", 1),
                          "error": "NoConvergence", "message": "forced"}
        # a later run that succeeds in the same directory leaves no stale record
        monkeypatch.setattr(expmod, "critical_points", critical_points)
        assert main(["run", "--experiment", "walsh-clusters", "--seed", "7", "--trials", "3",
                     "--param", "n_per_cluster=5", "--out", str(out)]) == 0
        assert not (out / "failure.json").exists()

    @pytest.fixture
    def captured(self, monkeypatch):
        import spectralab.labcli.cli as climod

        seen = []

        def capture(cfg):
            seen.append(cfg)
            return {"summary": {}}

        monkeypatch.setattr(climod, "run_experiment", capture)
        return seen

    def test_flags_win_over_config_file(self, captured, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("experiment=poisson-limit\nseed=5\ntrials=4\n"
                           f"out={tmp_path / 'file-out'}\nn=8\n")
        rc = main(["run", "--config", str(cfgfile), "--experiment", "discrepancy",
                   "--seed", "9", "--trials", "2",
                   "--out", str(tmp_path / "flag-out"), "--param", "n=16"])
        assert rc == 0
        (cfg,) = captured
        assert (cfg.name, cfg.seed, cfg.trials) == ("discrepancy", 9, 2)
        assert cfg.output_dir == tmp_path / "flag-out"
        assert cfg.params == {"n": "16"}

    def test_config_file_run_settings(self, captured, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("experiment=poisson-limit\nseed=5\ntrials=4\nn=8\n")
        assert main(["run", "--config", str(cfgfile)]) == 0
        (cfg,) = captured
        assert (cfg.name, cfg.seed, cfg.trials) == ("poisson-limit", 5, 4)
        assert cfg.params == {"n": "8"}

    @pytest.mark.parametrize("key", ["seed", "trials"])
    def test_non_integer_config_value_exit_2(self, key, captured, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"experiment=poisson-limit\n{key}=x\n")
        assert main(["run", "--config", str(cfgfile)]) == 2
        assert key in capsys.readouterr().err
        assert captured == []

    def test_config_file_and_env_seed(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("experiment=discrepancy\ntrials=1\nn_list=8\n"
                           f"out={tmp_path / 'cfgout'}\n")
        monkeypatch.setenv("SPECTRA_SEED", "77")
        assert main(["run", "--config", str(cfgfile)]) == 0
        summary = json.loads((tmp_path / "cfgout" / "summary.json").read_text())
        assert summary["seed"] == 77

    @pytest.mark.parametrize("args, files, message", [
        (["run", "--experiment", "poisson-limit"], {}, "SPECTRA_SEED must be an integer"),
        (["run", "--config", "missing.cfg"], {}, "cannot read config file"),
        (["run", "--config", "exp.cfg"], {"exp.cfg": "experiment=poisson-limit\nn 8\n"},
         "expected key=value"),
        (["run", "--trials", "1"], {}, "an experiment name is required"),
        (["run", "--experiment", "poisson-limit", "--seed", "1", "--param", "foo"], {},
         "--param expects K=V"),
        (["verify"], {}, "cannot locate tests/test_acceptance.py"),
    ], ids=["bad-env-seed", "unreadable-config", "line-without-equals", "no-experiment",
            "param-without-equals", "verify-without-suite"])
    def test_refusals_exit_2(self, args, files, message, captured, tmp_path, monkeypatch,
                             capsys):
        # from an empty directory, where verify finds no acceptance suite; the
        # seed from the environment is read only when no other is given
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPECTRA_SEED", "abc")
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert captured == []

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out

    def test_verify_on_trivial_suite(self, tmp_path):
        trivial = tmp_path / "test_trivial.py"
        trivial.write_text("def test_ok():\n    assert True\n")
        assert main(["verify", "--tests", str(trivial)]) == 0

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "spectralab.labcli.cli", "list"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "poisson-limit" in proc.stdout
