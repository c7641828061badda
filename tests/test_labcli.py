import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectralab.errors import BadParams, NoConvergence, UnknownExperiment
from spectralab.labcli import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_scatter_svg,
    run_experiment,
    stream_id_for,
)
from spectralab.labcli.cli import main
from spectralab.polycore import RootPoly
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

    def test_worker_count_does_not_change_csv(self, tmp_path):
        for sub, workers in (("w1", 1), ("w2", 2)):
            cfg = ExperimentConfig("matching-lln", 3, 4, {"n": 20},
                                   tmp_path / sub, workers=workers)
            run_experiment(cfg)
        assert (tmp_path / "w1" / "trials.csv").read_bytes() == \
               (tmp_path / "w2" / "trials.csv").read_bytes()

    def test_exp_spacing_summary_keys(self, tmp_path):
        cfg = ExperimentConfig("exp-spacing", 42, 2, {"n": 30}, tmp_path / "es")
        payload = run_experiment(cfg)
        assert "median_left_stat" in payload["summary"]
        assert "median_right_stat" in payload["summary"]

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
        axis = {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0}
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_scatter_svg([0.5 + 0.5j, -1.0], p1, axis)
        emit_scatter_svg([0.5 + 0.5j, -1.0], p2, axis)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_numerical_failure_exit_3(self, monkeypatch, tmp_path):
        import spectralab.labcli.cli as climod

        def boom(cfg):
            raise NoConvergence("forced")

        monkeypatch.setattr(climod, "run_experiment", boom)
        rc = main(["run", "--experiment", "poisson-limit", "--trials", "1",
                   "--out", str(tmp_path / "y")])
        assert rc == 3

    def test_numerical_error_names_trial_and_stream(self, monkeypatch, tmp_path):
        import spectralab.labcli.experiments as expmod

        solved = []

        def fails_second(p):
            solved.append(p)
            if len(solved) == 2:
                raise NoConvergence("forced")
            return critical_points(p)

        monkeypatch.setattr(expmod, "critical_points", fails_second)
        cfg = ExperimentConfig("walsh-clusters", 7, 3, {"n_per_cluster": 5},
                               tmp_path / "w", workers=1)
        with pytest.raises(NoConvergence) as info:
            run_experiment(cfg)
        message = str(info.value)
        assert message.startswith("walsh-clusters trial 1 (seed 7, stream_id "
                                  f"{stream_id_for('walsh-clusters', 1)})")
        assert message.endswith("forced")

    def test_config_file_and_env_seed(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("experiment=discrepancy\ntrials=1\nn_list=8\n"
                           f"out={tmp_path / 'cfgout'}\n")
        monkeypatch.setenv("SPECTRA_SEED", "77")
        assert main(["run", "--config", str(cfgfile)]) == 0
        summary = json.loads((tmp_path / "cfgout" / "summary.json").read_text())
        assert summary["seed"] == 77

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
