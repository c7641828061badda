"""spectra-lab command line: run experiments, list them, verify acceptance.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from ..errors import ConfigError, NumericalError, SpectraError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment

DEFAULT_SEED = 42
# config-file keys that are run settings, not experiment parameters
_RUN_KEYS = ("experiment", "seed", "trials", "out")


def _default_seed() -> int:
    env = os.environ.get("SPECTRA_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SPECTRA_SEED must be an integer, got {env!r}") from None


def _parse_config_file(path: str) -> dict:
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _int_setting(flag, file_cfg: dict, key: str, default):
    """The command-line flag if given, else the config file's value, else default."""
    if flag is not None:
        return flag
    if key not in file_cfg:
        return default
    try:
        return int(file_cfg[key])
    except ValueError:
        raise ConfigError(f"config {key} must be an integer, got {file_cfg[key]!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-lab",
        description="seeded Monte Carlo experiments for random-polynomial "
                    "critical points and Ginibre-type spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--experiment", help="registered experiment name")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--param", action="append", default=[], metavar="K=V",
                     help="experiment parameter (repeatable)")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--svg", action="store_true", help="also write scatter.svg")

    sub.add_parser("list", help="list registered experiments")

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument("--tests", default=None,
                        help="path to the acceptance test module")
    return parser


def _cmd_run(args) -> int:
    params = _parse_config_file(args.config) if args.config else {}
    file_cfg = {key: params.pop(key) for key in _RUN_KEYS if key in params}
    name = args.experiment or file_cfg.get("experiment")
    if not name:
        raise ConfigError("an experiment name is required (--experiment or config)")
    seed = _int_setting(args.seed, file_cfg, "seed", None)
    if seed is None:
        seed = _default_seed()
    trials = _int_setting(args.trials, file_cfg, "trials", 10)
    out_dir = args.out or file_cfg.get("out") or f"spectra-out/{name}"

    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects K=V, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    if args.svg:
        params["svg"] = 1

    cfg = ExperimentConfig(name=name, seed=seed, trials=trials, params=params,
                           output_dir=Path(out_dir))
    payload = run_experiment(cfg)
    print(f"{name}: seed={seed} trials={trials} -> {out_dir}")
    for key, value in payload["summary"].items():
        print(f"  {key}: {value}")
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    return 0


def _cmd_verify(args) -> int:
    candidates = []
    if args.tests:
        candidates.append(Path(args.tests))
    candidates.append(Path.cwd() / "tests" / "test_acceptance.py")
    target = next((c for c in candidates if c.exists()), None)
    if target is None:
        raise ConfigError("cannot locate tests/test_acceptance.py; run from the "
                          "repository root or pass --tests")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", "-s", str(target)])
    return 0 if proc.returncode == 0 else 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
