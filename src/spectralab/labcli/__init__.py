"""Experiment registry, seeded execution, and flat-file outputs.

Every registered experiment is an ``ExperimentDef`` in experiments.py: a
trial function that returns one trials.csv row plus named extras from its
own stream, a summary function over all rows and extras, and optional extra
tables. ``run_experiment`` is the one runner: it builds the streams, runs
the trials in this process (two at a time on the compute threads when they
are LAPACK-bound) and writes every file.
"""

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    TrialReport,
    run_experiment,
    stream_id_for,
)
from .svg import emit_scatter_svg

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "TrialReport",
    "emit_scatter_svg",
    "run_experiment",
    "stream_id_for",
]
