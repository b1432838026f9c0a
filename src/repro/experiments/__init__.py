"""Experiment harness reproducing every table and figure of Section VIII.

Each experiment is a plain function returning an
:class:`~repro.experiments.harness.ExperimentResult`; the registry maps the
paper's artifact names (``fig6a``, ``table3`` …) to those functions, and the
CLI (``python -m repro.experiments``) runs them and prints paper-style tables.
``tests/test_experiments.py`` asserts the paper's claims on the same
runners at 150k rows per data set.
"""

from repro.experiments.harness import ExperimentResult, ExperimentRow, MethodComparison
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments import figures, tables, runtime, ablations

__all__ = [
    "ExperimentResult",
    "ExperimentRow",
    "MethodComparison",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
    "figures",
    "tables",
    "runtime",
    "ablations",
]
