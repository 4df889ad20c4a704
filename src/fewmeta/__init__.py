"""Subgroup-informed random-effects meta-analysis of few studies.

Core objects are re-exported here; the submodules hold the full API:
data (records, CSV ingestion), estimators (heterogeneity),
intervals (CI methods and t quantiles), selection (split search),
simulation (Monte Carlo harness), report (serialization), cli.
"""

from .data import (
    MetaDataset,
    Study,
    StudyEstimate,
    SubgroupArm,
    SubgroupSplit,
    ValidationError,
    load_csv,
)
from .estimators import HeterogeneityEstimate
from .intervals import (
    CIMethodConfig,
    IntervalResult,
    all_tau2,
    run_all_methods,
    t_quantile,
)
from .report import build_report, render_text, report_to_json
from .selection import SelectionResult, qs_histogram, select
from .simulation import Scenario, run_scenario, scenario_grid

__version__ = "0.1.0"

__all__ = [
    "MetaDataset",
    "Study",
    "StudyEstimate",
    "SubgroupArm",
    "SubgroupSplit",
    "ValidationError",
    "load_csv",
    "HeterogeneityEstimate",
    "all_tau2",
    "CIMethodConfig",
    "IntervalResult",
    "run_all_methods",
    "t_quantile",
    "build_report",
    "render_text",
    "report_to_json",
    "SelectionResult",
    "qs_histogram",
    "select",
    "Scenario",
    "run_scenario",
    "scenario_grid",
    "__version__",
]
