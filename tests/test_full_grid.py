"""The paper's Monte Carlo study as a gated artifact: the full 1125-scenario
grid at 1000 replicates, seed 777, must write the same metrics.csv bytes,
serially and across two worker processes."""

import hashlib

import numpy as np
import pytest

from fewmeta.simulation import run_scenarios, scenario_grid, write_metrics_csv

FULL_GRID_SHA256 = "139f22f0081df17ea0a56a95e7521ad9a18710c10b156dd1320ffd74944c7be3"
# numpy does not promise the same Generator streams across feature releases
# (NEP 19), so the digest holds for the numpy it was recorded under.
FULL_GRID_NUMPY = "2.4.6"


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_grid_metrics_are_pinned(tmp_path, jobs):
    scenarios = scenario_grid(n_reps=1000, seed=777)
    assert len(scenarios) == 1125
    path = tmp_path / "metrics.csv"
    write_metrics_csv(run_scenarios(scenarios, jobs=jobs), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FULL_GRID_SHA256, (
        f"full-grid metrics.csv sha256 {digest} under numpy {np.__version__}; "
        f"{FULL_GRID_SHA256} was recorded under numpy {FULL_GRID_NUMPY}"
    )
