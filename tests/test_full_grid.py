"""The paper's Monte Carlo study as a gated artifact: the full 1125-scenario
grid at 1000 replicates, seed 777, must write the same metrics.csv and
summary bytes, serially and across two worker processes."""

import hashlib

import numpy as np
import pytest

from fewmeta.report import write_atomic
from fewmeta.simulation import metrics_to_json, run_scenarios, scenario_grid, write_metrics_csv

FULL_GRID_SHA256 = "954f465a551e94d76d60ee232ede6a1dc90a33ef822dc89efaa17d5707c4911b"
# `fewmeta simulate --seed 777 --reps 1000 --summary`'s summary file
FULL_GRID_SUMMARY_SHA256 = "b71e201d156cc6015efd3f150f2b12af420af192e6928d42b2ffaca89e1e2ce7"
# numpy does not promise the same Generator streams across feature releases
# (NEP 19), so the digests hold for the numpy they were recorded under.
FULL_GRID_NUMPY = "2.4.6"


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_grid_metrics_are_pinned(tmp_path, jobs):
    scenarios = scenario_grid(n_reps=1000, seed=777)
    assert len(scenarios) == 1125
    results = run_scenarios(scenarios, jobs=jobs)
    path, summary = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(results, path)
    write_atomic(summary, metrics_to_json(results))
    for name, written, pinned in (("metrics.csv", path, FULL_GRID_SHA256),
                                  ("summary", summary, FULL_GRID_SUMMARY_SHA256)):
        digest = hashlib.sha256(written.read_bytes()).hexdigest()
        assert digest == pinned, (
            f"full-grid {name} sha256 {digest} under numpy {np.__version__}; "
            f"{pinned} was recorded under numpy {FULL_GRID_NUMPY}"
        )
