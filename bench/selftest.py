"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 bench/selftest.py

Shows that a corrupted output counts as a failed op, that each workload's
input stream is deterministic for a seed and differs between seeds, and
that BENCHMARK.json agrees with the harness's own metric and workload lists.
Exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import fewmeta.report  # noqa: E402
import fewmeta.simulation  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

results = []


def expect(name, ok, detail=""):
    results.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")


def after(wl, method, corrupt, only=lambda *args: True):
    """Make `wl.<method>` corrupt the files it wrote before the check reads them."""
    original = getattr(wl, method)

    def corrupted(*args):
        out = original(*args)
        if only(*args):
            corrupt()
        return out

    setattr(wl, method, corrupted)


def swap_limits():
    rep = json.loads(Path("out.json").read_text())
    iv = rep["intervals"][0]
    iv["lower"], iv["upper"] = iv["upper"], iv["lower"]
    Path("out.json").write_text(fewmeta.report.report_to_json(rep))


def drop_last_line(path):
    def corrupt():
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines[:-1]))
    return corrupt


class SmallGrid(workloads.GridWide):
    """Three grid scenarios at 200 replicates: a fast stand-in for grid_wide."""

    block = 3

    def scenarios(self, block_no):
        grid = fewmeta.simulation.scenario_grid(n_reps=200, seed=self.seed + block_no)
        return grid[:: len(grid) // 3][:3]


def shortened(cls, ops):
    """The workload with blocks of its first `ops` ops, for a quick run."""
    return type(cls.__name__, (cls,), {"block": ops})


def check_corruption():
    cases = (
        ("report_stream: swapped interval limits", workloads.ReportStream, 5,
         lambda wl: after(wl, "run", swap_limits), 5),
        ("select_wide: histogram missing a row", workloads.SelectWide, 4,
         lambda wl: after(wl, "run", drop_last_line("hist.csv"), only=lambda case: case["histogram"]), 2),
        ("grid: truncated metrics.csv", SmallGrid, 3,
         lambda wl: after(wl, "end_block", drop_last_line("metrics.csv")), 3),
    )
    for name, cls, ops, corrupt, expected in cases:
        clean = worker.run_phase(shortened(cls, ops)(7, ROOT), 1)
        wl = shortened(cls, ops)(7, ROOT)
        corrupt(wl)
        phase = worker.run_phase(wl, 1)
        expect(f"{name} counts as a failed op",
               clean["failed"] == 0 and phase["ops"] == ops and phase["failed"] == expected,
               f"{phase['failed']}/{phase['ops']} failed (clean run: {clean['failed']}); {phase['failures']}")


def input_digest(workload, ops):
    """sha256 of the inputs of the first `ops` ops (input files or scenarios)."""
    h = hashlib.sha256()
    for i in range(ops):
        case = workload.prepare(i)
        if isinstance(case, fewmeta.simulation.Scenario):
            h.update(repr(case).encode())
        else:
            h.update(Path("in.csv").read_bytes())
    return h.hexdigest()


def check_determinism():
    for name, cls in workloads.WORKLOADS.items():
        ops = min(cls.block, 12)
        a = input_digest(cls(3, ROOT), ops)
        b = input_digest(cls(3, ROOT), ops)
        c = input_digest(cls(4, ROOT), ops)
        expect(f"{name}: inputs repeat for a seed and differ between seeds", a == b and a != c)


def check_records():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    expect("BENCHMARK.json workloads match workloads.json",
           names == list(workloads.RECORDS)
           and all(w["why"] == workloads.RECORDS[w["name"]]["why"] for w in bench["workloads"]))
    expect("BENCHMARK.json end_to_end matches run.END_TO_END",
           [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json per_layer matches tracer.PER_LAYER",
           [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER))
    for name, cls in workloads.WORKLOADS.items():
        count = workloads.RECORDS[name]["op_count"]
        ops = cls.block  # the tail is taken over one time per op of a block
        beyond = ops - math.ceil(count["tail_percentile"] / 100 * ops)
        expect(f"{name}: block {cls.block} recorded, p{count['tail_percentile']} "
               f"has {beyond} ops beyond it",
               count["block"] == cls.block and beyond >= worker.TAIL_BEYOND)


def main():
    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        check_corruption()
        check_determinism()
        check_records()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks passed")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
