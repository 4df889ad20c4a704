"""The benchmark's three workloads: seeded inputs, the timed op, and output checks.

Each workload is a stream of ops numbered 0, 1, 2, ..., run in blocks of
`block` ops; op i depends only on (seed, i). Op j of every block has the same
shape (k, split counts, level, replicate count or scenario), on fresh values:
the seed draws the values and the order of the shapes, never their mix. Runs
with different seeds therefore do the same work, and worker.py can take each
op shape's fastest repeat.

An op is timed from just before the call into fewmeta to just after it
returns. Writing the op's input file beforehand and checking its output
afterwards are harness work and stay outside the timed regions.

fewmeta must be importable (its `src` directory on sys.path) before this
module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import click
import numpy as np

import fewmeta.cli
import fewmeta.data
import fewmeta.estimators
import fewmeta.report
import fewmeta.selection
import fewmeta.simulation

RECORDS = {
    r["name"]: r
    for r in json.loads(Path(__file__).with_name("workloads.json").read_text())
}

BUNDLED = ("sglt2", "respire14", "respire28")
SIGMA_U = 2.0  # unit-information SD: se = SIGMA_U / sqrt(n), log-ratio scale
REL_TOL = 1e-9
ROWS_PER_SCENARIO = 44  # 5 tau^2 estimators x 4 metrics + 6 intervals x 4 metrics


def stream_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def derived_seed(seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


def invoke_cli(args):
    """Run `fewmeta <args>` in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            fewmeta.cli.main.main(args=args, prog_name="fewmeta", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def write_grid_outputs(results, csv_path, json_path):
    """The output step of `fewmeta simulate`: metrics.csv plus the JSON summary."""
    fewmeta.simulation.write_metrics_csv(results, csv_path)
    fewmeta.report.write_atomic(json_path, fewmeta.simulation.metrics_to_json(results))


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _rounded(values) -> np.ndarray:
    """Round to 4 decimals, as extracted trial data are reported; the arrays
    hold exactly the floats the CSV text parses back to."""
    a = np.asarray(values, dtype=float)
    return np.array([float(f"{v:.4f}") for v in a.ravel()]).reshape(a.shape)


class Dataset:
    """A generated meta-analysis: k studies, each with the same number of
    candidate two-arm splits per study given by `split_counts` (0 = none).

    Study i has n_i units, effect y_i ~ N(theta_i, se_i^2) with theta_i ~
    N(mu, tau^2). Split c of study i divides its units with prevalence p and
    has an interaction d ~ N(delta_ic, se_1^2 + se_2^2), delta_ic ~ N(Delta,
    sigma_Delta^2); its arms are placed so that their inverse-variance
    aggregate reproduces y_i, as the arms of a real split do.
    """

    def __init__(self, rng, split_counts, tau, delta, sigma_delta):
        k = len(split_counts)
        n = np.maximum(24, 12 * np.round(rng.lognormal(5.3, 0.7, size=k) / 12.0)).astype(int)
        mu = rng.uniform(-0.5, 0.2)
        theta = mu + tau * rng.standard_normal(k)
        se = SIGMA_U / np.sqrt(n)
        y = theta + se * rng.standard_normal(k)
        self.y, self.se, self.n = _rounded(y), _rounded(se), n
        self.arm_y, self.arm_se, self.arm_n = [], [], []
        for i, count in enumerate(split_counts):
            p = rng.uniform(0.2, 0.8, size=count)
            n1 = np.clip(np.round(p * n[i]), 1, n[i] - 1).astype(int)
            arm_n = np.stack([n1, n[i] - n1], axis=-1)
            arm_se = SIGMA_U / np.sqrt(arm_n)
            share = arm_n[:, 0] / n[i]
            interaction = delta + sigma_delta * rng.standard_normal(count)
            d = interaction + np.sqrt(np.sum(arm_se ** 2, axis=-1)) * rng.standard_normal(count)
            arm_y = np.stack([y[i] - (1.0 - share) * d, y[i] + share * d], axis=-1)
            self.arm_y.append(_rounded(arm_y))
            self.arm_se.append(_rounded(arm_se))
            self.arm_n.append(arm_n)

    @property
    def k(self) -> int:
        return len(self.y)

    @property
    def split_counts(self):
        return tuple(len(a) for a in self.arm_y)

    def csv_text(self) -> str:
        lines = ["study_id,label,level,split,arm,y,se,n"]
        for i in range(self.k):
            sid = f"S{i + 1}"
            lines.append(f"{sid},trial {i + 1},study,,,{self.y[i]:.4f},{self.se[i]:.4f},{self.n[i]}")
        for i in range(self.k):
            for c in range(len(self.arm_y[i])):
                for j in (0, 1):
                    lines.append(
                        f"S{i + 1},split{c + 1}-{j + 1},subgroup,split{c + 1},{j + 1},"
                        f"{self.arm_y[i][c, j]:.4f},{self.arm_se[i][c, j]:.4f},{self.arm_n[i][c, j]}"
                    )
        return "\n".join(lines) + "\n"

    def qs_all(self) -> np.ndarray:
        """Q_S of every split combination, in the enumeration order of
        `fewmeta select --histogram` (last study varies fastest).

        An independent reference: moments are taken about the mean arm
        effect, so no large sums cancel.
        """
        ref = float(np.mean(np.concatenate([a.ravel() for a in self.arm_y])))
        s0 = s1 = s2 = np.zeros(())
        for ay, ase in zip(self.arm_y, self.arm_se):
            w = ase ** -2.0
            dev = ay - ref
            s0 = np.add.outer(s0, np.sum(w, axis=-1))
            s1 = np.add.outer(s1, np.sum(w * dev, axis=-1))
            s2 = np.add.outer(s2, np.sum(w * dev * dev, axis=-1))
        return (s2 - s1 * s1 / s0).ravel()


def _close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Interface shared by the three workloads.

    `prepare(i)` builds op i's input (untimed), `run(case)` is the timed op,
    `check(case, out)` returns (list of failed checks, bytes for the output
    digest). At the end of each block `end_block()` is timed with the block
    (the grid workload writes its outputs there) and `check_block()` is not.
    """

    name = ""
    tag = 0
    block = 1

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.stats = Counter()
        count = RECORDS[self.name]["op_count"]
        self.tail_percentile = count["tail_percentile"]
        self.min_blocks = count["min_blocks"]
        self.trace_blocks = count["trace_blocks"]

    def warm_up(self):
        """Run and check op 0 once, outside any measured phase."""
        case = self.prepare(0)
        self.check(case, self.run(case))
        self.stats.clear()

    def end_block(self):
        pass

    def check_block(self):
        return [], b""


ORDER_TAG = 101  # stream of the order of the report_stream cells
REPORT_LEVELS = (0.90, 0.95, 0.99)
# heterogeneity profiles (tau, Delta, sigma_Delta), none to large: both sides
# of MAX1/MAX2 win on some datasets
REPORT_PROFILES = ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (0.0, 0.4, 0.2), (0.5, 0.5, 0.5))
REPORT_CELLS = tuple(
    (k, s, level, h)
    for k in (2, 3, 5, 6)
    for s in (0, 1, 2, 3, 4)
    for level in REPORT_LEVELS
    for h in range(len(REPORT_PROFILES))
)
# every mix of 5, 6 and 7 splits over five studies: 3125 to 16807 combinations
SELECT_COMPOSITIONS = tuple(
    (5,) * a + (6,) * b + (7,) * (5 - a - b)
    for a in range(5, -1, -1)
    for b in range(5 - a, -1, -1)
)


class ReportStream(Workload):
    name = "report_stream"
    tag = 1
    block = len(BUNDLED) + len(REPORT_CELLS)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._order = stream_rng(seed, ORDER_TAG, 0).permutation(len(REPORT_CELLS))
        self._bundled = [
            (root / "src" / "fewmeta" / "datasets" / f"{name}.csv").read_text(encoding="utf-8")
            for name in BUNDLED
        ]

    def prepare(self, i):
        j = i % self.block
        if j < len(BUNDLED):
            text, level, data = self._bundled[j], 0.95, None
        else:
            k, s, level, h = REPORT_CELLS[self._order[j - len(BUNDLED)]]
            data = Dataset(stream_rng(self.seed, self.tag, i), (s,) * k, *REPORT_PROFILES[h])
            text = data.csv_text()
        Path("in.csv").write_text(text, encoding="utf-8")
        return {"level": level, "data": data}

    def run(self, case):
        return invoke_cli(["analyze", "in.csv", "--select", "local",
                           "--level", repr(case["level"]), "--json", "out.json"])

    def check(self, case, out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"], stdout.encode()
        text = Path("out.json").read_text(encoding="utf-8")
        return self.check_report(json.loads(text), text, case), (stdout + text).encode()

    def check_report(self, rep, text, case):
        fails = []
        if fewmeta.report.report_to_json(rep) != text:
            fails.append("JSON report does not round-trip through report_to_json")
        k = rep["dataset"]["k"]
        if case["data"] is not None and k != case["data"].k:
            fails.append(f"report k={k}, input k={case['data'].k}")
        intervals = {iv["method"]: iv for iv in rep["intervals"]}
        if rep["errors"] or len(intervals) != 6:
            fails.append(f"interval methods missing: errors {rep['errors']}")
        self.stats["intervals.method_errors"] += len(rep["errors"])
        for m, iv in intervals.items():
            lo, pt, hi = iv["lower"], iv["point"], iv["upper"]
            if not all(math.isfinite(v) for v in (lo, pt, hi)) or not lo <= pt <= hi:
                fails.append(f"{m}: interval ({lo}, {pt}, {hi}) not finite and ordered")
            if iv["level"] != case["level"]:
                fails.append(f"{m}: level {iv['level']} != {case['level']}")
        het = rep["heterogeneity"]
        for variant, side in (("MAX1", "DLS"), ("MAX2", "DLS_ADJ")):
            hcs = intervals.get(f"HCS_{variant}")
            if variant in het:
                winner = het[variant]["winner"]
                self.stats[f"winner.{variant}.{winner}"] += 1
                larger = max(het["DL"]["tau2"], het[side]["tau2"])
                if het[variant]["tau2"] != larger:
                    fails.append(f"{variant} tau2 {het[variant]['tau2']} != max(DL, {side}) {larger}")
                df = 2 * k - 1 if winner == "subgroup" else k - 1
            else:
                self.stats[f"winner.{variant}.fallback"] += 1
                df = k - 1
            if hcs is not None and hcs["df"] != df:
                fails.append(f"HCS_{variant} df {hcs['df']} != {df} for winner")
        return fails


class SelectWide(Workload):
    name = "select_wide"
    tag = 2
    block = 2 * len(SELECT_COMPOSITIONS)
    PROFILE = (0.2, 0.3, 0.3)

    def prepare(self, i):
        d, j = divmod(i, 2)
        rng = stream_rng(self.seed, self.tag, d)
        counts = rng.permutation(SELECT_COMPOSITIONS[d % len(SELECT_COMPOSITIONS)])
        data = Dataset(rng, tuple(int(c) for c in counts), *self.PROFILE)
        Path("in.csv").write_text(data.csv_text(), encoding="utf-8")
        return {"data": data, "histogram": j == 1}

    def run(self, case):
        args = ["select", "in.csv", "--strategy", "global"]
        if case["histogram"]:
            args += ["--histogram", "hist.csv"]
        return invoke_cli(args)

    def check(self, case, out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"], stdout.encode()
        data = case["data"]
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        choices = tuple(
            int(part.split("=split")[1]) - 1 for part in fields["choices"].split(", ")
        )
        self.stats["selection.combinations_evaluated"] += int(fields["combinations evaluated"])
        y = np.array([data.arm_y[i][c] for i, c in enumerate(choices)])
        se = np.array([data.arm_se[i][c] for i, c in enumerate(choices)])
        chosen_q = float(fewmeta.estimators.qs_raw(y, se))
        reference = data.qs_all()
        fails = []
        if chosen_q < reference.max() and not _close(chosen_q, reference.max()):
            fails.append(f"chosen Q_S {chosen_q} below the maximum {reference.max()}")
        if abs(float(fields["Q_S"]) - chosen_q) > 5e-6 * abs(chosen_q):
            fails.append(f"printed Q_S {fields['Q_S']} != centred {chosen_q}")
        local = fewmeta.selection.select_local(fewmeta.data.load_csv("in.csv")).q_s
        if local > chosen_q and not _close(local, chosen_q):
            fails.append(f"global Q_S {chosen_q} < local Q_S {local}")
        blob = stdout.encode()
        if case["histogram"]:
            raw = Path("hist.csv").read_bytes()
            blob += raw
            fails += self._check_histogram(raw, data, choices, fields, reference, chosen_q)
        return fails, blob

    def _check_histogram(self, raw, data, choices, fields, reference, chosen_q):
        lines = raw.decode().splitlines()
        if lines[0] != "combination_id,q_s" or len(lines) - 1 != math.prod(data.split_counts):
            return [f"histogram has {len(lines) - 1} rows, expected {math.prod(data.split_counts)}"]
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        q = rows[:, 1]
        fails = []
        if not np.array_equal(rows[:, 0], np.arange(len(q))):
            fails.append("histogram combination ids are not 0..N-1 in order")
        bad = np.abs(q - reference) > REL_TOL * np.maximum(np.abs(reference), 1e-300)
        if bad.any():
            fails.append(f"{int(bad.sum())} histogram rows differ from the reference Q_S")
        cid = int(np.ravel_multi_index(choices, data.split_counts))
        if f"{q.max():.6g}" != fields["Q_S"] or q[cid] != q.max():
            fails.append(f"global Q_S {fields['Q_S']} != histogram maximum {q.max()!r}")
        if not _close(q[cid], chosen_q):
            fails.append(f"Q_S {q[cid]!r} != centred qs_raw {chosen_q!r}")
        if not fields["threshold (positive subgroup-level tau2)"].endswith(f"> {2 * data.k - 1}"):
            fails.append("histogram threshold is not 2k-1")
        return fails


class GridWide(Workload):
    """op = one run_scenario at 1000 replicates. Each block runs every fifth
    point of the paper's grid (225 scenarios: every k, tau, Delta and p, and
    sigma_Delta in {0, 0.1, 0.5}) with its own seed, and is written out as
    `fewmeta simulate` writes it."""

    name = "grid_wide"
    tag = 3
    STRIDE = 5
    block = len(fewmeta.simulation.scenario_grid()) // STRIDE

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.results = []
        self._blocks = {}

    def scenarios(self, block_no):
        grid = fewmeta.simulation.scenario_grid(
            n_reps=1000, seed=derived_seed(self.seed, self.tag, block_no))
        return grid[:: self.STRIDE]

    def prepare(self, i):
        block_no, j = divmod(i, self.block)
        if block_no not in self._blocks:
            self._blocks = {block_no: self.scenarios(block_no)}
        return self._blocks[block_no][j]

    def run(self, scenario):
        return fewmeta.simulation.run_scenario(scenario)

    def check(self, scenario, res):
        self.results.append(res)
        fails = []
        if res.n_reps != scenario.n_reps or res.scenario != scenario:
            fails.append("result does not belong to its scenario")
        self.stats["simulation.replicates"] += res.n_reps
        for method, m in res.ci_metrics.items():
            self.stats["simulation.ci_failures"] += m["failures"]
            if not 0.0 <= m["coverage"] <= 1.0:
                fails.append(f"{method}: coverage {m['coverage']} outside [0, 1]")
        for method, m in res.tau_metrics.items():
            if m["zero_proportion"] != m["zero_count"] / res.n_reps:
                fails.append(f"{method}: zero_count {m['zero_count']} vs zero_proportion {m['zero_proportion']}")
        if len(res.ci_metrics) != 6 or len(res.tau_metrics) != 5:
            fails.append("methods missing from the scenario metrics")
        return fails, b""

    def warm_up(self):
        super().warm_up()
        self.results = []

    def end_block(self):
        write_grid_outputs(self.results, "metrics.csv", "summary.json")

    def check_block(self):
        n = len(self.results)
        self.results = []
        raw = Path("metrics.csv").read_bytes()
        summary = Path("summary.json").read_bytes()
        rows = raw.count(b"\n") - 1
        self.stats["simulation.rows_written"] += rows
        fails = []
        if not raw.startswith(b"k,tau,delta,sigma_delta,p,n_reps,seed,kind,method,metric,value"):
            fails.append("metrics.csv header missing")
        if rows != ROWS_PER_SCENARIO * n:
            fails.append(f"metrics.csv has {rows} rows, expected {ROWS_PER_SCENARIO} x {n}")
        if len(json.loads(summary)) != n:
            fails.append("summary does not list every scenario")
        return fails, raw + summary


WORKLOADS = {w.name: w for w in (ReportStream, SelectWide, GridWide)}


def make(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)

