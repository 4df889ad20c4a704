import csv
import io
import json
import math
import os
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fewmeta.cli import main, run_self_checks
from fewmeta.data import ValidationError, load_csv
from fewmeta.intervals import CIMethodConfig, run_all_methods
from fewmeta.report import (
    build_report,
    render_text,
    report_to_json,
    round_half_up,
    write_atomic,
)
from fewmeta.selection import select_local
from fewmeta.simulation import MAX_REPLICATE_STUDIES

from conftest import dataset_path


def test_round_half_up():
    assert round_half_up(0.6395) == 0.640
    assert round_half_up(0.1234) == 0.123
    assert round_half_up(-0.0005) == -0.001
    assert round_half_up(2.5, 0) == 3.0


def test_report_exp_is_exact(respire14):
    ds = respire14.with_selection(select_local(respire14).choices)
    report = build_report(ds, select_local(respire14))
    for entry in report["intervals"]:
        assert entry["exp"]["point"] == math.exp(entry["point"])
        assert entry["exp"]["lower"] == math.exp(entry["lower"])
        assert entry["exp"]["upper"] == math.exp(entry["upper"])


def test_report_json_round_trip(respire14):
    sel = select_local(respire14)
    ds = respire14.with_selection(sel.choices)
    report = build_report(ds, sel)
    text = report_to_json(report)
    assert report_to_json(json.loads(text)) == text


def test_render_text_scales(respire14):
    sel = select_local(respire14)
    ds = respire14.with_selection(sel.choices)
    report = build_report(ds, sel)
    linear = render_text(report, exp=False)
    ratio = render_text(report, exp=True)
    assert "NORMAL" in linear and "NORMAL" in ratio
    hr = f"{round_half_up(report['intervals'][0]['exp']['point']):.3f}"
    assert hr in ratio and hr not in linear
    assert linear != ratio


def test_write_atomic(tmp_path):
    target = tmp_path / "out.json"
    write_atomic(str(target), "hello")
    assert target.read_text() == "hello"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_analyze_success(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["analyze", dataset_path("respire14"), "--select", "global", "--exp",
         "--json", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "0.679" in result.output  # the HR point estimate of this dataset
    report = json.loads(out.read_text())
    assert report["selection"]["strategy"] == "global"


def test_cli_analyze_validation_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("study_id,label,level,split,arm,y,se,n\ns1,,study,,,0.1,0.2,\n")
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", str(bad)])
    assert result.exit_code == 2


def test_cli_non_utf8_input_is_a_validation_error(tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(
        b"study_id,label,level,split,arm,y,se,n\ns1,caf\xe9 \xff,study,,,0.1,0.2,10\n"
    )
    runner = CliRunner()
    for command in ("analyze", "select"):
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr)
        assert error["error"] == "validation"
        assert "not UTF-8" in error["message"]


def test_cli_analyze_exp_presentation_only(tmp_path):
    runner = CliRunner()
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = runner.invoke(main, ["analyze", dataset_path("sglt2"), "--json", str(out1)])
    r2 = runner.invoke(main, ["analyze", dataset_path("sglt2"), "--exp", "--json", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_text() == out2.read_text()


def test_cli_select_budget_exceeded():
    runner = CliRunner()
    result = runner.invoke(
        main, ["select", dataset_path("sglt2"), "--max-combos", "10"]
    )
    assert result.exit_code == 3


def test_cli_select_histogram(tmp_path):
    runner = CliRunner()
    hist = tmp_path / "h.csv"
    result = runner.invoke(
        main,
        ["select", dataset_path("sglt2"), "--strategy", "local",
         "--histogram", str(hist)],
    )
    assert result.exit_code == 0, result.output
    assert "18.194" in result.output
    assert len(hist.read_text().splitlines()) == 4097


def test_cli_simulate_deterministic(tmp_path):
    runner = CliRunner()
    args = ["simulate", "--k", "2", "--tau", "0", "--delta", "0",
            "--sigma-delta", "0", "--prev", "1/2", "--reps", "100",
            "--seed", "11"]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_simulate_seed_required(tmp_path, monkeypatch):
    monkeypatch.delenv("FEWMETA_SEED", raising=False)
    runner = CliRunner()
    args = ["simulate", "--k", "2", "--tau", "0", "--delta", "0",
            "--sigma-delta", "0", "--prev", "1/2", "--reps", "50",
            "--out", str(tmp_path / "m.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2

    monkeypatch.setenv("FEWMETA_SEED", "99")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_cli_simulate_rejects_jobs_below_one(tmp_path):
    runner = CliRunner()
    out = tmp_path / "m.csv"
    for jobs in ("0", "-3"):
        result = runner.invoke(
            main,
            ["simulate", "--k", "2", "--tau", "0", "--delta", "0",
             "--sigma-delta", "0", "--prev", "1/2", "--reps", "20",
             "--seed", "1", "--jobs", jobs, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"] == "validation"
    assert not out.exists()


def test_cli_simulate_rejects_reps_above_the_cap_before_allocating(tmp_path):
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        result = CliRunner().invoke(
            main,
            ["simulate", "--k", "2,5", "--tau", "0", "--delta", "0", "--sigma-delta", "0",
             "--prev", "1/2", "--reps", str(10 ** 15), "--seed", "1", "--out", str(out)],
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert str(MAX_REPLICATE_STUDIES) in error["message"]
    assert peak < 10 * 2 ** 20
    assert not out.exists()


def test_cli_simulate_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# desk-scale run\nk=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/2\n"
        "reps=50\nseed=4\n"
    )
    runner = CliRunner()
    out = tmp_path / "m.csv"
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.exists()


SIMULATE_ONE = ["simulate", "--seed", "1", "--reps", "2", "--k", "2", "--tau", "0",
                "--delta", "0", "--sigma-delta", "0", "--prev", "1/2"]


@pytest.mark.parametrize("flag, value, message", [
    ("--prev", "1/0", "zero denominator"),
    ("--tau", "nan", "tau must be finite"),
    ("--tau", "inf", "tau must be finite"),
    ("--tau", "1e200", "tau must be finite"),
    ("--delta", "1e200", "delta must be finite"),
    ("--sigma-delta", "-inf", "sigma_delta must be finite"),
    ("--sizes-meanlog", "nan", "sizes_meanlog must be finite"),
    ("--sizes-sdlog", "inf", "sizes_sdlog must be finite"),
    # finite parameters whose drawn study sizes have no int64 value
    ("--sizes-sdlog", "50", "draw_study_sizes"),
    ("--sizes-meanlog", "1e308", "draw_study_sizes"),
])
def test_cli_simulate_rejects_out_of_range_parameters(tmp_path, flag, value, message):
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(main, SIMULATE_ONE + [flag, value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation" and message in error["message"]
    assert not out.exists()


def test_cli_simulate_rejects_a_zero_denominator_in_the_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("k=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/0\nreps=2\nseed=1\n")
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]
    )
    assert result.exit_code == 2, result.output
    assert "'1/0'" in json.loads(result.stderr)["message"]


def test_cli_simulate_at_the_effect_bound(tmp_path):
    # |tau|, |Delta|, sigma_Delta = data.MAX_ABS_EFFECT and study sizes near
    # the int64 limit run without a warning (pytest turns warnings into errors)
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(main, [
        "simulate", "--seed", "1", "--reps", "50", "--k", "2,5", "--tau", "0,1e40",
        "--delta", "-1e40,1e40", "--sigma-delta", "1e40", "--prev", "1/3",
        "--sizes-meanlog", "43", "--sizes-sdlog", "0", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 8 * (5 * 4 + 6 * 4)
    assert all(math.isfinite(float(r["value"])) for r in rows)


def test_self_checks_pass():
    checks = run_self_checks(seed=0)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert failed == []


DEGENERATE_STUDY_ROWS = (
    "study_id,label,level,split,arm,y,se,n\n"
    "s1,,study,,,0.1,1e-08,\n"
    "s2,,study,,,0.4,1,\n"
)
DEGENERATE_ARMS = (
    "study_id,label,level,split,arm,y,se,n\n"
    "s1,,study,,,0.1,0.3,\n"
    "s1,,subgroup,g,1,0.1,1e-08,10\n"
    "s1,,subgroup,g,2,0.3,1,10\n"
    "s2,,study,,,0.4,0.6,\n"
    "s2,,subgroup,g,1,0.2,1,10\n"
    "s2,,subgroup,g,2,0.6,1,10\n"
)
# A's arms outweigh B's by 1e19: the shrinkage factor A rounds to zero
A_ROUNDS_TO_ZERO = (
    "study_id,label,level,split,arm,y,se,n\n"
    "A,,study,,,0.1,0.2,\n"
    "A,,subgroup,g,1,0.1,1e-10,10\n"
    "A,,subgroup,g,2,0.2,1e-10,10\n"
    "B,,study,,,0.3,0.2,\n"
    "B,,subgroup,g,1,0.2,0.3,10\n"
    "B,,subgroup,g,2,0.4,0.3,10\n"
)
DL_DEGENERATE = "tau2_dl: degenerate weight configuration"
DLS_DEGENERATE = "tau2_dls: degenerate weight configuration"
SHRINKAGE_DEGENERATE = "shrinkage terms: degenerate weight configuration"


@pytest.mark.parametrize(
    "text, succeeded, errors, report_error",
    [
        (DEGENERATE_STUDY_ROWS, [],
         dict.fromkeys(["NORMAL", "HKSJ", "MKH", "ZH", "HCS_MAX1", "HCS_MAX2"],
                       DL_DEGENERATE),
         DL_DEGENERATE),
        (DEGENERATE_ARMS, ["NORMAL", "HKSJ", "MKH", "ZH"],
         {"HCS_MAX1": DLS_DEGENERATE, "HCS_MAX2": SHRINKAGE_DEGENERATE},
         DLS_DEGENERATE),
        (A_ROUNDS_TO_ZERO, ["NORMAL", "HKSJ", "MKH", "ZH", "HCS_MAX1"],
         {"HCS_MAX2": SHRINKAGE_DEGENERATE}, SHRINKAGE_DEGENERATE),
    ],
    ids=["study-rows", "arms", "shrinkage-a-zero"],
)
def test_degenerate_weights_attributed_per_method(
    tmp_path, text, succeeded, errors, report_error
):
    path = tmp_path / "degenerate.csv"
    path.write_text(text)
    ds = load_csv(str(path))
    if ds.has_splits:
        ds = ds.with_selection(select_local(ds).choices)
    results, got = run_all_methods(ds)
    assert [r.method for r in results] == succeeded
    assert got == errors
    with pytest.raises(ValidationError, match=report_error):
        build_report(ds)
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {"error": "validation", "message": report_error}


@pytest.mark.parametrize("strategy", ["local", "global", "none"])
def test_cli_arms_at_the_se_floor_are_rejected_at_load(tmp_path, strategy):
    # Each arm is in range, but together they aggregate to se = 7.1e-41:
    # the load names the split rather than a study row that is in range.
    path = tmp_path / "floor.csv"
    path.write_text(A_ROUNDS_TO_ZERO.replace("1e-10", "1e-40"))
    result = CliRunner().invoke(main, ["analyze", str(path), "--select", strategy])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "validation",
        "message": "study 'A' split 'g': the arms aggregate to se 7.07e-41, "
                   "below the floor 1e-40",
    }


_EXTREME_Y = st.sampled_from(["0", "1", "-1", "0.5", "1e20", "1e40", "-1e40"])
_EXTREME_SE = st.sampled_from(
    ["1e-40", "1.5e-40", "1e-20", "1e-10", "0.3", "1", "1e20", "1e40"]
)


@st.composite
def _extreme_csv_texts(draw):
    """A well-formed dataset whose effects and standard errors sit anywhere
    in the documented ranges, their bounds included."""
    splits = draw(st.integers(0, 2))
    rows = ["study_id,label,level,split,arm,y,se,n"]
    for i in range(draw(st.integers(2, 4))):
        rows.append(f"s{i},,study,,,{draw(_EXTREME_Y)},{draw(_EXTREME_SE)},")
        for j in range(splits):
            for arm in (1, 2):
                rows.append(f"s{i},,subgroup,g{j},{arm},{draw(_EXTREME_Y)},"
                            f"{draw(_EXTREME_SE)},{draw(st.integers(1, 50))}")
    return "\n".join(rows) + "\n"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_extreme_csv_texts(), strategy=st.sampled_from(["local", "global", "none"]))
def test_cli_in_range_extremes_end_without_warnings(text, strategy):
    # warnings are errors here, so a RuntimeWarning would end in exit 1
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("in.csv", "w", encoding="utf-8") as fh:
            fh.write(text)
        result = runner.invoke(main, ["analyze", "in.csv", "--select", strategy])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert result.exit_code in (0, 2), result.output


def _respire14_with(row, column, value):
    """respire14.csv as text, with one field of data row `row` (0-based)
    replaced; a p_interaction column is added when it is the one set."""
    with open(dataset_path("respire14"), encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = list(reader.fieldnames), list(reader)
    if column not in fields:
        fields.append(column)
    rows[row][column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "row, column, value, where",
    [
        (2, "n", "nan", "RESPIRE-1/sex/arm1"),
        (2, "n", "inf", "RESPIRE-1/sex/arm1"),
        (2, "n", "abc", "RESPIRE-1/sex/arm1"),
        (2, "n", "4.7", "RESPIRE-1/sex/arm1"),
        (2, "n", "0.5", "RESPIRE-1/sex/arm1"),
        (0, "n", "abc", "RESPIRE-1"),
        (0, "n", "nan", "RESPIRE-1"),
        (2, "p_interaction", "abc", "RESPIRE-1/sex"),
    ],
)
def test_cli_malformed_numbers_are_validation_errors(tmp_path, row, column, value, where):
    path = tmp_path / "malformed.csv"
    path.write_text(_respire14_with(row, column, value), encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert error["message"].startswith(where + ":")
    assert repr(value) in error["message"]


@pytest.mark.parametrize(
    "row, column, value, where",
    [
        (2, "se", "1e-200", "RESPIRE-1/sex/arm1"),
        (2, "y", "1e300", "RESPIRE-1/sex/arm1"),
        (3, "se", "inf", "RESPIRE-1/sex/arm2"),
        (0, "se", "1e-200", "RESPIRE-1"),
        (0, "y", "nan", "RESPIRE-1"),
    ],
)
def test_cli_out_of_range_effects_name_the_row(tmp_path, row, column, value, where):
    path = tmp_path / "out_of_range.csv"
    path.write_text(_respire14_with(row, column, value), encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert error["message"].startswith(where + ":")


def test_cli_extreme_level_ends():
    # k = 2 gives df = 1, whose quantile at this level is ~6.4e9.
    result = CliRunner().invoke(
        main, ["analyze", dataset_path("respire14"), "--level", "0.9999999999"]
    )
    assert result.exit_code in (0, 2), result.output


_JUNK = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "abc", "nan", "-inf", "1e999", "1e-320", "1e-200", "1e300",
                     "900", "-1e30", "0", "-1", "4.7"]),
    st.text(max_size=4),
)


@st.composite
def _csv_texts(draw):
    """CSV text: a well-formed dataset of 2-4 studies with the same zero to
    two splits each, in which up to two fields are replaced by any float or
    junk or a row is cut short, rows shuffled; or, one time in ten,
    arbitrary text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    y, se = st.floats(-3, 3).map(repr), st.floats(0.01, 3).map(repr)
    n, p = st.integers(1, 500).map(str), st.floats(0, 1).map(repr)
    width = draw(st.sampled_from([9, 8]))  # with or without p_interaction
    splits = draw(st.sampled_from([(), ("a",), ("a", "b")]))
    rows = []
    for i in range(draw(st.integers(2, 4))):
        sid = f"s{i + 1}"
        rows.append([sid, "", "study", "", "", draw(y), draw(se), draw(n), ""][:width])
        for split in splits:
            for arm in ("1", "2"):
                rows.append([sid, "", "subgroup", split, arm,
                             draw(y), draw(se), draw(n), draw(p)][:width])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, max(len(row) - 1, 0)))
        if not row or draw(st.integers(0, 4)) == 0:
            del row[col:]
        else:
            row[col] = draw(_JUNK)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["study_id", "label", "level", "split", "arm", "y", "se", "n",
                     "p_interaction"][:width])
    writer.writerows(draw(st.permutations(rows)))
    return buf.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_texts(), command=st.sampled_from(
    [["analyze"], ["analyze", "--select", "global", "--exp"], ["select"]]
))
def test_cli_any_csv_text_ends_in_a_documented_exit_code(text, command):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("in.csv", "w", encoding="utf-8") as fh:
            fh.write(text)
        result = runner.invoke(main, [command[0], "in.csv", *command[1:]])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert result.exit_code in (0, 2, 3), result.output
