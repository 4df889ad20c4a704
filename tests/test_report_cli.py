import json
import math
import os

import pytest
from click.testing import CliRunner

from fewmeta.cli import main, run_self_checks
from fewmeta.intervals import CIMethodConfig
from fewmeta.report import (
    build_report,
    render_text,
    report_to_json,
    round_half_up,
    write_atomic,
)
from fewmeta.selection import select_local

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


def test_self_checks_pass():
    checks = run_self_checks(seed=0)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert failed == []
