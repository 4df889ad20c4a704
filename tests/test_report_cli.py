import codecs
import contextlib
import csv
import gc
import io
import json
import math
import os
import stat
import tracemalloc
import weakref

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fewmeta.cli import main, run_self_checks
from fewmeta.data import ValidationError, load_csv
from fewmeta.intervals import run_all_methods
from fewmeta.report import (
    build_report,
    render_text,
    report_to_json,
    round_half_up,
    write_atomic,
    write_files,
)
from fewmeta.selection import select_local
from fewmeta.simulation import MAX_REPLICATE_STUDIES

from conftest import dataset_path


def test_round_half_up():
    assert round_half_up(0.6395) == 0.640
    assert round_half_up(0.1234) == 0.123
    assert round_half_up(-0.0005) == -0.001


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


def test_write_atomic_streams_chunks_and_keeps_target_on_failure(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(target, iter(["a,", "b\r\n"]))
    assert target.read_bytes() == b"a,b\r\n"

    def disk_full():
        yield "partial"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError):
        write_atomic(target, disk_full())
    assert target.read_bytes() == b"a,b\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_files_renames_only_when_every_file_is_complete(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    write_files([(first, "old 1"), (second, "old 2")])

    def disk_full():
        yield "partial"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError) as failed:
        write_files([(first, "new 1"), (second, disk_full())])
    assert failed.value.filename == str(second)
    assert (first.read_text(), second.read_text()) == ("old 1", "old 2")
    assert sorted(os.listdir(tmp_path)) == ["first", "second"]

    # the window that stays: a later rename that fails leaves the earlier
    # target replaced
    replace = os.replace

    def refuse(src, dst):
        if os.fspath(dst) == str(second):
            raise PermissionError(13, "Permission denied")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as failed:
        write_files([(first, "new 1"), (second, "new 2")])
    assert failed.value.filename == str(second)
    assert (first.read_text(), second.read_text()) == ("new 1", "old 2")
    assert sorted(os.listdir(tmp_path)) == ["first", "second"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_output_files_get_the_mode_open_would_give(tmp_path, umask):
    new, old, ref = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "ref.json"
    old.write_text("previous run\n")
    os.chmod(old, 0o640)
    saved = os.umask(umask)
    try:
        open(ref, "w").close()
        for target in (new, old):
            result = CliRunner().invoke(
                main, ["analyze", dataset_path("sglt2"), "--json", str(target)]
            )
            assert result.exit_code == 0, result.output
    finally:
        os.umask(saved)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(old.stat().st_mode) == 0o640
    assert new.read_bytes() == old.read_bytes()


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


@pytest.mark.parametrize("command", ["analyze", "select"])
def test_cli_malformed_csv_is_a_validation_error(tmp_path, command):
    # a field beyond the csv module's field size limit makes the reader raise
    bad = tmp_path / "long_field.csv"
    long_field = "x" * (csv.field_size_limit() + 1)
    bad.write_text(f"study_id,label,level,split,arm,y,se,n\ns1,{long_field},study,,,0.1,0.2,10\n")
    result = CliRunner().invoke(main, [command, str(bad)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert error["message"].startswith(f"{bad}: line 2: field larger than field limit")


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


SMALL_SIMULATION = ["simulate", "--k", "2", "--tau", "0", "--delta", "0", "--sigma-delta", "0",
                    "--prev", "1/2", "--reps", "20", "--seed", "3"]


@pytest.mark.parametrize("command", ["analyze", "select", "simulate", "summary"])
def test_cli_unwritable_output_is_a_json_error(tmp_path, monkeypatch, command):
    args = {
        "analyze": ["analyze", dataset_path("sglt2"), "--json"],
        "select": ["select", dataset_path("sglt2"), "--histogram"],
        "simulate": SMALL_SIMULATION + ["--out"],
        "summary": SMALL_SIMULATION + ["--out", str(tmp_path / "m.csv"), "--summary"],
    }[command]
    missing = tmp_path / "missing" / "out"
    result = CliRunner().invoke(main, args + [str(missing)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "output",
        "message": f"cannot write {missing}: No such file or directory",
    }

    # the rename fails after the whole file is written: old file and
    # directory stay as they were
    target = tmp_path / "out"
    target.write_text("previous run\n")
    before = sorted(os.listdir(tmp_path))
    replace = os.replace

    def refuse(src, dst):
        if os.fspath(dst) == str(target):
            raise PermissionError(13, "Permission denied")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    result = CliRunner().invoke(main, args + [str(target)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr)["message"] == f"cannot write {target}: Permission denied"
    assert target.read_text() == "previous run\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_simulate_keeps_both_old_outputs_when_metrics_csv_fails(tmp_path, monkeypatch):
    out, summary = tmp_path / "m.csv", tmp_path / "s.json"
    out.write_text("previous metrics\n")
    summary.write_text("previous summary\n")

    def disk_full(results):
        yield "k,tau\r\n"
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("fewmeta.cli.metrics_to_csv", disk_full)
    result = CliRunner().invoke(main, SMALL_SIMULATION + ["--out", str(out), "--summary", str(summary)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "output", "message": f"cannot write {out}: No space left on device",
    }
    assert (out.read_text(), summary.read_text()) == ("previous metrics\n", "previous summary\n")
    assert sorted(os.listdir(tmp_path)) == ["m.csv", "s.json"]


def _run_in_process(args, standalone=False):
    """`fewmeta <args>` in this process, with a fresh stdout and stderr, in
    click's standalone mode if asked: (exit code, stdout text, stderr text,
    weak references to the streams)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="fewmeta", standalone_mode=standalone)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), (weakref.ref(out), weakref.ref(err))


def _click_help(*commands):
    """What click's own --help option prints for `fewmeta <commands> --help`:
    the context's help text and the newline click.echo adds."""
    ctx = click.Context(main, info_name="fewmeta")
    for name in commands:
        ctx = click.Context(main.commands[name], info_name=name, parent=ctx)
    return ctx.get_help() + "\n"


def test_in_process_runs_keep_no_stream(tmp_path):
    # click.echo without file= caches the streams it writes to, keeping each
    # one alive: a caller that redirects stdout on every run would grow
    bad = tmp_path / "bad.csv"
    bad.write_text("study_id,label,level,split,arm,y,se,n\ns1,,study,,,0.1,0.2,\n")
    sglt2 = dataset_path("sglt2")
    runs = [
        (["analyze", sglt2, "--select", "local"], 0),
        (["select", sglt2], 0),
        (["select", sglt2, "--histogram", str(tmp_path / "h.csv")], 0),
        (["select", sglt2, "--max-combos", "1"], 3),
        (["analyze", str(bad)], 2),
        (SMALL_SIMULATION + ["--out", str(tmp_path / "m.csv")], 0),
        (["validate"], 0),
    ]
    streams = []
    for run, (args, expected) in enumerate(runs):
        code, out, err, refs = _run_in_process(args)
        assert code == expected, (args, err)
        assert out if code == 0 else json.loads(err)["error"]  # the streams were written
        streams += [(run, args[0], name, ref) for name, ref in zip(("stdout", "stderr"), refs)]
    # in standalone mode click reports usage errors itself
    code, out, err, refs = _run_in_process(["analyze", "--bogus"], standalone=True)
    assert (code, out) == (2, "") and err.startswith("Usage: fewmeta analyze")
    streams += [(len(runs), "", name, ref) for name, ref in zip(("stdout", "stderr"), refs)]
    gc.collect()
    assert [(run, command, name) for run, command, name, ref in streams if ref() is not None] == []


@pytest.mark.parametrize("commands", [(), ("analyze",), ("select",), ("simulate",), ("validate",)],
                         ids=["fewmeta", "analyze", "select", "simulate", "validate"])
def test_help_is_clicks_own(commands):
    # --help and a bare `fewmeta` print through click's own echo, which
    # keeps the streams it wrote to (about 1 KB per in-process call)
    assert _run_in_process([*commands, "--help"])[:3] == (0, _click_help(*commands), "")


def test_bare_fewmeta_prints_the_help_to_stderr_and_exits_2():
    assert _run_in_process([], standalone=True)[:3] == (2, "", _click_help())


def test_cli_writes_utf8_to_an_ascii_stdout(tmp_path):
    path = tmp_path / "accented.csv"
    with open(dataset_path("respire14"), encoding="utf-8") as fh:
        path.write_text(fh.read().replace("RESPIRE-1", "RESPIR\u00c9-1"), encoding="utf-8")
    for command in ("analyze", "select"):
        result = CliRunner(charset="ascii").invoke(main, [command, str(path)])
        assert result.exit_code == 0, result.output
        assert "RESPIR\u00c9-1=sex".encode("utf-8") in result.stdout_bytes


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
    """A config file runs, and the same file after a UTF-8 byte-order mark
    gives the same metrics."""
    text = ("# desk-scale run\nk=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/2\n"
            "reps=50\nseed=4\n").encode()
    metrics = []
    for prefix in (b"", codecs.BOM_UTF8):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(prefix + text)
        out = tmp_path / "m.csv"
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        metrics.append(out.read_bytes())
    assert metrics[0] == metrics[1]


SIMULATE_ONE = ["simulate", "--seed", "1", "--reps", "2", "--k", "2", "--tau", "0",
                "--delta", "0", "--sigma-delta", "0", "--prev", "1/2"]


@pytest.mark.parametrize("flag, value, message", [
    ("--prev", "1/0", "zero denominator"),
    ("--tau", "nan", "tau must be finite"),
    ("--tau", "inf", "tau must be finite"),
    ("--tau", "1e200", "tau must be finite"),
    ("--delta", "1e200", "delta must be finite"),
    ("--sigma-delta", "-inf", "sigma_delta must be finite"),
])
def test_cli_simulate_rejects_out_of_range_parameters(tmp_path, flag, value, message):
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(main, SIMULATE_ONE + [flag, value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation" and message in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sizes-meanlog", "--sizes-sdlog"])
def test_cli_simulate_has_no_study_size_flags(tmp_path, flag):
    # the study-size law is fixed: its old flags are click's usage error
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(main, SIMULATE_ONE + [flag, "1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    # click 8.4 writes "No such option '--x'."; older releases back to the
    # declared floor may word the rest otherwise, so only the prefix is checked
    error = result.stderr.splitlines()[-1]
    assert result.stderr.startswith("Usage: ") and error.startswith("Error: No such option")
    assert flag in error
    assert result.stdout == "" and not out.exists()


def test_cli_simulate_rejects_a_zero_denominator_in_the_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("k=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/0\nreps=2\nseed=1\n")
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]
    )
    assert result.exit_code == 2, result.output
    assert "'1/0'" in json.loads(result.stderr)["message"]


def test_cli_simulate_at_the_effect_bound(tmp_path):
    # |tau|, |Delta|, sigma_Delta = data.MAX_ABS_EFFECT run without a
    # warning (pytest turns warnings into errors)
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(main, [
        "simulate", "--seed", "1", "--reps", "50", "--k", "2,5", "--tau", "0,1e40",
        "--delta", "-1e40,1e40", "--sigma-delta", "1e40", "--prev", "1/3", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 8 * (5 * 4 + 6 * 4)
    assert all(math.isfinite(float(r["value"])) for r in rows)


@pytest.mark.parametrize("missing", ["--out", "--summary"])
def test_cli_simulate_checks_its_outputs_before_running(tmp_path, monkeypatch, missing):
    ran = []
    monkeypatch.setattr("fewmeta.cli.run_scenarios", lambda *args, **kw: ran.append(args))
    out = tmp_path / "m.csv"
    out.write_bytes(b"previous run\r\n")
    paths = {"--out": str(out), "--summary": str(tmp_path / "s.json")}
    paths[missing] = str(tmp_path / "missing" / "f")
    result = CliRunner().invoke(main, SMALL_SIMULATION + [a for p in paths.items() for a in p])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "output",
        "message": f"cannot write {paths[missing]}: No such file or directory",
    }
    assert out.read_bytes() == b"previous run\r\n"
    assert ran == [] and result.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["m.csv"]


@pytest.mark.parametrize("alias", ["same-text", "via-symlink"])
def test_cli_simulate_rejects_one_file_for_out_and_summary(tmp_path, monkeypatch, alias):
    # one file for both would be left holding metrics.csv alone
    ran = []
    monkeypatch.setattr("fewmeta.cli.run_scenarios", lambda *args, **kw: ran.append(args))
    out = tmp_path / "r.csv"
    summary = out
    if alias == "via-symlink":
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        summary = tmp_path / "link" / "r.csv"
    result = CliRunner().invoke(main, SMALL_SIMULATION + ["--out", str(out), "--summary", str(summary)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "validation",
        "message": f"--out and --summary name the same file, {str(out)!r}",
    }
    assert ran == [] and result.stdout == ""
    assert sorted(os.listdir(tmp_path)) == (["link"] if alias == "via-symlink" else [])


_SAME_FILE_CASES = {
    # command: (its input file, that file's content, its arguments with the
    # input and the output path left to fill in, the two names in the error)
    "analyze": ("d.csv", "respire14", ["analyze", "{input}", "--json", "{output}"],
                "DATA_PATH and --json"),
    "select": ("e.csv", "sglt2", ["select", "{input}", "--histogram", "{output}"],
               "DATA_PATH and --histogram"),
    "simulate": ("c.txt", b"k=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/2\nreps=20\nseed=3\n",
                 ["simulate", "--config", "{input}", "--out", "{output}"], "--config and --out"),
}


@pytest.mark.parametrize("alias", ["same-text", "via-symlink"])
@pytest.mark.parametrize("command", sorted(_SAME_FILE_CASES))
def test_cli_rejects_an_output_that_is_its_own_input(tmp_path, monkeypatch, command, alias):
    # analyze and select would replace the dataset, simulate its config file
    ran = []
    for reader in ("load_csv", "run_scenarios"):
        monkeypatch.setattr(f"fewmeta.cli.{reader}", lambda *args, **kw: ran.append(args))
    name, content, args, names = _SAME_FILE_CASES[command]
    source = tmp_path / name
    if isinstance(content, str):
        with open(dataset_path(content), "rb") as fh:
            content = fh.read()
    source.write_bytes(content)
    output = source
    if alias == "via-symlink":
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        output = tmp_path / "link" / name
    args = [a.format(input=source, output=output) for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "validation",
        "message": f"{names} name the same file, {str(source)!r}",
    }
    assert ran == [] and result.stdout == ""
    assert source.read_bytes() == content
    assert sorted(os.listdir(tmp_path)) == sorted([name] + (["link"] if alias == "via-symlink" else []))


@pytest.mark.parametrize("cfg, flags, env_seed, expected", [
    ("kk=2\n", [], None, "sim.cfg:LAST: expected setting=value"),
    ("jobs=2\n", [], None, "sim.cfg:LAST: expected setting=value"),
    ("reps 20\n", [], None, "sim.cfg:LAST: expected setting=value"),
    ("", ["--reps", "abc"], None, "reps: cannot parse 'abc'"),
    ("reps=abc\n", [], None, "reps: cannot parse 'abc'"),
    ("", ["--seed", "1.5"], None, "seed: cannot parse '1.5'"),
    ("", [], "abc", "seed: cannot parse 'abc'"),
    ("sizes_sdlog=1\n", [], None, "sim.cfg:LAST: expected setting=value"),
    ("prev=1/2,x\n", [], None, "prev: cannot parse '1/2,x'"),
    ("k=2," + "9" * 5000 + "\n", [], None, "k: cannot parse"),  # int digit limit
    ("tau=" + "1" * 400 + "/1\n", [], None, "tau: cannot parse"),  # float overflow
], ids=["unknown-key", "jobs-key", "no-equals", "reps-flag", "reps-key", "seed-flag",
        "seed-env", "sizes-key", "prev-key", "k-digits", "tau-overflow"])
def test_cli_simulate_rejects_unknown_and_unparsable_settings(
    tmp_path, monkeypatch, cfg, flags, env_seed, expected
):
    if env_seed is None:
        monkeypatch.delenv("FEWMETA_SEED", raising=False)
    else:
        monkeypatch.setenv("FEWMETA_SEED", env_seed)
    config = tmp_path / "sim.cfg"
    text = "# a one-point grid\nk=2\ntau=0\ndelta=0\nsigma_delta=0\nprev=1/2\nreps=2\n"
    config.write_text(text + ("" if env_seed else "seed=1\n") + cfg)
    out = tmp_path / "m.csv"
    result = CliRunner().invoke(
        main, ["simulate", "--config", str(config), "--out", str(out)] + flags
    )
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    last = len(config.read_text().splitlines())
    assert error["message"].startswith(expected.replace("sim.cfg:LAST", f"{config}:{last}"))
    if "LAST" in expected:  # the line is quoted, so its key is named
        assert error["message"].endswith(f"got {cfg.strip()!r}")
    assert not out.exists()


def test_cli_simulate_setting_precedence(tmp_path, monkeypatch):
    """flag > config file > FEWMETA_SEED, read from the seed column."""
    config = tmp_path / "sim.cfg"
    config.write_text("k=2\ntau=0\ndelta=0\nsigma-delta=0\nprev=1/2\nreps=2\n")
    out = tmp_path / "m.csv"
    monkeypatch.setenv("FEWMETA_SEED", "5")
    for extra_cfg, flags, seed in (("", [], "5"), ("seed=6\n", [], "6"),
                                   ("seed=6\n", ["--seed", "7"], "7")):
        config.write_text(config.read_text() + extra_cfg)
        result = CliRunner().invoke(
            main, ["simulate", "--config", str(config), "--out", str(out)] + flags
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert {(r["seed"], r["n_reps"], r["k"]) for r in rows} == {(seed, "2", "2")}


def test_cli_simulate_unreadable_config_is_a_validation_error(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_bytes(b"seed=1\nk=\xff\n")
    result = CliRunner().invoke(main, ["simulate", "--config", str(config)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert error["message"].startswith(f"cannot read {config}: 'utf-8' codec")


def test_cli_validate_maps_a_validation_error_to_exit_2(monkeypatch):
    def broken(seed):
        raise ValidationError("scenario: k must be >= 2")

    monkeypatch.setattr("fewmeta.cli.run_self_checks", broken)
    result = CliRunner().invoke(main, ["validate"])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {
        "error": "validation", "message": "scenario: k must be >= 2"
    }


def test_cli_simulate_does_not_report_a_plain_value_error_as_validation(tmp_path, monkeypatch):
    def broken(**settings):
        raise ValueError("a defect, not an input error")

    monkeypatch.setattr("fewmeta.cli.scenario_grid", broken)
    result = CliRunner().invoke(main, SMALL_SIMULATION + ["--out", str(tmp_path / "m.csv")])
    assert isinstance(result.exception, ValueError)
    assert result.exit_code == 1 and "validation" not in result.stderr


def test_cli_validate_exits_4_when_a_check_fails(monkeypatch):
    monkeypatch.setattr("fewmeta.cli.run_self_checks",
                        lambda seed: [("t_quantile(1, 0.975)", False, "got 0, reference 12.7")])
    result = CliRunner().invoke(main, ["validate"])
    assert result.exit_code == 4, result.output
    assert result.stdout == "[FAIL] t_quantile(1, 0.975): got 0, reference 12.7\n"
    assert result.stderr == '{"error": "self-check", "message": "1 check(s) failed"}\n'


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


def _respire14_with(row, column, value, **others):
    """respire14.csv as text, with one field of data row `row` (0-based)
    replaced, and the `others` of that row too; a p_interaction column is
    added when it is the one set."""
    with open(dataset_path("respire14"), encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = list(reader.fieldnames), list(reader)
    if column not in fields:
        fields.append(column)
    rows[row].update(others, **{column: value})
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
        (0, "n", "0", "RESPIRE-1"),
        (0, "n", "4.7", "RESPIRE-1"),
        (2, "p_interaction", "abc", "RESPIRE-1/sex"),
        (2, "p_interaction", "nan", "RESPIRE-1/sex"),
        (2, "p_interaction", "-0.1", "RESPIRE-1/sex"),
        (2, "p_interaction", "1.5", "RESPIRE-1/sex"),
        # y and se blank: the study row is derived from its first split
        pytest.param((0, {"y": "", "se": ""}), "n", "abc", "RESPIRE-1", id="derived-n-abc"),
        pytest.param((0, {"y": "", "se": ""}), "n", "0", "RESPIRE-1", id="derived-n-0"),
    ],
)
def test_cli_malformed_numbers_are_validation_errors(tmp_path, row, column, value, where):
    row, others = row if isinstance(row, tuple) else (row, {})
    path = tmp_path / "malformed.csv"
    path.write_text(_respire14_with(row, column, value, **others), encoding="utf-8")
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


_HEADER = "study_id,label,level,split,arm,y,se,n\n"
_S2 = "s2,,study,,,0.3,0.4,\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        (",,study,,,0.1,0.2,\n" + _S2, "row with empty study_id"),
        ("s1,,study,,,0.1,0.2,\ns1,,study,,,0.1,0.2,\n" + _S2, "duplicate study row for 's1'"),
        ("s1,,study,,,0.1,0.2,\ns1,,subgroup,,1,0.0,1.0,5\n" + _S2,
         "subgroup row for 's1' without split name"),
        ("s1,,study,,,,,\n" + _S2, "study 's1': no estimate supplied and no splits to derive one"),
        (_S2, "analysis requires at least 2 studies"),
        ("s1,,study,,,0.1,0.2,\ns1,,subgroup,sex,3,0.0,1.0,5\n" + _S2,
         "subgroup row 's1'/'sex': arm must be 1 or 2"),
        ("s1,,study,,,0.1,0.2,\ns1,,subgroup,sex,,0.0,1.0,5\n" + _S2,
         "subgroup row 's1'/'sex': arm must be 1 or 2"),
    ],
    ids=["empty-study-id", "duplicate-study-row", "no-split-name", "no-estimate", "one-study",
         "arm-3", "arm-blank"],
)
def test_cli_dataset_structure_errors(tmp_path, rows, message):
    path = tmp_path / "structure.csv"
    path.write_text(_HEADER + rows, encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stderr) == {"error": "validation", "message": message}


def test_cli_missing_columns_are_a_validation_error(tmp_path):
    path = tmp_path / "columns.csv"
    path.write_text("study_id,level,split,arm,y,se\ns1,study,,,0.1,0.2\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": "validation", "message": f"{path}: missing columns ['label', 'n']"
    }


@pytest.mark.parametrize("column", ["y", "se"])
def test_cli_study_row_with_y_or_se_blank_names_the_study(tmp_path, column):
    # both blank derives the row from the first split; one alone is an error
    path = tmp_path / "half.csv"
    path.write_text(_respire14_with(0, column, ""), encoding="utf-8")
    result = CliRunner().invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr)
    assert error["error"] == "validation"
    assert error["message"].startswith("RESPIRE-1: y and se must be given together")


def test_cli_extreme_level_ends():
    # k = 2 gives df = 1, whose quantile at this level is ~6.4e9.
    result = CliRunner().invoke(
        main, ["analyze", dataset_path("respire14"), "--level", "0.9999999999"]
    )
    assert result.exit_code == 0, result.output


# 0.9999999999999999 lies inside (0, 1), but 0.5 + level / 2 rounds to 1.0
@pytest.mark.parametrize("level", ["0", "-0.5", "1", "1.5", "nan", "0.9999999999999999"])
def test_cli_analyze_rejects_a_level_outside_the_open_unit_range(tmp_path, level):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["analyze", dataset_path("respire14"), f"--level={level}", "--json", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and not out.exists()
    assert json.loads(result.stderr) == {
        "error": "validation", "message": "confidence level must be in (0, 1)"
    }


def test_cli_analyze_ratio_overflow_reads_inf(tmp_path):
    # exp(800) overflows a double: the ratio scale shows inf, the JSON Infinity
    data, out = tmp_path / "large.csv", tmp_path / "report.json"
    data.write_text(_HEADER + "s1,,study,,,800,0.2,10\ns2,,study,,,801,0.3,10\n")
    result = CliRunner().invoke(main, ["analyze", str(data), "--exp", "--json", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split() for line in result.stdout.splitlines()]
    table = [row for row in rows if row and row[0] in ("NORMAL", "HKSJ", "ZH", "HCS_MAX1")]
    assert len(table) == 4 and all(row[1:4] == ["inf"] * 3 for row in table)
    text = out.read_text()
    assert '"lower":Infinity' in text and '"upper":Infinity' in text
    for entry in json.loads(text)["intervals"]:
        assert entry["exp"] == {"point": math.inf, "lower": math.inf, "upper": math.inf}
        assert math.isfinite(entry["point"])


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
