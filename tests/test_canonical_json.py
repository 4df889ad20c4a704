"""The one JSON writer, data.canonical_json: one line of sorted keys with
"," and ":" separators and a trailing newline, as one json.dumps call writes
it, for small trees and for every file the package writes."""

import json
import math

import pytest
from click.testing import CliRunner

from fewmeta.cli import main
from fewmeta.data import canonical_json

from conftest import dataset_path


def reference(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def assert_canonical(text):
    """`text` is one line, ends in a newline, and is what the writer makes of
    its own parse."""
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == reference(json.loads(text))


def test_canonical_json_sorts_keys_on_one_line():
    tree = {"b": {"z": 1, "é": [2, {"y": None, "x": "a\nb"}]}, "a": -0.0, "\n": math.inf}
    text = canonical_json(tree)
    assert text == ('{"\\n":Infinity,"a":-0.0,'
                    '"b":{"z":1,"\\u00e9":[2,{"x":"a\\nb","y":null}]}}\n')
    assert_canonical(text)


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [(), {}, [[], {}]],
    {"b": {"c": {}}, "a": [[], [{}]]}, {"": {"": []}},
    1, -0.0, math.nan, math.inf, -math.inf, 10 ** 100, True, None, "é\n\"",
], ids=repr)
def test_canonical_json_empty_containers_and_top_level_scalars(tree):
    text = canonical_json(tree)
    assert text == reference(tree)
    assert_canonical(text)


@pytest.mark.parametrize("tree", [object(), {"a": object()}, {"a": [1, {2j}]},
                                  [{"a": {1, 2}}], {"a": [b"x"]}])
def test_canonical_json_rejects_non_json_values(tree):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        canonical_json(tree)


def test_canonical_json_rejects_circular_containers():
    loop = {"a": [1]}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_json(loop)


@pytest.mark.parametrize("name", ["sglt2", "respire14", "respire28"])
@pytest.mark.parametrize("strategy", ["global", "local", "none"])
def test_every_bundled_report_is_json_dumps(tmp_path, name, strategy):
    path = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["analyze", dataset_path(name), "--select", strategy, "--json", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert_canonical(path.read_text(encoding="utf-8"))


def test_simulate_summary_is_json_dumps(tmp_path):
    summary = tmp_path / "summary.json"
    result = CliRunner().invoke(main, [
        "simulate", "--seed", "7", "--reps", "50", "--k", "2,5", "--tau", "0,0.5",
        "--delta", "0,1", "--out", str(tmp_path / "m.csv"), "--summary", str(summary),
    ])
    assert result.exit_code == 0, result.output
    assert_canonical(summary.read_text(encoding="utf-8"))
