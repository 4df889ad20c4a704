"""The one JSON writer, data.canonical_json, against the stdlib's
json.dumps(sort_keys=True, indent=2): generated trees and every file the
package writes."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fewmeta.cli import main
from fewmeta.data import canonical_json, dataset_to_json, load_csv

from conftest import dataset_path


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", "日本", "\"", "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                     "\ud800", "a\"b\\c\n", "😀"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 60), max_value=10 ** 60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1e308,
                     -1e308, 2.0 ** 53 + 2]),
    st.text(max_size=8),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_canonical_json_is_json_dumps(tree):
    assert canonical_json(tree) == reference(tree)


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [(), {}, [[], {}]],
    {"b": {"c": {}}, "a": [[], [{}]]}, {"": {"": []}},
    1, -0.0, math.nan, math.inf, -math.inf, 10 ** 100, True, None, "é\n\"",
], ids=repr)
def test_canonical_json_empty_containers_and_top_level_scalars(tree):
    assert canonical_json(tree) == reference(tree)


@pytest.mark.parametrize("tree", [object(), {"a": object()}, {"a": [1, {2j}]},
                                  [{"a": {1, 2}}], {"a": [b"x"]}])
def test_canonical_json_rejects_non_json_values(tree):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        canonical_json(tree)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        reference(tree)


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
    text = path.read_text(encoding="utf-8")
    assert text == reference(json.loads(text))


@pytest.mark.parametrize("name", ["sglt2", "respire14", "respire28"])
def test_dataset_json_is_json_dumps(name):
    text = dataset_to_json(load_csv(dataset_path(name)))
    assert text == reference(json.loads(text))


def test_simulate_summary_is_json_dumps(tmp_path):
    summary = tmp_path / "summary.json"
    result = CliRunner().invoke(main, [
        "simulate", "--seed", "7", "--reps", "50", "--k", "2,5", "--tau", "0,0.5",
        "--delta", "0,1", "--out", str(tmp_path / "m.csv"), "--summary", str(summary),
    ])
    assert result.exit_code == 0, result.output
    text = summary.read_text(encoding="utf-8")
    assert text == reference(json.loads(text))
