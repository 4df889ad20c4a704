"""Byte-stable outputs: the sha256 of every `analyze --json` report and its
stdout for the three bundled datasets under each selection strategy, of the
pvalue strategy's `analyze` and `select` outputs on a test dataset, of a
`simulate --summary` JSON file and of the `validate` stdout. A faster path
must write the same bytes, through CliRunner and to a real stdout alike."""

import codecs
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import fewmeta
from fewmeta.cli import main

from conftest import PVALUE_DATASET, dataset_path

# (report.json, stdout) sha256 per (dataset, --select)
ANALYZE_SHA256 = {
    ("sglt2", "global"): (
        "fd275c36ed9942e93a77f4dfb2ea63dab773ad0760ba21ed39e3f196afafac78",
        "4af0031214cfd0ff4c9e031915fa6c3d40dd1a49e2e050c19c1d1a000e3c573e",
    ),
    ("sglt2", "local"): (
        "85ce9aca961bed7a56c91841c78ba07767000e6a9704be253acf91401a16e624",
        "40db9a85a585922b8cc6e36223586de42a426fcf85c003cc71c007509b6618b5",
    ),
    ("sglt2", "none"): (
        "3a152813bd2b70b1df2cb84b2ad35e00fa8dcaaad22f30482097124d681ffa77",
        "bf5e8bcc20fd5fd81b15d5dcd687bb07e5e9558f6803e2dd27d51fb3405d2a30",
    ),
    ("respire14", "global"): (
        "c8d6250729b53a880f7114af0caf73f41f957ccff89dde4bb14bf6a80e3c96ae",
        "bd88cced42dde5ad9f24bc6278ce9b9a3f8e50b66347d88c249708f4a8740e39",
    ),
    ("respire14", "local"): (
        "4f6fa62ff2d094deb946086010c2e676807f41e1ffc975c29a6809ae233fe4d4",
        "371c52d068197e7bdf0202dac3e44ab2f35e5846a2e4bd0b68a03afc353e99b0",
    ),
    ("respire14", "none"): (
        "8f3833427e73def400c4b75882254dc73667e47bddb46c56f72e02a03a608cf6",
        "0f41d9a90974c13edced14258100a09a83791f4fed97b3cdbbca039bc74926e3",
    ),
    ("respire28", "global"): (
        "0fafcb72be0be9ccd7155498551fa4402b0136907b75917375bcb08da3cff54e",
        "a2758e4a9cc5f0e95675cdae1736b4e4c6223d46b4c444056c34b1d1c4f1be73",
    ),
    ("respire28", "local"): (
        "47ed75436dc4a1250b9da271274572874414d112c016ea70afc0e0bc939a9b7a",
        "98d46c8352cc49ccf4e970eeb0c356c1d87b63280b02609611a6e8606291ae3f",
    ),
    ("respire28", "none"): (
        "a354077c990892797b6d409a4dba6c1d545e06812262b3e69e6721748f8f7c6f",
        "f26deea38aea8f06920481c9e75a584f50b3229d5ef4fb696fab368f9a2e5611",
    ),
}

# `analyze --select pvalue --json` (report.json, stdout) and `select
# --strategy pvalue` stdout sha256 on conftest's PVALUE_DATASET
PVALUE_ANALYZE_SHA256 = (
    "6e9e33a65d4975d6914cbbed691a52200c89e212717f91dbd745537f343d28d8",
    "b09cae76e047905ea5fdff387734e1bd12299890296787ee71e75b1ca93176df",
)
PVALUE_SELECT_SHA256 = "7a36c88538d3e91bed55867f07d8207a106836f54e6ad4e4c6d1a719949955bf"

SUMMARY_SHA256 = "54b4e18f61ee7711e6464b96d6c3b08f436542c0a94716a59bffdaeff2f024a1"
# numpy does not promise the same Generator streams across feature releases
# (NEP 19), so the simulation digest holds for the numpy it was recorded under.
SUMMARY_NUMPY = "2.4.6"

# `validate --seed 0` stdout; its expectation-oracle lines are Monte Carlo
# means, so this digest too holds for the numpy it was recorded under.
VALIDATE_SHA256 = "d090de56bd20dd5eab041e1230a679ba2ba69c8432683daa14668087150e1e21"
VALIDATE_NUMPY = "2.4.6"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, strategy", sorted(ANALYZE_SHA256))
def test_analyze_outputs_are_pinned(tmp_path, name, strategy):
    """The dataset as bundled, and a copy that starts with the UTF-8
    byte-order mark Excel's "CSV UTF-8" writes, give the same bytes."""
    with_bom = tmp_path / "bom.csv"
    with open(dataset_path(name), "rb") as fh:
        with_bom.write_bytes(codecs.BOM_UTF8 + fh.read())
    for data in (dataset_path(name), str(with_bom)):
        path = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["analyze", data, "--select", strategy, "--json", str(path)]
        )
        assert result.exit_code == 0, result.output
        assert (sha256(path.read_bytes()), sha256(result.output.encode())) == (
            ANALYZE_SHA256[name, strategy]
        ), data


def test_pvalue_outputs_are_pinned(tmp_path):
    path = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["analyze", PVALUE_DATASET, "--select", "pvalue", "--json", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert (sha256(path.read_bytes()), sha256(result.output.encode())) == PVALUE_ANALYZE_SHA256
    result = CliRunner().invoke(main, ["select", PVALUE_DATASET, "--strategy", "pvalue"])
    assert result.exit_code == 0, result.output
    assert "CREDENCE=HbA1c" in result.output  # local picks heart_failure
    assert sha256(result.output.encode()) == PVALUE_SELECT_SHA256


def _fewmeta_process(*args):
    """`python -m fewmeta.cli <args>` in a new interpreter, its stdout and
    stderr the pipes of a real process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fewmeta.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "fewmeta.cli", *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_real_stdout_and_stderr():
    result = _fewmeta_process("analyze", dataset_path("sglt2"), "--select", "global")
    assert result.returncode == 0, result.stderr
    assert sha256(result.stdout) == ANALYZE_SHA256["sglt2", "global"][1]

    result = _fewmeta_process("select", dataset_path("sglt2"), "--max-combos", "1")
    assert result.returncode == 3, result.stderr
    assert result.stdout == b""
    assert json.loads(result.stderr)["error"] == "budget"


def test_simulate_summary_is_pinned(tmp_path):
    summary = tmp_path / "summary.json"
    result = CliRunner().invoke(main, [
        "simulate", "--seed", "7", "--reps", "500", "--k", "2,3,5", "--tau", "0,0.5",
        "--out", str(tmp_path / "metrics.csv"), "--summary", str(summary),
    ])
    assert result.exit_code == 0, result.output
    digest = sha256(summary.read_bytes())
    assert digest == SUMMARY_SHA256, (
        f"summary sha256 {digest} under numpy {np.__version__}; "
        f"{SUMMARY_SHA256} was recorded under numpy {SUMMARY_NUMPY}"
    )


def test_validate_stdout_is_pinned():
    result = CliRunner().invoke(main, ["validate", "--seed", "0"])
    assert result.exit_code == 0, result.output
    digest = sha256(result.output.encode())
    assert digest == VALIDATE_SHA256, (
        f"validate stdout sha256 {digest} under numpy {np.__version__}; "
        f"{VALIDATE_SHA256} was recorded under numpy {VALIDATE_NUMPY}"
    )
