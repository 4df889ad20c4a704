"""Byte-stable outputs: the sha256 of every `analyze --json` report and its
stdout for the three bundled datasets under each selection strategy, of a
`simulate --summary` JSON file and of the `validate` stdout. A faster path
must write the same bytes."""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from fewmeta.cli import main

from conftest import dataset_path

# (report.json, stdout) sha256 per (dataset, --select)
ANALYZE_SHA256 = {
    ("sglt2", "global"): (
        "2cae0c80481a5ac20840eb7bf83a2a04390a71f90ffe57674c4df6ffbe752371",
        "4af0031214cfd0ff4c9e031915fa6c3d40dd1a49e2e050c19c1d1a000e3c573e",
    ),
    ("sglt2", "local"): (
        "6d80a4f5482854c355a32bd063dae0c3b889d56830d119abbfa9e6c2b76089cd",
        "40db9a85a585922b8cc6e36223586de42a426fcf85c003cc71c007509b6618b5",
    ),
    ("sglt2", "none"): (
        "7cf0e05c9ebc8fa5cf1df1e970d808bcd3406816fecbfb99bb6e0c061e4c5c6f",
        "bf5e8bcc20fd5fd81b15d5dcd687bb07e5e9558f6803e2dd27d51fb3405d2a30",
    ),
    ("respire14", "global"): (
        "0fb93c050bbf2dd488d89ab1348a70ed08c47e41ab7d9b7c8b8f8281e36fa8c7",
        "bd88cced42dde5ad9f24bc6278ce9b9a3f8e50b66347d88c249708f4a8740e39",
    ),
    ("respire14", "local"): (
        "fa855afbf5809bf289535e8d0348b392459dd80a3f024413322f8dc592990b73",
        "371c52d068197e7bdf0202dac3e44ab2f35e5846a2e4bd0b68a03afc353e99b0",
    ),
    ("respire14", "none"): (
        "85829051c0bc65ec2f148244d167c7791c74685a328ef881ba5682778aeb3a2c",
        "0f41d9a90974c13edced14258100a09a83791f4fed97b3cdbbca039bc74926e3",
    ),
    ("respire28", "global"): (
        "e64f98465e59f973346be7831aa777feb839e2a84cebefd6ae8f5466f8d8912e",
        "a2758e4a9cc5f0e95675cdae1736b4e4c6223d46b4c444056c34b1d1c4f1be73",
    ),
    ("respire28", "local"): (
        "26a59b5933b9050ba10fc80d771980d43d83271270f5bcec22f9685a35aa9316",
        "98d46c8352cc49ccf4e970eeb0c356c1d87b63280b02609611a6e8606291ae3f",
    ),
    ("respire28", "none"): (
        "efaebe502c7fa0548832bc703c7366d65ae5a8ad9b54d082ac39ef3803d40abc",
        "f26deea38aea8f06920481c9e75a584f50b3229d5ef4fb696fab368f9a2e5611",
    ),
}

SUMMARY_SHA256 = "26937b7c73411bf2f99318f4a03ba21f490042f9568d3367e3654a21cbf67e41"
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
    path = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["analyze", dataset_path(name), "--select", strategy, "--json", str(path)]
    )
    assert result.exit_code == 0, result.output
    assert (sha256(path.read_bytes()), sha256(result.output.encode())) == (
        ANALYZE_SHA256[name, strategy]
    )


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
