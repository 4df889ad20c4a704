import csv
import os
import tempfile

import numpy as np
import pytest

from fewmeta.data import (
    CSV_COLUMNS,
    MetaDataset,
    Study,
    SubgroupArm,
    SubgroupSplit,
    load_csv,
)

DATASET_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "fewmeta",
    "datasets",
)


def dataset_path(name):
    return os.path.join(DATASET_DIR, name + ".csv")


# sglt2 with a p_interaction on each split's arm-1 row, made up for the tests:
# the two-sided z-test p of the arms' difference, to two decimals, except
# CREDENCE's and VERTIS-CV's heart_failure at 0.9, so that the pvalue choice
# differs from the local one in those two studies.
PVALUE_DATASET = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "datasets", "sglt2_pvalue.csv")


@pytest.fixture(scope="session")
def respire14():
    return load_csv(dataset_path("respire14"))


@pytest.fixture(scope="session")
def respire28():
    return load_csv(dataset_path("respire28"))


@pytest.fixture(scope="session")
def sglt2():
    return load_csv(dataset_path("sglt2"))


def study_rows(y_sub, se_sub):
    """Each study's inverse-variance aggregate of its two arms, (y, se), with
    the bits the kernel derives from arms alone: weights 1.0 / se^2, sums from
    +0.0 in arm order, se = 1.0 / sqrt(sum w)."""
    w = 1.0 / np.square(se_sub)
    sw = 0.0 + w[..., 0] + w[..., 1]
    return (0.0 + w[..., 0] * y_sub[..., 0] + w[..., 1] * y_sub[..., 1]) / sw, 1.0 / np.sqrt(sw)


def selected_arms(dataset):
    """(y, se) arrays of shape (k, 2) of every study's selected split, and
    the (k,) prevalences n1 / (n1 + n2) of those splits, gathered from the
    table's rows split_start + selected as dataset_kernel gathers them."""
    rows = np.add(dataset.split_start, dataset.selected)
    n = dataset.arm_n[rows]
    return dataset.arm_y[rows], dataset.arm_se[rows], n[:, 0] / (n[:, 0] + n[:, 1])


def write_rows(path, rows):
    """Dict rows of the CSV schema, p_interaction among them or not, as a
    fewmeta CSV: csv.DictWriter writes a missing field blank and any other
    value as its str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS + ["p_interaction"])
        writer.writeheader()
        writer.writerows(rows)


def load_rows(rows):
    """The dataset load_csv reads from the rows written by write_rows, to a
    file of its own temporary directory (hypothesis refuses tmp_path in
    @given tests)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_rows(path, rows)
        return load_csv(path)


def table_rows(dataset, **columns):
    """The dataset's table as dict rows of the CSV schema, study rows first,
    every float as its repr (which keeps its bits); p_interaction on arm 1's
    row, blank where absent. A keyword replaces the table's column of that
    name (y, se, arm_y, arm_se, arm_n or p_interaction). Loading the rows
    (load_rows) orders each study's splits by name, so it gives the same
    table back only when they are in name order already."""
    y, se, arm_y, arm_se, arm_n, p = (
        np.asarray(columns.get(name, getattr(dataset, name))).tolist()
        for name in ("y", "se", "arm_y", "arm_se", "arm_n", "p_interaction"))
    rows = [dict(study_id=sid, label="", level="study", split="", arm="",
                 y=repr(y[i]), se=repr(se[i]), n="", p_interaction="")
            for i, sid in enumerate(dataset.study_ids)]
    for s, (i, name) in enumerate(zip(dataset.split_study, dataset.split_names)):
        for j in (0, 1):
            rows.append(dict(study_id=dataset.study_ids[i], label="", level="subgroup",
                             split=name, arm=str(j + 1), y=repr(arm_y[s][j]),
                             se=repr(arm_se[s][j]), n=repr(arm_n[s][j]),
                             p_interaction=repr(p[s]) if j == 0 and p[s] == p[s] else ""))
    return rows


def make_split(name, y, se, n=(10, 10), p_interaction=None):
    arms = tuple(
        SubgroupArm(y=float(y[j]), se=float(se[j]), n=int(n[j]))
        for j in (0, 1)
    )
    return SubgroupSplit(name, arms, p_interaction=p_interaction)


def make_dataset(study_specs, selected=None):
    """study_specs: list of (y, se, [splits]); selected: None, or one split
    index per study, applied by with_selection."""
    dataset = MetaDataset(Study(f"s{i + 1}", float(y), float(se), tuple(splits))
                          for i, (y, se, splits) in enumerate(study_specs))
    return dataset if selected is None else dataset.with_selection(selected)
