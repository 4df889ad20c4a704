import os

import pytest

from fewmeta.data import (
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


def make_split(name, y, se, n=(10, 10), p_interaction=None):
    arms = tuple(
        SubgroupArm(y=float(y[j]), se=float(se[j]), n=int(n[j]))
        for j in (0, 1)
    )
    return SubgroupSplit(name, arms, p_interaction=p_interaction)


def make_dataset(study_specs, selected=None):
    """study_specs: list of (y, se, [splits]); selected: index list or None."""
    studies = []
    for i, (y, se, splits) in enumerate(study_specs):
        sel = None if selected is None else selected[i]
        studies.append(Study(f"s{i + 1}", float(y), float(se), tuple(splits), sel))
    return MetaDataset(tuple(studies))
