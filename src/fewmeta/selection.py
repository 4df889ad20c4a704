"""Choosing one subgroup split per study to maximize the subgroup Q statistic.

Two strategies are provided: a per-study (local) search costing n x k
evaluations, and an exhaustive (global) search over all n^k combinations.
A third strategy picks the split with the smallest reported interaction
p-value per study, when those are available in the input.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .data import MetaDataset, ValidationError, aggregate_study
from .report import write_atomic

LOCAL = "local"
GLOBAL = "global"
PVALUE = "pvalue"

STRATEGIES = (LOCAL, GLOBAL, PVALUE)

DEFAULT_MAX_COMBINATIONS = 10 ** 6


class CombinationBudgetError(RuntimeError):
    """Raised when the exhaustive search would exceed its budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive search needs {required} combinations, "
            f"budget is {budget}; raise --max-combos to at least {required}"
        )


@dataclass(frozen=True)
class SelectionResult:
    choices: tuple  # one split index per study
    q_s: float
    strategy: str
    combinations_evaluated: int


def within_study_q(split) -> float:
    """Two-group homogeneity statistic of a single split about its own
    aggregated estimate (equivalent to the squared two-sample t statistic)."""
    agg = aggregate_study(split)
    return float(
        sum(arm.se ** -2 * (arm.y - agg.y) ** 2 for arm in split.arms)
    )


def _require_candidates(dataset: MetaDataset):
    dataset.require_k2()
    for study in dataset.studies:
        if not study.splits:
            raise ValidationError(
                f"study {study.study_id!r} has no candidate subgroup splits"
            )


def _split_moments(dataset: MetaDataset):
    """Per (study, split) sufficient statistics (sum w, sum w*y, sum w*y^2)."""
    moments = []
    for study in dataset.studies:
        rows = []
        for split in study.splits:
            w = np.array([a.se ** -2 for a in split.arms])
            y = np.array([a.y for a in split.arms])
            rows.append((w.sum(), (w * y).sum(), (w * y * y).sum()))
        moments.append(rows)
    return moments

def _qs_from_moments(moments, choices) -> float:
    s0 = s1 = s2 = 0.0
    for rows, c in zip(moments, choices):
        a, b, d = rows[c]
        s0 += a
        s1 += b
        s2 += d
    return s2 - s1 * s1 / s0


def select_local(dataset: MetaDataset) -> SelectionResult:
    """Independently pick, per study, the split maximizing the within-study
    two-group statistic. Ties break to the lexicographically smallest
    split name."""
    _require_candidates(dataset)
    choices = []
    evaluated = 0
    for study in dataset.studies:
        best = None
        for idx, split in enumerate(study.splits):
            evaluated += 1
            key = (-within_study_q(split), split.split_name)
            if best is None or key < best[0]:
                best = (key, idx)
        choices.append(best[1])
    choices = tuple(choices)
    q_s = _qs_from_moments(_split_moments(dataset), choices)
    return SelectionResult(choices, float(q_s), LOCAL, evaluated)


def _check_budget(dataset: MetaDataset, max_combinations: int) -> int:
    total = math.prod(len(s.splits) for s in dataset.studies)
    if total > max_combinations:
        raise CombinationBudgetError(total, max_combinations)
    return total


def _enumerate(counts):
    """Study-major enumeration of combinations: the last study varies
    fastest, so combination id is a mixed-radix number over split indices."""
    choices = [0] * len(counts)
    while True:
        yield tuple(choices)
        for pos in range(len(counts) - 1, -1, -1):
            choices[pos] += 1
            if choices[pos] < counts[pos]:
                break
            choices[pos] = 0
        else:
            return


def select_global(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
) -> SelectionResult:
    """Exhaustively evaluate the subgroup Q statistic over every split
    combination and return the argmax. Ties break to the first combination
    in enumeration order."""
    _require_candidates(dataset)
    total = _check_budget(dataset, max_combinations)
    moments = _split_moments(dataset)
    counts = [len(s.splits) for s in dataset.studies]
    best_q, best_choices = -math.inf, None
    for choices in _enumerate(counts):
        q = _qs_from_moments(moments, choices)
        if q > best_q:
            best_q, best_choices = q, choices
    return SelectionResult(best_choices, float(best_q), GLOBAL, total)


def select_pvalue(dataset: MetaDataset) -> SelectionResult:
    """Pick the split with the smallest reported interaction p-value per
    study. All candidate splits must carry a p_interaction value."""
    _require_candidates(dataset)
    choices = []
    for study in dataset.studies:
        best = None
        for idx, split in enumerate(study.splits):
            if split.p_interaction is None:
                raise ValidationError(
                    f"study {study.study_id!r} split {split.split_name!r}: "
                    "p_interaction required for the pvalue strategy"
                )
            key = (split.p_interaction, split.split_name)
            if best is None or key < best[0]:
                best = (key, idx)
        choices.append(best[1])
    choices = tuple(choices)
    q_s = _qs_from_moments(_split_moments(dataset), choices)
    return SelectionResult(choices, float(q_s), PVALUE, dataset.k)


def select(dataset: MetaDataset, strategy: str, max_combinations: int = DEFAULT_MAX_COMBINATIONS) -> SelectionResult:
    if strategy == LOCAL:
        return select_local(dataset)
    if strategy == GLOBAL:
        return select_global(dataset, max_combinations)
    if strategy == PVALUE:
        return select_pvalue(dataset)
    raise ValidationError(f"unknown selection strategy {strategy!r}")


def qs_histogram(
    dataset: MetaDataset, max_combinations: int = DEFAULT_MAX_COMBINATIONS
):
    """All (combination id, Q_S) pairs over the full enumeration, plus the
    threshold 2k-1 above which the subgroup-level tau^2 estimate is
    positive."""
    _require_candidates(dataset)
    _check_budget(dataset, max_combinations)
    moments = _split_moments(dataset)
    counts = [len(s.splits) for s in dataset.studies]
    values = [
        (cid, float(_qs_from_moments(moments, choices)))
        for cid, choices in enumerate(_enumerate(counts))
    ]
    threshold = 2 * dataset.k - 1
    return values, threshold


def write_histogram_csv(values, path):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["combination_id", "q_s"])
    for cid, q in values:
        writer.writerow([cid, repr(q)])
    write_atomic(path, buf.getvalue())
