import copy

import numpy as np
import pytest

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace
from repro.experiments.table2 import DEFENSE_ORDER, N_VALUES, Table2Cell

from perfbench import checks


def make_table(n_folds=3, score=0.8):
    return {
        (d, n): Table2Cell(d, n, score, 0.0, [score] * n_folds)
        for d in DEFENSE_ORDER
        for n in ("all",) + N_VALUES
    }


def make_dataset():
    dataset = Dataset()
    for label in ("a", "b"):
        for k in range(2):
            times = np.array([0.0, 0.1, 0.2 + k])
            dataset.add(label, Trace(times, np.array([1, -1, -1]), np.array([100, 1500, 900])))
    return dataset


def test_a_good_table_passes():
    assert checks.check_table2(make_table(), 3) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t.pop(("split", 30)),
        lambda t: t[("delayed", 15)].fold_scores.__setitem__(1, 1.5),
        lambda t: t[("delayed", 15)].fold_scores.__setitem__(1, float("nan")),
        lambda t: t[("combined", "all")].fold_scores.pop(),
        lambda t: setattr(t[("original", "all")], "mean", 1 / 9),
    ],
    ids=["missing-cell", "score-above-one", "nan-score", "short-folds", "chance-accuracy"],
)
def test_a_corrupted_table_is_flagged(corrupt):
    table = make_table()
    corrupt(table)
    assert checks.check_table2(table, 3)


def test_table_digest_sees_the_last_digit():
    table = make_table()
    other = copy.deepcopy(table)
    other[("split", 45)].fold_scores[0] = np.nextafter(0.8, 1.0)
    assert checks.table_digest(table) == checks.table_digest(copy.deepcopy(table))
    assert checks.table_digest(table) != checks.table_digest(other)
    assert checks.check_same(checks.table_digest(table), checks.table_digest(other), "warm")


def test_good_traces_pass_the_oracle():
    assert checks.check_traces(make_dataset(), "tcp") == []


@pytest.mark.parametrize(
    "field, index, value",
    [("times", 2, 0.05), ("times", 0, -1.0), ("times", 1, np.inf),
     ("sizes", 1, 0), ("directions", 0, 0)],
)
def test_a_corrupted_trace_is_flagged(field, index, value):
    dataset = make_dataset()
    # Trace validates on construction; corrupt it afterwards, as a
    # buggy producer mutating arrays in place would.
    getattr(dataset.traces["b"][1], field)[index] = value
    problems = checks.check_traces(dataset, "tcp")
    assert len(problems) == 1 and "b[1]" in problems[0]


def test_dataset_digest_and_accounting():
    dataset = make_dataset()
    assert checks.dataset_digest(dataset) == checks.dataset_digest(make_dataset())
    dataset.traces["a"][0].sizes[0] += 1
    assert checks.dataset_digest(dataset) != checks.dataset_digest(make_dataset())
    assert checks.check_accounting(54, 53, 1, "bursty") == []
    assert checks.check_accounting(54, 53, 0, "bursty")
