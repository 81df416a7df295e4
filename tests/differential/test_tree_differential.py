"""Differential test: vectorized forest split search vs the frozen tree.

``reference_tree.py`` holds the per-feature split search as it stood
before every candidate feature was scored in one numpy pass (DESIGN §13,
"Forest split search").  The live tree must grow the *same* tree: equal
``feature/threshold/left/right/value`` arrays, and an equal generator
state afterwards, which catches any change in the number or order of
``rng.choice`` draws even where the trees happen to agree.

The data strategy aims at the places a vectorized search could diverge
from the loop: duplicated values and constant columns (invalid split
positions, masked to -inf), duplicated columns and few-valued columns
(exact gain ties across candidates and positions, where the first
candidate and the first position must win), ``min_samples_leaf`` that
leaves no valid position at all, NaN values (every NaN is its own
split point, so the stable order among them decides the gains), and
more than eight classes (numpy sums a row of eight or more with
pairwise blocks, so the class axis must be reduced exactly as the loop
reduced it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import forest as forest_mod
from repro.ml.forest import RandomForest
from repro.ml.tree import DecisionTree

from tests.differential.reference_tree import DecisionTree as ReferenceTree

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")

#: How a drawn matrix is shaped before fitting.
LAYOUTS = ("continuous", "few_values", "duplicated_columns", "constant_columns",
           "missing_values")


def make_matrix(seed, m, d, n_labels, layout):
    rng = np.random.default_rng(seed)
    if layout == "few_values":
        X = rng.integers(0, 3, size=(m, d)).astype(np.float64)
    else:
        X = rng.normal(size=(m, d))
    if layout == "duplicated_columns":
        X[:, 1::2] = X[:, :1]
    elif layout == "constant_columns":
        X[:, ::2] = 1.5
    elif layout == "missing_values":
        X[rng.random(size=X.shape) < 0.3] = np.nan
    # Duplicated rows: equal values, and often equal rows with
    # different labels.
    X[m // 2:] = X[: m - m // 2]
    y = rng.integers(0, n_labels, size=m)
    return X, y


@st.composite
def tree_cases(draw):
    m = draw(st.integers(2, 60))
    d = draw(st.integers(1, 20))
    n_labels = draw(st.integers(1, 12))
    extra_classes = draw(st.integers(0, 2))
    max_features = draw(
        st.one_of(st.none(), st.just("sqrt"), st.integers(1, d))
    )
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        m=m,
        d=d,
        n_labels=n_labels,
        extra_classes=extra_classes,
        layout=draw(st.sampled_from(LAYOUTS)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
        max_features=max_features,
    )


def fit_both(case):
    X, y = make_matrix(case["seed"], case["m"], case["d"], case["n_labels"],
                       case["layout"])
    n_classes = int(y.max()) + 1 + case["extra_classes"]
    params = dict(
        max_depth=case["max_depth"],
        min_samples_leaf=case["min_samples_leaf"],
        max_features=case["max_features"],
    )
    fitted = []
    for cls in (DecisionTree, ReferenceTree):
        rng = np.random.default_rng(case["seed"])
        tree = cls(rng=rng, **params).fit(X, y, n_classes=n_classes)
        fitted.append((tree, rng))
    return fitted


def assert_same_tree(live, reference):
    for name in TREE_ARRAYS:
        a, b = getattr(live, name), getattr(reference, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@given(tree_cases())
@settings(max_examples=300, deadline=None)
def test_tree_is_bit_identical_to_reference(case):
    (live, live_rng), (ref, ref_rng) = fit_both(case)
    assert_same_tree(live, ref)
    assert live_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_labels", [9, 16])
def test_many_classes_match_reference(n_labels):
    """A fold-shaped fit with more than eight classes (Table 2 has nine)."""
    case = dict(seed=n_labels, m=120, d=40, n_labels=n_labels,
                extra_classes=1, layout="continuous", min_samples_leaf=1,
                max_depth=None, max_features="sqrt")
    (live, live_rng), (ref, ref_rng) = fit_both(case)
    assert live.node_count > 20
    assert_same_tree(live, ref)
    assert live_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1])
def test_forest_matches_reference_with_bootstrap_and_two_jobs(seed, monkeypatch):
    """Bootstrapped trees fitted over two processes match a serial
    forest built from the frozen tree (serial and parallel forests are
    already bit-identical, so the reference side stays in-process)."""
    X, y = make_matrix(seed, 90, 30, 9, "few_values" if seed else "continuous")
    kwargs = dict(n_estimators=12, random_state=seed, oob_score=True)
    live = RandomForest(n_jobs=2, **kwargs).fit(X, y)
    monkeypatch.setattr(forest_mod, "DecisionTree", ReferenceTree)
    reference = RandomForest(n_jobs=1, **kwargs).fit(X, y)
    assert len(live.trees_) == len(reference.trees_) == 12
    for a, b in zip(live.trees_, reference.trees_):
        assert_same_tree(a, b)
    assert live.oob_score_ == reference.oob_score_
