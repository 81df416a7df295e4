"""k-NN, metrics and cross-validation tests."""

import numpy as np
import pytest

from repro.ml.knn import KNeighborsClassifier
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    mean_std,
    precision_recall_f1,
)
from repro.ml.validate import stratified_kfold_indices


def test_knn_euclidean_nearest_wins():
    X = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
    y = np.array([0, 0, 1, 1, 1])
    knn = KNeighborsClassifier(n_neighbors=3).fit(X, y)
    assert knn.predict(np.array([[0.05]]))[0] == 0
    assert knn.predict(np.array([[9.9]]))[0] == 1


def test_knn_hamming_over_codes():
    X = np.array([[1, 2, 3], [1, 2, 4], [9, 9, 9], [9, 9, 8]])
    y = np.array([0, 0, 1, 1])
    knn = KNeighborsClassifier(n_neighbors=2, metric="hamming").fit(X, y)
    assert knn.predict(np.array([[1, 2, 5]]))[0] == 0
    assert knn.predict(np.array([[9, 9, 7]]))[0] == 1


def test_knn_kneighbors_sorted_by_distance():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 2])
    knn = KNeighborsClassifier(n_neighbors=2).fit(X, y)
    neighbors = knn.kneighbors(np.array([[0.9]]))
    assert list(neighbors[0]) == [1, 0]


def test_knn_unanimous_vote():
    X = np.array([[0.0], [0.1], [5.0], [10.0]])
    y = np.array([0, 0, 1, 2])
    knn = KNeighborsClassifier(n_neighbors=2).fit(X, y)
    out = knn.predict_unanimous(np.array([[0.05], [7.0]]), fallback=-1)
    assert out[0] == 0
    assert out[1] == -1  # neighbours disagree (1 and 2)


def test_knn_validation():
    with pytest.raises(ValueError):
        KNeighborsClassifier(n_neighbors=0)
    with pytest.raises(ValueError):
        KNeighborsClassifier(metric="cosine")
    with pytest.raises(ValueError):
        KNeighborsClassifier(n_neighbors=5).fit(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(RuntimeError):
        KNeighborsClassifier().kneighbors(np.zeros((1, 1)))


def test_accuracy_score():
    assert accuracy_score([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy_score([1], [1, 2])
    with pytest.raises(ValueError):
        accuracy_score([], [])


def test_confusion_matrix():
    matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], n_classes=2)
    assert matrix.tolist() == [[1, 1], [0, 2]]


def test_precision_recall_f1_perfect_and_degenerate():
    p, r, f = precision_recall_f1([0, 1], [0, 1], 2)
    assert np.allclose(p, 1) and np.allclose(r, 1) and np.allclose(f, 1)
    # A class never predicted: precision 0 without NaN.
    p, r, f = precision_recall_f1([0, 1], [0, 0], 2)
    assert np.isfinite(p).all() and np.isfinite(f).all()


def test_mean_std_matches_paper_format():
    mean, std = mean_std([0.9, 1.0, 0.8])
    assert mean == pytest.approx(0.9)
    assert std == pytest.approx(0.1)
    mean, std = mean_std([0.5])
    assert std == 0.0
    with pytest.raises(ValueError):
        mean_std([])


def test_stratified_kfold_balances_classes(rng):
    y = np.array([0] * 10 + [1] * 20)
    for train_idx, test_idx in stratified_kfold_indices(y, 5, rng):
        assert (y[test_idx] == 0).sum() == 2
        assert (y[test_idx] == 1).sum() == 4
        assert len(set(train_idx) & set(test_idx)) == 0


def test_stratified_kfold_covers_everything(rng):
    y = np.array([0, 1] * 15)
    seen = []
    for _train, test in stratified_kfold_indices(y, 3, rng):
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(30))
