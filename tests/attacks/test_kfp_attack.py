"""k-FP attack end-to-end tests on synthetic datasets."""

import numpy as np
import pytest

from repro.attacks.kfp import KFingerprinting
from repro.attacks.knn_attack import FeatureKnnAttack
from repro.web.tracegen import StatisticalTraceGenerator


@pytest.fixture(scope="module")
def small_world():
    generator = StatisticalTraceGenerator(seed=11)
    dataset = generator.generate_dataset(
        n_samples=12, sites=["wikipedia.org", "youtube.com", "netflix.com"],
        seed=11,
    )
    rng = np.random.default_rng(0)
    return dataset.train_test_split(0.25, rng)


def test_kfp_forest_mode_beats_chance(small_world):
    train, test = small_world
    attack = KFingerprinting(n_estimators=40, random_state=0)
    attack.fit_dataset(train)
    accuracy = attack.score_dataset(test)
    assert accuracy > 0.6  # chance is 1/3


def test_kfp_leaf_knn_mode(small_world):
    train, test = small_world
    attack = KFingerprinting(
        n_estimators=40, mode="leaf-knn", k_neighbors=3, random_state=0
    )
    attack.fit_dataset(train)
    accuracy = attack.score_dataset(test)
    assert accuracy > 0.6


def test_kfp_labels_recorded(small_world):
    train, _test = small_world
    attack = KFingerprinting(n_estimators=5, random_state=0)
    attack.fit_dataset(train)
    assert attack.labels_ == train.labels


def test_kfp_deterministic(small_world):
    train, test = small_world
    traces, _y = test.to_arrays()
    a = KFingerprinting(n_estimators=10, random_state=3).fit_dataset(train)
    b = KFingerprinting(n_estimators=10, random_state=3).fit_dataset(train)
    assert np.array_equal(a.predict(traces), b.predict(traces))


def test_kfp_feature_importances_normalised(small_world):
    train, _test = small_world
    attack = KFingerprinting(n_estimators=10, random_state=0).fit_dataset(train)
    importances = attack.feature_importances()
    assert importances.shape == (attack.extractor.n_features,)
    assert importances.sum() == pytest.approx(1.0)
    assert (importances >= 0).all()


def test_kfp_mode_validation():
    with pytest.raises(ValueError):
        KFingerprinting(mode="svm")
    attack = KFingerprinting(mode="leaf-knn")
    with pytest.raises(RuntimeError):
        attack.predict_features(np.zeros((1, attack.extractor.n_features)))


def test_feature_knn_attack(small_world):
    train, test = small_world
    attack = FeatureKnnAttack(n_neighbors=3).fit_dataset(train)
    assert attack.score_dataset(test) > 0.5


def test_feature_knn_requires_fit(small_world):
    _train, test = small_world
    traces, _y = test.to_arrays()
    with pytest.raises(RuntimeError):
        FeatureKnnAttack().predict(traces)
