"""cached_* helpers and end-to-end incremental recomputation: cold vs
warm runs are byte-identical, perturbed configs recompute, corrupted
artifacts fall back transparently."""

from typing import List

import numpy as np
import pytest

from repro.cache import (
    ArtifactStore,
    CacheKey,
    cached_array,
    cached_arrays,
    cached_dataset,
    cached_json,
    dataset_key,
)
from repro.experiments.config import ExperimentConfig
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy_score
from repro.ml.validate import stratified_kfold_indices
from repro.web.tracegen import StatisticalTraceGenerator


def _tiny_dataset(seed=3, n_samples=4):
    return StatisticalTraceGenerator(seed=seed).generate_dataset(
        n_samples=n_samples, seed=seed
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def test_helpers_degrade_without_store_or_key(store):
    assert cached_json(None, CacheKey.derive("eval", {}), lambda: [1]) == [1]
    assert cached_json(store, None, lambda: [2]) == [2]
    assert store.counters["writes"] == 0


def test_cached_json_round_trip(store):
    key = CacheKey.derive("eval", {"n": 1})
    calls = []

    def compute():
        calls.append(1)
        return {"scores": [0.5, 0.75]}

    assert cached_json(store, key, compute) == {"scores": [0.5, 0.75]}
    assert cached_json(store, key, compute) == {"scores": [0.5, 0.75]}
    assert len(calls) == 1  # second call was a hit


def test_cached_array_round_trip(store):
    key = CacheKey.derive("features", {"v": 1})
    cold = cached_array(store, key, lambda: np.arange(12.0).reshape(3, 4))
    warm = cached_array(store, key, lambda: pytest.fail("should be warm"))
    np.testing.assert_array_equal(cold, warm)
    assert warm.dtype == cold.dtype


def test_cached_arrays_round_trip(store):
    key = CacheKey.derive("features", {"v": 2})
    cold = cached_arrays(
        store, key,
        lambda: {"X": np.ones((2, 3)), "y": np.array([0, 1])},
    )
    warm = cached_arrays(store, key, lambda: pytest.fail("should be warm"))
    assert set(warm) == {"X", "y"}
    np.testing.assert_array_equal(warm["X"], cold["X"])
    np.testing.assert_array_equal(warm["y"], cold["y"])


def test_cached_dataset_round_trip(store):
    key = dataset_key(_tiny_dataset())
    cold = cached_dataset(store, key, _tiny_dataset)
    warm = cached_dataset(
        store, key, lambda: pytest.fail("should be warm")
    )
    assert warm.labels == cold.labels
    for label in cold.labels:
        for t1, t2 in zip(cold.traces[label], warm.traces[label]):
            np.testing.assert_array_equal(t1.times, t2.times)
            np.testing.assert_array_equal(t1.sizes, t2.sizes)
            np.testing.assert_array_equal(t1.directions, t2.directions)


def test_undecodable_cached_payload_recomputes(store):
    """A payload that passes the digest check but fails to decode
    (e.g. written by a buggy writer) must count as corruption and
    fall back to recompute."""
    key = CacheKey.derive("eval", {"n": 2})
    store.put_bytes(key, b"\xff\xfe not json")
    assert cached_json(store, key, lambda: [0.5]) == [0.5]
    assert store.counters["corruptions"] == 1
    # The recompute overwrote the bad payload.
    assert cached_json(store, key, lambda: pytest.fail("warm")) == [0.5]


def test_truncated_dataset_artifact_recomputes(store):
    dataset = _tiny_dataset()
    key = dataset_key(dataset)
    cached_dataset(store, key, lambda: dataset)
    with open(store.payload_path(key), "rb") as handle:
        payload = handle.read()
    with open(store.payload_path(key), "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    recomputed = cached_dataset(store, key, lambda: dataset)
    assert recomputed.num_traces == dataset.num_traces
    assert store.counters["corruptions"] == 1


def test_table2_cold_warm_identical(tmp_path):
    """The acceptance property at experiment scale: a warm table2 run
    over the same store reproduces the cold run exactly, computing
    nothing."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.table2 import run_table2

    config = ExperimentConfig(
        n_samples=6, n_folds=2, n_estimators=10, balance_to=6, seed=11
    )
    dataset = _tiny_dataset(seed=11, n_samples=6)
    store = ArtifactStore(str(tmp_path / "store"))
    cold = run_table2(config, dataset=dataset, cache=store)
    writes = store.counters["writes"]
    assert writes > 0
    warm = run_table2(config, dataset=dataset, cache=store)
    assert warm == cold
    assert store.counters["writes"] == writes  # nothing recomputed
    assert store.counters["hits"] > 0
    # An uncached run agrees too: caching must not change results.
    plain = run_table2(config, dataset=dataset)
    assert plain == cold


def test_table2_eval_perturbation_recomputes_only_eval(tmp_path):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.table2 import run_table2

    config = ExperimentConfig(
        n_samples=6, n_folds=2, n_estimators=10, balance_to=6, seed=11
    )
    dataset = _tiny_dataset(seed=11, n_samples=6)
    store = ArtifactStore(str(tmp_path / "store"))
    run_table2(config, dataset=dataset, cache=store)
    stats = store.stats()

    import dataclasses

    bumped = dataclasses.replace(config, n_estimators=12)
    run_table2(bumped, dataset=dataset, cache=store)
    after = store.stats()
    # Features were reused: only new eval entries appeared.
    assert after.by_stage["features"] == stats.by_stage["features"]
    assert after.by_stage["eval"][0] == 2 * stats.by_stage["eval"][0]


def _fold_scores(
    X: np.ndarray, y: np.ndarray, config: ExperimentConfig
) -> List[float]:
    """k-fold random-forest accuracies over an extracted feature matrix."""
    rng = np.random.default_rng(config.seed)
    scores: List[float] = []
    for fold_index, (train_idx, test_idx) in enumerate(
        stratified_kfold_indices(y, config.n_folds, rng)
    ):
        forest = RandomForest(
            n_estimators=config.n_estimators,
            random_state=config.seed + fold_index,
            n_jobs=config.workers,
        )
        forest.fit(X[train_idx], y[train_idx])
        scores.append(
            accuracy_score(y[test_idx], forest.predict(X[test_idx]))
        )
    return scores


def test_table2_generic_attack_path_matches_kfp(tmp_path):
    """The registry path on kfp features reproduces the historical
    k-FP numbers bit-identically (same folds, same per-fold seeds).
    ``_fold_scores`` above is a frozen copy of the hand-built k-FP
    fold loop the registry path replaced."""
    from repro.experiments.table2 import run_table2

    config = ExperimentConfig(
        n_samples=6, n_folds=2, n_estimators=10, balance_to=6, seed=11
    )
    dataset = _tiny_dataset(seed=11, n_samples=6)
    from repro.capture.sanitize import sanitize_dataset
    from repro.experiments.table2 import attack_fold_scores, make_attack

    clean, _ = sanitize_dataset(dataset, balance_to=config.balance_to)
    traces, y = clean.to_arrays()
    X = make_attack(config, "kfp").extractor.extract_many(traces)
    assert attack_fold_scores("kfp", config, y, X=X) == [
        float(s) for s in _fold_scores(X, y, config)
    ]


def test_table2_per_attack_cells_cache_independently(tmp_path):
    """Two attacks on one store: the second run reuses the collected /
    defended datasets, each attack owns its eval cells, and warm
    re-runs of either are hit-only and value-identical."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.table2 import run_table2

    config = ExperimentConfig(
        n_samples=6, n_folds=2, n_estimators=10, balance_to=6, seed=11
    )
    dataset = _tiny_dataset(seed=11, n_samples=6)
    store = ArtifactStore(str(tmp_path / "store"))
    kfp_cold = run_table2(config, dataset=dataset, cache=store)
    kfp_stats = store.stats()

    knn_cold = run_table2(config, dataset=dataset, cache=store, attack="knn")
    after = store.stats()
    # knn shares kfp's feature matrices; only eval cells were added.
    assert after.by_stage["features"] == kfp_stats.by_stage["features"]
    assert after.by_stage["eval"][0] == 2 * kfp_stats.by_stage["eval"][0]

    kfp_warm = run_table2(config, dataset=dataset, cache=store)
    knn_warm = run_table2(config, dataset=dataset, cache=store, attack="knn")
    assert store.stats().entries == after.entries  # no new writes
    for key in kfp_cold:
        assert kfp_warm[key].fold_scores == kfp_cold[key].fold_scores
        assert knn_warm[key].fold_scores == knn_cold[key].fold_scores
    # Different attacks really produced different grids.
    assert any(
        kfp_cold[key].fold_scores != knn_cold[key].fold_scores
        for key in kfp_cold
    )
