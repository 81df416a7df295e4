"""The Attack contract: every registry entry exposes ``name``, a total
``params()`` that reconstructs it through the registry, and
deterministic ``fit``/``predict``.  Spec round-trips rebuild attacks
that predict bit-identically."""

import numpy as np
import pytest

from repro.attacks import (
    ATTACK_REGISTRY,
    ATTACK_TAXONOMY,
    CcaIdentifier,
    attack_from_spec,
    build_attack,
    implemented_attacks,
)
from repro.cache.canonical import digest
from repro.web.tracegen import StatisticalTraceGenerator


@pytest.fixture(scope="module")
def tiny_world():
    generator = StatisticalTraceGenerator(seed=6)
    dataset = generator.generate_dataset(n_samples=6, seed=6)
    traces, y = dataset.to_arrays()
    rng = np.random.default_rng(1)
    order = rng.permutation(len(y))
    split = int(len(y) * 0.7)
    traces = list(traces)
    return (
        [traces[i] for i in order[:split]],
        y[order[:split]],
        [traces[i] for i in order[split:]],
    )


def _small(name, seed=7):
    """A fast-training configuration of each registered attack."""
    kwargs = {
        "kfp": {"n_estimators": 15},
        "cumul": {"epochs": 5},
        "knn": {"n_neighbors": 3},
        "tam-mlp": {"n_bins": 16, "hidden": (12,), "epochs": 5},
    }[name]
    return build_attack(name, seed=seed, **kwargs)


def test_registry_lists_all_attacks():
    assert implemented_attacks() == ("cumul", "kfp", "knn", "tam-mlp")
    assert set(ATTACK_REGISTRY) == {info.attack for info in ATTACK_TAXONOMY}


def test_unknown_attack_rejected():
    with pytest.raises(ValueError, match="unknown attack"):
        build_attack("deepcorr")


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_registry_entry_declares_its_name(name):
    assert ATTACK_REGISTRY[name].name == name


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_params_round_trip_through_registry(name):
    attack = _small(name)
    params = attack.params()
    assert isinstance(params, dict)
    rebuilt = build_attack(name, **params)
    assert rebuilt.params() == params
    assert rebuilt.spec() == attack.spec()


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_seed_lands_on_declared_kwarg(name):
    cls = ATTACK_REGISTRY[name]
    attack = build_attack(name, seed=42)
    if cls.seed_kwarg is not None:
        assert attack.params()[cls.seed_kwarg] == 42


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_spec_digest_is_stable(name):
    """The cache's attack identity — name + params() — digests
    identically across independently built equal instances."""
    assert digest(_small(name).spec()) == digest(_small(name).spec())
    if ATTACK_REGISTRY[name].seed_kwarg is not None:
        assert digest(_small(name, seed=8).spec()) != digest(
            _small(name, seed=9).spec()
        )


@pytest.mark.parametrize("name", sorted(ATTACK_REGISTRY))
def test_spec_round_trip_predicts_identically(name, tiny_world):
    train_x, train_y, test_x = tiny_world
    original = _small(name).fit(train_x, train_y)
    rebuilt = attack_from_spec(original.spec()).fit(train_x, train_y)
    assert np.array_equal(original.predict(test_x), rebuilt.predict(test_x))


def test_cca_identifier_exported_but_not_registered():
    """CcaIdentifier classifies congestion controllers, not sites: it
    is public API (the PR-9 export fix) but stays out of the WF
    registry."""
    assert CcaIdentifier is not None
    assert "cca" not in {n.split("-")[0] for n in ATTACK_REGISTRY}


def test_experiment_standard_configurations():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.table2 import make_attack

    config = ExperimentConfig(seed=13, n_estimators=22)
    assert make_attack(config, "kfp").params()["n_estimators"] == 22
    assert make_attack(config, "kfp").params()["random_state"] == 13
    assert make_attack(config, "cumul").params()["epochs"] == 20
    assert make_attack(config, "knn").params()["n_neighbors"] == 3
    assert make_attack(config, "tam-mlp").params()["seed"] == 13
    assert make_attack(config, "kfp", seed=99).params()["random_state"] == 99
