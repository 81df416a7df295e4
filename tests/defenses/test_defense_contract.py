"""The Defense contract: every registry entry exposes ``name``, a
total ``params()`` that reconstructs it through the registry, and a
deterministic ``apply``."""

import numpy as np
import pytest

from repro.cache.canonical import digest
from repro.defenses import (
    DEFENSE_REGISTRY,
    build_defense,
    defense_from_spec,
    implemented_defenses,
)


@pytest.mark.parametrize("name", sorted(DEFENSE_REGISTRY))
def test_registry_entry_declares_its_name(name):
    assert DEFENSE_REGISTRY[name].name == name


@pytest.mark.parametrize("name", implemented_defenses())
def test_params_round_trip_through_registry(name):
    defense = build_defense(name, seed=7)
    params = defense.params()
    assert isinstance(params, dict)
    assert params["seed"] == 7
    rebuilt = build_defense(name, **params)
    assert rebuilt.params() == params


@pytest.mark.parametrize("name", implemented_defenses())
def test_params_digest_is_stable(name):
    """The cache's defense identity — name + params() — digests
    identically across two independently built instances."""
    a = build_defense(name, seed=3)
    b = build_defense(name, seed=3)
    assert digest({"name": a.name, "params": a.params()}) == digest(
        {"name": b.name, "params": b.params()}
    )
    c = build_defense(name, seed=4)
    assert digest({"name": a.name, "params": a.params()}) != digest(
        {"name": c.name, "params": c.params()}
    )


@pytest.mark.parametrize("name", implemented_defenses())
def test_apply_is_deterministic(name, random_trace):
    defense = build_defense(name, seed=5)
    first = defense.apply(random_trace)
    second = defense.apply(random_trace)
    np.testing.assert_array_equal(first.times, second.times)
    np.testing.assert_array_equal(first.sizes, second.sizes)
    np.testing.assert_array_equal(first.directions, second.directions)


@pytest.mark.parametrize("name", implemented_defenses())
def test_defense_from_spec_rebuilds(name):
    defense = build_defense(name, seed=9)
    spec = {"name": defense.name, "params": defense.params()}
    assert defense_from_spec(spec).params() == defense.params()


def test_unknown_defense_name_rejected():
    with pytest.raises(ValueError, match="unknown defense"):
        build_defense("rot13")


def test_build_defense_accepts_param_overrides():
    defense = build_defense("split", seed=2, threshold=800)
    assert defense.params()["threshold"] == 800
    assert defense.params()["seed"] == 2
