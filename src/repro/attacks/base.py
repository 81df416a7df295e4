"""The Attack contract: what every website-fingerprinting attack
implements.

Mirrors the Defense contract (:mod:`repro.defenses.base`):

* ``name`` — the short registry identifier;
* ``params()`` — the *total* set of constructor parameters, as a
  canonical (JSON-safe) dict: ``build_attack(a.name, **a.params())``
  reconstructs an equivalent attack, and the artifact cache digests
  exactly this dict to key per-attack evaluation cells;
* ``fit(traces, y)`` / ``predict(traces)`` — train on raw traces with
  integer labels, classify raw traces.  Deterministic given
  (``params()``): two attacks with equal specs produce bit-identical
  predictions;
* ``spec()`` — the ``{"name": ..., "params": {...}}`` round-trip form
  consumed by :func:`repro.attacks.registry.attack_from_spec`.

Wall-clock-only knobs (worker counts) are constructor arguments but
stay *out* of ``params()``: results are bit-identical for any value,
so they must not move cache keys.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace
from repro.ml.metrics import accuracy_score


class TraceAttack(abc.ABC):
    """A supervised classifier over observed packet sequences."""

    #: Short identifier used in tables, reports and the registry.
    name = "base"

    #: Constructor kwarg that receives the master seed in
    #: :func:`repro.attacks.registry.build_attack` (``None`` for
    #: deterministic attacks with no randomness of their own).
    seed_kwarg: Optional[str] = None

    #: Optional trace-to-vector extractor (``name`` / ``version`` /
    #: ``extract_many``): attacks that expose one also implement
    #: ``fit_features`` / ``predict_features``, letting experiments
    #: cache the extracted matrix independently of the classifier.
    extractor = None

    # -- the contract -------------------------------------------------------

    @abc.abstractmethod
    def params(self) -> Dict[str, object]:
        """Canonical constructor parameters (JSON-safe, total)."""

    @abc.abstractmethod
    def fit(self, traces: Sequence[Trace], y: np.ndarray) -> "TraceAttack":
        """Train on raw traces with integer labels."""

    @abc.abstractmethod
    def predict(self, traces: Sequence[Trace]) -> np.ndarray:
        """Predicted integer labels for raw traces."""

    def spec(self) -> Dict[str, object]:
        """The attack's round-trip identity:
        ``attack_from_spec(a.spec())`` rebuilds an equivalent attack
        (and the cache digests this dict to key evaluation cells)."""
        return {"name": self.name, "params": self.params()}

    # -- dataset conveniences ----------------------------------------------

    def fit_dataset(self, dataset: Dataset) -> "TraceAttack":
        """Fit on a labelled dataset."""
        traces, y = dataset.to_arrays()
        return self.fit(traces, y)

    def score_dataset(self, dataset: Dataset) -> float:
        """Closed-world accuracy on a labelled dataset."""
        traces, y = dataset.to_arrays()
        return accuracy_score(y, self.predict(traces))


#: Public alias for the Attack base contract (mirrors
#: ``repro.defenses.base.Defense``).
Attack = TraceAttack
