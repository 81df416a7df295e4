"""Cache-key derivation.

A :class:`CacheKey` identifies one pipeline-stage output.  Its digest
covers four things, so a change to any of them lands on a different
key (invalidation is just "the key moved"):

* the **stage name** and its **stage version** — bump the version in
  :data:`STAGE_VERSIONS` whenever a stage's implementation changes its
  output for the same config;
* the **code version** of the package (a release that touches
  everything invalidates everything);
* the canonical form of the stage's **typed config**
  (:func:`repro.cache.canonical.jsonable`);
* the digests of the **upstream artifacts** the stage consumed, which
  is what chains invalidation down the pipeline: a new capture digest
  moves every defend/features/eval key derived from it, while changing
  only classifier hyperparameters leaves the features key (and its
  cached artifact) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Union

from repro._version import __version__
from repro.cache.canonical import digest

#: Code version folded into every key.
CODE_VERSION = __version__

#: Per-stage implementation versions.  Bump a stage's entry when its
#: output changes for an unchanged config — the cheap, targeted
#: invalidation lever (vs. a package version bump, which moves every
#: key).
STAGE_VERSIONS = {
    "capture": 2,   # raw trace collection (2: retries seed via visit_seed_rng)
    "dataset": 1,   # content digest of an externally supplied dataset
    "sanitize": 1,  # IQR filter + balancing
    "defend": 1,    # defense application (trace transform)
    "features": 1,  # k-FP feature extraction
    "eval": 1,      # model fit + k-fold evaluation
    "overhead": 1,  # bandwidth/latency overhead summaries
    "campaign": 1,  # sharded campaign shard payloads (repro.campaign)
}


def campaign_shard_key(config_digest: str, shard_id: int) -> CacheKey:
    """The cache key of one campaign shard's payload.

    Reuses the canonical key machinery so campaign shards live in the
    same content-addressed store as every other pipeline artifact: the
    campaign's config digest is the upstream, the shard id the config.
    Derivation-over-position means equal shards of equal campaigns —
    run, resumed, or repaired — always land on the same key.
    """
    return CacheKey.derive(
        "campaign", {"shard_id": int(shard_id)}, upstream=[config_digest]
    )


@dataclass(frozen=True)
class CacheKey:
    """One stage output's identity: ``stage`` plus a SHA-256 digest."""

    stage: str
    digest: str

    @classmethod
    def derive(
        cls,
        stage: str,
        config: Any,
        upstream: Sequence[Union["CacheKey", str]] = (),
    ) -> "CacheKey":
        """Derive the key for ``stage`` run with ``config`` over the
        ``upstream`` artifacts (keys or raw digest strings)."""
        if stage not in STAGE_VERSIONS:
            raise ValueError(
                f"unknown stage {stage!r}; declare it in STAGE_VERSIONS"
            )
        payload = {
            "stage": stage,
            "stage_version": STAGE_VERSIONS[stage],
            "code_version": CODE_VERSION,
            "config": config,
            "upstream": [
                u.digest if isinstance(u, CacheKey) else str(u)
                for u in upstream
            ],
        }
        return cls(stage=stage, digest=digest(payload))

    @property
    def relpath(self) -> str:
        """Sharded path fragment under the store root."""
        return f"{self.stage}/{self.digest[:2]}/{self.digest}"
