"""Campaign identity: the frozen config and its canonical digest.

A campaign is fully determined by its :class:`CampaignConfig` — which
sites exist (generator seed + count), how many visits of each, how the
page loads are simulated, which defense transforms the traces, and how
the trial grid is cut into shards.  :func:`campaign_digest` collapses
all of that (plus the generator and schema versions) into one SHA-256;
every durable artifact of a campaign — manifest, shard sidecars,
cache entries — carries this digest, so artifacts from *different*
campaigns (or the same campaign under changed code) can never be mixed
silently.

``shard_size`` is deliberately part of the digest: shard payloads are
whole-shard npz archives, so the same trials cut differently produce
different artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.canonical import digest
from repro.web.generator import GENERATOR_VERSION
from repro.web.pageload import PageLoadConfig

#: Schema of the on-disk campaign layout (config, manifest, sidecars).
CAMPAIGN_SCHEMA = "repro.campaign/manifest"
#: 2: trials seed through ``repro.web.pageload.visit_seed_rng`` (the
#: shard bytes of version-1 campaigns cannot be re-derived any more).
CAMPAIGN_VERSION = 2


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that decides a campaign's bytes.

    Frozen: derive variants with :func:`dataclasses.replace`.  Worker
    counts, supervisor knobs and resume state are deliberately *not*
    here — they may change between an interrupted run and its resume
    without moving a single byte of output.
    """

    #: Generated sites: indices ``0 .. n_sites`` of the parametric
    #: generator (:mod:`repro.web.generator`) under ``seed``.
    n_sites: int = 1000
    #: Visits per site.
    n_samples: int = 10
    #: Trials per shard (the unit of durability, repair and streaming).
    shard_size: int = 100
    #: Master seed: site profiles, per-trial randomness and defense
    #: randomness all derive from it positionally.
    seed: int = 0
    #: Registered defense applied to every trace (None = undefended).
    defense: Optional[str] = None
    #: Retry attempts per trial (reseeded; stalls that survive every
    #: attempt are recorded as quarantined trials, deterministically).
    retries: int = 2
    #: Page-load simulation parameters.
    pageload: PageLoadConfig = field(default_factory=PageLoadConfig)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.retries < 1:
            raise ValueError(f"retries must be >= 1, got {self.retries}")
        if self.defense is not None:
            from repro.defenses.registry import DEFENSE_REGISTRY

            if self.defense.lower() not in DEFENSE_REGISTRY:
                raise ValueError(
                    f"unknown defense {self.defense!r}; choose from "
                    f"{sorted(DEFENSE_REGISTRY)}"
                )

    @property
    def n_trials(self) -> int:
        return self.n_sites * self.n_samples

    @property
    def n_shards(self) -> int:
        return -(-self.n_trials // self.shard_size)

    def to_dict(self) -> dict:
        from repro.experiments.config import config_to_dict

        return config_to_dict(self)


def campaign_digest(config: CampaignConfig) -> str:
    """The campaign's identity digest (see module docstring)."""
    return digest(
        {
            "schema": CAMPAIGN_SCHEMA,
            "version": CAMPAIGN_VERSION,
            "generator_version": GENERATOR_VERSION,
            "config": config.to_dict(),
        }
    )
