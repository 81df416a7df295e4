"""Sharded campaign orchestration with end-to-end dataset integrity.

A *campaign* is the repo's unit of scale: thousands of generated sites
(:mod:`repro.web.generator`) × samples × an optional defense, cut into
fixed-size shards, executed under the crash-tolerant
:class:`~repro.supervise.SupervisedPool`, and stored as atomic npz
payloads with a signed manifest.  Everything derives from position —
site profiles, trial seeds, shard boundaries — so any shard can be
re-derived byte-identically at any time: that is what turns integrity
checking (``repro campaign verify``) and self-healing
(``repro campaign repair``) from best-effort into proofs.

Module map: :mod:`~repro.campaign.config` (identity),
:mod:`~repro.campaign.sharding` (planning),
:mod:`~repro.campaign.worker` (pure shard execution),
:mod:`~repro.campaign.orchestrator` (durability ladder, resume),
:mod:`~repro.campaign.manifest` (signed metadata),
:mod:`~repro.campaign.verify` (detect + repair),
:mod:`~repro.campaign.reader` (constant-memory consumption).
"""

from repro.campaign.config import CampaignConfig, campaign_digest
from repro.campaign.manifest import (
    CampaignManifest,
    ShardRecord,
    TrialFailureRecord,
    load_config,
    load_manifest,
)
from repro.campaign.orchestrator import (
    CampaignRunReport,
    recover_manifest,
    run_campaign,
)
from repro.campaign.reader import CampaignReader, stream_feature_matrix
from repro.campaign.sharding import ShardSpec, plan_shards, shard_spec
from repro.campaign.verify import (
    RepairReport,
    VerifyReport,
    repair_campaign,
    verify_campaign,
)
from repro.campaign.worker import ShardOutcome, run_shard

__all__ = [
    "CampaignConfig",
    "campaign_digest",
    "CampaignManifest",
    "ShardRecord",
    "TrialFailureRecord",
    "load_config",
    "load_manifest",
    "CampaignRunReport",
    "recover_manifest",
    "run_campaign",
    "CampaignReader",
    "stream_feature_matrix",
    "ShardSpec",
    "plan_shards",
    "shard_spec",
    "RepairReport",
    "VerifyReport",
    "repair_campaign",
    "verify_campaign",
    "ShardOutcome",
    "run_shard",
]
