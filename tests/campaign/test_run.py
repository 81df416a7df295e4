"""Campaign execution: determinism, resume, interruption, worker death."""

import dataclasses
import os
import signal

import pytest

from repro.campaign import (
    CampaignConfig,
    load_manifest,
    run_campaign,
    verify_campaign,
)
from repro.campaign.manifest import (
    manifest_path,
    shard_payload_path,
    shard_sidecar_path,
)
from repro.campaign.worker import run_shard
from repro.campaign.sharding import shard_spec
from repro.errors import FatalError, RunTerminated
from repro.web.generator import site_name
from repro.web.pageload import visit_seed_rng


def _digests(directory):
    manifest = load_manifest(directory)
    return {i: r.payload_sha256 for i, r in manifest.shards.items()}


def test_run_completes_and_verifies(campaign_dir, tiny_config):
    manifest = load_manifest(campaign_dir)
    assert manifest.done_ids() == list(range(tiny_config.n_shards))
    assert verify_campaign(campaign_dir).ok
    for shard_id in manifest.done_ids():
        assert os.path.exists(shard_payload_path(campaign_dir, shard_id))
        assert os.path.exists(shard_sidecar_path(campaign_dir, shard_id))


def test_run_shard_is_deterministic(tiny_config):
    spec = shard_spec(tiny_config, 1)
    a = run_shard(tiny_config, spec)
    b = run_shard(tiny_config, spec)
    assert a.payload == b.payload
    assert a.rows == b.rows


def test_trial_rng_streams_are_distinct():
    draws = {
        tuple(visit_seed_rng(0, site_name(s), k, a).integers(0, 2**31, 4).tolist())
        for s in range(3)
        for k in range(3)
        for a in range(2)
    }
    assert len(draws) == 18


def test_parallel_run_is_byte_identical(tmp_path, tiny_config, campaign_dir):
    parallel_dir = str(tmp_path / "parallel")
    report = run_campaign(parallel_dir, tiny_config, workers=2)
    assert report.complete
    assert _digests(parallel_dir) == _digests(campaign_dir)


def test_fresh_run_refuses_existing_campaign(campaign_dir, tiny_config):
    with pytest.raises(FatalError, match="resume"):
        run_campaign(campaign_dir, tiny_config)


def test_run_refuses_conflicting_config(campaign_dir, tiny_config):
    other = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
    with pytest.raises(FatalError, match="different config"):
        run_campaign(campaign_dir, other, resume=True)


def test_resume_executes_only_missing_shards(tmp_path, tiny_config, campaign_dir):
    reference = _digests(campaign_dir)
    os.remove(shard_payload_path(campaign_dir, 2))
    os.remove(shard_sidecar_path(campaign_dir, 2))
    os.remove(manifest_path(campaign_dir))
    report = run_campaign(campaign_dir, resume=True)
    assert report.executed == [2]
    assert sorted(report.resumed) == [0, 1]
    assert _digests(campaign_dir) == reference


def test_resume_adopts_orphan_payloads(tmp_path, tiny_config, campaign_dir):
    """A payload whose sidecar and manifest record were lost (killed
    between ladder rungs) is re-adopted by content, not re-executed."""
    reference = _digests(campaign_dir)
    payload = shard_payload_path(campaign_dir, 1)
    before = os.path.getmtime(payload)
    os.remove(shard_sidecar_path(campaign_dir, 1))
    os.remove(manifest_path(campaign_dir))
    report = run_campaign(campaign_dir, resume=True)
    assert report.executed == []
    assert report.adopted_orphans == [1]
    assert os.path.getmtime(payload) == before
    assert _digests(campaign_dir) == reference
    assert verify_campaign(campaign_dir).ok


def test_sigterm_leaves_manifest_consistent_and_resume_matches(
    tmp_path, tiny_config, campaign_dir
):
    """SIGTERM mid-campaign: everything published so far is durable and
    consistent, and resume converges to the uninterrupted result."""
    reference = _digests(campaign_dir)
    interrupted = str(tmp_path / "interrupted")

    def terminate_after_first(record):
        os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(RunTerminated):
        run_campaign(interrupted, tiny_config, progress=terminate_after_first)

    partial = verify_campaign(interrupted)
    assert partial.ok  # consistent, just incomplete
    assert len(partial.clean) >= 1
    assert partial.unexecuted  # something was genuinely left to do

    report = run_campaign(interrupted, resume=True)
    assert report.complete
    assert _digests(interrupted) == reference
    with open(manifest_path(interrupted), "rb") as a:
        with open(manifest_path(campaign_dir), "rb") as b:
            assert a.read() == b.read()


def test_keyboard_interrupt_leaves_manifest_consistent(tmp_path, tiny_config):
    directory = str(tmp_path / "interrupted")
    calls = []

    def interrupt_after_first(record):
        calls.append(record.shard_id)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_campaign(directory, tiny_config, progress=interrupt_after_first)
    assert len(calls) == 1
    assert verify_campaign(directory).ok


def test_worker_death_recovers_byte_identically(
    tmp_path, tiny_config, campaign_dir
):
    """REPRO_CHAOS kills one worker mid-campaign; the supervised pool
    reschedules and the shard digests still match the clean run."""
    chaos_dir = str(tmp_path / "chaos")
    sentinel = str(tmp_path / "crash.sentinel")
    os.environ["REPRO_CHAOS"] = f"crash-once:{sentinel}"
    try:
        report = run_campaign(chaos_dir, tiny_config, workers=2)
    finally:
        del os.environ["REPRO_CHAOS"]
    assert os.path.exists(sentinel)  # the fault actually fired
    assert report.supervisor is not None
    assert report.supervisor.worker_restarts >= 1
    assert report.complete
    assert _digests(chaos_dir) == _digests(campaign_dir)


def test_trial_failures_are_deterministic_records(tmp_path):
    """A config whose deadline stalls some loads records the same
    failures on every derivation (they round-trip through repair)."""
    config = CampaignConfig(
        n_sites=2,
        n_samples=2,
        shard_size=4,
        seed=7,
        retries=2,
        pageload=dataclasses.replace(
            CampaignConfig().pageload, max_duration=0.05
        ),
    )
    spec = shard_spec(config, 0)
    a = run_shard(config, spec)
    b = run_shard(config, spec)
    assert a.failures == b.failures
    assert len(a.failures) == 4  # every trial stalls at 50ms simulated
    assert a.rows == 0
    assert a.payload == b.payload
    directory = str(tmp_path / "stalled")
    report = run_campaign(directory, config)
    assert report.trial_failures == 4
    assert report.complete  # failed trials are recorded, not fatal
    assert verify_campaign(directory).ok
