"""Shard execution: one shard's coordinates in, deterministic bytes out.

:func:`run_shard` is the campaign's pure core.  Everything it touches
is position-derived — site profiles from ``(seed, site_index)``, trial
randomness from the shared per-visit derivation
:func:`~repro.web.pageload.visit_seed_rng` ``(seed, label, sample,
attempt)``, defense randomness from the trial stream — so the payload
bytes of shard 17 are a function of ``(config, 17)`` and nothing else.
Not worker count, not execution order, not which run (first attempt,
resume, or repair years later) happened to compute it.  That single
property is what the whole integrity story hangs off: repair can
promise *byte-identical* re-derivation because the original bytes
never depended on anything that can't be reconstructed.

Failure handling inside a shard is deterministic too: every trial runs
through the shared retry loop :func:`~repro.web.pageload.execute_trial`
with ``config.retries`` attempts and no backoff, and a trial whose
every attempt fails is *dropped and recorded* as a
:class:`~repro.campaign.manifest.TrialFailureRecord`.  The same trial
fails the same way on every re-derivation, so failure records
round-trip through repair just like trace bytes do.

:func:`run_shard_chunk` is the picklable
:class:`~repro.supervise.SupervisedPool` task: shard-scoped exceptions
become quarantined :class:`ShardOutcome`\\ s (the campaign keeps
going), while termination requests and fatal taxonomy errors
propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture.dataset import Dataset
from repro.capture.serialize import dumps_dataset
from repro.campaign.config import CampaignConfig
from repro.campaign.manifest import (
    SHARD_DONE,
    SHARD_QUARANTINED,
    ShardRecord,
    TrialFailureRecord,
)
from repro.campaign.sharding import ShardSpec, shard_spec, shard_trials
from repro.errors import FatalError
from repro.obs import runtime as _obs_runtime
from repro.web.generator import generate_profile, site_name
from repro.web.objects import SiteProfile
from repro.web.pageload import RetryPolicy, execute_trial, load_page_strict


@dataclass
class ShardOutcome:
    """What executing one shard produced (picklable, pool-safe).

    ``payload`` is the deterministic npz archive bytes for done shards
    and ``None`` for quarantined ones.  The coordinator — never the
    worker — turns outcomes into files, so there is exactly one writer
    of the campaign directory.
    """

    shard_id: int
    start: int
    stop: int
    status: str
    rows: int = 0
    payload: Optional[bytes] = None
    failures: List[TrialFailureRecord] = field(default_factory=list)
    error: str = ""
    error_class: str = ""

    def to_record(self, payload_sha256: str = "", payload_bytes: int = 0) -> ShardRecord:
        """The manifest record for this outcome (digest filled in by
        the coordinator after the payload is durable)."""
        return ShardRecord(
            shard_id=self.shard_id,
            start=self.start,
            stop=self.stop,
            status=self.status,
            rows=self.rows,
            payload_sha256=payload_sha256,
            payload_bytes=payload_bytes,
            failures=list(self.failures),
            error=self.error,
            error_class=self.error_class,
        )


def run_shard(config: CampaignConfig, spec: ShardSpec) -> ShardOutcome:
    """Execute one shard: every trial in ``[start, stop)``, in order.

    Pure in the sense that matters: equal ``(config, spec)`` produce
    equal ``payload`` bytes and equal failure records, regardless of
    process, worker count, or how many times this shard ran before.
    """
    defense = None
    if config.defense is not None:
        from repro.defenses.registry import build_defense

        # Per-trial randomness comes through apply(trace, rng); the
        # builder seed only fixes construction-time parameters.
        defense = build_defense(config.defense, seed=config.seed)

    profiles: Dict[str, SiteProfile] = {}

    def trial(label, sample, rng, watchdog):
        trace = load_page_strict(
            profiles[label], label, config.pageload, rng, watchdog=watchdog
        )
        return trace if defense is None else defense.apply(trace, rng)

    retry = RetryPolicy(max_attempts=config.retries, backoff_base=0.0)
    dataset = Dataset()
    failures: List[TrialFailureRecord] = []
    rows = 0
    for site_index, sample in shard_trials(config, spec):
        label = site_name(site_index)
        if label not in profiles:
            profiles[label] = generate_profile(config.seed, site_index)
        outcome = execute_trial(trial, label, sample, config.seed, retry)
        failed_attempts = outcome.retries + (outcome.trace is None)
        if failed_attempts:
            _count("campaign.trial_retries", failed_attempts)
        if outcome.trace is not None:
            dataset.add(label, outcome.trace)
            rows += 1
            continue
        _count("campaign.trial_failures")
        failures.append(
            TrialFailureRecord(
                site_index=site_index,
                sample=sample,
                error=type(outcome.error).__name__,
                message=str(outcome.error),
            )
        )
    return ShardOutcome(
        shard_id=spec.shard_id,
        start=spec.start,
        stop=spec.stop,
        status=SHARD_DONE,
        rows=rows,
        payload=dumps_dataset(dataset),
        failures=failures,
    )


def run_shard_chunk(config: CampaignConfig, shard_ids: List[int]) -> List[ShardOutcome]:
    """:class:`~repro.supervise.SupervisedPool` task: run shards by id.

    A shard whose execution raises an ordinary exception is returned as
    a *quarantined outcome* — the campaign records it and moves on —
    while ``KeyboardInterrupt``/``RunTerminated`` (``BaseException``)
    and :class:`~repro.errors.FatalError` propagate: termination must
    unwind, and fatal taxonomy errors are bugs retrying would mask.
    """
    outcomes: List[ShardOutcome] = []
    for shard_id in shard_ids:
        spec = shard_spec(config, shard_id)
        try:
            outcomes.append(run_shard(config, spec))
        except FatalError:
            raise
        except Exception as exc:  # shard-scoped quarantine
            outcomes.append(
                ShardOutcome(
                    shard_id=spec.shard_id,
                    start=spec.start,
                    stop=spec.stop,
                    status=SHARD_QUARANTINED,
                    error=str(exc),
                    error_class=type(exc).__name__,
                )
            )
    return outcomes


def _count(name: str, amount: int = 1) -> None:
    obs = _obs_runtime.session()
    if obs is not None:
        obs.registry.counter(name).add(amount)
