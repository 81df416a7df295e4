"""The campaign coordinator: shards in flight, one writer on disk.

Execution model
---------------

The coordinator plans the shard list from the config, subtracts what
the manifest already holds, and runs the remainder — in-process for
``workers=1``, through a :class:`~repro.supervise.SupervisedPool`
otherwise (one shard per pool chunk: the shard is already the coarse
unit of work, durability and repair, so it is the unit of rescheduling
and quarantine too).  Workers compute; **only the coordinator writes**.
Publishing one shard is a strict durability ladder::

    payload npz  →  sidecar json  →  MANIFEST.json
    (atomic)        (atomic)          (atomic rewrite)

Each rung is an atomic replace and each rung is only climbed after the
one below is durable, so a crash at *any* instant leaves the directory
in one of exactly three states per shard: absent, payload-only
(orphan, re-adopted by digest on resume), or fully recorded.  There is
no fourth state and therefore nothing to roll back — ``--resume``
just re-plans against whatever the ladder reached.

Interruption (Ctrl-C, SIGTERM via
:func:`~repro.errors.sigterm_translated`, ENOSPC) propagates out of
:func:`run_campaign` *between* rungs, never half-way up one.

Manifest loss is also survivable: :func:`recover_manifest` rebuilds it
from the signed sidecars, re-verifying each adopted shard's payload
digest — clean shards are never re-executed just because the manifest
died (the regression the checkpoint-eviction tests pin down).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.campaign.config import CampaignConfig, campaign_digest
from repro.campaign.manifest import (
    SHARD_QUARANTINED,
    CampaignManifest,
    ShardRecord,
    config_path,
    load_config,
    load_manifest,
    load_sidecar,
    manifest_path,
    payload_sha256,
    shard_payload_path,
    write_config,
    write_manifest,
    write_sidecar,
)
from repro.campaign.sharding import shard_spec
from repro.campaign.worker import ShardOutcome, run_shard_chunk
from repro.errors import (
    FatalError,
    ManifestCorruptError,
    sigterm_translated,
)
from repro.ioutil import atomic_write_bytes
from repro.obs import runtime as _obs_runtime
from repro.supervise import SupervisedPool, SupervisorConfig, SupervisorReport


@dataclass
class CampaignRunReport:
    """What one :func:`run_campaign` invocation did."""

    directory: str
    config_digest: str
    #: Shards executed (or re-executed) by this invocation.
    executed: List[int] = field(default_factory=list)
    #: Shards adopted from a previous invocation without re-running.
    resumed: List[int] = field(default_factory=list)
    #: Orphan payloads (payload durable, record lost) re-adopted.
    adopted_orphans: List[int] = field(default_factory=list)
    quarantined: List[int] = field(default_factory=list)
    trial_failures: int = 0
    supervisor: Optional[SupervisorReport] = None

    @property
    def complete(self) -> bool:
        return not self.quarantined


def recover_manifest(
    directory: str, config: CampaignConfig, config_digest: str
) -> CampaignManifest:
    """Rebuild the manifest from sidecars after manifest loss/corruption.

    Adoption rules, per planned shard:

    * sidecar valid + status ``done`` + payload present with the
      recorded sha256 → adopt (never re-executed);
    * sidecar valid + status ``quarantined`` → adopt the record (the
      quarantine evidence survives; repair may retry it explicitly);
    * sidecar missing/corrupt, or payload digest disagrees → leave the
      shard unrecorded; it is re-derived like any missing shard.

    The rebuilt manifest is written immediately, so recovery happens
    at most once per corruption event.
    """
    manifest = CampaignManifest(
        config_digest=config_digest, n_shards=config.n_shards
    )
    for shard_id in range(config.n_shards):
        try:
            record = load_sidecar(directory, shard_id, config_digest)
        except (FileNotFoundError, ManifestCorruptError):
            continue
        if record.status == SHARD_QUARANTINED:
            manifest.record(record)
            continue
        path = shard_payload_path(directory, shard_id)
        try:
            if payload_sha256(path) != record.payload_sha256:
                continue
        except OSError:
            continue
        manifest.record(record)
    write_manifest(directory, manifest)
    _emit(
        "campaign.manifest.recovered",
        adopted=len(manifest.shards),
        planned=config.n_shards,
    )
    return manifest


def _open_campaign(
    directory: str, config: Optional[CampaignConfig], resume: bool
) -> tuple:
    """Resolve (config, digest, manifest) for a run; see run_campaign."""
    if os.path.exists(config_path(directory)):
        existing = load_config(directory)
        if config is not None and campaign_digest(config) != campaign_digest(existing):
            raise FatalError(
                f"campaign directory {directory} was created with a "
                "different config; refusing to mix shard generations"
            )
        config = existing
    elif config is None:
        raise FatalError(
            f"no campaign.json in {directory} and no config supplied"
        )
    else:
        write_config(directory, config)
    digest = campaign_digest(config)

    if os.path.exists(manifest_path(directory)):
        try:
            manifest = load_manifest(directory, expect_digest=digest)
        except ManifestCorruptError:
            manifest = recover_manifest(directory, config, digest)
        if manifest.shards and not resume:
            raise FatalError(
                f"{directory} already holds {len(manifest.shards)} shard "
                "records; pass resume=True (--resume) to continue it"
            )
    else:
        manifest = CampaignManifest(config_digest=digest, n_shards=config.n_shards)
        if resume and os.path.isdir(directory):
            # Resuming with no manifest at all: rebuild from sidecars
            # (covers "manifest deleted" as well as "killed before the
            # first manifest write").
            manifest = recover_manifest(directory, config, digest)
        else:
            write_manifest(directory, manifest)
    return config, digest, manifest


def _adopt_orphan(
    directory: str, config: CampaignConfig, digest: str, shard_id: int
) -> Optional[ShardRecord]:
    """Adopt a payload whose sidecar/manifest record was lost.

    The payload was published atomically, so if it exists it is a
    complete archive — but without a recorded digest we cannot *trust*
    it, so adoption re-derives nothing and claims nothing: the file's
    own bytes are hashed and recorded.  Row counts are recovered from
    the archive itself.
    """
    path = shard_payload_path(directory, shard_id)
    if not os.path.exists(path):
        return None
    from repro.capture.serialize import load_dataset

    try:
        dataset = load_dataset(path)
    except Exception:
        # Unreadable orphan: delete nothing, claim nothing — the shard
        # is simply re-executed and the atomic publish replaces it.
        return None
    spec = shard_spec(config, shard_id)
    rows = sum(len(dataset.traces[label]) for label in dataset.labels)
    if rows > spec.n_trials:
        return None
    record = ShardRecord(
        shard_id=shard_id,
        start=spec.start,
        stop=spec.stop,
        status="done",
        rows=rows,
        payload_sha256=payload_sha256(path),
        payload_bytes=os.path.getsize(path),
    )
    write_sidecar(directory, digest, record)
    return record


def _publish(
    directory: str,
    digest: str,
    manifest: CampaignManifest,
    outcome: ShardOutcome,
) -> ShardRecord:
    """Climb the durability ladder for one outcome (see module doc)."""
    if outcome.status == SHARD_QUARANTINED or outcome.payload is None:
        record = outcome.to_record()
    else:
        path = shard_payload_path(directory, outcome.shard_id)
        atomic_write_bytes(path, outcome.payload)
        import hashlib

        record = outcome.to_record(
            payload_sha256=hashlib.sha256(outcome.payload).hexdigest(),
            payload_bytes=len(outcome.payload),
        )
    write_sidecar(directory, digest, record)
    manifest.record(record)
    write_manifest(directory, manifest)
    _count(
        "campaign.shards_done"
        if record.status == "done"
        else "campaign.shards_quarantined"
    )
    _count("campaign.rows", record.rows)
    _emit(
        "campaign.shard.done"
        if record.status == "done"
        else "campaign.shard.quarantined",
        shard=record.shard_id,
        rows=record.rows,
        failures=len(record.failures),
    )
    return record


def run_campaign(
    directory: str,
    config: Optional[CampaignConfig] = None,
    workers: int = 1,
    resume: bool = False,
    supervisor: Optional[SupervisorConfig] = None,
    progress: Optional[Callable[[ShardRecord], None]] = None,
) -> CampaignRunReport:
    """Run (or resume) a campaign into ``directory``.

    Fresh runs need ``config``; resumed runs may omit it (the stored
    ``campaign.json`` is authoritative, and a supplied config must
    match it digest-for-digest).  On resume, shards already recorded
    ``done`` are adopted untouched, orphan payloads are re-adopted by
    digest, quarantined shards are retried, and only the remainder
    executes.  Interruption (``KeyboardInterrupt``,
    :class:`~repro.errors.RunTerminated`, ``OSError`` e.g. ENOSPC)
    propagates *after* the last completed shard is durable — the
    manifest is consistent at every instant.
    """
    os.makedirs(directory, exist_ok=True)
    with sigterm_translated():
        config, digest, manifest = _open_campaign(directory, config, resume)
        report = CampaignRunReport(directory=directory, config_digest=digest)
        report.resumed = manifest.done_ids()

        # Orphan payloads: published but never recorded (killed between
        # ladder rungs, or manifest recovered without their sidecar).
        todo: List[int] = []
        for shard_id in manifest.missing_ids() + manifest.quarantined_ids():
            if shard_id not in manifest.shards:
                adopted = _adopt_orphan(directory, config, digest, shard_id)
                if adopted is not None:
                    manifest.record(adopted)
                    report.adopted_orphans.append(shard_id)
                    continue
            todo.append(shard_id)
        if report.adopted_orphans:
            write_manifest(directory, manifest)
        todo.sort()

        def publish_outcome(outcome: ShardOutcome) -> None:
            record = _publish(directory, digest, manifest, outcome)
            report.executed.append(record.shard_id)
            report.trial_failures += len(record.failures)
            if record.status == SHARD_QUARANTINED:
                report.quarantined.append(record.shard_id)
            if progress is not None:
                progress(record)

        _emit("campaign.run.start", shards=len(todo), resumed=len(report.resumed))
        if todo:
            if workers <= 1:
                for shard_id in todo:
                    for outcome in run_shard_chunk(config, [shard_id]):
                        publish_outcome(outcome)
            else:
                def complete(outcomes: List[ShardOutcome]) -> None:
                    for outcome in outcomes:
                        publish_outcome(outcome)

                # One shard per chunk: the shard is already the unit of
                # work, durability and repair, so it is the unit of
                # rescheduling and quarantine too.
                pool = SupervisedPool(
                    workers,
                    functools.partial(run_shard_chunk, config),
                    complete,
                    config=supervisor,
                )
                report.supervisor = pool.run([[shard_id] for shard_id in todo])
                for quarantined in report.supervisor.quarantined:
                    shard_id = int(quarantined.item)
                    if shard_id in manifest.shards and shard_id in set(
                        report.executed
                    ):
                        continue
                    spec = shard_spec(config, shard_id)
                    publish_outcome(
                        ShardOutcome(
                            shard_id=shard_id,
                            start=spec.start,
                            stop=spec.stop,
                            status=SHARD_QUARANTINED,
                            error=(
                                f"workers died {quarantined.crashes} times "
                                "executing this shard"
                            ),
                            error_class="WorkerCrashError",
                        )
                    )
        report.executed.sort()
        report.quarantined = manifest.quarantined_ids()
        _emit(
            "campaign.run.end",
            executed=len(report.executed),
            quarantined=len(report.quarantined),
        )
        return report


def _count(name: str, amount: int = 1) -> None:
    obs = _obs_runtime.session()
    if obs is not None:
        obs.registry.counter(name).add(amount)


def _emit(kind: str, **fields) -> None:
    obs = _obs_runtime.session()
    if obs is not None:
        obs.emit(kind, "campaign", **fields)
