"""Resilient experiment runner: retries, checkpoints, reports, cache.

Dataset collection is the long pole of every experiment in this repo —
thousands of simulated page loads — and under fault injection
individual trials can stall or fail.  Trials run through the shared
collection core in :mod:`repro.web.pageload`: one seed derivation
(:func:`~repro.web.pageload.visit_seed_rng`), one retry loop
(:func:`~repro.web.pageload.execute_trial`) and one supervised fan-out
(:func:`~repro.web.pageload.run_trials`).  This module adds what a
long collection run needs on top of that loop:

* **a retry policy** — a failed trial is retried up to a budget, each
  attempt with a fresh position-derived seed and exponential backoff;
  an optional wall-clock deadline aborts trials that burn real time;
* **structured failure log** — trials that exhaust their budget are
  recorded (site, sample, attempts, error) and the run completes
  gracefully with reduced samples;
* **checkpointing** — partial datasets are persisted periodically
  through :mod:`repro.capture.serialize` plus a JSON manifest, and
  ``resume=True`` skips completed trials.  Seeds depend only on the
  trial's identity, so an interrupted run resumed from a checkpoint —
  with any worker count — produces a byte-identical final dataset;
* **caching** — :func:`collect_resilient` memoises dataset and report
  under a capture key that includes the retry policy.

With no stalls a resilient collection equals :func:`collect_dataset
<repro.web.pageload.collect_dataset>` for the same seed: attempt 0 of
every trial draws exactly the plain collector's visit seed.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ARTIFACT_DECODE_ERRORS, RunTerminated, sigterm_translated
from repro.ioutil import atomic_write_json
from repro.obs import runtime as _obs_runtime
from repro.supervise import SupervisorConfig

from repro.capture.dataset import Dataset
from repro.capture.serialize import load_dataset, save_dataset_atomic
from repro.capture.trace import Trace
from repro.web.pageload import (  # noqa: F401  (the trial core, re-exported)
    PageLoadConfig,
    RetryPolicy,
    TrialDeadlineExceeded,
    TrialFailure,
    TrialFn,
    TrialOutcome,
    TrialSpec,
    catalog_trial,
    execute_trial,
    run_trials,
)

log = logging.getLogger("repro.runner")


@dataclass(frozen=True)
class PageLoadTrial:
    """The runner's default trial: :func:`~repro.web.pageload.catalog_trial`
    as a picklable callable of its own, so profiles can tell runner
    attempts apart from plain-collection visits."""

    config: PageLoadConfig

    def __call__(
        self,
        label: str,
        index: int,
        rng: np.random.Generator,
        watchdog: Optional[Callable[[], None]],
    ) -> Trace:
        return catalog_trial(self.config, label, index, rng, watchdog)


@dataclass
class CollectionReport:
    """What happened during a (possibly resumed) collection run."""

    completed_trials: int = 0
    resumed_trials: int = 0
    retries: int = 0
    stalls: int = 0
    failures: List[TrialFailure] = field(default_factory=list)
    #: True when the whole collection was served from the artifact
    #: cache (no trials executed this run).
    from_cache: bool = False

    @property
    def dropped_trials(self) -> int:
        return len(self.failures)

    @property
    def quarantined_trials(self) -> int:
        """Trials excluded by the supervisor after killing workers."""
        return sum(1 for f in self.failures if f.error == "WorkerCrashError")

    def summary(self) -> str:
        text = (
            f"{self.completed_trials} trials collected "
            f"({self.resumed_trials} from checkpoint), "
            f"{self.retries} retries, {self.stalls} stalls, "
            f"{self.dropped_trials} dropped"
        )
        if self.quarantined_trials:
            text += f" ({self.quarantined_trials} quarantined)"
        return text


@dataclass(frozen=True)
class RunnerConfig:
    """Reliability and parallelism knobs for a collection run.

    Frozen: derive variants with :func:`dataclasses.replace`.  Only the
    ``retry`` policy and ``trial_wall_deadline`` shape what gets
    *collected*; the checkpoint/worker/chunk knobs are wall-clock-only
    and are therefore excluded from cache-key derivation.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Wall-clock seconds one trial attempt may burn (None = unlimited).
    trial_wall_deadline: Optional[float] = None
    #: Write a checkpoint every N completed trials (0 disables).
    checkpoint_every: int = 25
    checkpoint_path: Optional[str] = None
    #: Trial-executor processes: 1 = in-process (the default fast
    #: path), N > 1 = a pool of N, 0 = one per core.  Results are
    #: bit-identical for any value because trial seeds are
    #: position-derived; ``trial_fn`` must be picklable when > 1.
    workers: int = 1
    #: Trials per pool task (None = auto, ~4 chunks per worker).
    chunk_size: Optional[int] = None
    #: Failure handling for the parallel executor: worker-death
    #: recovery, poison-trial quarantine, circuit breaker, hang kills.
    #: Recovery replays position-seeded work, so (like ``workers``)
    #: none of it can change the collected bytes.
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def to_dict(self) -> dict:
        from repro.experiments.config import config_to_dict

        return config_to_dict(self)


class ResilientRunner:
    """Executes a grid of (site, sample) trials with retries and
    checkpointing.

    ``sleep`` and ``clock`` are injectable for tests (no real backoff
    sleeping or wall-clock waiting in CI).
    """

    #: 2: trial seeds come from ``visit_seed_rng`` — checkpoints of the
    #: old per-site-index seeds are refused rather than mixed in.
    CHECKPOINT_VERSION = 2

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or RunnerConfig()
        self._sleep = sleep
        self._clock = clock

    # -- checkpoint format -------------------------------------------------

    @staticmethod
    def _npz_path(checkpoint_path: str) -> str:
        # np.savez appends ".npz" to extension-less paths; normalise so
        # the load side looks for the file that was actually written.
        if not checkpoint_path.endswith(".npz"):
            return checkpoint_path + ".npz"
        return checkpoint_path

    def _manifest_path(self, checkpoint_path: str) -> str:
        return self._npz_path(checkpoint_path) + ".manifest.json"

    def _fingerprint(self, sites: Sequence[str], n_samples: int, master_seed: int) -> str:
        return f"v{self.CHECKPOINT_VERSION}:{master_seed}:{n_samples}:{','.join(sites)}"

    def _write_checkpoint(
        self,
        checkpoint_path: str,
        fingerprint: str,
        results: Dict[str, Dict[int, Trace]],
        failures: List[TrialFailure],
    ) -> None:
        dataset = Dataset()
        indices: Dict[str, List[int]] = {}
        for label in sorted(results):
            ordered = sorted(results[label])
            indices[label] = ordered
            dataset.traces[label] = [results[label][i] for i in ordered]
        # Both files are published atomically (tmp + fsync + replace):
        # a SIGKILL mid-checkpoint must leave either the previous
        # complete checkpoint or the new one, never a truncated .npz —
        # and the manifest is written second, so a manifest always
        # refers to a fully published archive.
        save_dataset_atomic(dataset, self._npz_path(checkpoint_path))
        manifest = {
            "version": self.CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "indices": indices,
            "failures": [asdict(f) for f in failures],
        }
        atomic_write_json(self._manifest_path(checkpoint_path), manifest)
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.counter("runner.checkpoint_writes").add(1)
            obs.emit(
                "checkpoint.write", "runner",
                trials=sum(len(v) for v in results.values()),
            )

    def _load_checkpoint(
        self, checkpoint_path: str, fingerprint: str
    ) -> Tuple[Dict[str, Dict[int, Trace]], List[TrialFailure]]:
        manifest_path = self._manifest_path(checkpoint_path)
        npz_path = self._npz_path(checkpoint_path)
        if not (os.path.exists(npz_path) and os.path.exists(manifest_path)):
            return {}, []
        try:
            with open(manifest_path) as handle:
                manifest = json.load(handle)
        except ARTIFACT_DECODE_ERRORS:
            return self._evict_checkpoint(checkpoint_path, "unreadable manifest")
        if manifest.get("fingerprint") != fingerprint:
            raise ValueError(
                "checkpoint was written by a different run configuration: "
                f"{manifest.get('fingerprint')!r} != {fingerprint!r}; "
                "remove it or rerun with the original seed/sites/samples"
            )
        # A checkpoint interrupted by SIGKILL (or disk-full) can leave a
        # truncated archive behind on filesystems without atomic-write
        # guarantees; resume must fall back to a fresh collection, not
        # crash — the data is recomputable by construction.
        try:
            dataset = load_dataset(npz_path)
            results: Dict[str, Dict[int, Trace]] = {}
            for label, ordered in manifest["indices"].items():
                traces = dataset.traces.get(label, [])
                results[label] = {
                    int(index): trace for index, trace in zip(ordered, traces)
                }
            failures = [TrialFailure(**f) for f in manifest["failures"]]
        except ARTIFACT_DECODE_ERRORS + (TypeError,):
            return self._evict_checkpoint(checkpoint_path, "corrupt archive")
        return results, failures

    def _evict_checkpoint(
        self, checkpoint_path: str, reason: str
    ) -> Tuple[Dict[str, Dict[int, Trace]], List[TrialFailure]]:
        """Remove an invalid checkpoint pair and resume from scratch."""
        log.warning(
            "checkpoint at %s is invalid (%s); evicting it and "
            "collecting from scratch", checkpoint_path, reason,
        )
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.counter("runner.checkpoint_corrupt").add(1)
            obs.emit("checkpoint.corrupt", "runner", reason=reason)
        for path in (
            self._npz_path(checkpoint_path),
            self._manifest_path(checkpoint_path),
        ):
            try:
                os.remove(path)
            except OSError:
                pass
        return {}, []

    # -- execution ---------------------------------------------------------

    def collect(
        self,
        sites: Sequence[str],
        n_samples: int,
        trial_fn: TrialFn,
        master_seed: int,
        resume: bool = False,
        progress: Optional[Callable[[str, int], None]] = None,
    ) -> Tuple[Dataset, CollectionReport]:
        """Run the (site x sample) grid and return (dataset, report).

        With ``resume=True`` and a configured ``checkpoint_path``,
        completed trials are loaded from the checkpoint and skipped;
        the final dataset is identical to an uninterrupted run because
        trial seeds are position-derived.  On KeyboardInterrupt — or
        SIGTERM, which container schedulers send on shutdown and which
        is translated to :class:`repro.errors.RunTerminated` here — a
        final checkpoint is written before the interrupt propagates,
        so the run is resumable.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        sites = sorted(sites)
        report = CollectionReport()
        checkpoint_path = self.config.checkpoint_path
        fingerprint = self._fingerprint(sites, n_samples, master_seed)
        results: Dict[str, Dict[int, Trace]] = {}
        failed: Dict[str, set] = {}
        if resume:
            if checkpoint_path is None:
                raise ValueError("resume=True requires a checkpoint_path")
            results, report.failures = self._load_checkpoint(
                checkpoint_path, fingerprint
            )
            report.resumed_trials = sum(len(v) for v in results.values())
            report.completed_trials = report.resumed_trials
            for failure in report.failures:
                failed.setdefault(failure.label, set()).add(failure.index)

        since_checkpoint = 0

        def maybe_checkpoint(force: bool = False) -> None:
            nonlocal since_checkpoint
            if checkpoint_path is None:
                return
            every = self.config.checkpoint_every
            if force or (every > 0 and since_checkpoint >= every):
                self._write_checkpoint(
                    checkpoint_path, fingerprint, results, report.failures
                )
                since_checkpoint = 0

        # Trials still to run, in deterministic grid order.
        pending = [
            (label, sample)
            for label in sites
            for sample in range(n_samples)
            if sample not in results.get(label, {})
            and sample not in failed.get(label, set())
        ]

        obs = _obs_runtime.session()

        def complete(outcome: TrialOutcome) -> None:
            # Outcomes arrive in completion order; everything below is
            # keyed by coordinate, and failures are sorted at the end.
            nonlocal since_checkpoint
            report.retries += outcome.retries
            report.stalls += outcome.stalls
            failure = outcome.failure
            if failure is not None:
                report.failures.append(failure)
            if obs is not None:
                if outcome.retries:
                    obs.emit(
                        "trial.retry", "runner", label=outcome.label,
                        sample=outcome.sample, retries=outcome.retries,
                    )
                if failure is not None:
                    obs.emit(
                        "trial.failure", "runner", label=outcome.label,
                        sample=outcome.sample, error=failure.error,
                    )
                else:
                    obs.emit(
                        "trial.end", "runner", label=outcome.label,
                        sample=outcome.sample, retries=outcome.retries,
                        stalls=outcome.stalls,
                    )
            if outcome.trace is not None:
                results.setdefault(outcome.label, {})[outcome.sample] = outcome.trace
                report.completed_trials += 1
                since_checkpoint += 1
                if progress is not None:
                    progress(outcome.label, outcome.sample)
            maybe_checkpoint()

        spec = TrialSpec(trial_fn, self.config.retry, self.config.trial_wall_deadline)
        with sigterm_translated():
            try:
                run_trials(
                    spec, master_seed, pending, complete,
                    workers=self.config.workers,
                    supervisor=self.config.supervisor,
                    chunk_size=self.config.chunk_size,
                    sleep=self._sleep,
                    clock=self._clock,
                )
            except (KeyboardInterrupt, RunTerminated):
                maybe_checkpoint(force=True)
                raise
        # Failure order must not depend on completion order (the
        # checkpoint manifest and report are part of the deterministic
        # output surface).
        report.failures.sort(key=lambda f: (f.label, f.index))
        maybe_checkpoint(force=True)

        dataset = Dataset()
        for label in sites:
            if label in results:
                dataset.traces[label] = [
                    results[label][i] for i in sorted(results[label])
                ]
        return dataset, report


def resilient_capture_key(
    sites: Sequence[str],
    n_samples: int,
    pageload_config: PageLoadConfig,
    seed: int,
    runner_config: RunnerConfig,
):
    """Capture-stage cache key of a resilient collection, or None when
    the run is not cacheable.

    The retry policy enters the key (retries decide which trials drop,
    so they shape the dataset); worker/checkpoint/chunk knobs do not
    (wall-clock only, byte-identical output).  A configured
    ``trial_wall_deadline`` makes outcomes machine-dependent, so such
    runs key to None and are never cached.
    """
    if runner_config.trial_wall_deadline is not None:
        return None
    from repro.cache import capture_key

    return capture_key(
        pageload_config,
        sites,
        n_samples,
        seed,
        collector={"runner": "resilient", "retry": runner_config.retry},
    )


def collect_resilient(
    sites: Sequence[str],
    n_samples: int,
    pageload_config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    runner_config: Optional[RunnerConfig] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, int], None]] = None,
    cache: Optional["ArtifactStore"] = None,
) -> Tuple[Dataset, CollectionReport]:
    """Convenience wrapper: resilient page-load collection of ``sites``.

    With ``cache`` set, the collected dataset (and its reliability
    report) is stored under a capture key that includes the retry
    policy — retries decide which trials drop, so they shape the
    dataset — but not worker/checkpoint knobs, which only affect wall
    clock.  A warm hit returns ``report.from_cache=True`` and runs no
    trials.  Runs with a ``trial_wall_deadline`` are never cached:
    their outcomes depend on machine speed, not just config.
    """
    runner_config = runner_config or RunnerConfig()
    pageload_config = pageload_config or PageLoadConfig()
    key = (
        resilient_capture_key(sites, n_samples, pageload_config, seed, runner_config)
        if cache is not None
        else None
    )
    collected: List[CollectionReport] = []

    def collect() -> Dataset:
        dataset, report = ResilientRunner(runner_config).collect(
            sites, n_samples, PageLoadTrial(pageload_config), seed,
            resume=resume, progress=progress,
        )
        collected.append(report)
        return dataset

    from repro.cache import CacheKey, cached_dataset, cached_json

    dataset = cached_dataset(cache, key, collect)
    if key is None:
        return dataset, collected[0]
    report = (
        collected[0]
        if collected
        else CollectionReport(completed_trials=dataset.num_traces, from_cache=True)
    )
    summary = cached_json(
        cache,
        CacheKey.derive("capture", {"report_for": key.digest}),
        lambda: {
            "retries": report.retries,
            "stalls": report.stalls,
            "failures": [asdict(f) for f in report.failures],
        },
    )
    if report.from_cache:
        try:
            report.retries = int(summary.get("retries", 0))
            report.stalls = int(summary.get("stalls", 0))
            report.failures = [TrialFailure(**f) for f in summary.get("failures", [])]
        except ARTIFACT_DECODE_ERRORS + (TypeError, AttributeError):
            cache._count("corruptions")
    return dataset, report
