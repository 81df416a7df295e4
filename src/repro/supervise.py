"""Crash-tolerant supervised worker pool.

:mod:`repro.parallel` fans chunks of trials out over a
``ProcessPoolExecutor``; this module is the reliability layer wrapped
around that fan-out.  A plain executor dies with its workers: one
segfaulting, OOM-killed or ``os._exit``-ing child marks the whole pool
broken and every in-flight future raises ``BrokenProcessPool`` — which
previously lost the entire collection campaign.  The
:class:`SupervisedPool` instead:

* **recovers from worker death** — the broken pool is torn down and
  rebuilt, completed chunks are kept, and the lost chunks are
  rescheduled.  Because every trial's randomness is position-derived
  (:func:`repro.web.pageload.visit_seed_rng`), a rescheduled chunk
  recomputes byte-identical results, so recovery never changes the
  dataset;
* **quarantines poison trials** — a chunk that keeps killing workers
  is bisected: split in half and rescheduled until the offending
  single trial is cornered, confirmed by running it in *isolation*
  (alone in the pool, so the kill is unambiguous), and then excluded
  with a loud log line instead of sinking the run;
* **degrades gracefully** — when pool rebuilds exhaust the
  ``max_worker_restarts`` budget the circuit breaker trips and the
  remaining chunks execute serially in-process (an obs gauge flips and
  an error-level log line says so), trading wall-clock for forward
  progress instead of aborting;
* **hard-kills hung workers** — with a ``trial_deadline`` configured,
  a chunk that exceeds its soft deadline is warned about (obs counter
  + log), and one that exceeds the hard deadline gets its workers
  terminated, which surfaces as a worker death and re-enters the
  recovery path above.  A deterministic hang therefore converges to
  quarantine through the same bisection machinery as a crash.

Every collection fan-out in the repo runs through this one pool —
trial grids via :func:`repro.web.pageload.run_trials` (plain and
resilient collection) and campaign shards via
:func:`repro.campaign.orchestrator.run_campaign` — and the pool owns
the observability plumbing they share: with a session active, each
task runs under a worker-local metrics session whose snapshot is
merged into the parent registry before the payload reaches the
caller.

Metrics (when a :mod:`repro.obs` session is active):
``supervisor.worker_restarts``, ``supervisor.chunks_rescheduled``,
``supervisor.quarantined_trials``, ``supervisor.deadline_warnings``,
``supervisor.hard_kills``, ``supervisor.serial_chunks`` and the gauge
``supervisor.breaker_state`` (0 closed / 1 open).

Chaos injection
---------------

For end-to-end chaos testing through the real CLI, the environment
variable ``REPRO_CHAOS`` arms a fault in the *worker* processes (the
coordinating process never faults):

* ``REPRO_CHAOS=crash-once:/path/sentinel`` — the first worker task to
  run creates the sentinel file and ``os._exit``\\ s, killing its
  worker; every later task sees the sentinel and runs normally.
* ``REPRO_CHAOS=hang-once:/path/sentinel:SECONDS`` — same, but the
  first task sleeps instead of exiting (exercises the deadline path).

``benchmarks/smoke_supervise.py`` and the ``chaos-smoke`` CI job drive
a real collection through a crash this way and assert byte-identity
with an uncrashed run.
"""

from __future__ import annotations

import logging
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.errors import WorkerCrashError
from repro.obs import runtime as _obs_runtime

log = logging.getLogger("repro.supervise")

#: Environment variable arming worker-side chaos faults (see module
#: docstring).  Read in the worker, so it propagates through pool spawn.
CHAOS_ENV = "REPRO_CHAOS"


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling knobs for a :class:`SupervisedPool`.

    Frozen: derive variants with :func:`dataclasses.replace`.  None of
    these knobs can change *what* is computed — recovery replays
    position-seeded work — so they never enter cache keys.
    """

    #: Pool rebuilds tolerated before the circuit breaker trips and the
    #: remaining work degrades to serial in-process execution.
    max_worker_restarts: int = 5
    #: Worker deaths a chunk may be involved in before it is treated as
    #: a suspect (bisected, or isolated when already a single trial).
    max_chunk_crashes: int = 2
    #: Exclude a confirmed poison trial and continue (True), or raise
    #: :class:`~repro.errors.WorkerCrashError` and fail the run (False).
    quarantine: bool = True
    #: Expected wall-clock seconds for ONE trial; enables hang
    #: detection when set.  Chunk deadlines scale with chunk length.
    trial_deadline: Optional[float] = None
    #: Chunk age (in units of ``trial_deadline`` x chunk length) that
    #: triggers a warning, and the age that triggers a worker kill.
    soft_deadline_factor: float = 2.0
    hard_deadline_factor: float = 4.0
    #: Seconds between liveness/deadline checks of in-flight chunks.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.max_chunk_crashes < 1:
            raise ValueError(
                f"max_chunk_crashes must be >= 1, got {self.max_chunk_crashes}"
            )
        if self.trial_deadline is not None and self.trial_deadline <= 0:
            raise ValueError(
                f"trial_deadline must be > 0, got {self.trial_deadline}"
            )
        if not 0 < self.soft_deadline_factor <= self.hard_deadline_factor:
            raise ValueError(
                "need 0 < soft_deadline_factor <= hard_deadline_factor, got "
                f"({self.soft_deadline_factor}, {self.hard_deadline_factor})"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {self.poll_interval}"
            )

    def to_dict(self) -> dict:
        from repro.experiments.config import config_to_dict

        return config_to_dict(self)


@dataclass
class QuarantinedTrial:
    """One work item excluded after repeatedly killing workers."""

    item: Any
    crashes: int


@dataclass
class SupervisorReport:
    """What one supervised run survived."""

    worker_restarts: int = 0
    chunks_rescheduled: int = 0
    quarantined: List[QuarantinedTrial] = field(default_factory=list)
    breaker_tripped: bool = False
    soft_deadline_warnings: int = 0
    hard_kills: int = 0
    #: Chunks executed in-process after the breaker opened.
    serial_chunks: int = 0


@dataclass
class _Chunk:
    """Supervision state for one unit of pool work."""

    items: List[Any]
    crashes: int = 0
    #: Running alone in the pool (poison confirmation mode).
    isolated: bool = False
    soft_warned: bool = False
    hard_killed: bool = False

    def reset_flight_state(self) -> None:
        self.isolated = False
        self.soft_warned = False
        self.hard_killed = False


@dataclass(frozen=True)
class _ChaosTask:
    """Picklable wrapper arming :data:`CHAOS_ENV` faults in workers."""

    fn: Callable[..., Any]

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        chaos_maybe_fault()
        return self.fn(*args, **kwargs)


def chaos_maybe_fault() -> None:
    """Trigger the armed :data:`CHAOS_ENV` fault, at most once.

    No-op in the coordinating process: chaos faults simulate *worker*
    infrastructure failure, and killing the coordinator would just be
    killing the test.
    """
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    mode, _, arg = spec.partition(":")
    if mode == "crash-once":
        if _claim_sentinel(arg):
            os._exit(32)
    elif mode == "hang-once":
        path, _, seconds = arg.partition(":")
        if _claim_sentinel(path):
            time.sleep(float(seconds or 3600.0))
    else:
        raise ValueError(f"unknown {CHAOS_ENV} spec: {spec!r}")


def _claim_sentinel(path: str) -> bool:
    """Atomically create ``path``; True for exactly one claimant."""
    if not path:
        raise ValueError(f"{CHAOS_ENV} spec needs a sentinel path")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class SupervisedPool:
    """Runs chunked tasks on a process pool that survives its workers.

    ``task`` is a picklable callable ``task(items) -> payload``; each
    ``payload`` is handed to ``complete`` exactly once, in completion
    order.  Callers must therefore merge results by *content* (trial
    coordinates), never by arrival order — the same contract the
    unsupervised fan-out already had.  With observability on, worker
    metrics travel home with each payload and are merged here, so
    callers only ever see their own payloads.

    The pool itself is rebuilt on demand after worker death; chunks are
    the unit of rescheduling and bisection.  See the module docstring
    for the full failure model.
    """

    def __init__(
        self,
        workers: int,
        task: Callable[[List[Any]], Any],
        complete: Callable[[Any], None],
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        if _obs_runtime.session() is not None:
            # Tasks run under worker-local metric sessions whose
            # snapshots ship home with the payload and fold into this
            # process's registry, so counter totals equal a serial
            # run's.  A chunk lost to a crash never ships its snapshot,
            # so recovery does not double-count.
            task = _obs_runtime.WorkerTask(task)
        if os.environ.get(CHAOS_ENV):
            task = _ChaosTask(task)
        self._task: Callable[..., Any] = task
        self._complete = lambda payload: complete(_obs_runtime.absorb(payload))
        self._config = config or SupervisorConfig()
        self._clock = clock

    # -- obs plumbing ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.counter(f"supervisor.{name}").add(amount)

    def _set_breaker_gauge(self, state: int) -> None:
        obs = _obs_runtime.session()
        if obs is not None:
            obs.registry.gauge("supervisor.breaker_state").set(state)

    def _emit(self, kind: str, **fields: object) -> None:
        obs = _obs_runtime.session()
        if obs is not None:
            obs.emit(kind, "supervisor", **fields)

    # -- execution ---------------------------------------------------------

    def run(self, chunks: Sequence[Sequence[Any]]) -> SupervisorReport:
        """Execute every chunk, surviving worker death; see class doc."""
        report = SupervisorReport()
        self._set_breaker_gauge(0)
        pending: Deque[_Chunk] = deque(
            _Chunk(items=list(chunk)) for chunk in chunks if chunk
        )
        probation: Deque[_Chunk] = deque()
        in_flight: Dict[Any, _Chunk] = {}
        submitted_at: Dict[Any, float] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while pending or probation or in_flight:
                if report.worker_restarts > self._config.max_worker_restarts:
                    self._trip_breaker(report)
                    self._drain_serial(pending, probation, report)
                    return report
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=self._workers)
                try:
                    while pending:
                        self._submit(pool, pending[0], in_flight, submitted_at)
                        pending.popleft()
                    if not in_flight and probation:
                        chunk = probation[0]
                        self._submit(pool, chunk, in_flight, submitted_at)
                        probation.popleft()
                        chunk.isolated = True
                except BrokenExecutor:
                    # Submission hit an already-broken pool: the chunk
                    # being submitted stays queued (no crash attributed
                    # to it); recover whatever was in flight.
                    pool = self._handle_crash(
                        pool, in_flight, submitted_at, pending, probation,
                        report,
                    )
                    continue
                if not in_flight:
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=self._config.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    error = future.exception()
                    if error is None:
                        in_flight.pop(future)
                        submitted_at.pop(future, None)
                        self._complete(future.result())
                    elif isinstance(error, BrokenExecutor):
                        broken = True
                    else:
                        # A real exception from the task itself (fatal
                        # trial error, unpicklable payload, ...):
                        # supervision cannot help — propagate.
                        raise error
                if broken:
                    pool = self._handle_crash(
                        pool, in_flight, submitted_at, pending, probation,
                        report,
                    )
                elif in_flight:
                    self._check_deadlines(pool, in_flight, submitted_at, report)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return report

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        chunk: _Chunk,
        in_flight: Dict[Any, _Chunk],
        submitted_at: Dict[Any, float],
    ) -> None:
        future = pool.submit(self._task, chunk.items)
        in_flight[future] = chunk
        submitted_at[future] = self._clock()

    # -- worker-death recovery ---------------------------------------------

    def _handle_crash(
        self,
        pool: ProcessPoolExecutor,
        in_flight: Dict[Any, _Chunk],
        submitted_at: Dict[Any, float],
        pending: Deque[_Chunk],
        probation: Deque[_Chunk],
        report: SupervisorReport,
    ) -> None:
        """Tear down a broken pool, keep finished work, requeue the rest.

        Returns ``None`` so the caller's ``pool`` is rebuilt lazily on
        the next loop iteration.
        """
        report.worker_restarts += 1
        self._count("worker_restarts")
        self._emit("supervisor.restart", restarts=report.worker_restarts)
        lost: List[_Chunk] = []
        for future, chunk in list(in_flight.items()):
            if future.done() and future.exception() is None:
                self._complete(future.result())
            else:
                lost.append(chunk)
        in_flight.clear()
        submitted_at.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        log.warning(
            "worker death detected: rebuilding pool "
            "(restart %d/%d, %d chunk(s) to reschedule)",
            report.worker_restarts, self._config.max_worker_restarts, len(lost),
        )
        for chunk in lost:
            chunk.crashes += 1
            was_isolated = chunk.isolated
            chunk.reset_flight_state()
            if was_isolated:
                # It was alone in the pool when the worker died: the
                # kill is unambiguously its doing.
                self._quarantine(chunk, report)
            elif (
                chunk.crashes >= self._config.max_chunk_crashes
                and len(chunk.items) > 1
            ):
                self._bisect(chunk, pending, report)
            elif chunk.crashes >= self._config.max_chunk_crashes:
                # Single-trial suspect: confirm in isolation before
                # quarantining (its earlier crashes may have been a
                # chunk-mate's fault — pool breakage is collective).
                probation.append(chunk)
                report.chunks_rescheduled += 1
                self._count("chunks_rescheduled")
            else:
                pending.append(chunk)
                report.chunks_rescheduled += 1
                self._count("chunks_rescheduled")
        return None

    def _bisect(
        self, chunk: _Chunk, pending: Deque[_Chunk], report: SupervisorReport
    ) -> None:
        """Split a suspect chunk so repeated crashes corner the
        offending trial instead of losing the whole chunk forever."""
        mid = len(chunk.items) // 2
        log.warning(
            "chunk involved in %d worker deaths: bisecting %d trials "
            "into %d + %d",
            chunk.crashes, len(chunk.items), mid, len(chunk.items) - mid,
        )
        self._emit("supervisor.bisect", size=len(chunk.items), crashes=chunk.crashes)
        pending.append(_Chunk(items=chunk.items[:mid]))
        pending.append(_Chunk(items=chunk.items[mid:]))
        report.chunks_rescheduled += 2
        self._count("chunks_rescheduled", 2)

    def _quarantine(self, chunk: _Chunk, report: SupervisorReport) -> None:
        if not self._config.quarantine:
            raise WorkerCrashError(
                f"trial {chunk.items[0]!r} killed a worker {chunk.crashes} "
                "times and quarantine is disabled (--quarantine to exclude "
                "it and continue)"
            )
        for item in chunk.items:
            report.quarantined.append(
                QuarantinedTrial(item=item, crashes=chunk.crashes)
            )
            log.error(
                "QUARANTINED poison trial %r after %d worker deaths; "
                "excluding it and continuing", item, chunk.crashes,
            )
            self._emit("supervisor.quarantine", crashes=chunk.crashes)
        self._count("quarantined_trials", len(chunk.items))

    # -- hang detection ----------------------------------------------------

    def _chunk_deadline(self, chunk: _Chunk, factor: float) -> Optional[float]:
        if self._config.trial_deadline is None:
            return None
        return self._config.trial_deadline * factor * max(1, len(chunk.items))

    def _check_deadlines(
        self,
        pool: ProcessPoolExecutor,
        in_flight: Dict[Any, _Chunk],
        submitted_at: Dict[Any, float],
        report: SupervisorReport,
    ) -> None:
        """Warn on slow chunks; kill workers hosting hung ones.

        The kill breaks the pool, so a hung chunk re-enters the normal
        crash path (reschedule → bisect → quarantine) — one recovery
        machine for both failure shapes.
        """
        if self._config.trial_deadline is None:
            return
        now = self._clock()
        for future, chunk in in_flight.items():
            age = now - submitted_at.get(future, now)
            hard = self._chunk_deadline(chunk, self._config.hard_deadline_factor)
            soft = self._chunk_deadline(chunk, self._config.soft_deadline_factor)
            if hard is not None and age > hard and not chunk.hard_killed:
                chunk.hard_killed = True
                report.hard_kills += 1
                self._count("hard_kills")
                self._emit("supervisor.hard_kill", age=age, deadline=hard)
                log.error(
                    "chunk of %d trial(s) hung for %.1fs (> hard deadline "
                    "%.1fs): killing its workers and rescheduling",
                    len(chunk.items), age, hard,
                )
                self._kill_workers(pool)
                return
            if soft is not None and age > soft and not chunk.soft_warned:
                chunk.soft_warned = True
                report.soft_deadline_warnings += 1
                self._count("deadline_warnings")
                self._emit("supervisor.deadline_warn", age=age, deadline=soft)
                log.warning(
                    "chunk of %d trial(s) running for %.1fs (> soft "
                    "deadline %.1fs); will hard-kill at %.1fs",
                    len(chunk.items), age, soft,
                    hard if hard is not None else float("inf"),
                )

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        """Terminate every worker process (private-API, best-effort:
        there is no public way to kill a hung ``ProcessPoolExecutor``
        worker).  The pool marks itself broken as the children die."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # already-dead / platform quirks
                pass

    # -- graceful degradation ----------------------------------------------

    def _trip_breaker(self, report: SupervisorReport) -> None:
        report.breaker_tripped = True
        self._set_breaker_gauge(1)
        self._emit("supervisor.breaker_open", restarts=report.worker_restarts)
        log.error(
            "CIRCUIT BREAKER OPEN: %d worker restarts exceeded the budget "
            "of %d; degrading to serial in-process execution (slower, but "
            "the run completes)",
            report.worker_restarts, self._config.max_worker_restarts,
        )

    def _drain_serial(
        self,
        pending: Deque[_Chunk],
        probation: Deque[_Chunk],
        report: SupervisorReport,
    ) -> None:
        for chunk in list(pending) + list(probation):
            self._complete(self._task(chunk.items))
            report.serial_chunks += 1
            self._count("serial_chunks")
