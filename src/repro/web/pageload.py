"""Page loads over the simulated stack.

:func:`load_page` plays one visit of a site through the full host-stack
model: TCP handshake, pipelined HTTP/1.1-style request/response rounds
with server think times and client parse times, captured by a
:class:`~repro.capture.trace.TraceObserver` on the client's access
link — the same vantage point as the paper's tcpdump capture.

A load that does not finish inside ``config.max_duration`` simulated
seconds is a *stall*, not a shorter page: :func:`load_page_result`
reports ``completed=False`` with diagnostics, and strict callers (the
resilient experiment runner) get a structured :class:`PageLoadStalled`
instead of a silently truncated trace.

This module is also the collection core every collector shares:
:func:`visit_seed_rng` is the one per-visit seed derivation,
:func:`execute_trial` the one retry loop turning a ``(label, sample)``
visit into a trace, and :func:`run_trials` the one fan-out (in-process
or over a :class:`~repro.supervise.SupervisedPool`).
:func:`collect_dataset` is the one-attempt view over them, with
per-visit path jitter (RTT and bandwidth vary between visits the way
consecutive real fetches do), producing the raw dataset the Table-2
pipeline sanitises.  Stalled visits are dropped and counted — partial
traces never enter a dataset.  The resilient runner
(:mod:`repro.experiments.runner`) and campaign shards
(:mod:`repro.campaign.worker`) add retries and persistence on top.
"""

from __future__ import annotations

import functools
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace, TraceObserver
from repro.errors import RETRYABLE_ERRORS, TrialError, WorkerCrashError
from repro.obs import runtime as _obs_runtime
from repro.parallel import chunked, default_chunk_size, resolve_workers
from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultSpec
from repro.simnet.path import NetworkPath
from repro.stack.host import TcpFlow, make_flow
from repro.stack.tcp import TcpConfig
from repro.stob.controller import StobController
from repro.supervise import SupervisedPool, SupervisorConfig
from repro.units import mbps, msec
from repro.web.objects import PageSample, SiteProfile
from repro.web.sites import SITE_CATALOG


@dataclass(frozen=True)
class PageLoadConfig:
    """Parameters of one page-load simulation.

    Frozen: derive variants with :func:`dataclasses.replace` (e.g. the
    adverse-network experiment swapping in a ``fault_spec``).  The
    canonical :meth:`to_dict` form feeds both CLI output and
    :mod:`repro.cache` capture-key derivation.
    """

    #: Access-path parameters (means; jittered per visit).
    rate_mbps: float = 50.0
    rtt_ms: float = 30.0
    rate_jitter: float = 0.15
    rtt_jitter: float = 0.20
    buffer_bdp: float = 1.5
    loss_rate: float = 0.0
    #: TCP config applied to both ends.
    cc: str = "cubic"
    #: Hard cap on simulated seconds per load (stall guard).
    max_duration: float = 60.0
    #: How many requests are pipelined back-to-back in one round.
    pipeline_depth: int = 6
    #: Optional fault processes injected on both path directions.
    fault_spec: Optional[FaultSpec] = None

    def to_dict(self) -> dict:
        """Canonical JSON-safe dict (stable key order)."""
        from repro.cache.canonical import jsonable
        from dataclasses import fields

        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}

    def sample_path(self, rng: np.random.Generator) -> NetworkPath:
        """Draw this visit's path (rate/RTT jittered)."""
        rate = self.rate_mbps * (
            1.0 + float(rng.uniform(-self.rate_jitter, self.rate_jitter))
        )
        rtt = self.rtt_ms * (
            1.0 + float(rng.uniform(-self.rtt_jitter, self.rtt_jitter))
        )
        return NetworkPath(
            rate=mbps(max(rate, 1.0)),
            rtt=msec(max(rtt, 1.0)),
            buffer_bdp=self.buffer_bdp,
            loss_rate=self.loss_rate,
            fault_spec=self.fault_spec,
        )


@dataclass
class PageLoadResult:
    """Outcome of one simulated visit.

    ``completed`` distinguishes a real page load from one truncated at
    the ``max_duration`` guard; the remaining fields are the stall
    diagnostics an operator (or the resilient runner's failure log)
    needs to tell *where* a load got stuck.
    """

    trace: Trace
    completed: bool
    sim_time: float
    rounds_completed: int
    total_rounds: int
    bytes_received: int
    events_processed: int

    def stall_summary(self) -> str:
        """One-line diagnostic used in failure logs."""
        return (
            f"round {self.rounds_completed}/{self.total_rounds}, "
            f"{self.bytes_received} B received, "
            f"sim_time={self.sim_time:.1f}s, "
            f"events={self.events_processed}"
        )


class PageLoadStalled(TrialError):
    """A page load hit its deadline without completing.

    Carries the partial :class:`PageLoadResult` so callers can log
    structured diagnostics without ever treating the truncated trace
    as a valid sample.  A :class:`~repro.errors.TrialError`: stalls
    are trial-intrinsic and worth a reseeded retry (still a
    ``RuntimeError`` subclass through that base, for old callers).
    """

    def __init__(self, site: str, result: PageLoadResult) -> None:
        super().__init__(f"page load of {site!r} stalled: {result.stall_summary()}")
        self.site = site
        self.result = result

    def __reduce__(self):
        # Stalls travel home from pool workers inside trial outcomes.
        return type(self), (self.site, self.result)


class _PageLoadSession:
    """Drives the request/response rounds of one visit."""

    def __init__(
        self,
        sim: Simulator,
        flow: TcpFlow,
        page: PageSample,
        pipeline_depth: int,
        on_complete: Callable[[], None],
    ) -> None:
        self._sim = sim
        self._flow = flow
        self._page = page
        self._depth = max(1, pipeline_depth)
        self._on_complete = on_complete
        self._round = -1
        # Server request-processing queue: (request_bytes, response
        # bytes, think seconds), FIFO per arrival order.
        self._server_queue: List[tuple] = []
        self._server_received = 0
        self._server_consumed = 0
        # Client download bookkeeping for the active round.
        self._round_remaining = 0
        self._client_received = 0
        self._client_consumed = 0
        self.completed = False

        flow.server.on_data(self._server_data)
        flow.client.on_data(self._client_data)
        flow.client.on_established = self._start
        flow.connect()

    @property
    def rounds_completed(self) -> int:
        """Fully downloaded request/response rounds."""
        return max(0, self._round if not self.completed else len(self._page.rounds))

    @property
    def bytes_received(self) -> int:
        """Application bytes the client has received so far."""
        return self._client_received

    @property
    def total_rounds(self) -> int:
        return len(self._page.rounds)

    # -- client side ------------------------------------------------------------

    def _start(self) -> None:
        self._next_round()

    def _next_round(self) -> None:
        self._round += 1
        if self._round >= len(self._page.rounds):
            self.completed = True
            self._on_complete()
            return
        parse = self._page.parse_times[self._round]
        self._sim.schedule(parse, self._issue_round)

    def _issue_round(self) -> None:
        r = self._round
        responses = self._page.rounds[r]
        requests = self._page.request_sizes[r]
        thinks = self._page.think_times[r]
        self._round_remaining = len(responses)
        # Pipeline requests in batches of `depth`; the server queue
        # preserves ordering, so batching only affects upstream timing.
        for i, (req, resp, think) in enumerate(zip(requests, responses, thinks)):
            delay = (i // self._depth) * 0.001
            self._server_queue.append((req, resp, think))
            self._sim.schedule(delay, self._make_request_sender(req))

    def _make_request_sender(self, req: int) -> Callable[[], None]:
        def send() -> None:
            self._flow.client.write(req)

        return send

    def _client_data(self, nbytes: int) -> None:
        self._client_received += nbytes
        # Responses complete in FIFO order; compare against the running
        # total of expected response bytes for this round.
        while self._round_remaining > 0:
            responses = self._page.rounds[self._round]
            done = len(responses) - self._round_remaining
            threshold = self._client_consumed + responses[done]
            if self._client_received < threshold:
                break
            self._client_consumed = threshold
            self._round_remaining -= 1
        if self._round_remaining == 0 and not self.completed:
            self._next_round()

    # -- server side -------------------------------------------------------------

    def _server_data(self, nbytes: int) -> None:
        self._server_received += nbytes
        while self._server_queue:
            req, resp, think = self._server_queue[0]
            if self._server_received - self._server_consumed < req:
                break
            self._server_consumed += req
            self._server_queue.pop(0)
            self._sim.schedule(think, self._make_response_sender(resp))

    def _make_response_sender(self, resp: int) -> Callable[[], None]:
        def send() -> None:
            self._flow.server.write(resp)

        return send


def _drive_visit(
    sim: Simulator,
    flow,
    page: PageSample,
    config: PageLoadConfig,
    rtt: float,
    observer: TraceObserver,
    watchdog: Optional[Callable[[], None]] = None,
) -> PageLoadResult:
    """Play ``page`` over ``flow`` until it completes (plus trailing
    ACKs) or ``config.max_duration`` cuts it off: the one visit driver
    behind TCP (:func:`load_page_result`) and QUIC page loads.

    ``flow`` is anything with a TCP flow's ``client``/``server``/
    ``connect`` surface; ``watchdog`` runs between simulation slices.
    """
    session = _PageLoadSession(sim, flow, page, config.pipeline_depth, lambda: None)
    step = 0.1
    while not session.completed and sim.now < config.max_duration:
        if watchdog is not None:
            watchdog()
        sim.run(until=min(sim.now + step, config.max_duration))
    if session.completed:
        # Drain trailing ACKs/retransmissions.
        sim.run(until=sim.now + 4 * rtt)
    return PageLoadResult(
        trace=observer.trace(),
        completed=session.completed,
        sim_time=sim.now,
        rounds_completed=session.rounds_completed,
        total_rounds=session.total_rounds,
        bytes_received=session.bytes_received,
        events_processed=sim.processed_events,
    )


def load_page_result(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
    watchdog: Optional[Callable[[], None]] = None,
    on_flow: Optional[Callable[[TcpFlow], None]] = None,
) -> PageLoadResult:
    """Simulate one visit and return the full :class:`PageLoadResult`.

    ``server_controller``/``client_controller`` optionally install Stob
    on either endpoint, producing *stack-enforced* defended traces (as
    opposed to the paper's post-hoc trace emulation).

    ``watchdog`` is called between simulation slices; it may raise
    (e.g. a wall-clock deadline in the resilient runner) to abort a
    load that is burning real time.

    ``on_flow`` receives the built :class:`~repro.stack.host.TcpFlow`
    before the simulation starts; callers that must audit post-run
    stack state — the fuzzer's invariant oracle checking link
    conservation, TCP sequence sanity and pacer gaps — keep the
    reference and inspect it after this function returns.
    """
    config = config or PageLoadConfig()
    rng = rng or np.random.default_rng(0)
    sim = Simulator()
    path = config.sample_path(rng)
    link_rng = np.random.default_rng(int(rng.integers(0, 2**63)))
    flow = make_flow(
        sim,
        path,
        client_config=TcpConfig(cc=config.cc),
        server_config=TcpConfig(cc=config.cc),
        rng=link_rng,
    )
    if server_controller is not None:
        flow.server.segment_controller = server_controller
    if client_controller is not None:
        flow.client.segment_controller = client_controller

    observer = TraceObserver()
    flow.client_host.nic.add_tap(observer.tap_outgoing)
    flow.server_host.nic.add_tap(observer.tap_incoming)
    if on_flow is not None:
        on_flow(flow)

    result = _drive_visit(
        sim, flow, profile.sample_page(rng), config, path.rtt, observer, watchdog
    )
    obs = _obs_runtime.session()
    if obs is not None:
        registry = obs.registry
        registry.counter("pageload.loads").add(1)
        registry.counter("pageload.bytes_received").add(result.bytes_received)
        if not result.completed:
            registry.counter("pageload.stalls").add(1)
        obs.emit(
            "pageload.done" if result.completed else "pageload.stall",
            "pageload",
            sim_time=round(result.sim_time, 6),
            events=result.events_processed,
            bytes=result.bytes_received,
            rounds=result.rounds_completed,
        )
    return result


def load_page(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
) -> Trace:
    """Simulate one visit and return the observed trace.

    Thin compatibility wrapper over :func:`load_page_result`; callers
    that must distinguish completed from deadline-truncated loads use
    the result API (or :func:`load_page_strict`).
    """
    return load_page_result(
        profile, config, rng, server_controller, client_controller
    ).trace


def load_page_strict(
    profile: SiteProfile,
    site: str,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
    client_controller: Optional[StobController] = None,
    watchdog: Optional[Callable[[], None]] = None,
) -> Trace:
    """Like :func:`load_page` but raises :class:`PageLoadStalled`
    instead of returning a deadline-truncated trace."""
    result = load_page_result(
        profile, config, rng, server_controller, client_controller, watchdog
    )
    if not result.completed:
        raise PageLoadStalled(site, result)
    return result.trace




def visit_seed_rng(
    seed: int, label: str, sample: int, attempt: int = 0
) -> np.random.Generator:
    """The one per-visit generator: derived from the visit's *identity*
    ``(seed, label, sample, attempt)``, never from how many visits ran
    before it.

    Every collector seeds through here — :func:`collect_dataset`, the
    resilient runner, campaign shards and QUIC collection — so one seed
    gives one dataset whichever of them collected it.  Subsetting sites
    or extending sample counts leaves every other visit bit-identical,
    and fan-out, resume and repair recompute identical bytes.  The
    label enters through its CRC-32 so the derivation is independent
    of any site catalogue's size or ordering.  A retry appends its
    attempt number; attempt 0 keeps the three-element entropy first
    attempts have always used.
    """
    entropy = [seed, zlib.crc32(label.encode("utf-8")), sample]
    if attempt:
        entropy.append(attempt)
    return np.random.default_rng(entropy)


class TrialDeadlineExceeded(TrialError):
    """A trial exceeded its wall-clock budget (raised by the watchdog)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff shape for one trial."""

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass
class TrialFailure:
    """One trial that exhausted its retry budget."""

    label: str
    index: int
    attempts: int
    error: str
    message: str


#: A trial function: (label, sample index, rng, watchdog) -> Trace.
TrialFn = Callable[[str, int, np.random.Generator, Optional[Callable[[], None]]], Trace]


def catalog_trial(
    config: PageLoadConfig,
    label: str,
    index: int,
    rng: np.random.Generator,
    watchdog: Optional[Callable[[], None]],
) -> Trace:
    """One strict page load of the catalogued site ``label``: the trial
    of plain collection, with ``config`` bound by
    :func:`functools.partial` so it pickles for pool workers."""
    return load_page_strict(
        SITE_CATALOG[label], label, config, rng, watchdog=watchdog
    )


@dataclass(frozen=True)
class TrialSpec:
    """What every trial of one collection runs, and how often it may
    try: the picklable first argument of the pool task."""

    trial_fn: TrialFn
    retry: RetryPolicy = RetryPolicy(max_attempts=1)
    #: Wall-clock seconds one attempt may burn (None = unlimited).
    wall_deadline: Optional[float] = None


@dataclass
class TrialOutcome:
    """Everything one trial's retry loop produced (shipped back from
    pool workers as-is)."""

    label: str
    sample: int
    trace: Optional[Trace]
    attempts: int = 0
    retries: int = 0
    stalls: int = 0
    #: The last attempt's error when no attempt produced a trace.
    error: Optional[BaseException] = None

    @property
    def failure(self) -> Optional[TrialFailure]:
        if self.error is None:
            return None
        return TrialFailure(
            label=self.label,
            index=self.sample,
            attempts=self.attempts,
            error=type(self.error).__name__,
            message=str(self.error),
        )


def execute_trial(
    trial_fn: TrialFn,
    label: str,
    sample: int,
    seed: int,
    retry: RetryPolicy,
    wall_deadline: Optional[float] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> TrialOutcome:
    """The one loop that turns a ``(label, sample)`` visit into a trace.

    Attempt ``a`` draws from :func:`visit_seed_rng` ``(seed, label,
    sample, a)``, so where the trial executes never changes its
    randomness.  A :data:`~repro.errors.RETRYABLE_ERRORS` failure
    spends the retry budget with backoff; anything else propagates.
    """
    obs = _obs_runtime.session()
    if obs is not None:
        obs.emit("trial.start", "runner", label=label, sample=sample)
    outcome = TrialOutcome(label=label, sample=sample, trace=None)
    trial_started = clock()
    for attempt in range(retry.max_attempts):
        outcome.attempts += 1
        watchdog: Optional[Callable[[], None]] = None
        if wall_deadline is not None:
            started = clock()

            def watchdog() -> None:
                elapsed = clock() - started
                if elapsed > wall_deadline:
                    raise TrialDeadlineExceeded(
                        f"trial exceeded wall-clock budget "
                        f"({elapsed:.1f}s > {wall_deadline:.1f}s)"
                    )

        rng = visit_seed_rng(seed, label, sample, attempt)
        try:
            outcome.trace = trial_fn(label, sample, rng, watchdog)
            outcome.error = None
            break
        except RETRYABLE_ERRORS as error:
            # Dropping the traceback frees the failed attempt's simulator.
            outcome.error = error.with_traceback(None)
            if isinstance(error, PageLoadStalled):
                outcome.stalls += 1
            if attempt + 1 < retry.max_attempts:
                outcome.retries += 1
                sleep(retry.delay(attempt + 1))
    _observe_trial(outcome, clock() - trial_started)
    return outcome


def _observe_trial(outcome: TrialOutcome, wall_seconds: float) -> None:
    """Record one finished retry loop in the active metrics registry.

    Runs in whichever process executed the trial (pool-worker
    registries travel home as snapshots, see :mod:`repro.obs.runtime`).
    All counters here are sim-determined, so serial and parallel runs
    report equal totals; wall time goes to a timer, the one instrument
    kind exempt from that guarantee.
    """
    obs = _obs_runtime.session()
    if obs is None:
        return
    registry = obs.registry
    registry.counter("runner.trials").add(1)
    if outcome.trace is not None:
        registry.counter("runner.trials_completed").add(1)
    registry.counter("runner.retries").add(outcome.retries)
    registry.counter("runner.stalls").add(outcome.stalls)
    if outcome.error is not None:
        registry.counter("runner.trials_failed").add(1)
    registry.timer("runner.trial_wall").record(wall_seconds)


def _collect_visit_chunk(
    spec: TrialSpec, seed: int, visits: List[Tuple[str, int]]
) -> List[TrialOutcome]:
    """Pool task: run a chunk of ``(label, sample)`` visits.

    :func:`run_trials` looks this name up on the module when it builds
    its pool, so a stand-in installed here is what the workers run.
    """
    return [
        execute_trial(
            spec.trial_fn, label, sample, seed, spec.retry, spec.wall_deadline
        )
        for label, sample in visits
    ]


def run_trials(
    spec: TrialSpec,
    seed: int,
    visits: Sequence[Tuple[str, int]],
    complete: Callable[[TrialOutcome], None],
    workers: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    chunk_size: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Run every visit through :func:`execute_trial` and hand each
    :class:`TrialOutcome` to ``complete`` exactly once.

    ``workers <= 1`` runs the visits in order in this process.  More
    workers fan chunks out over a :class:`~repro.supervise.SupervisedPool`
    and outcomes arrive in completion order, so callers merge by
    coordinate.  Seeds are position-derived, so neither the worker
    count nor a recovered worker death changes any outcome.  A visit
    the supervisor quarantines (it kept killing workers) arrives as a
    failed outcome carrying a :class:`~repro.errors.WorkerCrashError`.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(visits) <= 1:
        for label, sample in visits:
            complete(
                execute_trial(
                    spec.trial_fn, label, sample, seed, spec.retry,
                    spec.wall_deadline, sleep=sleep, clock=clock,
                )
            )
        return
    supervisor = supervisor or SupervisorConfig()
    if supervisor.trial_deadline is None and spec.wall_deadline is not None:
        # Hang detection defaults to the deadline the watchdog already
        # enforces cooperatively; the supervisor's copy catches trials
        # hung somewhere the watchdog can't see.
        supervisor = replace(supervisor, trial_deadline=spec.wall_deadline)

    def merge(outcomes: List[TrialOutcome]) -> None:
        for outcome in outcomes:
            complete(outcome)

    pool = SupervisedPool(
        workers,
        functools.partial(_collect_visit_chunk, spec, seed),
        merge,
        config=supervisor,
    )
    size = chunk_size or default_chunk_size(len(visits), workers)
    for quarantined in pool.run(chunked(visits, size)).quarantined:
        label, sample = quarantined.item
        complete(
            TrialOutcome(
                label=label,
                sample=sample,
                trace=None,
                attempts=quarantined.crashes,
                error=WorkerCrashError(
                    f"quarantined after killing a worker "
                    f"{quarantined.crashes} times"
                ),
            )
        )


def collect_trials(
    spec: TrialSpec,
    seed: int,
    labels: Sequence[str],
    n_samples: int,
    progress: Optional[Callable[[str, int], None]] = None,
    stall_log: Optional[List[Exception]] = None,
    workers: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
) -> Dataset:
    """The ``labels x range(n_samples)`` grid through :func:`run_trials`,
    as a dataset in grid order.

    A visit that fails is dropped and its error appended to
    ``stall_log``; progress and the log follow grid order whatever the
    completion order.
    """
    grid = [(label, sample) for label in labels for sample in range(n_samples)]
    outcomes: Dict[Tuple[str, int], TrialOutcome] = {}

    def complete(outcome: TrialOutcome) -> None:
        outcomes[(outcome.label, outcome.sample)] = outcome

    run_trials(spec, seed, grid, complete, workers=workers, supervisor=supervisor)
    dataset = Dataset()
    for label, sample in grid:
        outcome = outcomes[(label, sample)]
        if outcome.trace is None:
            if stall_log is not None:
                stall_log.append(outcome.error)
            continue
        dataset.add(label, outcome.trace)
        if progress is not None:
            progress(label, sample)
    return dataset


def collect_dataset(
    n_samples: int = 100,
    sites: Optional[List[str]] = None,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    progress: Optional[Callable[[str, int], None]] = None,
    stall_log: Optional[List[Exception]] = None,
    workers: int = 1,
    cache=None,
    supervisor: Optional[SupervisorConfig] = None,
) -> Dataset:
    """Collect ``n_samples`` visits of each site (the paper's 100).

    One attempt of :func:`catalog_trial` per visit through
    :func:`collect_trials`; the resilient runner in
    :mod:`repro.experiments.runner` adds retries and checkpointing on
    top of the same loop, so with no stalls both give the same dataset.
    A visit that fails — a stall, or a quarantined worker-killer — is
    dropped: a deadline-truncated trace is not a shorter page load and
    would poison the dataset.  The error of each dropped visit (a
    :class:`PageLoadStalled` for a stall) is appended to ``stall_log``
    when given.

    ``workers > 1`` fans the (site x sample) grid out over a supervised
    process pool (``supervisor`` overrides its
    :class:`~repro.supervise.SupervisorConfig`); the dataset is
    bit-identical for any worker count.  ``workers=0`` uses one process
    per core.

    ``cache`` (a :class:`repro.cache.ArtifactStore`) memoises the
    collected dataset under its capture key — (pageload config, sites,
    n_samples, seed); ``workers`` stays out of the key because output
    is worker-count invariant.  On a warm hit no visit is simulated, so
    ``progress``/``stall_log`` see nothing.
    """
    config = config or PageLoadConfig()
    labels = sites or sorted(SITE_CATALOG)

    def collect() -> Dataset:
        return collect_trials(
            TrialSpec(functools.partial(catalog_trial, config)), seed, labels,
            n_samples, progress, stall_log, workers, supervisor,
        )

    if cache is None:
        return collect()
    from repro.cache import capture_key, cached_dataset

    return cached_dataset(cache, capture_key(config, labels, n_samples, seed), collect)
