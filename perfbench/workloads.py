"""The benchmark workloads.

Each workload turns ``--seed`` into its inputs, pays its set-up, runs
one cold repetition of its timed phase against a fresh artifact store,
re-runs fully warm against the store that repetition wrote, and checks
both outputs.  Sizes are fixed here, so the same seed always gives the
same inputs; see README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.cache.store import ArtifactStore
from repro.experiments.adverse_network import default_conditions
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunnerConfig, collect_resilient
from repro.experiments.table2 import run_table2
from repro.ml.forest import RandomForest
from repro.quic.pageload import collect_quic_dataset, load_page_quic
from repro.web.pageload import (
    PageLoadConfig,
    collect_dataset,
    load_page_result,
    visit_seed_rng,
)
from repro.web.sites import SITE_CATALOG

from perfbench import checks
from perfbench.stats import highest_percentile, percentile

#: The two cheapest sites to visit; warm-ups load only these.
CHEAP_SITES = ("whatsapp.net", "wikipedia.org")
#: Sample index used by warm-up visits, outside every workload's range.
WARM_UP_SAMPLE = 10_000


@dataclass
class Diagnostic:
    """A workload-specific end-to-end figure, printed with its sample
    count (not part of the gated metric set; see README.md)."""

    value: float
    unit: str
    n: int


@dataclass
class Rep:
    """One cold repetition of a workload's timed phase."""

    wall_s: float
    digest: str
    #: Digest a warm re-run against this repetition's store must give.
    warm_digest: str
    attempted: int
    problems: List[str]
    diagnostics: Dict[str, Diagnostic] = field(default_factory=dict)


def _combined_digest(parts: List[str]) -> str:
    return hashlib.sha256("".join(parts).encode("ascii")).hexdigest()


class Table2:
    name = "table2"
    why = (
        "cold reduced Table 2 then fully warm re-runs: forest and TCP "
        "simulator each over 30% of the cold pass, cache reads all of the warm one"
    )
    # Six visits keep at least four traces per site through the IQR
    # filter on every seed tried (1-10), so the balanced size - and the
    # work downstream of it - does not change with the seed.
    n_samples = 6
    balance_to = 4
    n_folds = 2
    n_estimators = 40

    def inputs(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            n_samples=self.n_samples,
            balance_to=self.balance_to,
            n_folds=self.n_folds,
            n_estimators=self.n_estimators,
            seed=seed,
        )

    def warm_up(self, config: ExperimentConfig) -> None:
        label = CHEAP_SITES[0]
        rng = visit_seed_rng(config.seed, label, WARM_UP_SAMPLE)
        trace = load_page_result(SITE_CATALOG[label], config.pageload, rng).trace
        X = KfpFeatureExtractor().extract_many([trace] * 6)
        RandomForest(n_estimators=2, random_state=0).fit(X, np.arange(6) % 2)

    def cold(self, config: ExperimentConfig, store: ArtifactStore) -> Rep:
        started = time.perf_counter()
        table = run_table2(config, cache=store)
        wall = time.perf_counter() - started
        digest = checks.table_digest(table)
        return Rep(
            wall_s=wall,
            digest=digest,
            warm_digest=digest,
            attempted=len(table),
            problems=checks.check_table2(table, config.n_folds),
        )

    def warm(self, config: ExperimentConfig, store: ArtifactStore):
        return run_table2(config, cache=store)

    warm_digest = staticmethod(checks.table_digest)


@dataclass(frozen=True)
class CollectInputs:
    seed: int
    tcp_samples: int
    quic_samples: int
    workers: int
    pageload: PageLoadConfig = field(default_factory=PageLoadConfig)


class Collect:
    name = "collect"
    why = (
        "TCP visits over the supervised 2-worker pool, then QUIC visits: "
        "simulator, QUIC and executor work with no forest"
    )
    tcp_samples = 6
    quic_samples = 2
    workers = 2

    def inputs(self, seed: int) -> CollectInputs:
        return CollectInputs(seed, self.tcp_samples, self.quic_samples, self.workers)

    def warm_up(self, inputs: CollectInputs) -> None:
        # The first pooled collection of a process runs slower than
        # later ones; pay that here, not in the timed phase.
        collect_dataset(
            n_samples=1, sites=list(CHEAP_SITES), config=inputs.pageload,
            seed=inputs.seed, workers=inputs.workers,
        )
        label = CHEAP_SITES[0]
        load_page_quic(
            SITE_CATALOG[label], inputs.pageload,
            visit_seed_rng(inputs.seed, label, WARM_UP_SAMPLE),
        )

    def _tcp(self, inputs: CollectInputs, store: ArtifactStore, stalls: list):
        return collect_dataset(
            n_samples=inputs.tcp_samples, config=inputs.pageload,
            seed=inputs.seed, stall_log=stalls, workers=inputs.workers,
            cache=store,
        )

    def cold(self, inputs: CollectInputs, store: ArtifactStore) -> Rep:
        sites = len(SITE_CATALOG)
        stalls: list = []
        started = time.perf_counter()
        tcp = self._tcp(inputs, store, stalls)
        tcp_done = time.perf_counter()
        quic = collect_quic_dataset(
            n_samples=inputs.quic_samples, config=inputs.pageload, seed=inputs.seed
        )
        finished = time.perf_counter()
        tcp_attempted = sites * inputs.tcp_samples
        quic_attempted = sites * inputs.quic_samples
        problems = (
            checks.check_traces(tcp, "tcp")
            + checks.check_traces(quic, "quic")
            + checks.check_accounting(tcp_attempted, tcp.num_traces, len(stalls), "tcp")
            + checks.check_accounting(quic_attempted, quic.num_traces, 0, "quic")
        )
        tcp_digest = checks.dataset_digest(tcp)
        attempted = tcp_attempted + quic_attempted
        return Rep(
            wall_s=finished - started,
            digest=_combined_digest([tcp_digest, checks.dataset_digest(quic)]),
            warm_digest=tcp_digest,
            attempted=attempted,
            problems=problems,
            diagnostics={
                "tcp_loads_per_s": Diagnostic(
                    tcp.num_traces / (tcp_done - started), "1/s", tcp_attempted
                ),
                "quic_loads_per_s": Diagnostic(
                    quic.num_traces / (finished - tcp_done), "1/s", quic_attempted
                ),
                "fail_ratio": Diagnostic(
                    (len(stalls) + len(problems)) / attempted, "ratio", attempted
                ),
            },
        )

    def warm(self, inputs: CollectInputs, store: ArtifactStore):
        # QUIC collection has no cache, so the warm re-run is the TCP half.
        return self._tcp(inputs, store, [])

    warm_digest = staticmethod(checks.dataset_digest)


@dataclass(frozen=True)
class AdverseInputs:
    seed: int
    n_samples: int
    conditions: Tuple[str, ...]
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    pageload: PageLoadConfig = field(default_factory=PageLoadConfig)

    def faulted(self, condition: str) -> PageLoadConfig:
        return replace(self.pageload, fault_spec=default_conditions()[condition])


class Adverse:
    name = "adverse"
    why = (
        "resilient TCP collection over bursty-loss and flapping links: "
        "faulted slow path, TCP loss recovery, runner retries and backoff"
    )
    # 126 trials: enough for a 90th percentile with 10 samples beyond.
    n_samples = 7
    conditions = ("bursty", "flap")

    def inputs(self, seed: int) -> AdverseInputs:
        return AdverseInputs(seed, self.n_samples, self.conditions)

    def warm_up(self, inputs: AdverseInputs) -> None:
        collect_resilient(
            [CHEAP_SITES[0]], 1, inputs.faulted(self.conditions[0]),
            seed=inputs.seed + WARM_UP_SAMPLE, runner_config=inputs.runner,
        )

    def _collect(self, inputs: AdverseInputs, condition: str, store: ArtifactStore,
                 progress: Callable[[str, int], None] = None):
        return collect_resilient(
            sorted(SITE_CATALOG), inputs.n_samples, inputs.faulted(condition),
            seed=inputs.seed, runner_config=inputs.runner, progress=progress,
            cache=store,
        )

    def cold(self, inputs: AdverseInputs, store: ArtifactStore) -> Rep:
        # Trials run serially, so the gap between two completions is the
        # later trial's time, retries and backoff included (a dropped
        # trial's time folds into the next completion's gap).
        gaps: List[float] = []
        mark = [0.0]

        def progress(label: str, sample: int) -> None:
            now = time.perf_counter()
            gaps.append(now - mark[0])
            mark[0] = now

        started = mark[0] = time.perf_counter()
        results = [
            (condition, *self._collect(inputs, condition, store, progress))
            for condition in inputs.conditions
        ]
        wall = time.perf_counter() - started
        problems: List[str] = []
        digests: List[str] = []
        completed = retries = 0
        trials = len(SITE_CATALOG) * inputs.n_samples
        for condition, dataset, report in results:
            problems += checks.check_traces(dataset, condition)
            problems += checks.check_accounting(
                trials, report.completed_trials, report.dropped_trials, condition
            )
            if report.from_cache:
                problems.append(f"{condition}: cold collection served from cache")
            completed += report.completed_trials
            retries += report.retries
            digests.append(checks.dataset_digest(dataset))
        attempted = trials * len(inputs.conditions)
        attempts = attempted + retries
        diagnostics = {
            "faulted_loads_per_s": Diagnostic(completed / wall, "1/s", attempted),
            "trial_ms_p50": Diagnostic(1e3 * percentile(gaps, 50.0), "ms", len(gaps)),
            "fail_ratio": Diagnostic(
                (attempts - completed + len(problems)) / attempts, "ratio", attempts
            ),
        }
        tail = highest_percentile(len(gaps))
        if tail is not None and tail >= 90.0:
            diagnostics["trial_ms_p90"] = Diagnostic(
                1e3 * percentile(gaps, 90.0), "ms", len(gaps)
            )
        digest = _combined_digest(digests)
        return Rep(wall, digest, digest, attempted, problems, diagnostics)

    def warm(self, inputs: AdverseInputs, store: ArtifactStore):
        return [self._collect(inputs, c, store)[0] for c in inputs.conditions]

    @staticmethod
    def warm_digest(datasets) -> str:
        return _combined_digest([checks.dataset_digest(d) for d in datasets])


WORKLOADS: Dict[str, Any] = {w.name: w for w in (Table2(), Collect(), Adverse())}
