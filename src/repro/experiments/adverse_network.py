"""Adverse-network evaluation: does split/delay protection survive
retransmission noise?

The paper's Table 2 evaluates the kernel-emulable countermeasures on
clean captures.  But the Stob argument is about *stack-level*
behaviour, and real stacks operate over bursty loss and flapping
links, where retransmissions and timeout gaps reshape exactly the
packet sequences k-FP fingerprints.  This experiment re-runs the
k-FP grid for {Original, Split, Delayed, Combined} under three
network conditions:

* **clean** — the Table-2 path;
* **bursty** — Gilbert–Elliott bursty loss on both directions;
* **flap** — a link that intermittently goes dark for tens of ms.

Collection runs through the resilient runner (retries, stall
detection, optional checkpointing) because faulty-network page loads
can stall; stalled visits are retried with fresh seeds and — if they
keep stalling — dropped and reported rather than poisoning the
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cache import ArtifactStore, cached_dataset, defend_key, sanitize_key
from repro.capture.sanitize import sanitize_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    CollectionReport,
    RunnerConfig,
    collect_resilient,
    resilient_capture_key,
)
from repro.experiments.table2 import evaluate_cached_attack, make_defenses
from repro.ml.metrics import mean_std
from repro.simnet.faults import FaultSpec, bursty_loss_spec, link_flap_spec
from repro.web.pageload import PageLoadConfig
from repro.web.sites import SITE_CATALOG

#: Grid orders (rows = network condition, columns = defense).
CONDITION_ORDER = ("clean", "bursty", "flap")
DEFENSE_ORDER = ("original", "split", "delayed", "combined")


def default_conditions() -> Dict[str, Optional[FaultSpec]]:
    """The canonical three network conditions."""
    return {
        "clean": None,
        "bursty": bursty_loss_spec(p_enter_bad=0.02, p_exit_bad=0.3, loss_bad=0.4),
        # Mean 0.5 s between dark windows of mean 80 ms: long enough to
        # force RTO-class gaps into most sub-second page loads.
        "flap": link_flap_spec(up_mean=0.5, down_mean=0.08),
    }


@dataclass(frozen=True)
class AdverseConfig:
    """Configuration of the adverse-network grid (frozen; use
    :func:`dataclasses.replace` for variants)."""

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    conditions: Dict[str, Optional[FaultSpec]] = field(
        default_factory=default_conditions
    )
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: Directory for per-condition checkpoints (None disables).
    checkpoint_dir: Optional[str] = None
    sites: Optional[List[str]] = None

    def to_dict(self) -> dict:
        from repro.experiments.config import config_to_dict

        return config_to_dict(self)


@dataclass
class AdverseCell:
    """One (condition, defense) accuracy cell."""

    condition: str
    defense: str
    mean: float
    std: float
    fold_scores: List[float]

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


@dataclass
class AdverseResult:
    """The full grid plus per-condition collection reliability reports."""

    cells: Dict[Tuple[str, str], AdverseCell]
    reports: Dict[str, CollectionReport]


def _condition_pageload(base: PageLoadConfig, spec: Optional[FaultSpec]) -> PageLoadConfig:
    """The base page-load config with this condition's faults injected."""
    return replace(base, fault_spec=spec)


def run_adverse(
    config: Optional[AdverseConfig] = None,
    resume: bool = False,
    cache: Optional[ArtifactStore] = None,
) -> AdverseResult:
    """Collect per-condition datasets (resiliently) and evaluate the
    k-FP grid on full traces.

    With ``cache`` set, each condition's collected dataset and every
    downstream sanitize/defend/features/eval artifact is keyed and
    reused; a fully-warm re-run executes no page loads and no forests.
    """
    import os

    config = config or AdverseConfig()
    base = config.base
    sites = config.sites or sorted(SITE_CATALOG)
    cells: Dict[Tuple[str, str], AdverseCell] = {}
    reports: Dict[str, CollectionReport] = {}
    for condition in CONDITION_ORDER:
        if condition not in config.conditions:
            continue
        spec = config.conditions[condition]
        pageload = _condition_pageload(base.pageload, spec)
        runner_config = config.runner
        if config.checkpoint_dir is not None:
            # replace() keeps every other knob (retry, workers, chunk
            # size, ...) from the configured runner.
            runner_config = replace(
                config.runner,
                checkpoint_path=os.path.join(
                    config.checkpoint_dir, f"adverse_{condition}.ckpt.npz"
                ),
            )
        dataset, report = collect_resilient(
            sites,
            base.n_samples,
            pageload_config=pageload,
            seed=base.seed,
            runner_config=runner_config,
            resume=resume,
            cache=cache,
        )
        reports[condition] = report
        if dataset.num_traces == 0:
            raise RuntimeError(
                f"condition {condition!r} collected zero usable traces "
                f"({report.summary()}); every trial stalled or failed"
            )
        raw_key = (
            resilient_capture_key(
                sites, base.n_samples, pageload, base.seed, config.runner
            )
            if cache is not None
            else None
        )
        clean_key = (
            sanitize_key(raw_key, base.balance_to)
            if raw_key is not None
            else None
        )
        clean = cached_dataset(
            cache,
            clean_key,
            lambda: sanitize_dataset(dataset, balance_to=base.balance_to)[0],
        )
        for name, defense in make_defenses(base.seed).items():
            dkey = (
                defend_key(clean_key, defense)
                if clean_key is not None
                else None
            )
            scores = evaluate_cached_attack(
                base,
                lambda defense=defense: clean.map(defense.apply),
                cache=cache,
                upstream=dkey,
            )
            mean, std = mean_std(scores)
            cells[(condition, name)] = AdverseCell(
                condition, name, mean, std, scores
            )
    return AdverseResult(cells=cells, reports=reports)


def format_adverse(result: AdverseResult) -> str:
    """Render the grid plus the reliability summary."""
    lines = [
        "Adverse-network k-FP accuracy (closed world, full traces)",
        f"{'Condition':>10} | "
        + " | ".join(f"{d.capitalize():>15}" for d in DEFENSE_ORDER),
    ]
    for condition in CONDITION_ORDER:
        if (condition, DEFENSE_ORDER[0]) not in result.cells:
            continue
        row = f"{condition:>10} | " + " | ".join(
            f"{str(result.cells[(condition, d)]):>15}" for d in DEFENSE_ORDER
        )
        lines.append(row)
    lines.append("")
    lines.append("Collection reliability:")
    for condition, report in result.reports.items():
        lines.append(f"  {condition:>10}: {report.summary()}")
        for failure in report.failures:
            lines.append(
                f"    dropped {failure.label}[{failure.index}] after "
                f"{failure.attempts} attempts ({failure.error}: {failure.message})"
            )
    return "\n".join(lines)
