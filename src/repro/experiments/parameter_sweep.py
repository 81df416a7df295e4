"""Countermeasure parameter sweeps (the paper's declared next step).

§3: "It is important to note that splitting packets also inherently
adds a delay ... It may be that a combination of delay and packet size
would have compound effects in the features and the overheads.  An
evaluation of the effects of combinations of these variables and more
complex defensive strategies is our ongoing work."

This experiment runs that evaluation: a grid over the split threshold
and the delay intensity, measuring k-FP accuracy (protection) and
bandwidth/latency overheads (cost) at each point — the
protection-vs-cost surface a deployer would tune on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.cache import ArtifactStore, cached_json, defend_key, overhead_key
from repro.capture.dataset import Dataset
from repro.defenses.combined import CombinedDefense
from repro.defenses.delay import DelayDefense
from repro.defenses.overhead import overhead_summary
from repro.defenses.split import SplitDefense
from repro.experiments.config import ExperimentConfig, config_to_dict
from repro.experiments.table2 import dataset_chain, evaluate_cached_attack
from repro.ml.metrics import mean_std

#: Split thresholds (bytes).  The paper fixed 1200 "to prevent creating
#: packets smaller than the minimum TCP MSS of 536 bytes"; lower values
#: split more aggressively.
SPLIT_THRESHOLDS = (1400, 1200, 1000, 800)
#: Delay intensities: the (low, high) IAT inflation ranges.  The paper
#: fixed (0.10, 0.30) "because larger delays could trigger
#: retransmission timeouts".
DELAY_RANGES = ((0.0, 0.0), (0.10, 0.30), (0.25, 0.75), (0.50, 1.50))


@dataclass(frozen=True)
class SweepConfig:
    """Typed configuration of the sweep grid (frozen; use
    :func:`dataclasses.replace` for variants).

    Replaces the old ad-hoc ``thresholds=`` / ``delay_ranges=`` kwargs
    of :func:`run_parameter_sweep`, so the grid is part of the single
    canonical config the CLI prints and the cache digests.
    """

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    thresholds: tuple = SPLIT_THRESHOLDS
    delay_ranges: tuple = DELAY_RANGES
    #: Traces sampled per grid point for the overhead measurement.
    overhead_traces: int = 60

    def to_dict(self) -> dict:
        return config_to_dict(self)


@dataclass
class SweepPoint:
    split_threshold: Optional[int]
    delay_low: float
    delay_high: float
    accuracy_mean: float
    accuracy_std: float
    bandwidth_overhead: float
    latency_overhead: float


def _defense(threshold: Optional[int], low: float, high: float, seed: int):
    if threshold is not None and high > 0:
        return CombinedDefense(
            threshold=threshold, low=low, high=high, seed=seed
        )
    if threshold is not None:
        return SplitDefense(threshold=threshold, seed=seed)
    return DelayDefense(low=low, high=high, seed=seed)


def run_parameter_sweep(
    config: Optional[Union[SweepConfig, ExperimentConfig]] = None,
    dataset: Optional[Dataset] = None,
    cache: Optional[ArtifactStore] = None,
) -> List[SweepPoint]:
    """The split-threshold x delay-intensity grid.

    ``config`` is a :class:`SweepConfig`; a bare
    :class:`ExperimentConfig` is accepted and wrapped with the default
    grid.  With ``cache`` set, each grid point's accuracy and overhead
    artifacts are keyed on the defense's ``params()`` digest, so
    re-running with an extended grid recomputes only the new points.
    """
    if config is None:
        config = SweepConfig()
    elif isinstance(config, ExperimentConfig):
        config = SweepConfig(base=config)
    base = config.base
    get_clean, clean_key = dataset_chain(base, dataset, cache)
    points: List[SweepPoint] = []
    for threshold in config.thresholds:
        for low, high in config.delay_ranges:
            if high == 0 and threshold is None:
                continue
            defense = _defense(threshold, low, high, base.seed)
            dkey = (
                defend_key(clean_key, defense)
                if clean_key is not None
                else None
            )

            def build(defense=defense):
                return get_clean().map(defense.apply)

            mean, std = mean_std(
                evaluate_cached_attack(base, build, cache=cache, upstream=dkey)
            )
            okey = (
                overhead_key(clean_key, defense, config.overhead_traces)
                if clean_key is not None
                else None
            )

            def measure_cost(defense=defense):
                cost = overhead_summary(
                    get_clean(), defense, max_traces=config.overhead_traces
                )
                return {k: float(v) for k, v in cost.items()}

            cost = cached_json(cache, okey, measure_cost)
            points.append(
                SweepPoint(
                    split_threshold=threshold,
                    delay_low=low,
                    delay_high=high,
                    accuracy_mean=mean,
                    accuracy_std=std,
                    bandwidth_overhead=cost["bandwidth"],
                    latency_overhead=cost["latency"],
                )
            )
    return points


def format_parameter_sweep(points: List[SweepPoint]) -> str:
    lines = [
        "Countermeasure parameter sweep (the paper's §3 'ongoing work'):",
        "k-FP accuracy and overheads per (split threshold, delay range)",
        f"{'split':>6} {'delay':>12} {'accuracy':>16} {'bw ovh':>8} "
        f"{'lat ovh':>8}",
    ]
    for p in points:
        delay = f"{p.delay_low:.2f}-{p.delay_high:.2f}"
        lines.append(
            f"{p.split_threshold or '-':>6} {delay:>12} "
            f"{p.accuracy_mean:>8.3f} ± {p.accuracy_std:.3f} "
            f"{p.bandwidth_overhead:>+8.1%} {p.latency_overhead:>+8.1%}"
        )
    return "\n".join(lines)
