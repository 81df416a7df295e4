"""Emulation vs enforcement: the paper's central claim, measured.

The paper's §2.3 argument is that WF papers *emulate* defenses as
post-hoc trace transforms, while a deployed defense must be *enforced*
by the stack — and the two differ, because enforcement interacts with
congestion control, pacing, ACK clocks and TSO.

This experiment quantifies that gap on the split+delay countermeasure:

* **emulated** — stock page loads, transformed by
  :class:`~repro.defenses.combined.CombinedDefense` (exactly the
  paper's §3 emulation);
* **enforced** — the same page loads with a Stob controller installed
  on the server endpoint (split + delay acting on real transport
  decisions).

Reported per condition: k-FP accuracy, trace-shape statistics, and the
divergence between the two defended distributions (a classifier
trained on emulated traces tested on enforced ones — the realistic
deployment mismatch).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.capture.dataset import Dataset
from repro.capture.sanitize import sanitize_dataset
from repro.defenses.combined import CombinedDefense
from repro.experiments.config import ExperimentConfig
from repro.experiments.table2 import evaluate_dataset, make_attack
from repro.ml.metrics import mean_std
from repro.stob.controller import split_delay_controller
from repro.capture.trace import Trace
from repro.web.pageload import (
    PageLoadConfig,
    TrialSpec,
    collect_trials,
    load_page_strict,
)
from repro.web.sites import SITE_CATALOG


def _enforced_trial(
    config: PageLoadConfig,
    label: str,
    index: int,
    rng: np.random.Generator,
    watchdog: Optional[Callable[[], None]],
) -> Trace:
    """One catalogue page load with Stob split+delay in the server stack.

    :func:`~repro.stob.controller.split_delay_controller` leaves the
    visit's generator untouched: each enforced visit loads the same
    page over the same path as the stock visit with the same
    coordinates.
    """
    return load_page_strict(
        SITE_CATALOG[label], label, config, rng,
        server_controller=split_delay_controller(rng), watchdog=watchdog,
    )


def collect_enforced_dataset(
    n_samples: int,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
) -> Dataset:
    """Page loads with Stob split+delay enforced in the server stack
    (stalled loads dropped, as in :func:`~repro.web.pageload.collect_dataset`)."""
    spec = TrialSpec(functools.partial(_enforced_trial, config or PageLoadConfig()))
    return collect_trials(spec, seed, sorted(SITE_CATALOG), n_samples)


@dataclass
class EnforcementResult:
    """Accuracies and shape statistics for the three conditions."""

    accuracy_original: tuple
    accuracy_emulated: tuple
    accuracy_enforced: tuple
    #: Train-on-emulated, test-on-enforced accuracy: how well the
    #: research emulation transfers to a real deployment.
    transfer_accuracy: float
    mean_packets_original: float
    mean_packets_emulated: float
    mean_packets_enforced: float
    mean_duration_original: float
    mean_duration_emulated: float
    mean_duration_enforced: float


def _shape_stats(dataset: Dataset) -> tuple:
    counts = [len(t) for _l, t in dataset]
    durations = [t.duration for _l, t in dataset]
    return float(np.mean(counts)), float(np.mean(durations))


def run_enforcement_gap(
    config: Optional[ExperimentConfig] = None,
    raw_dataset: Optional[Dataset] = None,
) -> EnforcementResult:
    """Measure the emulation-vs-enforcement gap."""
    config = config or ExperimentConfig()
    if raw_dataset is None:
        from repro.web.pageload import collect_dataset

        raw_dataset = collect_dataset(
            n_samples=config.n_samples, config=config.pageload,
            seed=config.seed,
        )
    original, _ = sanitize_dataset(raw_dataset, balance_to=config.balance_to)
    emulated = original.map(CombinedDefense(seed=config.seed).apply)

    enforced_raw = collect_enforced_dataset(
        n_samples=config.n_samples, config=config.pageload, seed=config.seed
    )
    enforced, _ = sanitize_dataset(enforced_raw, balance_to=config.balance_to)

    extractor = KfpFeatureExtractor()
    acc_orig = mean_std(evaluate_dataset(original, config, extractor))
    acc_emul = mean_std(evaluate_dataset(emulated, config, extractor))
    acc_enfo = mean_std(evaluate_dataset(enforced, config, extractor))

    # Transfer: train on the emulated distribution, attack deployment.
    transfer = make_attack(config, "kfp").fit_dataset(emulated).score_dataset(enforced)

    packets_o, duration_o = _shape_stats(original)
    packets_m, duration_m = _shape_stats(emulated)
    packets_e, duration_e = _shape_stats(enforced)
    return EnforcementResult(
        accuracy_original=acc_orig,
        accuracy_emulated=acc_emul,
        accuracy_enforced=acc_enfo,
        transfer_accuracy=transfer,
        mean_packets_original=packets_o,
        mean_packets_emulated=packets_m,
        mean_packets_enforced=packets_e,
        mean_duration_original=duration_o,
        mean_duration_emulated=duration_m,
        mean_duration_enforced=duration_e,
    )


def format_enforcement(result: EnforcementResult) -> str:
    def acc(pair):
        return f"{pair[0]:.3f} ± {pair[1]:.3f}"

    return "\n".join(
        [
            "Emulation vs enforcement (split+delay, k-FP closed world)",
            f"{'condition':<12} {'accuracy':>16} {'mean pkts':>10} "
            f"{'mean dur(s)':>12}",
            f"{'original':<12} {acc(result.accuracy_original):>16} "
            f"{result.mean_packets_original:>10.0f} "
            f"{result.mean_duration_original:>12.2f}",
            f"{'emulated':<12} {acc(result.accuracy_emulated):>16} "
            f"{result.mean_packets_emulated:>10.0f} "
            f"{result.mean_duration_emulated:>12.2f}",
            f"{'enforced':<12} {acc(result.accuracy_enforced):>16} "
            f"{result.mean_packets_enforced:>10.0f} "
            f"{result.mean_duration_enforced:>12.2f}",
            "",
            f"train-on-emulated / test-on-enforced accuracy: "
            f"{result.transfer_accuracy:.3f}",
            "(a gap between this and the enforced self-accuracy is the "
            "emulation error the paper warns about)",
        ]
    )
