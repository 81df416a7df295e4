"""TCP vs QUIC website fingerprinting (the paper's §2.3 QUIC claim).

The paper argues the stack-control problem carries over to QUIC:
packet sizes and datagram scheduling are QUIC's decisions, not the
application's.  Related work it cites ("Website fingerprinting in the
age of QUIC", QCSD) found QUIC traffic roughly as fingerprintable as
TLS/TCP.  This experiment loads the same pages over both transports
and compares:

* k-FP closed-world accuracy on TCP traces vs QUIC traces,
* cross-transport transfer (train on TCP, test on QUIC) — does an
  attacker need per-transport training data?
* accuracy on QUIC defended by a Stob split+delay controller —
  demonstrating the obfuscation layer is transport-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.capture.dataset import Dataset
from repro.capture.sanitize import sanitize_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.table2 import evaluate_dataset, make_attack
from repro.ml.metrics import mean_std
from repro.quic.pageload import collect_quic_dataset
from repro.stob.controller import split_delay_controller
from repro.web.pageload import collect_dataset


@dataclass
class QuicVsTcpResult:
    accuracy_tcp: Tuple[float, float]
    accuracy_quic: Tuple[float, float]
    accuracy_quic_stob: Tuple[float, float]
    #: Train on TCP traces, test on QUIC traces of the same sites.
    cross_transport_accuracy: float


def run_quic_vs_tcp(
    config: Optional[ExperimentConfig] = None,
    tcp_dataset: Optional[Dataset] = None,
) -> QuicVsTcpResult:
    """Collect both transports' datasets and compare k-FP accuracy."""
    config = config or ExperimentConfig()
    if tcp_dataset is None:
        tcp_dataset = collect_dataset(
            n_samples=config.n_samples, config=config.pageload,
            seed=config.seed,
        )
    quic_dataset = collect_quic_dataset(
        n_samples=config.n_samples, config=config.pageload, seed=config.seed
    )
    quic_stob = collect_quic_dataset(
        n_samples=config.n_samples,
        config=config.pageload,
        seed=config.seed,
        controller_factory=split_delay_controller,
    )
    tcp_clean, _ = sanitize_dataset(tcp_dataset, balance_to=config.balance_to)
    quic_clean, _ = sanitize_dataset(quic_dataset, balance_to=config.balance_to)
    stob_clean, _ = sanitize_dataset(quic_stob, balance_to=config.balance_to)

    extractor = KfpFeatureExtractor()
    acc_tcp = mean_std(evaluate_dataset(tcp_clean, config, extractor))
    acc_quic = mean_std(evaluate_dataset(quic_clean, config, extractor))
    acc_stob = mean_std(evaluate_dataset(stob_clean, config, extractor))

    cross = make_attack(config, "kfp").fit_dataset(tcp_clean).score_dataset(quic_clean)
    return QuicVsTcpResult(
        accuracy_tcp=acc_tcp,
        accuracy_quic=acc_quic,
        accuracy_quic_stob=acc_stob,
        cross_transport_accuracy=cross,
    )


def format_quic_vs_tcp(result: QuicVsTcpResult) -> str:
    def acc(pair):
        return f"{pair[0]:.3f} ± {pair[1]:.3f}"

    return "\n".join(
        [
            "TCP vs QUIC fingerprinting (k-FP closed world, 9 sites)",
            f"  TCP traces              : {acc(result.accuracy_tcp)}",
            f"  QUIC traces             : {acc(result.accuracy_quic)}",
            f"  QUIC + Stob split+delay : {acc(result.accuracy_quic_stob)}",
            f"  train-TCP / test-QUIC   : "
            f"{result.cross_transport_accuracy:.3f}",
            "",
            "Reading: QUIC is roughly as fingerprintable as TCP (§2.3's "
            "'the same will apply to QUIC'); the Stob controller plugs "
            "into either transport unchanged.",
        ]
    )
