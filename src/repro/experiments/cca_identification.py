"""§5.2 ablation: passive CCA identification, with and without Stob.

"Some users may wish to prevent their CCA from being identified,
because it potentially reveals other information, such as the OS
kernel and application identity."  We train the passive identifier of
:mod:`repro.attacks.cca_id` on undefended bulk flows and measure its
accuracy on (a) undefended flows and (b) flows shaped by a Stob delay
action — obfuscation should push accuracy toward chance (1/3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.cca_id import CCA_NAMES, CcaIdentifier, collect_cca_traces
from repro.stob.controller import split_delay_controller


@dataclass
class CcaIdResult:
    baseline_accuracy: float
    defended_accuracy: float
    chance: float
    n_train_per_cca: int
    n_test_per_cca: int


def run_cca_identification(
    n_train_per_cca: int = 12,
    n_test_per_cca: int = 6,
    seed: int = 7,
) -> CcaIdResult:
    """Train on clean flows; test on clean and Stob-defended flows."""
    train_traces, train_y = collect_cca_traces(n_train_per_cca, seed=seed)
    identifier = CcaIdentifier(random_state=seed).fit(train_traces, train_y)

    test_clean, test_y = collect_cca_traces(n_test_per_cca, seed=seed + 1)
    baseline = identifier.score(test_clean, test_y)

    test_defended, defended_y = collect_cca_traces(
        n_test_per_cca, seed=seed + 1, controller_factory=split_delay_controller
    )
    defended = identifier.score(test_defended, defended_y)
    return CcaIdResult(
        baseline_accuracy=baseline,
        defended_accuracy=defended,
        chance=1.0 / len(CCA_NAMES),
        n_train_per_cca=n_train_per_cca,
        n_test_per_cca=n_test_per_cca,
    )


def format_cca_id(result: CcaIdResult) -> str:
    return "\n".join(
        [
            "§5.2 passive CCA identification (reno / cubic / bbr)",
            f"  identifier accuracy, undefended flows: "
            f"{result.baseline_accuracy:.3f}",
            f"  identifier accuracy, Stob-shaped flows: "
            f"{result.defended_accuracy:.3f}",
            f"  chance level: {result.chance:.3f}",
        ]
    )
