"""Defense effects across attacker families.

§2.2 taxonomises manipulations into padding, timing modification and
packet-size modification.  Different attacks key on different feature
families, so a defense's effect depends on the attacker:

* **k-FP** uses timing *and* size/direction statistics;
* **CUMUL** is timing-blind (pure cumulative size curves);
* **feature k-NN** is a weaker consumer of the k-FP features;
* **TAM+MLP** is the deep-learning-class attacker: it learns its own
  features from coarse time x direction matrices, the family WF
  defenses are usually strongest against classically but weakest
  against in the DL era.

This experiment evaluates the paper's three countermeasures against
every attacker in the registry on full traces.  Expected structure:
*delaying* cannot move CUMUL at all (its features are timing-free);
*splitting* perturbs CUMUL's curves; k-FP reacts to both, weakly (the
paper's Table 2 'All' row); TAM+MLP keys on the traffic's coarse
time-volume shape, which splitting inflates and delaying stretches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.registry import implemented_attacks
from repro.capture.dataset import Dataset
from repro.capture.sanitize import sanitize_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.table2 import make_attack, make_defenses
from repro.web.pageload import collect_dataset

#: Grid row order: every registered attack (classical first, then DL).
ATTACKS = ("kfp", "cumul", "knn", "tam-mlp")


@dataclass
class RobustnessCell:
    attack: str
    defense: str
    accuracy: float


def run_attack_robustness(
    config: Optional[ExperimentConfig] = None,
    dataset: Optional[Dataset] = None,
    test_fraction: float = 0.3,
    attacks: Optional[Sequence[str]] = None,
) -> List[RobustnessCell]:
    """Accuracy grid: attacker x defense condition (full traces).

    ``attacks`` selects a subset of registered attack names (default:
    the full :data:`ATTACKS` row order).  Unknown names fail fast —
    before any trace is collected — with the registry's error.
    """
    config = config or ExperimentConfig()
    attacks = tuple(attacks) if attacks is not None else ATTACKS
    unknown = sorted(set(attacks) - set(implemented_attacks()))
    if unknown:
        raise ValueError(
            f"unknown attacks {unknown}; choose from {sorted(implemented_attacks())}"
        )
    if dataset is None:
        dataset = collect_dataset(
            n_samples=config.n_samples, config=config.pageload,
            seed=config.seed,
        )
    clean, _ = sanitize_dataset(dataset, balance_to=config.balance_to)
    cells: List[RobustnessCell] = []
    for defense_name, defense in make_defenses(config.seed).items():
        defended = clean.map(defense.apply)
        # Fresh generator per condition: every defense is evaluated on
        # the *same* train/test partition, so differences between cells
        # reflect the defense, not split variance.
        rng = np.random.default_rng(config.seed)
        train, test = defended.train_test_split(test_fraction, rng)
        for attack_name in attacks:
            attack = make_attack(config, attack_name)
            attack.fit_dataset(train)
            cells.append(
                RobustnessCell(
                    attack=attack_name,
                    defense=defense_name,
                    accuracy=attack.score_dataset(test),
                )
            )
    return cells


def format_attack_robustness(cells: List[RobustnessCell]) -> str:
    defenses = sorted({c.defense for c in cells})
    attacks = [a for a in ATTACKS if any(c.attack == a for c in cells)]
    grid: Dict[str, Dict[str, float]] = {}
    for cell in cells:
        grid.setdefault(cell.attack, {})[cell.defense] = cell.accuracy
    lines = [
        "Attack robustness: accuracy per attacker x defense (full traces)",
        f"{'attack':<8} | " + " | ".join(f"{d:>9}" for d in defenses),
    ]
    for attack in attacks:
        row = f"{attack:<8} | " + " | ".join(
            f"{grid[attack][d]:>9.3f}" for d in defenses
        )
        lines.append(row)
    return "\n".join(lines)


def robustness_json(
    cells: List[RobustnessCell], config: ExperimentConfig
) -> Dict[str, object]:
    """A JSON-safe dump of the grid (``results/`` artifacts)."""
    return {
        "experiment": "attack_robustness",
        "config": {
            "n_samples": config.n_samples,
            "balance_to": config.balance_to,
            "seed": config.seed,
        },
        "cells": [
            {"attack": c.attack, "defense": c.defense, "accuracy": c.accuracy}
            for c in cells
        ],
    }
