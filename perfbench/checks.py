"""Output checks and digests for the benchmark workloads.

Each check returns a list of problems (empty when the output is
correct), so one run reports every failed check rather than the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Tuple

from repro.capture.dataset import Dataset
from repro.capture.serialize import dumps_dataset
from repro.experiments.table2 import DEFENSE_ORDER, N_VALUES, Table2Cell
from repro.fuzz.oracle import InvariantViolation, check_trace

#: k-FP on undefended full traces must reach this accuracy: three times
#: the 1/9 chance level of the nine-site closed world.
MIN_ORIGINAL_ACCURACY = 3.0 / 9.0

Table = Dict[Tuple[str, object], Table2Cell]


def table_cells(table: Table) -> List[dict]:
    """The table in a canonical, JSON-safe order."""
    return [
        {
            "defense": cell.defense,
            "n": str(cell.n),
            "mean": cell.mean,
            "std": cell.std,
            "fold_scores": [float(s) for s in cell.fold_scores],
        }
        for _, cell in sorted(table.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
    ]


def table_digest(table: Table) -> str:
    """SHA-256 over the exact cell values (floats in repr precision)."""
    blob = json.dumps(table_cells(table), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 of the dataset's deterministic ``.npz`` bytes."""
    return hashlib.sha256(dumps_dataset(dataset)).hexdigest()


def check_table2(table: Table, n_folds: int) -> List[str]:
    """All 16 cells present, each with ``n_folds`` finite scores in
    [0, 1], and the undefended full-trace accuracy well above chance."""
    problems: List[str] = []
    expected = {(d, n) for d in DEFENSE_ORDER for n in ("all",) + N_VALUES}
    if set(table) != expected:
        missing = sorted(map(str, expected - set(table)))
        extra = sorted(map(str, set(table) - expected))
        problems.append(f"table cells differ: missing {missing}, extra {extra}")
    for key, cell in sorted(table.items(), key=lambda kv: str(kv[0])):
        scores = cell.fold_scores
        if len(scores) != n_folds:
            problems.append(f"cell {key}: {len(scores)} fold scores, want {n_folds}")
        if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
            problems.append(f"cell {key}: fold score outside [0, 1]: {scores}")
    original = table.get(("original", "all"))
    if original is not None and not original.mean >= MIN_ORIGINAL_ACCURACY:
        problems.append(
            f"original/all accuracy {original.mean:.3f} is below "
            f"{MIN_ORIGINAL_ACCURACY:.3f} (chance is {1 / 9:.3f})"
        )
    return problems


def check_traces(dataset: Dataset, context: str) -> List[str]:
    """Every trace passes the fuzzer's trace invariant oracle."""
    problems: List[str] = []
    for label in dataset.labels:
        for index, trace in enumerate(dataset.traces[label]):
            try:
                check_trace(trace, f"{context} {label}[{index}]")
            except InvariantViolation as violation:
                problems.append(str(violation))
    return problems


def check_accounting(attempted: int, completed: int, dropped: int, context: str) -> List[str]:
    """Completed plus dropped operations equal the attempted ones."""
    if completed + dropped == attempted:
        return []
    return [
        f"{context}: {completed} completed + {dropped} dropped != "
        f"{attempted} attempted"
    ]


def check_same(cold: str, warm: str, context: str) -> List[str]:
    """A warm re-run reproduces the cold output exactly."""
    if cold == warm:
        return []
    return [f"{context}: warm output {warm[:12]} differs from cold {cold[:12]}"]
