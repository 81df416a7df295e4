"""Stratified k-fold splitting."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


def stratified_kfold_indices(
    y: np.ndarray, n_folds: int, rng: np.random.Generator
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) pairs with per-class balance."""
    y = np.asarray(y, dtype=np.int64)
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        if len(members) < n_folds:
            raise ValueError(
                f"class {cls} has {len(members)} samples; cannot make "
                f"{n_folds} folds"
            )
        shuffled = rng.permutation(members)
        fold_of[shuffled] = np.arange(len(members)) % n_folds
    for fold in range(n_folds):
        test_idx = np.nonzero(fold_of == fold)[0]
        train_idx = np.nonzero(fold_of != fold)[0]
        yield train_idx, test_idx
