"""Frozen per-feature CART split search (differential oracle).

A verbatim copy of :class:`repro.ml.tree.DecisionTree` as it stood
before the split search was vectorized across candidate features
(DESIGN §13, "Forest split search").  Its ``_best_split`` loops over
the candidate features one at a time: a fresh stable argsort, a
one-hot cumsum and a ``_gini_from_counts`` call per feature, keeping
the first feature whose best gain strictly beats every earlier one.

It is FROZEN on purpose: ``tests/differential/test_tree_differential.py``
fits the same seeded data with this class and the live one and asserts
equal ``feature/threshold/left/right/value`` arrays and an equal
generator state afterwards, and ``benchmarks/smoke_vectorized.py``
times the live tree against it.  Do not "improve" it or de-duplicate
it against the live module -- any change here silently weakens the
oracle.

The original module docstring follows.

CART decision tree (classification, gini impurity).

The tree is grown depth-first.  At each node a random subset of
features is evaluated; for each candidate feature the samples are
sorted once and the gini gain of every distinct-value midpoint is
computed from class-count prefix sums — the standard vectorised CART
formulation, O(m log m) per feature per node.

The fitted tree is stored in flat arrays (``feature``, ``threshold``,
``left``, ``right``, ``value``) so prediction is an array-walk rather
than object traversal.  :meth:`DecisionTree.apply` returns leaf indices,
which :mod:`repro.attacks.kfp` uses to build fingerprint vectors.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class DecisionTree:
    """A CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None = unlimited).
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples each child must keep.
    max_features:
        Number of features examined per node; ``"sqrt"`` (the random-
        forest default), ``None`` (all), or an int.
    rng:
        Random generator for feature subsampling and tie-breaking.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng()
        self.n_classes_: int = 0
        self.n_features_: int = 0
        # Flat representation; index 0 is the root.
        self.feature: np.ndarray = np.empty(0, dtype=np.int64)
        self.threshold: np.ndarray = np.empty(0)
        self.left: np.ndarray = np.empty(0, dtype=np.int64)
        self.right: np.ndarray = np.empty(0, dtype=np.int64)
        self.value: np.ndarray = np.empty((0, 0))

    # -- fitting ---------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        k = int(self.max_features)
        if not 1 <= k <= n_features:
            raise ValueError(
                f"max_features {k} out of range [1, {n_features}]"
            )
        return k

    def fit(
        self, X: np.ndarray, y: np.ndarray, n_classes: Optional[int] = None
    ) -> "DecisionTree":
        """Grow the tree on ``X`` (n, d) with integer labels ``y``.

        ``n_classes`` fixes the class-distribution width; ensembles pass
        it so trees fitted on bootstrap samples that happen to miss a
        class still produce full-width probability rows.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit an empty dataset")
        self.n_classes_ = n_classes if n_classes is not None else int(y.max()) + 1
        if self.n_classes_ <= int(y.max()):
            raise ValueError(
                f"n_classes {self.n_classes_} too small for labels up to {y.max()}"
            )
        self.n_features_ = X.shape[1]
        k_features = self._resolve_max_features(self.n_features_)

        features: List[int] = []
        thresholds: List[float] = []
        lefts: List[int] = []
        rights: List[int] = []
        values: List[np.ndarray] = []

        # Depth-first growth with an explicit stack of (indices, depth,
        # parent slot).  Each stack entry allocates its node id on pop.
        stack: List[Tuple[np.ndarray, int, int, bool]] = [
            (np.arange(len(y)), 0, -1, False)
        ]
        while stack:
            indices, depth, parent, is_right = stack.pop()
            node_id = len(features)
            if parent >= 0:
                if is_right:
                    rights[parent] = node_id
                else:
                    lefts[parent] = node_id
            counts = np.bincount(y[indices], minlength=self.n_classes_)
            features.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            values.append(counts.astype(np.float64))

            if (
                len(indices) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == len(indices)  # pure node
            ):
                continue
            split = self._best_split(X, y, indices, k_features, counts)
            if split is None:
                continue
            feat, thr, left_idx, right_idx = split
            features[node_id] = feat
            thresholds[node_id] = thr
            stack.append((right_idx, depth + 1, node_id, True))
            stack.append((left_idx, depth + 1, node_id, False))

        self.feature = np.asarray(features, dtype=np.int64)
        self.threshold = np.asarray(thresholds, dtype=np.float64)
        self.left = np.asarray(lefts, dtype=np.int64)
        self.right = np.asarray(rights, dtype=np.int64)
        self.value = np.vstack(values)
        return self

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        k_features: int,
        counts: np.ndarray,
    ) -> Optional[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Search a random feature subset for the best gini split."""
        m = len(indices)
        y_node = y[indices]
        best_gain = 1e-12
        best: Optional[Tuple[int, float]] = None
        total_gini = self._gini_from_counts(counts[None, :], np.array([m]))[0]

        candidates = self._rng.choice(
            self.n_features_, size=k_features, replace=False
        )
        min_leaf = self.min_samples_leaf
        for feat in candidates:
            column = X[indices, feat]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            sorted_y = y_node[order]
            # Valid split positions: between i and i+1 when the value
            # changes and both sides satisfy min_samples_leaf.
            diff = sorted_vals[1:] != sorted_vals[:-1]
            positions = np.nonzero(diff)[0] + 1  # left side size
            if len(positions) == 0:
                continue
            positions = positions[
                (positions >= min_leaf) & (positions <= m - min_leaf)
            ]
            if len(positions) == 0:
                continue
            onehot = np.zeros((m, self.n_classes_), dtype=np.float64)
            onehot[np.arange(m), sorted_y] = 1.0
            prefix = np.cumsum(onehot, axis=0)
            left_counts = prefix[positions - 1]
            right_counts = counts[None, :] - left_counts
            n_left = positions.astype(np.float64)
            n_right = m - n_left
            gini_left = self._gini_from_counts(left_counts, n_left)
            gini_right = self._gini_from_counts(right_counts, n_right)
            weighted = (n_left * gini_left + n_right * gini_right) / m
            gains = total_gini - weighted
            best_pos = int(np.argmax(gains))
            if gains[best_pos] > best_gain:
                best_gain = float(gains[best_pos])
                pos = positions[best_pos]
                thr = 0.5 * (sorted_vals[pos - 1] + sorted_vals[pos])
                best = (int(feat), float(thr))
        if best is None:
            return None
        feat, thr = best
        mask = X[indices, feat] <= thr
        left_idx = indices[mask]
        right_idx = indices[~mask]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return None
        return feat, thr, left_idx, right_idx

    @staticmethod
    def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Gini impurity for rows of class counts."""
        totals = np.asarray(totals, dtype=np.float64)
        safe = np.maximum(totals, 1.0)
        p = counts / safe[:, None]
        return 1.0 - np.sum(p * p, axis=1)

    # -- prediction ---------------------------------------------------------------

    def _check_fitted(self) -> None:
        if len(self.feature) == 0:
            raise RuntimeError("tree is not fitted")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every sample."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(len(X), dtype=np.int64)
        active = self.feature[nodes] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            current = nodes[idx]
            feats = self.feature[current]
            go_left = X[idx, feats] <= self.threshold[current]
            nodes[idx[go_left]] = self.left[current[go_left]]
            nodes[idx[~go_left]] = self.right[current[~go_left]]
            active[idx] = self.feature[nodes[idx]] >= 0
        return nodes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class distributions of the reached leaves."""
        leaves = self.apply(X)
        counts = self.value[leaves]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority class of the reached leaves."""
        return np.argmax(self.predict_proba(X), axis=1)

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def max_reached_depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        depth = np.zeros(self.node_count, dtype=np.int64)
        for node in range(self.node_count):
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    depth[child] = depth[node] + 1
        return int(depth.max())
