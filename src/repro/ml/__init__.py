"""From-scratch machine learning used by the WF attacks.

scikit-learn is not available offline, so this package implements the
pieces k-FP needs from first principles, vectorised with numpy:

* :class:`~repro.ml.tree.DecisionTree` — CART with gini impurity,
* :class:`~repro.ml.forest.RandomForest` — bagging + feature
  subsampling + out-of-bag scoring + per-tree leaf indices (k-FP's
  fingerprint vectors),
* :class:`~repro.ml.knn.KNeighborsClassifier` — brute-force k-NN with
  euclidean or hamming distance,
* :class:`~repro.ml.mlp.MlpClassifier` — ReLU MLP with a minimal
  backprop core (minibatch SGD + momentum, softmax cross-entropy),
  the classifier behind the deep-learning-class TAM attack,
* metrics and the stratified k-fold splitter.
"""

from repro.ml.tree import DecisionTree
from repro.ml.forest import RandomForest
from repro.ml.knn import KNeighborsClassifier
from repro.ml.mlp import MlpClassifier
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    precision_recall_f1,
)
from repro.ml.validate import stratified_kfold_indices

__all__ = [
    "DecisionTree",
    "RandomForest",
    "KNeighborsClassifier",
    "MlpClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "stratified_kfold_indices",
]
