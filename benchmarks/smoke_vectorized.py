"""Perf regression gate for the vectorized hot path (DESIGN §13).

Measures the live simulator against the frozen pre-vectorization
reference stack (``tests/differential/reference_stack.py``) **in the
same process**, so the gate compares a machine-independent *ratio*
rather than absolute wall-clock numbers — the same trick the obs
overhead guard uses with :class:`benchmarks.bench_micro.BaselineEventLoop`.

Four workloads:

* **page loads** — fixed (site, seed) page-load simulations, the cost
  center of every experiment (loads/second);
* **event churn** — the raw event-loop workload from
  :func:`benchmarks.bench_micro.run_event_churn` (events/second),
  comparing the live loop against ``BaselineEventLoop``;
* **link bursts** — vectorized link transit against the frozen
  reference link (packets/second);
* **forest fit** — bootstrapped random-forest trees on fixed seeded
  matrices (a Table 2 benchmark fold, 18x135, and a paper-scale fold,
  533x175, both with nine classes), the live tree against the frozen
  per-feature split search in ``tests/differential/reference_tree.py``.

Modes::

    PYTHONPATH=src:. python benchmarks/smoke_vectorized.py            # gate
    PYTHONPATH=src:. python benchmarks/smoke_vectorized.py --record   # rebaseline

The gate (CI job ``vectorized-smoke``) recomputes every speedup ratio
and fails if any has regressed more than :data:`TOLERANCE` (20 %)
against the committed ``results/bench_baseline.json``.  ``--record``
rewrites the baseline — only do that deliberately, with a perf change
you intend to commit.  Absolute numbers are recorded informationally
(they vary by machine); only the ratios gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, REPO)

BASELINE_PATH = os.path.join(REPO, "results", "bench_baseline.json")

#: Allowed regression of any speedup ratio against the baseline.
TOLERANCE = 0.20

#: The fixed page-load workload: (site, visit seed) pairs.
PAGE_WORKLOAD = [
    ("wikipedia.org", 0),
    ("bing.com", 1),
    ("github.com", 2),
    ("wikipedia.org", 3),
    ("bing.com", 4),
]

#: The fixed forest-fit workload: (rows, features, trees) per matrix.
FOREST_WORKLOAD = [(18, 135, 40), (533, 175, 4)]
FOREST_CLASSES = 9

#: Speedup ratios the gate checks against the baseline.
GATED = ("page_load_speedup", "event_churn_speedup", "link_burst_speedup",
         "forest_fit_speedup")


def _run_page_workload() -> int:
    """Simulate the fixed workload once; returns total packets (sanity)."""
    from repro.web.pageload import PageLoadConfig, load_page, visit_seed_rng
    from repro.web.sites import SITE_CATALOG

    config = PageLoadConfig()
    packets = 0
    for label, seed in PAGE_WORKLOAD:
        rng = visit_seed_rng(seed, label, 0)
        packets += len(load_page(SITE_CATALOG[label], config, rng))
    return packets


def page_load_rate(repeats: int = 3) -> float:
    """Best-of-``repeats`` page loads per second on the live stack."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        packets = _run_page_workload()
        best = min(best, time.perf_counter() - started)
    assert packets > 1000, f"workload suspiciously small: {packets} packets"
    return len(PAGE_WORKLOAD) / best


def reference_page_load_rate(repeats: int = 3) -> float:
    """Same workload through the frozen pre-vectorization stack."""
    from tests.differential.reference_stack import reference_stack

    with reference_stack():
        return page_load_rate(repeats)


def event_throughput() -> float:
    """Live event-loop churn (events/second)."""
    from benchmarks.bench_micro import event_churn_throughput
    from repro.simnet.engine import EventLoop

    return event_churn_throughput(EventLoop)


def link_burst_rate() -> float:
    """Vectorized link transit throughput (packets/second)."""
    from benchmarks.bench_micro import link_burst_throughput

    return link_burst_throughput()


def reference_link_burst_rate() -> float:
    """Same burst workload through the frozen reference link."""
    from benchmarks.bench_micro import link_burst_throughput
    from tests.differential.reference_stack import RefLink

    return link_burst_throughput(RefLink)


def baseline_event_throughput() -> float:
    """Pre-observability baseline loop churn (events/second)."""
    from benchmarks.bench_micro import BaselineEventLoop, event_churn_throughput

    return event_churn_throughput(BaselineEventLoop)


def _forest_matrix(rows: int, features: int, seed: int):
    """Seeded fingerprint-like data: gaussians with a weak per-class
    shift (trees of a few hundred nodes at 533 rows), every third
    column rounded so there are ties as in k-FP's count features."""
    rng = np.random.default_rng(seed)
    y = np.arange(rows) % FOREST_CLASSES
    shift = 0.3 * rng.normal(size=(FOREST_CLASSES, features))
    X = rng.normal(size=(rows, features)) + shift[y]
    X[:, ::3] = np.round(X[:, ::3] * 2.0)
    return X, y


def _fit_forest(tree_cls, X, y, n_trees: int) -> int:
    """Fit ``n_trees`` bootstrapped trees the way the forest does;
    returns the total node count (the live and reference trees must
    agree on it)."""
    nodes = 0
    for tree_rng in np.random.default_rng(0).spawn(n_trees):
        sample = tree_rng.integers(0, len(X), size=len(X))
        tree = tree_cls(max_features="sqrt", rng=tree_rng)
        tree.fit(X[sample], y[sample], n_classes=FOREST_CLASSES)
        nodes += tree.node_count
    return nodes


def forest_fit_seconds(repeats: int = 3) -> dict:
    """Best-of-``repeats`` seconds per matrix for the live and the
    reference tree, alternated so host drift hits both alike."""
    from repro.ml.tree import DecisionTree
    from tests.differential.reference_tree import DecisionTree as ReferenceTree

    times = {}
    for rows, features, n_trees in FOREST_WORKLOAD:
        X, y = _forest_matrix(rows, features, seed=rows)
        best = {"live": float("inf"), "reference": float("inf")}
        nodes = {}
        for _ in range(repeats):
            for name, cls in (("live", DecisionTree), ("reference", ReferenceTree)):
                started = time.perf_counter()
                nodes[name] = _fit_forest(cls, X, y, n_trees)
                best[name] = min(best[name], time.perf_counter() - started)
        assert nodes["live"] == nodes["reference"], f"trees differ: {nodes}"
        times[f"{rows}x{features}"] = best
    return times


def measure() -> dict:
    live_loads = page_load_rate()
    ref_loads = reference_page_load_rate()
    live_events = event_throughput()
    base_events = baseline_event_throughput()
    live_burst = link_burst_rate()
    ref_burst = reference_link_burst_rate()
    forest = forest_fit_seconds()
    live_fit = sum(best["live"] for best in forest.values())
    ref_fit = sum(best["reference"] for best in forest.values())
    return {
        "workload": [list(pair) for pair in PAGE_WORKLOAD],
        "page_loads_per_sec": round(live_loads, 2),
        "reference_page_loads_per_sec": round(ref_loads, 2),
        "page_load_speedup": round(live_loads / ref_loads, 3),
        "events_per_sec": round(live_events),
        "baseline_events_per_sec": round(base_events),
        "event_churn_speedup": round(live_events / base_events, 3),
        "link_burst_packets_per_sec": round(live_burst),
        "reference_link_burst_packets_per_sec": round(ref_burst),
        "link_burst_speedup": round(live_burst / ref_burst, 3),
        "forest_fit_s": round(live_fit, 4),
        "reference_forest_fit_s": round(ref_fit, 4),
        "forest_fit_speedup": round(ref_fit / live_fit, 3),
        "forest_fit_speedup_by_matrix": {
            shape: round(best["reference"] / best["live"], 3)
            for shape, best in forest.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite results/bench_baseline.json from this run",
    )
    args = parser.parse_args(argv)

    current = measure()
    print(json.dumps(current, indent=1))

    if args.record:
        with open(BASELINE_PATH, "w") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline recorded -> {BASELINE_PATH}")
        return 0

    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)

    failures = []
    for key in GATED:
        floor = baseline[key] * (1.0 - TOLERANCE)
        status = "ok" if current[key] >= floor else "REGRESSED"
        print(
            f"{key}: {current[key]:.3f} "
            f"(baseline {baseline[key]:.3f}, floor {floor:.3f}) {status}"
        )
        if current[key] < floor:
            failures.append(key)
    if failures:
        print(f"FAIL: {', '.join(failures)} regressed >{TOLERANCE:.0%}")
        return 1
    print("PASS: vectorized hot path within tolerance of committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
