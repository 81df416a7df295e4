"""Small-scale tests of the §5 ablation experiments and the
emulation-vs-enforcement pipeline."""

import numpy as np
import pytest

from repro.attacks.cca_id import (
    CCA_NAMES,
    CcaIdentifier,
    bulk_flow_trace,
    collect_cca_traces,
)
from repro.capture.trace import IN
from repro.experiments.cca_interplay import (
    format_interplay,
    run_interplay,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.enforcement import (
    collect_enforced_dataset,
    format_enforcement,
    run_enforcement_gap,
)
from repro.stob.controller import split_delay_controller
from repro.web.pageload import PageLoadConfig, collect_dataset


def test_bulk_flow_trace_basic():
    trace = bulk_flow_trace("cubic", np.random.default_rng(1), duration=1.5)
    assert len(trace) > 100
    assert trace.incoming_bytes > trace.outgoing_bytes


def test_cca_identifier_learns_in_sample():
    traces, y = collect_cca_traces(3, seed=2)
    identifier = CcaIdentifier(n_estimators=20, random_state=2)
    identifier.fit(traces, y)
    assert identifier.score(traces, y) > 0.9  # in-sample sanity


def test_cca_flow_shaping_depends_only_on_its_own_generator():
    """Flow i's Stob delay stream is seeded from flow i's generator
    alone: each defended flow of a collection equals the same flow run
    on its own, so no flow's shaping depends on how many ran before."""
    defended, _y = collect_cca_traces(
        1, seed=4, controller_factory=split_delay_controller
    )
    root = np.random.default_rng(4)
    flow_seeds = [root.integers(0, 2**63) for _ in CCA_NAMES]
    for cca, flow_seed, collected in reversed(
        list(zip(CCA_NAMES, flow_seeds, defended))
    ):
        alone = bulk_flow_trace(
            cca, np.random.default_rng(flow_seed),
            controller_factory=split_delay_controller,
        )
        assert np.array_equal(alone.times, collected.times), cca
        assert np.array_equal(alone.sizes, collected.sizes), cca
    stock = bulk_flow_trace(CCA_NAMES[-1], np.random.default_rng(flow_seeds[-1]))
    assert not np.array_equal(stock.times, defended[-1].times)


def test_interplay_grid_runs_and_formats():
    results = run_interplay(
        ccas=("cubic",),
        actions=("none", "delay"),
        transfer_mib=2,
        duration=1.5,
    )
    assert len(results) == 2
    rendered = format_interplay(results)
    assert "cubic" in rendered
    by_action = {r.action: r for r in results}
    assert by_action["none"].goodput_mbps > 1.0
    assert by_action["delay"].goodput_mbps > 0.5


def test_interplay_bbr_reports_bw_estimate():
    results = run_interplay(
        ccas=("bbr",), actions=("none",), transfer_mib=2, duration=1.5
    )
    assert results[0].bw_estimate_ratio is not None
    assert results[0].bw_estimate_ratio > 0.1


def test_interplay_rejects_unknown_action():
    with pytest.raises(ValueError):
        run_interplay(ccas=("cubic",), actions=("teleport",), duration=0.5)


def test_enforced_dataset_differs_from_stock():
    config = PageLoadConfig()
    stock = collect_dataset(n_samples=2, sites=["wikipedia.org"], seed=9,
                            config=config)
    enforced = collect_enforced_dataset(n_samples=2, config=config, seed=9)
    wiki = enforced.traces["wikipedia.org"]
    assert len(wiki) == 2
    # Splitting caps incoming payloads in the enforced traces.
    for trace in wiki:
        assert trace.filter_direction(IN).sizes.max() <= 1200 + 52
    # And produces more packets than stock for the same site.
    stock_mean = np.mean([len(t) for t in stock.traces["wikipedia.org"]])
    enforced_mean = np.mean([len(t) for t in wiki])
    assert enforced_mean > stock_mean


@pytest.mark.slow
def test_enforcement_gap_pipeline_tiny():
    config = ExperimentConfig(
        n_samples=4, n_folds=2, n_estimators=10, balance_to=4, seed=5
    )
    result = run_enforcement_gap(config)
    rendered = format_enforcement(result)
    assert "enforced" in rendered
    assert 0 <= result.transfer_accuracy <= 1
    assert result.mean_packets_enforced > result.mean_packets_original
