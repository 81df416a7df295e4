"""Workload inputs come from the seed, and the traced path ships the
spans of forked pool workers home."""

import pytest

from repro.web.pageload import collect_dataset, load_page_result, visit_seed_rng
from repro.web.sites import SITE_CATALOG

from perfbench.layers import Instrumentation, per_layer_metrics
from perfbench.spans import Tracer
from perfbench.workloads import CHEAP_SITES, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_decides_the_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(4) == workload.inputs(4)
    assert workload.inputs(4) != workload.inputs(5)


def test_another_seed_visits_differently():
    label = CHEAP_SITES[0]
    config = WORKLOADS["table2"].inputs(4).pageload

    def first_visit(seed):
        return load_page_result(SITE_CATALOG[label], config, visit_seed_rng(seed, label, 0)).trace

    a, b = first_visit(4), first_visit(5)
    assert (a.times.tolist(), a.sizes.tolist()) == (
        first_visit(4).times.tolist(), first_visit(4).sizes.tolist())
    assert (a.times.tolist(), a.sizes.tolist()) != (b.times.tolist(), b.sizes.tolist())


def test_traced_pool_collection_brings_worker_spans_home(tmp_path):
    tracer = Tracer("test")
    original = collect_dataset.__globals__["load_page_result"]
    with Instrumentation(tracer, str(tmp_path / "spool")) as instrumentation:
        dataset = collect_dataset(n_samples=1, sites=list(CHEAP_SITES), seed=3, workers=2)
        instrumentation.absorb_workers()
    assert collect_dataset.__globals__["load_page_result"] is original
    assert dataset.num_traces == 2
    runs = [s for s in tracer.spans if s.name == "supervise.run"]
    loads = [s for s in tracer.spans if s.name == "web.load"]
    assert len(runs) == 1 and len(loads) == 2
    assert all(s.parent == runs[0].span_id for s in loads)
    metrics = per_layer_metrics(tracer.spans)
    assert metrics["web.load.calls"] == 2
    assert metrics["web.load.events"] > 0
    assert metrics["supervise.run.chunks"] >= 1
    assert list(tmp_path.joinpath("spool").iterdir()) == []


def test_runner_metrics_count_attempts_and_backoff():
    from perfbench.spans import Span

    def trial(span_id, start, label, index, error=None):
        attrs = {"label": label, "index": index}
        if error:
            attrs["error"] = error
        return Span(span_id, "c", "experiments.runner.trial", start, start + 1, "r", attrs)

    spans = [
        Span("c", None, "experiments.runner", 0, 20, "r",
             {"delays": [0.25, 0.5], "trials": 2, "retries": 2, "dropped": 0}),
        trial("t1", 1, "a", 0),
        trial("t2", 3, "b", 0, "PageLoadStalled"),
        trial("t3", 5, "b", 0, "PageLoadStalled"),
        trial("t4", 7, "b", 0),
    ]
    metrics = per_layer_metrics(spans)
    assert metrics["experiments.runner.attempts"] == 4
    assert metrics["experiments.runner.retries"] == 2
    assert metrics["experiments.runner.backoff_s"] == pytest.approx(0.75)
    assert metrics["experiments.runner.self_s"] == pytest.approx(20 - 4)
