import os

import pytest

from perfbench.spans import Span, Tracer, covered, descendants, layer_totals, self_times


def span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, name, start, end, "run")


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(2, 6), (4, 8)]) == 6
    assert covered(0, 10, [(-5, 1), (9, 20)]) == 2
    assert covered(0, 10, [(2, 3), (2, 3)]) == 1
    assert covered(0, 10, [(11, 12)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("r", None, 0, 10),
        span("a", "r", 1, 5),
        span("a1", "a", 2, 4),
        span("b", "r", 6, 7),
    ]
    selfs = self_times(spans)
    assert selfs["r"] == pytest.approx(10 - 4 - 1)
    assert selfs["a"] == pytest.approx(4 - 2)
    assert selfs["a1"] == pytest.approx(2)
    assert sum(selfs.values()) == pytest.approx(10)


def test_overlapping_children_are_counted_once():
    # Two pool workers loading in parallel under one supervise span.
    spans = [
        span("p", None, 0, 10, "supervise.run"),
        span("w1", "p", 1, 7, "web.load"),
        span("w2", "p", 3, 9, "web.load"),
    ]
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(10 - 8)
    totals = layer_totals(spans)
    assert totals["web.load"].calls == 2
    assert totals["web.load"].busy_s == pytest.approx(12)


def test_tracer_records_nesting_errors_and_descendants():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    def failing(x):
        raise KeyError("boom")

    traced_inner = tracer.wrap("inner", inner, lambda r, a, k: {"arg": a[0]})

    def outer():
        traced_inner(1)
        with pytest.raises(KeyError):
            tracer.wrap("failing", failing, lambda r, a, k: {"arg": a[0]})(7)
        return traced_inner(2)

    assert tracer.span("outer", outer) == 3
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root = by_name["outer"][0]
    assert root.parent is None
    assert [s.attrs["arg"] for s in by_name["inner"]] == [1, 2]
    assert all(s.parent == root.span_id for s in by_name["inner"] + by_name["failing"])
    # A call that raises keeps the attributes taken from its arguments.
    assert by_name["failing"][0].attrs == {"arg": 7, "error": "KeyError"}
    assert all(s.run_id == "t" for s in tracer.spans)
    assert len(descendants(tracer.spans, root)) == 4
    assert all(s.end >= s.start for s in tracer.spans)


def test_take_local_keeps_other_processes_spans():
    tracer = Tracer("t")
    tracer.span("mine", lambda: None)
    tracer.absorb([span("999999:1", None, 0, 1)])
    mine = tracer.take_local()
    assert [s.name for s in mine] == ["mine"]
    assert mine[0].span_id.startswith(f"{os.getpid()}:")
    assert [s.span_id for s in tracer.spans] == ["999999:1"]
