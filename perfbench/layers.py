"""Spans around each layer's public boundary, installed from outside.

:class:`Instrumentation` replaces the boundary functions listed in
:data:`BOUNDARIES` with traced wrappers for the duration of a ``with``
block and restores the originals afterwards; nothing in ``src/``
changes.  A module-level function is replaced in every loaded module
that imported it by name, so ``from x import f`` call sites are traced
too.

Pool workers are forked, so they inherit the wrappers.  The spans they
record are shipped home by :func:`_traced_visit_chunk`, which stands in
for the collection chunk task and writes each finished chunk's spans
to a spool directory that :meth:`Instrumentation.absorb_workers` reads.
"""

from __future__ import annotations

import glob
import itertools
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.cache.store import ArtifactStore
from repro.capture import sanitize as _sanitize
from repro.defenses.combined import CombinedDefense
from repro.defenses.delay import DelayDefense
from repro.defenses.split import SplitDefense
from repro.experiments.runner import PageLoadTrial, ResilientRunner
from repro.ml.forest import RandomForest
from repro.quic import pageload as _quic_pageload
from repro.supervise import SupervisedPool
from repro.web import pageload as _pageload

from perfbench.spans import Span, Tracer, layer_totals, spans_from_json, spans_to_json


def _load(result, args, kwargs) -> Dict[str, Any]:
    if result is None:
        return {}
    return {
        "events": result.events_processed,
        "sim_s": result.sim_time,
        "completed": int(result.completed),
    }


def _quic(trace, args, kwargs) -> Dict[str, Any]:
    return {} if trace is None else {"packets": len(trace)}


def _sanitize_counts(result, args, kwargs) -> Dict[str, Any]:
    if result is None:
        return {}
    return {"traces_in": args[0].num_traces, "kept": result[0].num_traces}


def _defense(trace, args, kwargs) -> Dict[str, Any]:
    if trace is None:
        return {}
    return {"records_in": len(args[1]), "records_out": len(trace)}


def _kfp(X, args, kwargs) -> Dict[str, Any]:
    traces = args[1]
    return {"traces": len(traces), "packets": sum(len(t) for t in traces)}


def _fit(forest, args, kwargs) -> Dict[str, Any]:
    if forest is None:
        return {}
    return {
        "trees": len(forest.trees_),
        "nodes": sum(tree.node_count for tree in forest.trees_),
    }


def _predict(labels, args, kwargs) -> Dict[str, Any]:
    return {"rows": len(args[1])}


def _put(_, args, kwargs) -> Dict[str, Any]:
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"bytes": len(data)}


def _get(data, args, kwargs) -> Dict[str, Any]:
    return {"hit": int(data is not None), "bytes": len(data) if data else 0}


def _supervise(report, args, kwargs) -> Dict[str, Any]:
    out = {"chunks": len(args[1])}
    if report is not None:
        out["restarts"] = report.worker_restarts
    return out


def _runner(result, args, kwargs) -> Dict[str, Any]:
    policy = args[0].config.retry
    out: Dict[str, Any] = {
        # Backoff slept before retry a (1-based) of one trial.
        "delays": [policy.delay(a) for a in range(1, policy.max_attempts)]
    }
    if result is not None:
        report = result[1]
        out.update(
            trials=report.completed_trials - report.resumed_trials
            + report.dropped_trials,
            retries=report.retries,
            dropped=report.dropped_trials,
        )
    return out


def _trial(_, args, kwargs) -> Dict[str, Any]:
    return {"label": args[1], "index": args[2]}


#: (span name, owner, attribute, counts).  The owner is a class (its
#: method is replaced) or a module (the function is replaced there and
#: wherever else it was imported by name).
BOUNDARIES = (
    ("web.load", _pageload, "load_page_result", _load),
    ("quic.load", _quic_pageload, "load_page_quic", _quic),
    ("capture.sanitize", _sanitize, "sanitize_dataset", _sanitize_counts),
    ("defenses.split", SplitDefense, "apply", _defense),
    ("defenses.delayed", DelayDefense, "apply", _defense),
    ("defenses.combined", CombinedDefense, "apply", _defense),
    ("attacks.kfp", KfpFeatureExtractor, "extract_many", _kfp),
    ("ml.forest.fit", RandomForest, "fit", _fit),
    ("ml.forest.predict", RandomForest, "predict", _predict),
    ("cache.put", ArtifactStore, "put_bytes", _put),
    ("cache.get", ArtifactStore, "get_bytes", _get),
    ("supervise.run", SupervisedPool, "run", _supervise),
    ("experiments.runner", ResilientRunner, "collect", _runner),
    ("experiments.runner.trial", PageLoadTrial, "__call__", _trial),
)

#: The instrumentation a forked pool worker inherited, if any.
_ACTIVE: Optional["Instrumentation"] = None


def _traced_visit_chunk(config, seed, visits):
    """Stand-in for the collection chunk task that ships the spans a
    pool worker recorded back to the parent through the spool."""
    active = _ACTIVE
    result = active.original_chunk(config, seed, visits)
    if os.getpid() != active.parent_pid:
        spans = active.tracer.take_local()
        path = os.path.join(
            active.spool, f"worker-{os.getpid()}-{next(active.chunk_ids)}.json"
        )
        with open(path + ".tmp", "w") as handle:
            handle.write(spans_to_json(spans))
        os.replace(path + ".tmp", path)
    return result


class Instrumentation:
    """Installs the boundary wrappers of :data:`BOUNDARIES` for one
    traced run."""

    def __init__(self, tracer: Tracer, spool: str) -> None:
        self.tracer = tracer
        self.spool = spool
        self.parent_pid = os.getpid()
        self.chunk_ids = itertools.count()
        self.original_chunk = _pageload._collect_visit_chunk
        self._undo: List[tuple] = []

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        global _ACTIVE
        os.makedirs(self.spool, exist_ok=True)
        for name, owner, attr, counts in BOUNDARIES:
            original = getattr(owner, attr)
            traced = self.tracer.wrap(name, original, counts)
            if isinstance(owner, type):
                self._replace(owner, attr, traced)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "repro" and (
                    getattr(module, attr, None) is original
                ):
                    self._replace(module, attr, traced)
        self._replace(_pageload, "_collect_visit_chunk", _traced_visit_chunk)
        _ACTIVE = self
        return self

    def __exit__(self, *exc: object) -> None:
        global _ACTIVE
        _ACTIVE = None
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def absorb_workers(self) -> None:
        """Merge the spans pool workers shipped through the spool."""
        for path in sorted(glob.glob(os.path.join(self.spool, "worker-*.json"))):
            with open(path) as handle:
                self.tracer.absorb(spans_from_json(handle.read()))
            os.remove(path)


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "ml.forest.fit.calls": "count",
    "ml.forest.fit.trees": "count",
    "ml.forest.fit.nodes": "count",
    "ml.forest.fit.busy_s": "s",
    "ml.forest.fit.self_s": "s",
    "ml.forest.predict.rows": "count",
    "ml.forest.predict.busy_s": "s",
    "web.load.calls": "count",
    "web.load.busy_s": "s",
    "web.load.self_s": "s",
    "web.load.events": "count",
    "web.load.events_per_s": "1/s",
    "web.load.sim_s": "s",
    "web.load.stalls": "count",
    "web.load.useful_ratio": "ratio",
    "quic.load.calls": "count",
    "quic.load.busy_s": "s",
    "quic.load.packets": "count",
    "quic.load.packets_per_s": "1/s",
    **{
        f"defenses.{d}.{m}": unit
        for d in ("split", "delayed", "combined")
        for m, unit in (
            ("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
            ("records_in", "count"), ("records_out", "count"),
        )
    },
    "attacks.kfp.traces": "count",
    "attacks.kfp.packets": "count",
    "attacks.kfp.busy_s": "s",
    "capture.sanitize.busy_s": "s",
    "capture.sanitize.kept_ratio": "ratio",
    "cache.put.calls": "count",
    "cache.put.bytes": "B",
    "cache.put.busy_s": "s",
    "cache.get.calls": "count",
    "cache.get.hits": "count",
    "cache.get.bytes": "B",
    "cache.get.busy_s": "s",
    "supervise.run.busy_s": "s",
    "supervise.run.chunks": "count",
    "supervise.run.restarts": "count",
    "experiments.runner.busy_s": "s",
    "experiments.runner.self_s": "s",
    "experiments.runner.trials": "count",
    "experiments.runner.attempts": "count",
    "experiments.runner.retries": "count",
    "experiments.runner.dropped": "count",
    "experiments.runner.backoff_s": "s",
}

#: Span names whose self time counts as a named layer's (everything
#: but the workload roots the benchmark opens itself).
LAYER_NAMES = tuple(name for name, *_ in BOUNDARIES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric from one traced run's spans
    (zero for a layer the workload never calls)."""
    totals = layer_totals(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def total(name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in named[name])

    def calls(name: str) -> int:
        return totals[name].calls if name in totals else 0

    def busy(name: str) -> float:
        return totals[name].busy_s if name in totals else 0.0

    def own(name: str) -> float:
        return totals[name].self_s if name in totals else 0.0

    m: Dict[str, float] = {
        "ml.forest.fit.calls": calls("ml.forest.fit"),
        "ml.forest.fit.trees": total("ml.forest.fit", "trees"),
        "ml.forest.fit.nodes": total("ml.forest.fit", "nodes"),
        "ml.forest.fit.busy_s": busy("ml.forest.fit"),
        "ml.forest.fit.self_s": own("ml.forest.fit"),
        "ml.forest.predict.rows": total("ml.forest.predict", "rows"),
        "ml.forest.predict.busy_s": busy("ml.forest.predict"),
        "web.load.calls": calls("web.load"),
        "web.load.busy_s": busy("web.load"),
        "web.load.self_s": own("web.load"),
        "web.load.events": total("web.load", "events"),
        "web.load.events_per_s": _ratio(total("web.load", "events"), busy("web.load")),
        "web.load.sim_s": total("web.load", "sim_s"),
        "web.load.stalls": calls("web.load") - total("web.load", "completed"),
        "web.load.useful_ratio": _ratio(total("web.load", "completed"), calls("web.load")),
        "quic.load.calls": calls("quic.load"),
        "quic.load.busy_s": busy("quic.load"),
        "quic.load.packets": total("quic.load", "packets"),
        "quic.load.packets_per_s": _ratio(total("quic.load", "packets"), busy("quic.load")),
        "attacks.kfp.traces": total("attacks.kfp", "traces"),
        "attacks.kfp.packets": total("attacks.kfp", "packets"),
        "attacks.kfp.busy_s": busy("attacks.kfp"),
        "capture.sanitize.busy_s": busy("capture.sanitize"),
        "capture.sanitize.kept_ratio": _ratio(
            total("capture.sanitize", "kept"), total("capture.sanitize", "traces_in")
        ),
        "cache.put.calls": calls("cache.put"),
        "cache.put.bytes": total("cache.put", "bytes"),
        "cache.put.busy_s": busy("cache.put"),
        "cache.get.calls": calls("cache.get"),
        "cache.get.hits": total("cache.get", "hit"),
        "cache.get.bytes": total("cache.get", "bytes"),
        "cache.get.busy_s": busy("cache.get"),
        "supervise.run.busy_s": busy("supervise.run"),
        "supervise.run.chunks": total("supervise.run", "chunks"),
        "supervise.run.restarts": total("supervise.run", "restarts"),
        "experiments.runner.busy_s": busy("experiments.runner"),
        "experiments.runner.self_s": own("experiments.runner"),
        "experiments.runner.trials": total("experiments.runner", "trials"),
        "experiments.runner.attempts": calls("experiments.runner.trial"),
        "experiments.runner.retries": total("experiments.runner", "retries"),
        "experiments.runner.dropped": total("experiments.runner", "dropped"),
        "experiments.runner.backoff_s": _backoff(spans, named["experiments.runner"]),
    }
    for d in ("split", "delayed", "combined"):
        name = f"defenses.{d}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = own(name)
        m[f"{name}.records_in"] = total(name, "records_in")
        m[f"{name}.records_out"] = total(name, "records_out")
    return {name: m[name] for name in PER_LAYER_UNITS}


def _backoff(spans: Sequence[Span], collects: Sequence[Span]) -> float:
    """Backoff the runner slept: a trial attempted ``k`` times slept
    before each of its ``k - 1`` retries."""
    slept = 0.0
    for collect in collects:
        attempts: Dict[tuple, int] = defaultdict(int)
        for span in spans:
            if span.parent == collect.span_id and span.name == "experiments.runner.trial":
                attempts[(span.attrs["label"], span.attrs["index"])] += 1
        delays = collect.attrs["delays"]
        slept += sum(sum(delays[: k - 1]) for k in attempts.values())
    return slept


def accounted_share(spans: Sequence[Span], root: Span) -> float:
    """Share of ``root``'s wall time covered by named layers' self time."""
    totals = layer_totals(spans, within=root)
    named = sum(t.self_s for name, t in totals.items() if name in LAYER_NAMES)
    return _ratio(named, root.duration)
