"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload once untraced and once with a span
around every layer boundary, prints where the time went and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the program
under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores and span files, inside the checkout.
RUNS = os.path.join(ROOT, ".perfbench_runs")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fully warm re-runs after each cold repetition, as many as fit in
#: WARM_SECONDS within these limits; ``warm_ms`` is their median.
WARM_SECONDS = 1.5
WARM_REPEATS = (5, 250)
#: Everything a workload imports, timed in a fresh interpreter.
IMPORTS = (
    "import repro.experiments.table2, repro.experiments.runner, "
    "repro.experiments.adverse_network, repro.quic.pageload, "
    "repro.fuzz.oracle, repro.supervise"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Untraced figures printed besides the end-to-end metrics and also
#: reported by the traced run (see README.md for why they are not gated).
RUN_DIAGNOSTICS = (
    ("warm_ms", "ms"),
    ("tcp_loads_per_s", "1/s"),
    ("quic_loads_per_s", "1/s"),
    ("faulted_loads_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p90", "ms"),
    ("fail_ratio", "ratio"),
)


def _bootstrap() -> None:
    """Import the program under test from this checkout's ``src/``."""
    here = os.path.dirname(os.path.abspath(__file__))
    # The script's own directory would shadow top-level modules with
    # perfbench's module names; import perfbench as a package instead.
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    try:
        import repro
    except ImportError as error:
        problem = f"cannot import the program under test: {error}"
    else:
        if os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            return
        problem = f"repro resolved outside {SRC}: {repro.__file__}"
    print(f"perfbench: {problem}", file=sys.stderr)
    sys.exit(2)


@contextmanager
def fresh_store(parent: str) -> Iterator["ArtifactStore"]:
    from repro.cache.store import ArtifactStore

    root = tempfile.mkdtemp(prefix="store-", dir=parent)
    try:
        yield ArtifactStore(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def setup_once(workload, inputs) -> float:
    """One set-up: cold imports in a fresh interpreter plus the
    workload's warm-up."""
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True, timeout=120)
    workload.warm_up(inputs)
    return time.perf_counter() - started


def warm_runs(workload, inputs, store, rep) -> None:
    """Fully warm re-runs against ``store``; their median time becomes
    the repetition's ``warm_ms``."""
    from perfbench.checks import check_same
    from perfbench.workloads import Diagnostic

    least, most = WARM_REPEATS
    times_ms: List[float] = []
    began = time.perf_counter()
    while len(times_ms) < most:
        started = time.perf_counter()
        output = workload.warm(inputs, store)
        times_ms.append(1e3 * (time.perf_counter() - started))
        rep.problems += check_same(rep.warm_digest, workload.warm_digest(output), "warm re-run")
        if len(times_ms) >= least and time.perf_counter() - began >= WARM_SECONDS:
            break
    rep.diagnostics["warm_ms"] = Diagnostic(statistics.median(times_ms), "ms", len(times_ms))


def measure(workload, inputs, seconds: float, rundir: str):
    """Cold repetitions while another one fits in ``seconds`` (at least
    one), each followed by fully warm re-runs against its store."""
    from perfbench.checks import check_same

    reps = []
    started = time.perf_counter()
    while True:
        with fresh_store(rundir) as store:
            rep = workload.cold(inputs, store)
            warm_runs(workload, inputs, store, rep)
        if reps:
            rep.problems += check_same(reps[0].digest, rep.digest, "repetition")
        reps.append(rep)
        typical = statistics.median(r.wall_s for r in reps)
        if time.perf_counter() - started + typical > seconds:
            return reps


def _line(name: str, value: float, unit: str, n: int) -> str:
    return f"metric {name:<32} {value:>14.6f} {unit:<6} n={n}"


def run_untraced(workload, inputs, seconds: float, rundir: str, setups: List[float]):
    reps = measure(workload, inputs, seconds, rundir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r.wall_s for r in reps), len(reps)),
        "peak_rss_mb": (rss_mb, 1),
    }
    lines = [_line(k, v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()]
    for name in reps[0].diagnostics:
        values = [r.diagnostics[name] for r in reps if name in r.diagnostics]
        lines.append(
            _line(name, statistics.median(d.value for d in values), values[0].unit,
                  sum(d.n for d in values))
        )
    lines.append(f"digest {reps[0].digest}")
    out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in metrics.items()}
    return reps, lines, out


def run_traced(workload, inputs, rundir: str, run_id: str):
    from perfbench.checks import check_same
    from perfbench.layers import (
        PER_LAYER_UNITS,
        Instrumentation,
        accounted_share,
        per_layer_metrics,
    )
    from perfbench.spans import Tracer, time_table

    with fresh_store(rundir) as store:
        reference = workload.cold(inputs, store)
        warm_runs(workload, inputs, store, reference)
    tracer = Tracer(run_id)
    with fresh_store(rundir) as store:
        with Instrumentation(tracer, os.path.join(rundir, "spool")) as instrumentation:
            rep = tracer.span("workload.cold", workload.cold, inputs, store)
            instrumentation.absorb_workers()
            warm_output = tracer.span("workload.warm", workload.warm, inputs, store)
    rep.problems += reference.problems + check_same(
        rep.warm_digest, workload.warm_digest(warm_output), "warm re-run"
    )
    rep.problems += check_same(reference.digest, rep.digest, "traced run")
    roots = {s.name: s for s in tracer.spans if s.parent is None}
    cold, warm = roots["workload.cold"], roots["workload.warm"]
    values: Dict[str, float] = per_layer_metrics(tracer.spans)
    units = dict(PER_LAYER_UNITS)
    values["trace.overhead_ratio"] = cold.duration / reference.wall_s
    values["trace.accounted_ratio"] = accounted_share(tracer.spans, cold)
    units["trace.overhead_ratio"] = units["trace.accounted_ratio"] = "ratio"
    for name, unit in RUN_DIAGNOSTICS:
        found = reference.diagnostics.get(name)
        values[f"run.{name}"] = found.value if found else 0.0
        units[f"run.{name}"] = unit
    tracer.write(os.path.join(rundir, "spans.jsonl"))
    lines = [
        time_table(tracer.spans, cold, f"{workload.name} cold"),
        time_table(tracer.spans, warm, f"{workload.name} warm"),
        f"spans {len(tracer.spans)} written to {os.path.relpath(rundir, ROOT)}/spans.jsonl",
        f"digest {rep.digest}",
    ]
    lines += [_line(k, v, units[k], 1) for k, v in values.items()]
    out = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return [reference, rep], lines, out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    rundir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)

    # The traced run reports no setup_s; it needs the warm-up only.
    setups = [
        setup_once(workload, inputs) for _ in range(1 if args.trace else SETUP_REPEATS)
    ]
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        reps, lines, metrics = run_traced(workload, inputs, rundir, run_id)
    else:
        reps, lines, metrics = run_untraced(workload, inputs, args.seconds, rundir, setups)
    # Pool workers exit once their pool shuts down; wait for them.
    for child in multiprocessing.active_children():
        child.join(60)
    problems = [p for rep in reps for p in rep.problems]
    attempted = sum(rep.attempted for rep in reps)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} reps {len(reps)}")
    print("\n".join(lines))
    for problem in problems:
        print(f"check FAILED: {problem}")
    print(f"checks {'passed' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
