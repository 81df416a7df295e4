"""Run a workload on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload adverse --seeds 1-10 [--out FILE]

Reads ``BENCHMARK.json`` for the command, run length and bounds, runs
the benchmark once per seed with tracing off, and prints per metric the
median, the quartiles and the quartile distance as a share of the
median (the spread a metric's bound is compared with; WIDE marks one
above a third of its bound).  ``--out``
writes the same figures, plus every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: Dict[int, dict] = {}
    for seed in parse_seeds(args.seeds):
        runs[seed] = run_once(spec, args.workload, seed)
        values = {k: round(v["value"], 4) for k, v in runs[seed]["metrics"].items()}
        print(f"seed {seed}: {values}", flush=True)
    summary = {}
    for name in runs[next(iter(runs))]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = quartile_spread(values)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "unit": runs[next(iter(runs))]["metrics"][name]["unit"],
        }
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if name == "setup_s" or spread <= bound / 3 else "WIDE"
            verdict = f" bound {bound} ({verdict})"
        print(f"{name:<32} median {median:12.4f} spread {spread:7.2%}{verdict}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"workload": args.workload, "summary": summary,
                 "runs": {str(k): v for k, v in runs.items()}},
                handle, indent=1, sort_keys=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
