"""The repository benchmark: three workloads, end-to-end metrics with
tracing off, and a traced run that breaks the time down by layer.

Run ``python3 perfbench/run.py --help`` from the repository root; the
design and the layer -> metric -> workload predictions are in
``perfbench/README.md``.
"""
