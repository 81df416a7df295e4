"""CI smoke test: a tiny collection with ``--workers 2``, and one through
the resilient runner (``--checkpoint``), must each produce a
byte-identical archive to the plain serial run.

Exercises the real CLI entry point end to end (argument parsing,
runner, pool workers, npz serialisation) rather than library calls, so
a regression anywhere in the chain fails the job.  Exits non-zero on
any mismatch.

Usage:  PYTHONPATH=src python benchmarks/smoke_parallel.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cli import main


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        serial = Path(tmp) / "serial.npz"
        fanned = Path(tmp) / "fanned.npz"
        resilient = Path(tmp) / "resilient.npz"
        base = ["collect", "--samples", "1", "--seed", "7"]
        if main(base + ["--out", str(serial)]) != 0:
            print("smoke: serial collection failed", file=sys.stderr)
            return 1
        if main(base + ["--out", str(fanned), "--workers", "2"]) != 0:
            print("smoke: parallel collection failed", file=sys.stderr)
            return 1
        if serial.read_bytes() != fanned.read_bytes():
            print(
                "smoke: --workers 2 archive differs from serial archive",
                file=sys.stderr,
            )
            return 1
        checkpoint = ["--checkpoint", str(Path(tmp) / "ckpt")]
        if main(base + ["--out", str(resilient)] + checkpoint) != 0:
            print("smoke: checkpointed collection failed", file=sys.stderr)
            return 1
        if serial.read_bytes() != resilient.read_bytes():
            print(
                "smoke: --checkpoint archive differs from serial archive",
                file=sys.stderr,
            )
            return 1
        with np.load(str(serial), allow_pickle=False) as archive:
            if "allow_pickle" in archive.files:
                print("smoke: stray allow_pickle key in archive", file=sys.stderr)
                return 1
    print("smoke: parallel and checkpointed collections byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(run())
