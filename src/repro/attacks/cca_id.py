"""Passive congestion-control identification (the paper's §5.2).

CCAnalyzer identifies a flow's CCA by watching bottleneck-queue
behaviour from a passive vantage point.  Here we model the same
capability at the level our eavesdropper already operates: packet
timestamps and sizes of the flow.  A random forest over timing/burst
features distinguishes Reno, CUBIC and BBR bulk flows — and the
experiment in :mod:`repro.experiments.cca_identification` shows Stob's
packet-sequence control degrades this identification, supporting the
paper's claim that users may want to hide their CCA (which "reveals
other information, such as the OS kernel and application identity").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.attacks.features.kfp import KfpFeatureExtractor
from repro.capture.trace import Trace, TraceObserver
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy_score
from repro.simnet.engine import Simulator
from repro.simnet.path import NetworkPath
from repro.stack.host import make_flow
from repro.stack.tcp import TcpConfig
from repro.units import mbps, msec

CCA_NAMES = ("reno", "cubic", "bbr")


def bulk_flow_trace(
    cca: str,
    rng: np.random.Generator,
    transfer_bytes: int = 3 * 1024 * 1024,
    duration: float = 3.0,
    controller_factory=None,
) -> Trace:
    """One bulk transfer's packet trace (server -> client).

    Path rate/RTT are jittered per flow so the classifier must learn
    CCA behaviour, not a fixed path signature.  ``controller_factory``
    builds the server's Stob controller from the flow's generator
    ``rng`` (e.g. :func:`~repro.stob.controller.split_delay_controller`),
    so a flow's shaping depends on that flow alone.
    """
    sim = Simulator()
    path = NetworkPath(
        rate=mbps(float(rng.uniform(20, 80))),
        rtt=msec(float(rng.uniform(15, 60))),
        buffer_bdp=float(rng.uniform(0.8, 2.0)),
    )
    flow = make_flow(
        sim,
        path,
        client_config=TcpConfig(cc=cca),
        server_config=TcpConfig(cc=cca),
    )
    if controller_factory is not None:
        flow.server.segment_controller = controller_factory(rng)
    observer = TraceObserver()
    flow.server_host.nic.add_tap(observer.tap_incoming)
    flow.client_host.nic.add_tap(observer.tap_outgoing)
    flow.server.on_established = lambda: flow.server.write(transfer_bytes)
    flow.connect()
    sim.run(until=duration)
    return observer.trace()


@dataclass
class CcaIdentifier:
    """Random-forest CCA classifier over trace features."""

    n_estimators: int = 60
    random_state: int = 0

    def __post_init__(self) -> None:
        self.extractor = KfpFeatureExtractor()
        self.forest = RandomForest(
            n_estimators=self.n_estimators, random_state=self.random_state
        )
        self.labels_: Tuple[str, ...] = CCA_NAMES

    def fit(self, traces: Sequence[Trace], y: np.ndarray) -> "CcaIdentifier":
        X = self.extractor.extract_many(traces)
        self.forest.fit(X, np.asarray(y, dtype=np.int64))
        return self

    def predict(self, traces: Sequence[Trace]) -> np.ndarray:
        return self.forest.predict(self.extractor.extract_many(traces))

    def score(self, traces: Sequence[Trace], y: np.ndarray) -> float:
        return accuracy_score(np.asarray(y), self.predict(traces))


def collect_cca_traces(
    n_per_cca: int,
    seed: int = 0,
    controller_factory=None,
) -> Tuple[List[Trace], np.ndarray]:
    """Bulk-flow traces for each CCA, with labels."""
    root = np.random.default_rng(seed)
    traces: List[Trace] = []
    labels: List[int] = []
    for index, cca in enumerate(CCA_NAMES):
        for _ in range(n_per_cca):
            rng = np.random.default_rng(root.integers(0, 2**63))
            traces.append(
                bulk_flow_trace(cca, rng, controller_factory=controller_factory)
            )
            labels.append(index)
    return traces, np.asarray(labels, dtype=np.int64)
