"""Page loads over QUIC.

Reuses the HTTP exchange driver of :mod:`repro.web.pageload` — both
transport endpoints expose the same ``write``/``on_data``/
``on_established`` surface — so the only difference between a TCP and
a QUIC visit of the same page is the transport, which is exactly what
the TCP-vs-QUIC fingerprinting comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace, TraceObserver
from repro.quic.endpoint import QuicConfig, make_quic_flow
from repro.simnet.engine import Simulator
from repro.stob.controller import StobController
from repro.web.objects import SiteProfile
from repro.web.pageload import PageLoadConfig, _PageLoadSession, visit_seed_rng
from repro.web.sites import SITE_CATALOG


@dataclass
class _QuicFlowAdapter:
    """Shape-compatible stand-in for :class:`repro.stack.host.TcpFlow`."""

    client: object
    server: object

    def connect(self) -> None:
        self.client.connect()


def load_page_quic(
    profile: SiteProfile,
    config: Optional[PageLoadConfig] = None,
    rng: Optional[np.random.Generator] = None,
    server_controller: Optional[StobController] = None,
) -> Trace:
    """Simulate one QUIC visit and return the observed trace."""
    config = config or PageLoadConfig()
    rng = rng or np.random.default_rng(0)
    sim = Simulator()
    path = config.sample_path(rng)
    observer = TraceObserver()
    client, server, _fwd, _rev = make_quic_flow(
        sim,
        path,
        QuicConfig(cc=config.cc),
        QuicConfig(cc=config.cc),
        rng=np.random.default_rng(int(rng.integers(0, 2**63))),
        client_tap=observer.tap_outgoing,
        server_tap=observer.tap_incoming,
    )
    if server_controller is not None:
        server.segment_controller = server_controller

    page = profile.sample_page(rng)
    done = {"flag": False}

    def finish() -> None:
        done["flag"] = True

    flow = _QuicFlowAdapter(client=client, server=server)
    _PageLoadSession(sim, flow, page, config.pipeline_depth, finish)
    step = 0.1
    while not done["flag"] and sim.now < config.max_duration:
        sim.run(until=min(sim.now + step, config.max_duration))
    if done["flag"]:
        sim.run(until=sim.now + 4 * path.rtt)
    return observer.trace()


def collect_quic_dataset(
    n_samples: int = 100,
    sites: Optional[List[str]] = None,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    controller_factory: Optional[Callable[[], StobController]] = None,
) -> Dataset:
    """A closed-world dataset of QUIC page loads, each visit seeded by
    :func:`~repro.web.pageload.visit_seed_rng` like its TCP twin."""
    config = config or PageLoadConfig()
    dataset = Dataset()
    labels = sites or sorted(SITE_CATALOG)
    for label in labels:
        profile = SITE_CATALOG[label]
        for sample in range(n_samples):
            rng = visit_seed_rng(seed, label, sample)
            controller = (
                controller_factory() if controller_factory is not None else None
            )
            dataset.add(
                label,
                load_page_quic(profile, config, rng,
                               server_controller=controller),
            )
    return dataset
