"""Page loads over QUIC.

Reuses the visit driver of :mod:`repro.web.pageload` — both transport
endpoints expose the same ``write``/``on_data``/``on_established``
surface — so the only difference between a TCP and a QUIC visit of the
same page is the transport, which is exactly what the TCP-vs-QUIC
fingerprinting comparison needs.  QUIC collection runs on the same
trial core as TCP collection: one seed derivation, one retry loop, and
stalled visits dropped rather than kept as truncated traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.capture.dataset import Dataset
from repro.capture.trace import Trace, TraceObserver
from repro.quic.endpoint import QuicConfig, make_quic_flow
from repro.simnet.engine import Simulator
from repro.stob.controller import StobController
from repro.web.objects import SiteProfile
from repro.web.pageload import (
    PageLoadConfig,
    PageLoadStalled,
    TrialSpec,
    _drive_visit,
    collect_trials,
)
from repro.web.sites import SITE_CATALOG

#: Builds a visit's server-side controller from the visit's generator.
ControllerFactory = Callable[[np.random.Generator], StobController]


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
    """Simulate one QUIC visit and return the observed trace.

    Raises :class:`~repro.web.pageload.PageLoadStalled` instead of
    returning a trace truncated at ``config.max_duration``, as
    :func:`~repro.web.pageload.load_page_strict` does for TCP.
    """
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
    result = _drive_visit(
        sim, _QuicFlowAdapter(client=client, server=server),
        profile.sample_page(rng), config, path.rtt, observer
    )
    if not result.completed:
        raise PageLoadStalled(profile.name, result)
    return result.trace


def quic_trial(
    config: PageLoadConfig,
    controller_factory: Optional[ControllerFactory],
    label: str,
    index: int,
    rng: np.random.Generator,
    watchdog: Optional[Callable[[], None]],
) -> Trace:
    """One QUIC visit of the catalogued site ``label``: the trial of
    QUIC collection, with ``config`` and ``controller_factory`` bound
    by :func:`functools.partial`.  The factory receives the visit's
    generator, so a defended visit's controller is seeded from the
    visit's coordinates alone.  QUIC collection sets no wall-clock
    deadline, so ``watchdog`` is always None."""
    controller = controller_factory(rng) if controller_factory is not None else None
    return load_page_quic(
        SITE_CATALOG[label], config, rng, server_controller=controller
    )


def collect_quic_dataset(
    n_samples: int = 100,
    sites: Optional[List[str]] = None,
    config: Optional[PageLoadConfig] = None,
    seed: int = 0,
    controller_factory: Optional[ControllerFactory] = None,
) -> Dataset:
    """A closed-world dataset of QUIC page loads: :func:`quic_trial`
    over :func:`~repro.web.pageload.collect_trials`, seeded visit by
    visit like its TCP twin.  Stalled visits are dropped."""
    spec = TrialSpec(
        functools.partial(quic_trial, config or PageLoadConfig(), controller_factory)
    )
    return collect_trials(spec, seed, sites or sorted(SITE_CATALOG), n_samples)
