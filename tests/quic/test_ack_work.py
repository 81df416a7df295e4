"""QUIC ACK processing does linear work in connection length.

A deterministic work count, not a wall-clock bound: the endpoints'
in-flight maps are swapped for a dict that counts membership checks
(the unit of work of ACK-range processing), and a transfer of twice the
bytes may do at most ~2.5x the checks.  Rescanning every ACK range from
its start, as the endpoint once did, grows the count quadratically
(about 4x per doubling).
"""

import numpy as np

from repro.quic.endpoint import QuicConfig, make_quic_flow
from repro.simnet.engine import Simulator
from repro.simnet.path import NetworkPath
from repro.units import kib, mbps, msec


class CountingDict(dict):
    """A dict that counts ``in`` checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.contains_calls = 0

    def __contains__(self, key):
        self.contains_calls += 1
        return super().__contains__(key)


def membership_checks(page_bytes: int) -> int:
    """Checks made while one synthetic one-object page downloads."""
    sim = Simulator()
    path = NetworkPath(rate=mbps(30), rtt=msec(20), buffer_bdp=1.0)
    client, server, _fwd, _rev = make_quic_flow(
        sim, path, QuicConfig(), QuicConfig(), rng=np.random.default_rng(1)
    )
    for endpoint in (client, server):
        endpoint._sent = CountingDict(endpoint._sent)
    server.on_established = lambda: server.write(page_bytes)
    client.connect()
    sim.run(until=60.0)
    assert client.receive_buffer.delivered == page_bytes
    return client._sent.contains_calls + server._sent.contains_calls


def test_ack_membership_checks_grow_linearly_with_page_bytes():
    small = membership_checks(kib(512))
    large = membership_checks(kib(1024))
    assert small > 0
    assert large <= 2.5 * small, (small, large, large / small)
