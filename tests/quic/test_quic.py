"""QUIC-lite endpoint tests."""

import numpy as np
import pytest

from repro.capture.trace import IN
from repro.quic.endpoint import QuicConfig, QuicEndpoint, make_quic_flow
from repro.quic.packet import DATAGRAM_OVERHEAD, QuicPacket
from repro.quic.pageload import collect_quic_dataset, load_page_quic
from repro.simnet.engine import Simulator
from repro.simnet.path import NetworkPath
from repro.stob.actions import SplitAction
from repro.stob.controller import StobController
from repro.units import mbps, msec, mib
from repro.web import PageLoadConfig, SITE_CATALOG
from repro.web.pageload import PageLoadStalled


def make(rate=mbps(30), rtt=msec(20), cc="cubic", loss=0.0, seed=1,
         buffer_bdp=1.0):
    sim = Simulator()
    path = NetworkPath(rate=rate, rtt=rtt, buffer_bdp=buffer_bdp,
                       loss_rate=loss)
    client, server, fwd, rev = make_quic_flow(
        sim, path, QuicConfig(cc=cc), QuicConfig(cc=cc),
        rng=np.random.default_rng(seed),
    )
    return sim, client, server, fwd, rev


# -- packet -----------------------------------------------------------------------


def test_packet_accounting():
    packet = QuicPacket(
        flow_id=1, direction=-1, packet_number=5,
        stream_ranges=[(0, 1000), (2000, 2500)],
    )
    assert packet.stream_bytes == 1500
    assert packet.wire_size == DATAGRAM_OVERHEAD + 1500
    assert packet.is_ack_eliciting


def test_ack_only_packet_not_eliciting():
    packet = QuicPacket(
        flow_id=1, direction=1, packet_number=1, ack_largest=5,
        ack_ranges=((0, 6),),
    )
    assert not packet.is_ack_eliciting
    assert packet.wire_size > DATAGRAM_OVERHEAD


def test_packet_validation():
    with pytest.raises(ValueError):
        QuicPacket(flow_id=1, direction=0, packet_number=0)
    with pytest.raises(ValueError):
        QuicPacket(flow_id=1, direction=1, packet_number=0,
                   stream_ranges=[(5, 5)])
    with pytest.raises(ValueError):
        QuicPacket(flow_id=1, direction=1, packet_number=0, padding_bytes=-1)


def test_config_validation():
    with pytest.raises(ValueError):
        QuicConfig(datagram_size=10)
    with pytest.raises(ValueError):
        QuicConfig(ack_every=0)
    assert QuicConfig().max_payload > 1000


# -- connection ----------------------------------------------------------------------


def test_handshake_establishes():
    sim, client, server, _f, _r = make()
    client.connect()
    sim.run(until=1.0)
    assert client.established and server.established


def test_handshake_initial_is_padded_to_1200():
    sim, client, server, fwd, _r = make()
    sizes = []
    original = fwd.send

    def spy(packet):
        sizes.append(packet.wire_size)
        return original(packet)

    fwd.send = spy
    client.connect()
    sim.run(until=1.0)
    assert sizes[0] == 1200


@pytest.mark.parametrize("cc", ["reno", "cubic", "bbr"])
def test_transfer_completes(cc):
    sim, client, server, _f, _r = make(cc=cc)
    server.on_established = lambda: server.write(mib(2))
    client.connect()
    sim.run(until=20.0)
    assert client.receive_buffer.delivered == mib(2)


def test_transfer_survives_random_loss():
    sim, client, server, _f, rev = make(loss=0.01, seed=3)
    server.on_established = lambda: server.write(mib(1))
    client.connect()
    sim.run(until=30.0)
    assert client.receive_buffer.delivered == mib(1)
    assert server.lost_packets > 0


def test_lost_packets_match_drops_without_random_loss():
    sim, client, server, _f, rev = make(buffer_bdp=0.4)
    server.on_established = lambda: server.write(mib(4))
    client.connect()
    sim.run(until=30.0)
    assert client.receive_buffer.delivered == mib(4)
    drops = rev.queue.dropped
    assert drops > 0
    assert server.lost_packets <= drops + 5  # PTO probes allowed


def test_datagram_sizes_capped_by_pmtu():
    sim, client, server, _f, rev = make()
    sizes = []
    original = rev.send

    def spy(packet):
        sizes.append(packet.wire_size)
        return original(packet)

    rev.send = spy
    server.on_established = lambda: server.write(500_000)
    client.connect()
    sim.run(until=10.0)
    assert max(sizes) <= QuicConfig().datagram_size


def test_padding_injection_observable_but_not_data():
    sim, client, server, _f, _r = make()

    def start():
        server.inject_padding(1000)
        server.write(10_000)

    server.on_established = start
    client.connect()
    sim.run(until=5.0)
    assert client.receive_buffer.delivered == 10_000
    assert client.padding_received > 0


def test_rtt_estimate_reasonable():
    sim, client, server, _f, _r = make(rtt=msec(40))
    server.on_established = lambda: server.write(mib(1))
    client.connect()
    sim.run(until=20.0)
    assert 0.039 <= server.srtt < 0.5


def test_stob_controller_shapes_quic_datagrams():
    sim, client, server, _f, rev = make()
    server.segment_controller = StobController(action=SplitAction(700, 2))
    sizes = []
    original = rev.send

    def spy(packet):
        if packet.stream_bytes:
            sizes.append(packet.stream_bytes)
        return original(packet)

    rev.send = spy
    server.on_established = lambda: server.write(200_000)
    client.connect()
    sim.run(until=10.0)
    assert client.receive_buffer.delivered == 200_000
    assert max(sizes) <= 700


def test_quic_page_load_produces_trace():
    trace = load_page_quic(
        SITE_CATALOG["wikipedia.org"], PageLoadConfig(),
        np.random.default_rng(9),
    )
    assert len(trace) > 50
    assert trace.incoming_bytes > trace.outgoing_bytes
    assert set(np.unique(trace.directions)) <= {1, -1}


def test_quic_page_load_deterministic():
    cfg = PageLoadConfig()
    a = load_page_quic(SITE_CATALOG["bing.com"], cfg, np.random.default_rng(4))
    b = load_page_quic(SITE_CATALOG["bing.com"], cfg, np.random.default_rng(4))
    assert len(a) == len(b)
    assert np.allclose(a.times, b.times)


def test_stalled_quic_visit_is_dropped_not_truncated():
    """A QUIC load that misses ``max_duration`` is a stall, as over
    TCP: the load raises and collection drops the visit instead of
    keeping a truncated trace."""
    config = PageLoadConfig(max_duration=0.3)
    with pytest.raises(PageLoadStalled) as stalled:
        load_page_quic(SITE_CATALOG["bing.com"], config, np.random.default_rng(1))
    assert not stalled.value.result.completed
    dataset = collect_quic_dataset(
        n_samples=1, sites=["bing.com"], config=config, seed=1
    )
    assert dataset.num_traces == 0
