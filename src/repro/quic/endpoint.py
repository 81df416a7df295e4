"""QUIC-lite endpoint.

The endpoint owns one bidirectional stream (stream 0), reusing the
stack's send/receive buffers and congestion controllers.  It differs
from the TCP endpoint exactly where QUIC differs from TCP:

* data is carried in numbered packets that are never retransmitted —
  lost stream ranges are *re-packetised* into fresh packets;
* loss detection is packet-number based (packet threshold 3) plus a
  time threshold (9/8 of the latest RTT), per RFC 9002;
* acknowledgements carry packet-number ranges;
* pacing happens inside the endpoint (userspace), not in a qdisc;
* PADDING frames provide native cover traffic.

Stob hooks: the same ``segment_controller`` interface as
:class:`repro.stack.tcp.TcpEndpoint` — ``packet_sizes`` shapes datagram
payloads, ``departure_gap`` stretches the sequence; ``tso_size`` is
ignored (no TSO on this path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.engine import Event, Simulator
from repro.stack.buffers import ReceiveBuffer, SendBuffer
from repro.stack.cc import make_cca
from repro.stack.cc.base import AckSample
from repro.stack.intervals import RangeSet
from repro.stack.pacing import FlowPacer
from repro.quic.packet import (
    DATAGRAM_OVERHEAD,
    DEFAULT_DATAGRAM_SIZE,
    QuicPacket,
)

#: RFC 9002 constants.
PACKET_THRESHOLD = 3
TIME_THRESHOLD = 9.0 / 8.0
GRANULARITY = 0.001


@dataclass
class QuicConfig:
    """Endpoint tunables."""

    datagram_size: int = DEFAULT_DATAGRAM_SIZE
    cc: str = "cubic"
    pacing: bool = True
    ack_every: int = 2
    max_ack_delay: float = 0.025
    initial_rtt: float = 0.1

    def __post_init__(self) -> None:
        if self.datagram_size <= DATAGRAM_OVERHEAD:
            raise ValueError(
                f"datagram_size must exceed overhead {DATAGRAM_OVERHEAD}, "
                f"got {self.datagram_size}"
            )
        if self.ack_every < 1:
            raise ValueError(f"ack_every must be >= 1, got {self.ack_every}")

    @property
    def max_payload(self) -> int:
        """Stream bytes per full datagram."""
        return self.datagram_size - DATAGRAM_OVERHEAD


class QuicEndpoint:
    """One side of a QUIC connection."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        direction: int,
        send_datagram: Callable[[QuicPacket], None],
        config: Optional[QuicConfig] = None,
    ) -> None:
        self._sim = sim
        self.flow_id = flow_id
        self.direction = direction
        self._send_datagram = send_datagram
        self.config = config or QuicConfig()

        self.send_buffer = SendBuffer()
        self.receive_buffer = ReceiveBuffer()
        self.cca = make_cca(self.config.cc, self.config.max_payload)
        self.pacer = FlowPacer()
        self.segment_controller = None

        self.established = False
        self.on_established: Optional[Callable[[], None]] = None

        # Sender state.
        self._next_pn = 0
        self._sent: Dict[int, QuicPacket] = {}
        #: Lowest packet number that may still be in ``_sent``.
        self._sent_floor = 0
        self.bytes_in_flight = 0
        self._largest_acked = -1
        self._lost_ranges = RangeSet()
        self._delivered_ranges = RangeSet()
        self._srtt = -1.0
        self._rttvar = 0.0
        self._latest_rtt = -1.0
        self._pto_timer: Optional[Event] = None
        self._pto_count = 0
        self.packets_sent = 0
        self.lost_packets = 0
        self.delivered = 0
        self._loss_epoch_pn = -1
        #: Actual transmission time per packet number (RTT sampling).
        self._stamp_cache: Dict[int, float] = {}

        # Receiver state.
        self._received_pns = RangeSet()
        self._largest_received = -1
        self._ack_pending = 0
        self._ack_timer: Optional[Event] = None
        self.padding_received = 0

    # ------------------------------------------------------------------ app API

    @property
    def srtt(self) -> float:
        return self._srtt

    def connect(self) -> None:
        """Client handshake: one padded Initial packet."""
        if self.established:
            return
        packet = QuicPacket(
            flow_id=self.flow_id,
            direction=self.direction,
            packet_number=self._allocate_pn(),
            padding_bytes=1200 - DATAGRAM_OVERHEAD,
            is_handshake=True,
        )
        self._transmit(packet)
        self._arm_pto()

    def write(self, nbytes: int) -> int:
        """Post stream data (transmitted asynchronously)."""
        taken = self.send_buffer.write(nbytes)
        self.try_send()
        return taken

    def on_data(self, callback: Callable[[int], None]) -> None:
        self.receive_buffer.on_data(callback)

    def inject_padding(self, nbytes: int) -> None:
        """Send a PADDING-only packet (native QUIC cover traffic)."""
        if nbytes <= 0:
            return
        packet = QuicPacket(
            flow_id=self.flow_id,
            direction=self.direction,
            packet_number=self._allocate_pn(),
            padding_bytes=min(nbytes, self.config.max_payload),
        )
        self._transmit(packet, count_in_flight=False)

    # ------------------------------------------------------------------ sending

    def _allocate_pn(self) -> int:
        pn = self._next_pn
        self._next_pn += 1
        return pn

    def _pacing_rate(self) -> Optional[float]:
        if not self.config.pacing:
            return None
        return self.cca.pacing_rate(self._srtt)

    def try_send(self) -> None:
        """Packetise lost ranges first, then new data, window-limited."""
        if not self.established:
            return
        # Reserve room for the piggybacked ACK frame (<= 20 bytes) so
        # a full data packet never exceeds the datagram size.
        budget = self.config.max_payload - 20
        while self.bytes_in_flight < self.cca.cwnd:
            ranges = self._take_ranges(budget)
            if not ranges:
                break
            self._send_stream_packet(ranges)

    def _take_ranges(self, budget: int) -> List[Tuple[int, int]]:
        """Stream ranges for one packet: retransmittable data first."""
        ranges: List[Tuple[int, int]] = []
        while budget > 0 and self._lost_ranges:
            start, end = self._lost_ranges.ranges[0]
            take = min(end - start, budget)
            self._lost_ranges.remove(start, start + take)
            ranges.append((start, start + take))
            budget -= take
        if budget > 0:
            fresh = self.send_buffer.take(budget)
            if fresh:
                start = self.send_buffer.nxt - fresh
                ranges.append((start, start + fresh))
        return ranges

    def _send_stream_packet(self, ranges: List[Tuple[int, int]]) -> None:
        controller = self.segment_controller
        total = sum(end - start for start, end in ranges)
        if controller is not None:
            sizes = controller.packet_sizes(self, total, self.config.max_payload)
        else:
            sizes = None
        if not sizes:
            sizes = [total]
        # Split the taken ranges across the dictated packet sizes.
        queue = list(ranges)
        for size in sizes:
            packet_ranges: List[Tuple[int, int]] = []
            need = size
            while need > 0 and queue:
                start, end = queue.pop(0)
                take = min(end - start, need)
                packet_ranges.append((start, start + take))
                if start + take < end:
                    queue.insert(0, (start + take, end))
                need -= take
            if packet_ranges:
                self._emit(packet_ranges)
        for leftover in queue:  # controller under-packetised: recycle
            self._lost_ranges.add(*leftover)

    def _emit(self, packet_ranges: List[Tuple[int, int]]) -> None:
        packet = QuicPacket(
            flow_id=self.flow_id,
            direction=self.direction,
            packet_number=self._allocate_pn(),
            stream_ranges=packet_ranges,
            ack_largest=self._largest_received,
            ack_ranges=tuple(self._received_pns.ranges[-3:]),
        )
        self._transmit(packet)

    def _transmit(self, packet: QuicPacket, count_in_flight: bool = True) -> None:
        extra_gap = 0.0
        controller = self.segment_controller
        if controller is not None:
            extra_gap = max(0.0, controller.departure_gap(self, packet))
        departure = self.pacer.schedule(
            self._sim.now, packet.wire_size, self._pacing_rate(), extra_gap
        )
        self.packets_sent += 1
        if count_in_flight and packet.is_ack_eliciting:
            self._sent[packet.packet_number] = packet
            self.bytes_in_flight += packet.wire_size
        delay = max(0.0, departure - self._sim.now)
        self._sim.schedule(delay, self._make_sender(packet))
        if packet.is_ack_eliciting:
            self._arm_pto()

    def _make_sender(self, packet: QuicPacket) -> Callable[[], None]:
        def fire() -> None:
            packet.sent_at = self._sim.now
            if packet.is_ack_eliciting:
                self._stamp_cache[packet.packet_number] = self._sim.now
            self._send_datagram(packet)

        return fire

    # ------------------------------------------------------------------ receiving

    def on_packet(self, packet: QuicPacket) -> None:
        """Entry point for arriving datagrams."""
        if packet.is_handshake and not self.established:
            self.established = True
            if self.direction == -1:
                # Server replies with its own handshake packet.
                reply = QuicPacket(
                    flow_id=self.flow_id,
                    direction=self.direction,
                    packet_number=self._allocate_pn(),
                    padding_bytes=1200 - DATAGRAM_OVERHEAD,
                    is_handshake=True,
                )
                self._transmit(reply)
            else:
                self._cancel_pto()
            if self.on_established is not None:
                self.on_established()
            self.try_send()
        self._largest_received = max(
            self._largest_received, packet.packet_number
        )
        self._received_pns.add(packet.packet_number, packet.packet_number + 1)
        self.padding_received += packet.padding_bytes
        for start, end in packet.stream_ranges:
            self.receive_buffer.receive(start, end - start)
        if packet.ack_largest >= 0:
            self._handle_ack(packet)
        if packet.is_ack_eliciting:
            self._ack_pending += 1
            out_of_order = len(self._received_pns) > 1
            if self._ack_pending >= self.config.ack_every or out_of_order:
                self._send_ack()
            elif self._ack_timer is None or self._ack_timer.cancelled:
                self._ack_timer = self._sim.schedule(
                    self.config.max_ack_delay, self._ack_timer_fire
                )

    def _ack_timer_fire(self) -> None:
        self._ack_timer = None
        if self._ack_pending:
            self._send_ack()

    def _send_ack(self) -> None:
        self._ack_pending = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        packet = QuicPacket(
            flow_id=self.flow_id,
            direction=self.direction,
            packet_number=self._allocate_pn(),
            ack_largest=self._largest_received,
            ack_ranges=tuple(self._received_pns.ranges[-3:]),
        )
        self._transmit(packet, count_in_flight=False)

    # ------------------------------------------------------------------ ACK clock

    def _handle_ack(self, packet: QuicPacket) -> None:
        # Every packet number below the floor has left ``_sent`` for
        # good (numbers are never reused), so ranges are walked from the
        # floor rather than from their start: linear, not quadratic, in
        # connection length.
        sent = self._sent
        floor = self._sent_floor
        while floor < self._next_pn and floor not in sent:
            floor += 1
        self._sent_floor = floor
        acked_pns = [
            pn
            for start, end in packet.ack_ranges
            for pn in range(max(start, floor), min(end, packet.ack_largest + 1))
            if pn in sent
        ]
        if packet.ack_largest in sent:
            acked_pns.append(packet.ack_largest)
        if not acked_pns:
            return
        acked_pns = sorted(set(acked_pns))
        newly_acked_bytes = 0
        largest = max(acked_pns)
        for pn in acked_pns:
            sent = self._sent.pop(pn)
            self.bytes_in_flight -= sent.wire_size
            newly_acked_bytes += sent.wire_size
            for start, end in sent.stream_ranges:
                self._delivered_ranges.add(start, end)
                self._lost_ranges.remove(start, end)
        self._largest_acked = max(self._largest_acked, largest)
        self._advance_delivery()
        self._pto_count = 0

        # RTT sample from the largest newly acked packet.
        stamp = self._stamp_cache.pop(largest, None)
        for pn in acked_pns:
            self._stamp_cache.pop(pn, None)
        if stamp is not None:
            self._latest_rtt = self._sim.now - stamp
            self._rtt_sample(self._latest_rtt)

        sample = AckSample(
            acked_bytes=newly_acked_bytes,
            rtt=self._latest_rtt,
            now=self._sim.now,
            in_flight=self.bytes_in_flight,
            delivery_rate=0.0,
        )
        self.cca.on_ack(sample)
        self._detect_losses()
        if self._sent:
            self._arm_pto(restart=True)
        else:
            self._cancel_pto()
        self.try_send()

    def _rtt_sample(self, rtt: float) -> None:
        if rtt <= 0:
            return
        if self._srtt < 0:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            err = rtt - self._srtt
            self._srtt += 0.125 * err
            self._rttvar += 0.25 * (abs(err) - self._rttvar)

    def _advance_delivery(self) -> None:
        """Cumulative delivered-byte accounting (for completion checks)."""
        ranges = self._delivered_ranges.ranges
        if ranges and ranges[0][0] <= self.delivered:
            self.delivered = max(self.delivered, ranges[0][1])

    # ------------------------------------------------------------------ loss

    def _detect_losses(self) -> None:
        """RFC 9002: packet + time thresholds below the largest acked."""
        threshold_pn = self._largest_acked - PACKET_THRESHOLD
        rtt = max(self._latest_rtt, self._srtt, GRANULARITY)
        threshold_time = self._sim.now - TIME_THRESHOLD * rtt
        lost: List[int] = []
        for pn, packet in self._sent.items():
            if pn >= self._largest_acked:
                continue
            if pn <= threshold_pn or (
                0 <= packet.sent_at <= threshold_time
            ):
                lost.append(pn)
        if not lost:
            return
        for pn in lost:
            packet = self._sent.pop(pn)
            self.bytes_in_flight -= packet.wire_size
            self.lost_packets += 1
            for start, end in packet.stream_ranges:
                # Re-packetise anything not already delivered.
                self._lost_ranges.add(start, end)
                for d_start, d_end in self._delivered_ranges.ranges:
                    self._lost_ranges.remove(d_start, d_end)
        # One congestion event per loss epoch (burst of losses).
        if max(lost) > self._loss_epoch_pn:
            self._loss_epoch_pn = self._next_pn
            self.cca.on_loss(self._sim.now, self.bytes_in_flight)
            exit_check = getattr(self.cca, "on_recovery_exit", None)
            if exit_check is not None:
                # QUIC has no explicit recovery-exit ACK; leave recovery
                # one RTT later.
                self._sim.schedule(
                    rtt, lambda: self.cca.on_recovery_exit(self._sim.now)
                )

    # ------------------------------------------------------------------ PTO

    def _pto_interval(self) -> float:
        if self._srtt < 0:
            base = self.config.initial_rtt * 2
        else:
            base = self._srtt + max(4 * self._rttvar, GRANULARITY)
            base += self.config.max_ack_delay
        return base * (2 ** min(self._pto_count, 6))

    def _arm_pto(self, restart: bool = False) -> None:
        if self._pto_timer is not None and not self._pto_timer.cancelled:
            if not restart:
                return
            self._pto_timer.cancel()
        self._pto_timer = self._sim.schedule(self._pto_interval(), self._pto_fire)

    def _cancel_pto(self) -> None:
        if self._pto_timer is not None:
            self._pto_timer.cancel()
            self._pto_timer = None

    def _pto_fire(self) -> None:
        self._pto_timer = None
        self._pto_count += 1
        if not self.established:
            self.connect()  # retry handshake
            return
        # Probe: re-packetise the oldest unacked ranges.
        if self._sent:
            oldest = min(self._sent)
            packet = self._sent.pop(oldest)
            self.bytes_in_flight -= packet.wire_size
            self.lost_packets += 1
            for start, end in packet.stream_ranges:
                self._lost_ranges.add(start, end)
                for d_start, d_end in self._delivered_ranges.ranges:
                    self._lost_ranges.remove(d_start, d_end)
            self.cca.on_rto(self._sim.now)
            self.try_send()
        if self._sent or self._lost_ranges:
            self._arm_pto(restart=True)


def make_quic_flow(
    sim: Simulator,
    path,
    client_config: Optional[QuicConfig] = None,
    server_config: Optional[QuicConfig] = None,
    rng=None,
    client_tap: Optional[Callable[[QuicPacket, float], None]] = None,
    server_tap: Optional[Callable[[QuicPacket, float], None]] = None,
):
    """Client/server QUIC endpoints over a NetworkPath (UDP has no
    qdisc here: QUIC paces in userspace).

    ``client_tap``/``server_tap`` observe datagrams each side sends
    (the WF vantage points, matching the TCP NIC taps).
    """
    from repro.stack.host import next_flow_id

    flow_id = next_flow_id()
    holder = {}

    def to_server(packet: QuicPacket) -> None:
        if client_tap is not None:
            client_tap(packet, sim.now)
        holder["forward"].send(packet)

    def to_client(packet: QuicPacket) -> None:
        if server_tap is not None:
            server_tap(packet, sim.now)
        holder["reverse"].send(packet)

    client = QuicEndpoint(sim, flow_id, 1, to_server, client_config)
    server = QuicEndpoint(sim, flow_id, -1, to_client, server_config)
    forward, reverse = path.build_links(
        sim,
        forward_receiver=server.on_packet,
        reverse_receiver=client.on_packet,
        rng=rng,
    )
    holder["forward"] = forward
    holder["reverse"] = reverse
    return client, server, forward, reverse
