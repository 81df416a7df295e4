"""QUIC packet representation.

A QUIC packet is one UDP datagram here (no coalescing).  Contents are
modelled as byte counts per frame type — stream data, ACK frames and
PADDING — because WF sees only datagram sizes and times.  Packets are
identified by monotonically increasing packet numbers and are never
retransmitted; lost *data* is re-packetised into new packets (a core
difference from TCP that loss detection relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.units import IPV4_HEADER, UDP_HEADER

#: Short-header QUIC packet overhead: flags+dcid+pn (~14) + AEAD tag 16.
QUIC_OVERHEAD = 30
#: Bytes on the wire that are not QUIC payload.
DATAGRAM_OVERHEAD = IPV4_HEADER + UDP_HEADER + QUIC_OVERHEAD
#: Default max datagram size (QUIC's conservative initial PMTU).
DEFAULT_DATAGRAM_SIZE = 1350


@dataclass
class QuicPacket:
    """One QUIC packet / UDP datagram.

    ``stream_ranges`` lists the stream byte ranges carried (offset
    pairs), so receivers can reassemble and loss recovery knows what to
    re-packetise.
    """

    flow_id: int
    direction: int
    packet_number: int
    stream_ranges: List[Tuple[int, int]] = field(default_factory=list)
    ack_largest: int = -1
    ack_ranges: tuple = ()
    padding_bytes: int = 0
    is_handshake: bool = False
    sent_at: float = -1.0
    #: Bytes on the wire (IP + UDP + QUIC overheads + frames), derived
    #: at construction: frames are final once a packet is built, and
    #: pacing, links, taps and loss recovery all read it per packet.
    wire_size: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        if self.padding_bytes < 0:
            raise ValueError(
                f"padding_bytes must be >= 0, got {self.padding_bytes}"
            )
        for start, end in self.stream_ranges:
            if end <= start:
                raise ValueError(f"bad stream range ({start}, {end})")
        ack_size = 8 + 4 * len(self.ack_ranges) if self.ack_largest >= 0 else 0
        self.wire_size = (
            DATAGRAM_OVERHEAD + self.stream_bytes + self.padding_bytes + ack_size
        )

    @property
    def stream_bytes(self) -> int:
        """Stream payload bytes carried."""
        return sum(end - start for start, end in self.stream_ranges)

    @property
    def is_ack_eliciting(self) -> bool:
        """Packets carrying anything but ACK frames elicit ACKs."""
        return bool(self.stream_ranges) or self.padding_bytes > 0 or self.is_handshake
