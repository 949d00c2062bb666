"""Deterministic discrete-event network core.

Integer-millisecond clock, FIFO latency links with an optional wire log and
the per-revisit failure model that server pools draw from.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

__all__ = [
    "SimTime",
    "SimulationError",
    "Endpoint",
    "TcpFlags",
    "FoKind",
    "Packet",
    "Simulator",
    "Link",
    "REFERENCE_FAILURE_PROBS",
    "RevisitFailureModel",
]

SimTime = int  # milliseconds since simulation start


class SimulationError(Exception):
    pass


@dataclass(frozen=True, order=True, slots=True)
class Endpoint:
    ip: str
    port: int

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


class TcpFlags(enum.IntFlag):
    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8


_SYN = int(TcpFlags.SYN)
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)
_RST = int(TcpFlags.RST)
_OPENING = _SYN_ACK | _RST  # of these, a SYN sets SYN alone, a SYN-ACK no RST


class FoKind(enum.IntEnum):
    """Fast Open option tag as carried on the wire."""

    ABSENT = 0
    REQUEST = 1
    COOKIE = 2


@dataclass(slots=True)
class Packet:
    """A simulated TCP segment.

    ``ack_len`` is the number of payload bytes the segment acknowledges
    (0 = SYN only). Every field is on the wire: adversaries may read them
    all, and captures keep them all. A packet is not changed once it is
    sent: the receiver and a link's wire log hold the same object.
    """

    src: Endpoint
    dst: Endpoint
    flags: TcpFlags
    fo_kind: FoKind = FoKind.ABSENT
    fo_cookie: Optional[bytes] = None
    ack_len: int = 0
    payload: bytes = b""

    def __post_init__(self):
        if self.fo_kind is FoKind.COOKIE:
            if self.fo_cookie is None or len(self.fo_cookie) != 16:
                raise ValueError("Fast Open cookie option must carry exactly 16 bytes")
        elif self.fo_cookie is not None:
            raise ValueError("fo_cookie only valid with FoKind.COOKIE")

    def copy(self) -> "Packet":
        return Packet(self.src, self.dst, self.flags, self.fo_kind,
                      self.fo_cookie, self.ack_len, self.payload)

    # Flag tests on plain ints: IntFlag's own operators run in Python. A
    # segment with RST set is a RST, whatever else it carries.
    def is_syn(self) -> bool:
        return int(self.flags) & _OPENING == _SYN

    def is_synack(self) -> bool:
        return int(self.flags) & _OPENING == _SYN_ACK

    def is_rst(self) -> bool:
        return int(self.flags) & _RST != 0


class Simulator:
    """Single-threaded event loop; ties broken by scheduling order."""

    def __init__(self):
        self.now: SimTime = 0
        self._heap: list = []
        self._seq = 0

    def schedule(self, at: SimTime, action: Callable[[], None]) -> None:
        if at < self.now:
            raise SimulationError(f"cannot schedule at t={at} (clock is {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (int(at), self._seq, action))

    def run(self) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap:
            self.now, _, action = pop(heap)
            action()


class Link:
    """Unidirectional link with fixed one-way delay and FIFO delivery.

    ``send(pkt, deliver)`` calls ``deliver(pkt)`` one delay later: the
    sender names the receiver, so one link serves every host on its side.
    When ``tap`` is a list, every send appends ``(time, packet)`` to it:
    the packet itself, since no layer changes a packet once it is sent
    (one that rewrites an address, such as a NAT gateway, sends a copy).
    Lossless: the stack has no retransmission that would make loss
    meaningful."""

    def __init__(self, sim: Simulator, one_way_delay: SimTime):
        if one_way_delay < 0:
            raise ValueError("one_way_delay must be >= 0")
        self.sim = sim
        self.one_way_delay = int(one_way_delay)
        self.tap: Optional[list[tuple[SimTime, Packet]]] = None

    def send(self, pkt: Packet, deliver: Callable[[Packet], None]) -> None:
        sim = self.sim
        if self.tap is not None:
            self.tap.append((sim.now, pkt))
        sim.schedule(sim.now + self.one_way_delay, partial(deliver, pkt))


# Reference aggregates from the published large-scale measurement:
# 39.3% of first revisits and 24.7% of second revisits hit a fresh serving
# address (11876 and 7464 of 30218 hostnames: 0.39301 and 0.24700). The
# third value is back-solved from the reported 13.4% chance that all 20
# hosts of the sample website keep cookie-matching addresses on the third
# revisit: q^20 = 0.134.
REFERENCE_FAILURE_PROBS = (0.393, 0.247, 1.0 - 0.134 ** (1.0 / 20.0))


@dataclass(frozen=True)
class RevisitFailureModel:
    """p_by_revisit[r-1] = probability the r-th revisit is served from an
    address the client holds no cookie for (the abbreviated handshake
    misses)."""

    p_by_revisit: tuple[float, ...]

    def __post_init__(self):
        if not self.p_by_revisit:
            raise ValueError("at least one probability required")
        for p in self.p_by_revisit:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0,1]: {p}")

    @classmethod
    def reference(cls) -> "RevisitFailureModel":
        return cls(REFERENCE_FAILURE_PROBS)

    def prob_for(self, revisit: int) -> float:
        """Revisits beyond the configured list reuse the last probability."""
        if revisit < 1:
            raise ValueError("revisit index starts at 1")
        return self.p_by_revisit[min(revisit, len(self.p_by_revisit)) - 1]
