"""Deterministic discrete-event network core.

Integer-millisecond clock, FIFO latency links with observer taps, NAT
address translation, and the per-hostname load-balancer eligibility model.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SimTime",
    "SimulationError",
    "Endpoint",
    "TcpFlags",
    "FoKind",
    "Packet",
    "Simulator",
    "Link",
    "NatGateway",
    "LoadBalancerModel",
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


_SYN = int(TcpFlags.SYN)
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)


class FoKind(enum.IntEnum):
    """Fast Open option tag as carried on the wire."""

    ABSENT = 0
    REQUEST = 1
    COOKIE = 2


@dataclass(slots=True)
class Packet:
    """A simulated TCP segment.

    ``ack_len`` is the number of payload bytes the segment acknowledges
    (0 = SYN only). ``conn_id`` is simulator bookkeeping and is excluded
    from captures; adversaries may read every other field.
    """

    src: Endpoint
    dst: Endpoint
    flags: TcpFlags
    fo_kind: FoKind = FoKind.ABSENT
    fo_cookie: Optional[bytes] = None
    ack_len: int = 0
    payload: bytes = b""
    conn_id: int = -1

    def __post_init__(self):
        if self.fo_kind is FoKind.COOKIE:
            if self.fo_cookie is None or len(self.fo_cookie) != 16:
                raise ValueError("Fast Open cookie option must carry exactly 16 bytes")
        elif self.fo_cookie is not None:
            raise ValueError("fo_cookie only valid with FoKind.COOKIE")

    def copy(self) -> "Packet":
        return Packet(self.src, self.dst, self.flags, self.fo_kind,
                      self.fo_cookie, self.ack_len, self.payload, self.conn_id)

    # Flag tests on plain ints: IntFlag's own operators run in Python.
    def is_syn(self) -> bool:
        return int(self.flags) & _SYN_ACK == _SYN

    def is_synack(self) -> bool:
        return int(self.flags) & _SYN_ACK == _SYN_ACK


class Simulator:
    """Single-threaded event loop; ties broken by scheduling order."""

    def __init__(self):
        self.now: SimTime = 0
        self._heap: list = []
        self._seq = 0

    def schedule(self, at: SimTime, action: Callable[[], None]) -> int:
        if at < self.now:
            raise SimulationError(f"cannot schedule at t={at} (clock is {self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (int(at), self._seq, action))
        return self._seq

    def run(self, until: Optional[SimTime] = None) -> None:
        heap, pop = self._heap, heapq.heappop
        if until is None:
            while heap:
                self.now, _, action = pop(heap)
                action()
            return
        while heap and heap[0][0] <= until:
            self.now, _, action = pop(heap)
            action()
        if until > self.now:
            self.now = until


Tap = Callable[[SimTime, Packet], None]


class Link:
    """Unidirectional link with fixed one-way delay and FIFO delivery.

    Taps receive a byte-exact copy of every packet at send time. Lossless
    by default; a ``loss_hook`` returning True drops a packet in flight
    (after taps, which observe everything sent).
    """

    def __init__(self, sim: Simulator, one_way_delay: SimTime,
                 deliver: Callable[[Packet], None], label: str = ""):
        if one_way_delay < 0:
            raise ValueError("one_way_delay must be >= 0")
        self.sim = sim
        self.one_way_delay = int(one_way_delay)
        self.deliver = deliver
        self.label = label
        self.taps: list[Tap] = []
        self.loss_hook: Optional[Callable[[Packet], bool]] = None

    def attach_tap(self, tap: Tap) -> None:
        self.taps.append(tap)

    def send(self, pkt: Packet) -> Optional[SimTime]:
        sim = self.sim
        if self.taps:
            for tap in self.taps:
                tap(sim.now, pkt.copy())
        if self.loss_hook is not None and self.loss_hook(pkt):
            return None
        arrival = sim.now + self.one_way_delay
        sim.schedule(arrival, partial(self.deliver, pkt))
        return arrival


class NatGateway:
    """Port-translating gateway; the public IP may change over time while
    local mappings persist."""

    def __init__(self, public_ip: str, first_port: int = 40001):
        self.public_ip = public_ip
        self._by_local: dict[Endpoint, int] = {}
        self._by_port: dict[int, Endpoint] = {}
        self._next_port = first_port

    def outbound(self, pkt: Packet) -> Packet:
        port = self._by_local.get(pkt.src)
        if port is None:
            port = self._next_port
            self._next_port += 1
            self._by_local[pkt.src] = port
            self._by_port[port] = pkt.src
        out = pkt.copy()
        out.src = Endpoint(self.public_ip, port)
        return out

    def inbound(self, pkt: Packet) -> Optional[Packet]:
        local = self._by_port.get(pkt.dst.port)
        if local is None:
            return None  # unmapped: dropped
        out = pkt.copy()
        out.dst = local
        return out

    def rotate_public_ip(self, new_ip: str) -> None:
        if new_ip == self.public_ip:
            raise ValueError("new public IP must differ from the current one")
        self.public_ip = new_ip


@dataclass
class LoadBalancerModel:
    """One hostname served from a pool of addresses sharing a cookie secret.

    ``failure_prob_by_revisit[r-1]`` is the probability that the r-th
    revisit is served from an address the client holds no cookie for;
    revisits past the end of the list reuse the last probability.
    """

    hostname: str
    ip_pool: Sequence[str]
    failure_prob_by_revisit: Sequence[float] = field(default_factory=lambda: (0.0,))

    def __post_init__(self):
        if not self.ip_pool:
            raise ValueError("ip_pool must be non-empty")
        for p in self.failure_prob_by_revisit:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"failure probability out of [0,1]: {p}")

    def prob_for(self, revisit: int) -> float:
        if revisit < 1:
            raise ValueError("revisit index starts at 1")
        probs = self.failure_prob_by_revisit
        if not probs:
            return 0.0
        return probs[min(revisit, len(probs)) - 1]

    def select(self, revisit: int, rng: np.random.Generator,
               held_ips: Iterable[str] = ()) -> tuple[str, bool]:
        """Pick the serving address for this connection.

        Returns (address, abbreviated_eligible). ``held_ips`` are the pool
        addresses the client currently holds cookies for; on a miss the
        serving address avoids all of them.
        """
        held_set = set(held_ips)
        held = [ip for ip in self.ip_pool if ip in held_set]
        if revisit < 1 or not held:
            return self.ip_pool[0], False
        miss = float(rng.random()) < self.prob_for(revisit)
        if not miss:
            return held[-1], True
        fresh = [ip for ip in self.ip_pool if ip not in held_set]
        if not fresh:
            raise SimulationError(
                f"pool for {self.hostname!r} cannot express a miss: "
                "all addresses already carry cookies (enlarge ip_pool)")
        # deterministic: first fresh address in pool order
        return fresh[0], False

