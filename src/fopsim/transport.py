"""Client and server TCP state machines for the three handshake variants.

Standard: plain three-way handshake, data only after establishment.
TFO: cached cookies keyed by the exact (src IP, dst IP, dst port) triple
authorize data in the SYN; the SYN-ACK of an initial or rejected attempt
carries a fresh plaintext cookie which replaces the cached one.
FOP: the TCP leg is wire-identical to TFO's 0-RTT flows, but a connection
is handed its cookie, the one its session ticket carried, and no kernel
cache: a ticket is taken once, so its cookie is used once, and a plaintext
cookie in a SYN-ACK is discarded instead of cached.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cookies
from .simcore import Endpoint, FoKind, Packet, TcpFlags

__all__ = [
    "SYN_PAYLOAD_BUDGET",
    "TcpVariant",
    "TfoClientCache",
    "ClientConn",
    "ServerConn",
]

SYN_PAYLOAD_BUDGET = 1400  # one data-bearing segment
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK


class TcpVariant(enum.Enum):
    STANDARD = "standard"
    TFO = "tfo"
    FOP = "fop"


class TfoClientCache:
    """Kernel-style Fast Open cookie cache, one per simulated host.

    Shared by every application on the host; survives application
    restarts, browser modes, and client address changes (stale entries
    simply stop matching because the source IP is part of the key).
    """

    def __init__(self):
        self._entries: dict[tuple[str, str, int], bytes] = {}

    def get(self, src_ip: str, dst_ip: str, dst_port: int) -> Optional[bytes]:
        return self._entries.get((src_ip, dst_ip, dst_port))

    def set(self, src_ip: str, dst_ip: str, dst_port: int, cookie: bytes) -> None:
        self._entries[(src_ip, dst_ip, dst_port)] = bytes(cookie)

    def ips_with_cookie(self, src_ip: str, candidate_ips, dst_port: int) -> list[str]:
        return [ip for ip in candidate_ips
                if (src_ip, ip, dst_port) in self._entries]


class ClientConn:
    """One client-side connection attempt. Given the host's kernel
    ``cache`` (tfo), it reads its cookie there, requests one when none is
    cached and caches the cookies SYN-ACKs hand out; else it presents
    ``cookie``, its ticket's (fop), if there is one. Once the SYN is sent,
    ``cookie`` is the cookie the SYN carried. ``established`` turns true
    when the SYN-ACK arrives; from then on a segment delivers its payload
    upward and a later SYN-ACK is ignored. The caller calls ``connect``
    once, and ``send_app`` only once ``established``."""

    def __init__(self, src: Endpoint, dst: Endpoint,
                 send: Callable[[Packet], None], *,
                 cache: Optional[TfoClientCache], cookie: Optional[bytes]):
        self.src = src
        self.dst = dst
        self.cache = cache
        self.cookie = cookie
        self._send = send

        self.established = False
        self.zero_rtt_accepted = False
        self.flight: bytes = b""  # rides the SYN when a cookie does

    def connect(self, first_flight: bytes) -> None:
        if len(first_flight) > SYN_PAYLOAD_BUDGET:
            raise ValueError("SYN payload exceeds budget")

        self.flight = first_flight
        cache = self.cache
        if cache is not None:
            self.cookie = cache.get(self.src.ip, self.dst.ip, self.dst.port)
        fo_kind, payload = FoKind.COOKIE, first_flight
        if self.cookie is None:  # the data waits; tfo asks for a cookie
            fo_kind = FoKind.ABSENT if cache is None else FoKind.REQUEST
            payload = b""

        self._send(Packet(src=self.src, dst=self.dst, flags=TcpFlags.SYN,
                          fo_kind=fo_kind, fo_cookie=self.cookie,
                          payload=payload))

    def on_packet(self, pkt: Packet) -> bytes:
        """Handle one segment; returns the payload it delivers upward,
        b"" when there is none."""
        if pkt.is_synack():
            return self._on_synack(pkt)
        return pkt.payload if self.established else b""

    def _on_synack(self, pkt: Packet) -> bytes:
        if self.established:
            return b""  # duplicate: ignored
        if pkt.fo_kind is FoKind.COOKIE and self.cache is not None:
            # tfo: initial issuance or cookie_2 replacement, Fast Open rules
            self.cache.set(self.src.ip, self.dst.ip, self.dst.port,
                           pkt.fo_cookie)
        self.established = True

        flight = self.flight
        if self.cookie is not None and flight and pkt.ack_len == len(flight):
            self.zero_rtt_accepted = True
            reply = b""
        else:
            reply = flight  # deferred, or rejected: (re)sent after the ACK
        self._send(Packet(src=self.src, dst=self.dst, flags=TcpFlags.ACK,
                          payload=reply))
        return pkt.payload

    def send_app(self, data: bytes) -> None:
        self._send(Packet(src=self.src, dst=self.dst, flags=TcpFlags.ACK,
                          payload=data))


@dataclass
class ServerConn:
    """A pool's Fast Open server, shared by all of its SYNs: its cookie key
    and the stream it mints from. The cookie a SYN presents and the one a
    SYN-ACK hands out ride in their packets' ``fo_cookie``."""

    key: cookies.ServerCookieKey
    rng: np.random.Generator

    def accept(self, syn: Packet) -> tuple[Packet, bytes]:
        """Process a SYN; returns (SYN-ACK, payload delivered upward).

        The returned payload is empty unless the SYN carried a validated
        cookie: data never reaches the application otherwise.
        """
        if not syn.is_syn():
            raise ValueError("not a SYN")
        ack_len = 0
        deliver = b""
        fo_kind = FoKind.ABSENT
        fo_cookie = None
        if syn.fo_kind is FoKind.REQUEST:
            fo_kind = FoKind.COOKIE
            fo_cookie = cookies.mint(self.key, syn.src.ip, self.rng)
        elif syn.fo_kind is FoKind.COOKIE:
            if cookies.validate(syn.fo_cookie, self.key, syn.src.ip):
                ack_len = len(syn.payload)
                deliver = syn.payload
            else:
                # invalid: drop data, hand out a replacement cookie
                fo_kind = FoKind.COOKIE
                fo_cookie = cookies.mint(self.key, syn.src.ip, self.rng)
        synack = Packet(src=syn.dst, dst=syn.src,
                        flags=_SYN_ACK,
                        fo_kind=fo_kind, fo_cookie=fo_cookie,
                        ack_len=ack_len)
        return synack, deliver
