"""Simplified TLS 1.3 channel with RTT-faithful full and 0-RTT handshakes.

Key exchange is a real X25519 agreement and records are AES-GCM sealed, so
confidentiality against wire observers holds mechanically, not by fiat.
Each session's ``on_bytes`` takes the peer's bytes and returns the bytes
to send back. Session tickets ride inside sealed records and may embed a
Fast Open cookie; the client caches them per (hostname, context), where
a context is the application's label for the visit or None, with FIFO
single-use consumption and an age limit counted from the issue time
sealed in each ticket.

Record framing: 2-byte big-endian body length, 1 tag byte, body.
Tags: 0 handshake (plaintext body), 1 ticket (sealed), 2 app (sealed),
3 early app data (sealed under the pre-handshake resumption key).

Hellos follow RFC 8446 psk_ke (section 4.2.9): a resumed handshake does no
X25519 work on either side. A CHLO that offers a ticket (FLAG_PSK) is
``type | flags | client random (16) | ticket id (16) | hostname``, with no
key share; any other CHLO is ``type | flags | client random (16) | X25519
share (32) | hostname``. The client loads its X25519 key from the scalar it
drew only when it sends a share. A SHLO has one of three layouts, chosen
by its flags byte. A full handshake sends ``type | flags | server random
(16) | X25519 share (32) | hostname``; an accepted ticket (SHLO_PSK_OK)
sends ``type | flags | server random (16) | hostname``. A server that does
not hold the offered ticket answers with a HelloRetryRequest
(SHLO_RETRY alone): ``type | flags | hostname``, which takes no draw. The
client then sends a second CHLO with its share, no ticket and no early
data, so a rejected ticket costs one extra round trip.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import cookies
from .rngtools import random_bytes
from .simcore import SimTime

__all__ = [
    "REC_HANDSHAKE",
    "REC_TICKET",
    "REC_APP",
    "REC_EARLY",
    "ChannelError",
    "DirectionalKey",
    "SessionTicket",
    "ClientTlsCache",
    "ClientSession",
    "ServerSession",
    "frame",
    "parse_records",
    "seal_record",
]

REC_HANDSHAKE = 0
REC_TICKET = 1
REC_APP = 2
REC_EARLY = 3

MSG_CHLO = 1
MSG_SHLO = 2

FLAG_FOP = 1
FLAG_PSK = 2
FLAG_EARLY = 4
_CHLO_FLAGS = FLAG_FOP | FLAG_PSK | FLAG_EARLY

SHLO_PSK_OK = 1
SHLO_FOP_OK = 2
SHLO_RETRY = 4
_SHLO_FLAGS = SHLO_PSK_OK | SHLO_FOP_OK | SHLO_RETRY

REQUEST = b"GET /"  # what every client session asks for
RESPONSE = b"resp"  # what every server session answers


class ChannelError(Exception):
    pass


def frame(tag: int, body: bytes) -> bytes:
    if len(body) > 0xFFFF:
        raise ChannelError("record body too large")
    return struct.pack(">HB", len(body), tag) + body


def parse_records(data: bytes) -> list[tuple[int, bytes]]:
    records = []
    off = 0
    while off < len(data):
        if off + 3 > len(data):
            raise ChannelError("truncated record header")
        length, tag = struct.unpack_from(">HB", data, off)
        off += 3
        if off + length > len(data):
            raise ChannelError("truncated record body")
        records.append((tag, data[off:off + length]))
        off += length
    return records


def _kdf(secret: bytes, label: bytes, *parts: bytes) -> bytes:
    return hashlib.blake2b(b"".join(parts), key=secret, digest_size=16,
                           person=label.ljust(16, b"\x00")).digest()


def _master_secret(priv: X25519PrivateKey, peer_pub: bytes) -> bytes:
    """The X25519 agreement with ``peer_pub``, run through the KDF. A
    low-order share, such as all zeros, has no shared secret."""
    try:
        shared = priv.exchange(X25519PublicKey.from_public_bytes(peer_pub))
    except ValueError as exc:
        raise ChannelError("invalid key share") from exc
    return _kdf(shared, b"master")


def derive_record_key(secret: bytes, direction: bytes, client_random: bytes,
                      server_random: bytes) -> bytes:
    """The record key of one ``direction``, b"c2s" or b"s2c". Each side
    derives its keys when the hello is answered: a resumed client's
    request is early data, so neither side derives its c2s key."""
    return _kdf(secret, direction, client_random, server_random)


def derive_early_key(secret: bytes, client_random: bytes) -> bytes:
    return _kdf(secret, b"early", client_random)


class DirectionalKey:
    """AEAD key with a per-direction nonce counter; one instance per side
    per direction, kept in sync by in-order delivery."""

    def __init__(self, key: bytes):
        self._aead = AESGCM(key)
        self._seq = 0

    def seal(self, plaintext: bytes, tag: int) -> bytes:
        nonce = self._seq.to_bytes(12, "big")
        self._seq += 1
        return self._aead.encrypt(nonce, plaintext, bytes([tag]))

    def open(self, ciphertext: bytes, tag: int) -> bytes:
        nonce = self._seq.to_bytes(12, "big")
        try:
            plaintext = self._aead.decrypt(nonce, ciphertext, bytes([tag]))
        except InvalidTag as exc:
            raise ChannelError("record authentication failed") from exc
        self._seq += 1
        return plaintext


def seal_record(key: DirectionalKey, tag: int, plaintext: bytes) -> bytes:
    return frame(tag, key.seal(plaintext, tag))


@dataclass
class SessionTicket:
    ticket_id: bytes
    resumption_secret: bytes
    embedded_cookie: Optional[bytes]
    issued_at: SimTime

    def encode(self) -> bytes:
        cookie = self.embedded_cookie or b""
        return (self.ticket_id + self.resumption_secret
                + bytes([1 if cookie else 0]) + cookie
                + struct.pack(">Q", self.issued_at))

    @classmethod
    def decode(cls, body: bytes) -> "SessionTicket":
        if len(body) < 33:
            raise ChannelError("malformed ticket")
        ticket_id, secret = body[:16], body[16:32]
        off = 33
        cookie = None
        if body[32] == 1:
            cookie = body[off:off + 16]
            off += 16
        elif body[32]:
            raise ChannelError("malformed ticket: cookie flag must be 0 or 1")
        if len(body) != off + 8:
            raise ChannelError("malformed ticket")
        (issued_at,) = struct.unpack_from(">Q", body, off)
        return cls(ticket_id, secret, cookie, issued_at)


class ClientTlsCache:
    """Per-client ticket cache keyed by (hostname, context), where the
    context is a label the application chose, or None for no label.

    Multiple tickets per key are consumed FIFO; a taken ticket is removed
    (single use) and tickets issued longer ago than the lifetime are
    purged. A ticket's age counts from its ``issued_at``, as RFC 8446
    section 4.6.1 counts ``ticket_lifetime`` from issuance.
    """

    def __init__(self):
        self._entries: dict[tuple[str, Optional[str]],
                            deque[SessionTicket]] = {}

    def store(self, hostname: str, context: Optional[str],
              ticket: SessionTicket) -> None:
        key = (hostname, context)
        self._entries.setdefault(key, deque()).append(ticket)

    def take(self, hostname: str, context: Optional[str], now: SimTime,
             lifetime: Optional[int]) -> Optional[SessionTicket]:
        key = (hostname, context)
        queue = self._entries.get(key)
        if not queue:
            return None
        while queue:
            ticket = queue.popleft()
            if lifetime is None or now - ticket.issued_at <= lifetime:
                if not queue:
                    del self._entries[key]
                return ticket
        del self._entries[key]
        return None

    def clear(self) -> None:
        self._entries.clear()


def _encode_chlo(flags: int, client_random: bytes, pub: Optional[bytes],
                 ticket_id: Optional[bytes], hostname: str) -> bytes:
    """A CHLO: it carries ``ticket_id`` when FLAG_PSK is set, else the key
    share ``pub``; the other one is None."""
    host = hostname.encode("utf-8")
    return (bytes([MSG_CHLO, flags]) + client_random
            + (ticket_id if flags & FLAG_PSK else pub)
            + bytes([len(host)]) + host)


def _decode_hostname(body: bytes, off: int) -> str:
    """The length-prefixed hostname at ``off``, which ends a hello."""
    if len(body) <= off or len(body) < off + 1 + body[off]:
        raise ChannelError("truncated hello")
    end = off + 1 + body[off]
    if len(body) > end:
        raise ChannelError("trailing bytes after hello")
    try:
        return body[off + 1:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChannelError("hostname is not UTF-8") from exc


def _decode_flags(body: bytes, known: int) -> int:
    if len(body) < 2:
        raise ChannelError("truncated hello")
    if body[1] & ~known:
        raise ChannelError(f"unknown hello flags {body[1]:#04x}")
    return body[1]


def _decode_chlo(body: bytes) -> tuple[int, bytes, Optional[bytes],
                                       Optional[bytes], str]:
    """(flags, client random, key share, ticket id, hostname); exactly one
    of the key share and the ticket id is None."""
    flags = _decode_flags(body, _CHLO_FLAGS)
    if flags & FLAG_EARLY and not flags & FLAG_PSK:
        raise ChannelError("early data offered without a ticket")
    if flags & FLAG_PSK:
        hostname = _decode_hostname(body, 34)
        return flags, body[2:18], None, body[18:34], hostname
    hostname = _decode_hostname(body, 50)
    return flags, body[2:18], body[18:50], None, hostname


def _encode_shlo(flags: int, server_random: Optional[bytes],
                 pub: Optional[bytes], hostname: str) -> bytes:
    """A SHLO. ``pub`` is None when SHLO_PSK_OK or SHLO_RETRY is set, and
    ``server_random`` is None exactly when SHLO_RETRY is."""
    host = hostname.encode("utf-8")
    return (bytes([MSG_SHLO, flags]) + (server_random or b"") + (pub or b"")
            + bytes([len(host)]) + host)


def _decode_shlo(body: bytes) -> tuple[int, Optional[bytes], Optional[bytes],
                                       str]:
    """(flags, server random, key share, hostname). An accepted PSK
    carries no key share, and a retry request neither a random nor a
    share: each missing field is None."""
    flags = _decode_flags(body, _SHLO_FLAGS)
    if flags & SHLO_RETRY:
        if flags != SHLO_RETRY:
            raise ChannelError("retry request with other hello flags")
        return flags, None, None, _decode_hostname(body, 2)
    if flags & SHLO_PSK_OK:
        return flags, body[2:18], None, _decode_hostname(body, 18)
    hostname = _decode_hostname(body, 50)
    return flags, body[2:18], body[18:50], hostname


class ClientSession:
    """Client half of the channel for one connection.

    ``ticket`` is offered for resumption until the server asks for a
    retry. ``on_bytes`` returns the bytes to send back; each ticket the
    server sends is stored in ``cache`` under ``hostname`` and
    ``context`` (the visit's label, or None) as it is opened, and its
    response is kept in ``response``."""

    def __init__(self, hostname: str, rng: np.random.Generator,
                 cache: ClientTlsCache, context: Optional[str], *, fop: bool,
                 ticket: Optional[SessionTicket]):
        self.hostname = hostname
        self.cache = cache
        self.context = context
        self.fop = fop
        self.ticket = ticket

        drawn = random_bytes(rng, 48)  # client random, X25519 scalar
        self.client_random = drawn[:16]
        self._scalar = drawn[16:]
        self._priv: Optional[X25519PrivateKey] = None  # loaded with a share

        self.established = False
        self.resumption_accepted = False
        self.response: Optional[bytes] = None
        self._recv_key: Optional[DirectionalKey] = None

    def _chlo(self) -> bytes:
        """The CHLO record: the ticket's id when one is offered (psk_ke),
        else a key share."""
        flags = FLAG_FOP if self.fop else 0
        if self.ticket is not None:
            chlo = _encode_chlo(flags | FLAG_PSK | FLAG_EARLY,
                                self.client_random, None,
                                self.ticket.ticket_id, self.hostname)
        else:
            self._priv = X25519PrivateKey.from_private_bytes(self._scalar)
            chlo = _encode_chlo(flags, self.client_random,
                                self._priv.public_key().public_bytes_raw(),
                                None, self.hostname)
        return frame(REC_HANDSHAKE, chlo)

    def first_flight(self) -> bytes:
        flight = self._chlo()
        if self.ticket is not None:
            early = DirectionalKey(derive_early_key(
                self.ticket.resumption_secret, self.client_random))
            flight += seal_record(early, REC_EARLY, REQUEST)
        return flight

    def on_bytes(self, data: bytes) -> bytes:
        """Process the server's ``data``; returns the bytes to send."""
        out = b""
        for tag, body in parse_records(data):
            if tag == REC_HANDSHAKE:
                out += self._on_shlo(body)
            elif self._recv_key is not None:
                plaintext = self._recv_key.open(body, tag)
                if tag == REC_TICKET:
                    self.cache.store(self.hostname, self.context,
                                     SessionTicket.decode(plaintext))
                elif tag == REC_APP:
                    self.response = plaintext
            else:
                raise ChannelError("sealed record before handshake completed")
        return out

    def _on_shlo(self, body: bytes) -> bytes:
        if not body or body[0] != MSG_SHLO or self.established:
            raise ChannelError("unexpected handshake message")
        flags, server_random, server_pub, host_echo = _decode_shlo(body)
        if host_echo != self.hostname:
            raise ChannelError(
                f"hostname authentication failed: wanted {self.hostname!r}, "
                f"peer is {host_echo!r}")
        if flags & SHLO_RETRY:
            # the server does not hold the ticket: offer a key share instead,
            # once; the early data it carried was discarded
            if self.ticket is None:
                raise ChannelError("retry requested but no ticket offered")
            self.ticket = None
            return self._chlo()
        if flags & SHLO_PSK_OK:
            if self.ticket is None:
                raise ChannelError("resumption accepted but no ticket offered")
            secret = self.ticket.resumption_secret
            self.resumption_accepted = True
        elif self._priv is None:
            raise ChannelError("full handshake but no key share offered")
        else:
            secret = _master_secret(self._priv, server_pub)
        self._recv_key = DirectionalKey(derive_record_key(
            secret, b"s2c", self.client_random, server_random))
        self.established = True
        if self.resumption_accepted:
            return b""  # the early data was the request
        send_key = DirectionalKey(derive_record_key(
            secret, b"c2s", self.client_random, server_random))
        return seal_record(send_key, REC_APP, REQUEST)


class ServerSession:
    """Server half of the channel for one connection, which answers one
    CHLO, after at most one retry request, and then one request.

    Needs the pool's shared cookie key, ticket store, and served hostnames;
    ``client_ip`` is the wire-visible peer address used to mint embedded
    cookies, and each cookie it mints into a ticket is appended to
    ``issued_cookies`` as it is minted. ``on_bytes`` returns the bytes to
    send back, and ``responded`` is set once the session has answered.
    Its keys are derived when the CHLO is answered.
    """

    def __init__(self, *, hostnames: tuple[str, ...],
                 cookie_key: cookies.ServerCookieKey,
                 ticket_store: dict,
                 rng: np.random.Generator,
                 client_ip: str,
                 issued_cookies: list[bytes]):
        self.hostnames = hostnames
        self.cookie_key = cookie_key
        self.ticket_store = ticket_store
        self.rng = rng
        self.client_ip = client_ip
        self.issued_cookies = issued_cookies

        self.responded = False
        self._retried = False
        self._send_key: Optional[DirectionalKey] = None
        # (record tag, key) of the request, from the answer until it comes
        self._request: Optional[tuple[int, DirectionalKey]] = None

    def on_bytes(self, data: bytes, now: SimTime) -> bytes:
        """Process the client's ``data``; returns the bytes to send."""
        out = b""
        for tag, body in parse_records(data):
            if tag == REC_HANDSHAKE and self._send_key is None:
                out += self._on_chlo(body, now)
            elif self._request is not None and tag == self._request[0]:
                self._request[1].open(body, tag)
                self._request = None
                self.responded = True
                out += seal_record(self._send_key, REC_APP, RESPONSE)
            elif tag != REC_EARLY or not self._retried:
                raise ChannelError("unexpected record")
            # else the ticket was rejected: its early data is dropped
        return out

    def _on_chlo(self, body: bytes, now: SimTime) -> bytes:
        if not body or body[0] != MSG_CHLO:
            raise ChannelError("unexpected handshake message")
        flags, client_random, client_pub, ticket_id, hostname = _decode_chlo(body)
        fop = bool(flags & FLAG_FOP)
        # the handshake authenticates the hostname this pool actually serves
        host_echo = hostname if hostname in self.hostnames else self.hostnames[0]

        secret = None
        if ticket_id is not None:
            if self._retried:
                raise ChannelError("ticket offered after a retry request")
            secret = self.ticket_store.pop(bytes(ticket_id), None)
            if secret is None:
                # HelloRetryRequest: ask for a key share; no draw is taken
                self._retried = True
                return frame(REC_HANDSHAKE, _encode_shlo(
                    SHLO_RETRY, None, None, host_echo))

        # server random, X25519 scalar; the scalar is drawn even when psk_ke
        # leaves it unused, so the stream's later draws stay where they were
        drawn = random_bytes(self.rng, 48)
        server_random = drawn[:16]
        pub = None  # psk_ke: the ticket's secret needs no key share
        if secret is None:
            priv = X25519PrivateKey.from_private_bytes(drawn[16:])
            pub = priv.public_key().public_bytes_raw()
            secret = _master_secret(priv, client_pub)
        shlo_flags = ((SHLO_FOP_OK if fop else 0)
                      | (SHLO_PSK_OK if pub is None else 0))

        self._send_key = DirectionalKey(derive_record_key(
            secret, b"s2c", client_random, server_random))
        if flags & FLAG_EARLY:  # only with a ticket, accepted by now
            self._request = (REC_EARLY, DirectionalKey(
                derive_early_key(secret, client_random)))
        else:
            self._request = (REC_APP, DirectionalKey(derive_record_key(
                secret, b"c2s", client_random, server_random)))
        shlo = frame(REC_HANDSHAKE,
                     _encode_shlo(shlo_flags, server_random, pub, host_echo))
        # one ticket per connection, carrying a fresh cookie for a FOP client
        embedded = None
        if fop:
            embedded = cookies.mint(self.cookie_key, self.client_ip, self.rng)
            self.issued_cookies.append(embedded)
        drawn = random_bytes(self.rng, 32)  # ticket id, resumption secret
        ticket = SessionTicket(ticket_id=drawn[:16],
                               resumption_secret=drawn[16:],
                               embedded_cookie=embedded,
                               issued_at=now)
        self.ticket_store[bytes(ticket.ticket_id)] = ticket.resumption_secret
        return shlo + seal_record(self._send_key, REC_TICKET, ticket.encode())
