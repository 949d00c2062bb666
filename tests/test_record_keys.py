"""Each side derives its record keys when the hello is answered, and
each key seals exactly the bytes a key derived from the handshake's
secret and randoms seals. A resumed handshake's request is early data,
so neither side derives a c2s key for it."""

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from fopsim import tlschan
from fopsim.cookies import ServerCookieKey
from fopsim.rngtools import random_bytes
from fopsim.tlschan import (
    REC_APP,
    REC_HANDSHAKE,
    REC_TICKET,
    RESPONSE,
    ChannelError,
    ClientSession,
    ClientTlsCache,
    DirectionalKey,
    ServerSession,
    _decode_shlo,
    _master_secret,
    derive_record_key,
    parse_records,
    seal_record,
)

HOST = "shop.example"
CLIENT_SEED = 3


@pytest.fixture
def derived(monkeypatch):
    """The direction of every record key derived, in order."""
    directions = []

    def counted(secret, direction, client_random, server_random):
        directions.append(direction)
        return derive_record_key(secret, direction, client_random, server_random)

    monkeypatch.setattr(tlschan, "derive_record_key", counted)
    return directions


class Server:
    """One pool's server side: a ticket store, a cookie key and a stream."""

    def __init__(self):
        self.rng = np.random.default_rng(5)
        self.key = ServerCookieKey.generate(self.rng)
        self.store = {}

    def session(self):
        return ServerSession(hostnames=(HOST,), cookie_key=self.key,
                             ticket_store=self.store, rng=self.rng,
                             client_ip="203.0.113.1", issued_cookies=[])


def connect(server, cache, ticket, fop=True):
    """Run one connection until neither side has more to send; returns
    the client session, the server session and the flights, each as
    (direction, bytes)."""
    client = ClientSession(HOST, np.random.default_rng(CLIENT_SEED), cache,
                           None, fop=fop, ticket=ticket)
    session = server.session()
    wire = [("c2s", client.first_flight())]
    while wire[-1][1]:
        direction, flight = wire[-1]
        if direction == "c2s":
            wire.append(("s2c", session.on_bytes(flight, now=len(wire))))
        else:
            wire.append(("c2s", client.on_bytes(flight)))
    assert client.response == RESPONSE
    return client, session, wire[:-1]


def shlo_fields(wire):
    """(flags, server random, key share, hostname) of the one SHLO."""
    (shlo,) = [body for direction, flight in wire if direction == "s2c"
               for tag, body in parse_records(flight) if tag == REC_HANDSHAKE]
    return _decode_shlo(shlo)


def eager_keys(secret, client, wire):
    """Both record keys as bytes, as derived when the SHLO is sent."""
    server_random = shlo_fields(wire)[1]
    return {d: derive_record_key(secret, d.encode(), client.client_random,
                                 server_random) for d in ("c2s", "s2c")}


def full_handshake_secret(wire):
    """The master secret, from the client's scalar (its stream's first
    draw) and the server's key share."""
    scalar = random_bytes(np.random.default_rng(CLIENT_SEED), 48)[16:]
    return _master_secret(X25519PrivateKey.from_private_bytes(scalar),
                          shlo_fields(wire)[2])


def eager_records(wire, keys):
    """Each ticket and app record on the wire, with the body the eager key
    of its direction seals for the same plaintext, in order."""
    openers = {d: DirectionalKey(k) for d, k in keys.items()}
    sealers = {d: DirectionalKey(k) for d, k in keys.items()}
    pairs = []
    for direction, flight in wire:
        for tag, body in parse_records(flight):
            if tag in (REC_TICKET, REC_APP):
                plaintext = openers[direction].open(body, tag)
                pairs.append((body, sealers[direction].seal(plaintext, tag)))
    return pairs


@pytest.mark.parametrize("fop", [False, True])
def test_full_handshake_seals_as_eager_keys(derived, fop):
    client, _, wire = connect(Server(), ClientTlsCache(), None, fop=fop)
    pairs = eager_records(wire, eager_keys(full_handshake_secret(wire),
                                           client, wire))
    # the ticket, the request and the response
    assert len(pairs) == 3
    assert all(sent == eager for sent, eager in pairs)
    assert sorted(derived) == [b"c2s", b"c2s", b"s2c", b"s2c"]


def test_resumed_handshake_seals_as_eager_keys_and_derives_no_c2s(derived):
    server, cache = Server(), ClientTlsCache()
    connect(server, cache, None)
    ticket = cache.take(HOST, None, now=0, lifetime=None)
    derived.clear()
    client, _, wire = connect(server, cache, ticket)
    assert client.resumption_accepted
    pairs = eager_records(wire, eager_keys(ticket.resumption_secret,
                                           client, wire))
    # the ticket and the response to the early data
    assert len(pairs) == 2
    assert all(sent == eager for sent, eager in pairs)
    assert derived == [b"s2c", b"s2c"]  # the server's, then the client's


@pytest.mark.parametrize("resumed", [False, True], ids=["full", "resumed"])
def test_app_record_after_the_response_raises(resumed):
    # a session answers one request: another one, sealed under the c2s
    # key at the client's next nonce, is refused
    server, cache = Server(), ClientTlsCache()
    ticket = None
    if resumed:
        connect(server, cache, None)
        ticket = cache.take(HOST, None, now=0, lifetime=None)
    client, session, wire = connect(server, cache, ticket)
    secret = (ticket.resumption_secret if resumed
              else full_handshake_secret(wire))
    c2s = DirectionalKey(eager_keys(secret, client, wire)["c2s"])
    if not resumed:
        c2s.seal(b"", REC_APP)  # the nonce the request took
    with pytest.raises(ChannelError, match="unexpected record"):
        session.on_bytes(seal_record(c2s, REC_APP, b"GET /more"), now=99)
