import numpy as np
import pytest

from fopsim.cookies import ServerCookieKey, mint, validate
from fopsim.simcore import Endpoint, FoKind, Packet, TcpFlags
from fopsim.transport import (
    SYN_PAYLOAD_BUDGET,
    ClientConn,
    ServerConn,
    TfoClientCache,
)

CLIENT = Endpoint("203.0.113.1", 50001)
SERVER = Endpoint("198.51.100.1", 443)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def key(rng):
    return ServerCookieKey.generate(rng)


class Harness:
    """Drives one client connection against hand-crafted replies: a tfo
    connection is given a kernel ``cache``, a standard or fop one none,
    and a fop one the ``cookie`` its ticket carried."""

    def __init__(self, cache=None, src=CLIENT, dst=SERVER, cookie=None):
        self.sent = []
        self.cache = cache
        self.conn = ClientConn(src, dst, self.sent.append, cache=cache,
                               cookie=cookie)


def synack_for(syn, ack_len=0, fo_kind=FoKind.ABSENT, fo_cookie=None, payload=b""):
    return Packet(src=syn.dst, dst=syn.src, flags=TcpFlags.SYN | TcpFlags.ACK,
                  fo_kind=fo_kind, fo_cookie=fo_cookie, ack_len=ack_len,
                  payload=payload)


class TestClientConnect:
    def test_tfo_empty_cache_requests_cookie_without_payload(self):
        h = Harness(TfoClientCache())
        h.conn.connect(b"hello")
        syn = h.sent[0]
        assert syn.fo_kind is FoKind.REQUEST
        assert syn.payload == b""

    def test_tfo_cached_cookie_rides_syn_with_payload(self, key, rng):
        cache = TfoClientCache()
        cookie = mint(key, CLIENT.ip, rng)
        cache.set(CLIENT.ip, SERVER.ip, SERVER.port, cookie)
        h = Harness(cache)
        h.conn.connect(b"hello")
        syn = h.sent[0]
        assert syn.fo_kind is FoKind.COOKIE
        assert syn.fo_cookie == cookie
        assert syn.payload == b"hello"

    def test_tfo_source_ip_change_misses_cache(self, key, rng):
        cache = TfoClientCache()
        cache.set(CLIENT.ip, SERVER.ip, SERVER.port, mint(key, CLIENT.ip, rng))
        h = Harness(cache, src=Endpoint("203.0.113.99", 50001))
        h.conn.connect(b"hello")
        assert h.sent[0].fo_kind is FoKind.REQUEST

    def test_cache_lookup_needs_exact_triple(self, key, rng):
        cookie = mint(key, CLIENT.ip, rng)
        for changed in ("src", "dst", "port"):
            cache = TfoClientCache()
            cache.set(CLIENT.ip, SERVER.ip, SERVER.port, cookie)
            src = Endpoint("203.0.113.2", 50001) if changed == "src" else CLIENT
            dst = SERVER
            if changed == "dst":
                dst = Endpoint("198.51.100.9", 443)
            elif changed == "port":
                dst = Endpoint(SERVER.ip, 8443)
            h = Harness(cache, src=src, dst=dst)
            h.conn.connect(b"x")
            assert h.sent[0].fo_kind is FoKind.REQUEST, changed

    def test_standard_sends_plain_syn_and_defers_payload(self):
        h = Harness()
        h.conn.connect(b"flight")
        syn = h.sent[0]
        assert syn.fo_kind is FoKind.ABSENT and syn.payload == b""
        data = Packet(src=syn.dst, dst=syn.src, flags=TcpFlags.ACK,
                      payload=b"shlo")
        assert h.conn.on_packet(data) == b""  # not yet established
        assert h.conn.on_packet(synack_for(syn)) == b""
        assert h.sent[1].payload == b"flight"
        assert h.conn.on_packet(data) == b"shlo"

    def test_fop_without_cookie_sends_plain_syn(self):
        # the privacy variant never requests cookies over the wire
        h = Harness()
        h.conn.connect(b"flight")
        assert h.sent[0].fo_kind is FoKind.ABSENT

    def test_fop_cookie_with_empty_flight_is_not_zero_rtt(self, key, rng):
        # nothing rode the SYN, so there is nothing to acknowledge
        h = Harness(cookie=mint(key, CLIENT.ip, rng))
        h.conn.connect(b"")
        assert h.sent[0].fo_kind is FoKind.COOKIE
        h.conn.on_packet(synack_for(h.sent[0], ack_len=0))
        assert not h.conn.zero_rtt_accepted
        assert h.sent[1].payload == b""

    def test_payload_budget_enforced(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.conn.connect(b"x" * (SYN_PAYLOAD_BUDGET + 1))


class TestClientSynack:
    def test_acknowledged_payload_means_zero_rtt(self, key, rng):
        cache = TfoClientCache()
        cache.set(CLIENT.ip, SERVER.ip, SERVER.port, mint(key, CLIENT.ip, rng))
        h = Harness(cache)
        h.conn.connect(b"hello")
        delivered = h.conn.on_packet(synack_for(h.sent[0], ack_len=5,
                                                payload=b"resp"))
        assert h.conn.zero_rtt_accepted
        assert h.conn.established
        assert delivered == b"resp"
        assert h.sent[1].payload == b""  # plain ACK, nothing to retransmit

    def test_unacknowledged_payload_retransmitted(self, key, rng):
        cache = TfoClientCache()
        cache.set(CLIENT.ip, SERVER.ip, SERVER.port, mint(key, CLIENT.ip, rng))
        h = Harness(cache)
        h.conn.connect(b"hello")
        h.conn.on_packet(synack_for(h.sent[0], ack_len=0))
        assert not h.conn.zero_rtt_accepted
        assert h.sent[1].payload == b"hello"

    def test_tfo_stores_synack_cookie(self, key, rng):
        h = Harness(TfoClientCache())
        h.conn.connect(b"")
        fresh = mint(key, CLIENT.ip, rng)
        h.conn.on_packet(synack_for(h.sent[0], fo_kind=FoKind.COOKIE,
                                    fo_cookie=fresh))
        assert h.cache.get(CLIENT.ip, SERVER.ip, SERVER.port) == fresh

    def test_tfo_replacement_cookie_overwrites(self, key, rng):
        cache = TfoClientCache()
        old = mint(key, CLIENT.ip, rng)
        cache.set(CLIENT.ip, SERVER.ip, SERVER.port, old)
        h = Harness(cache)
        h.conn.connect(b"data")
        fresh = mint(key, CLIENT.ip, rng)
        h.conn.on_packet(synack_for(h.sent[0], ack_len=0,
                                    fo_kind=FoKind.COOKIE, fo_cookie=fresh))
        assert cache.get(CLIENT.ip, SERVER.ip, SERVER.port) == fresh

    def test_fop_discards_plaintext_replacement_cookie(self, key, rng):
        presented = mint(key, CLIENT.ip, rng)
        h = Harness(cookie=presented)
        h.conn.connect(b"data")
        rejected = synack_for(h.sent[0], ack_len=0, fo_kind=FoKind.COOKIE,
                              fo_cookie=mint(key, CLIENT.ip, rng))
        h.conn.on_packet(rejected)
        assert h.conn.cookie == presented  # the one the SYN carried
        assert not h.conn.zero_rtt_accepted
        assert h.sent[1].payload == b"data"  # retransmitted after the ACK

    def test_unknown_synack_ignored(self):
        h = Harness()
        h.conn.connect(b"")
        syn = h.sent[0]
        h.conn.on_packet(synack_for(syn))
        # duplicate: nothing sent, nothing delivered
        assert h.conn.on_packet(synack_for(syn, payload=b"resp")) == b""
        assert len(h.sent) == 2


class TestServerAccept:
    def test_valid_cookie_acks_payload_length(self, key, rng):
        cookie = mint(key, CLIENT.ip, rng)
        syn = Packet(src=CLIENT, dst=SERVER, flags=TcpFlags.SYN,
                     fo_kind=FoKind.COOKIE, fo_cookie=cookie,
                     payload=b"p" * 100)
        conn = ServerConn(key=key, rng=rng)
        synack, delivered = conn.accept(syn)
        assert synack.ack_len == 100
        assert delivered == b"p" * 100

    def test_invalid_cookie_drops_payload_and_attaches_fresh(self, key, rng):
        other = mint(key, "198.51.100.77", rng)
        syn = Packet(src=CLIENT, dst=SERVER, flags=TcpFlags.SYN,
                     fo_kind=FoKind.COOKIE, fo_cookie=other, payload=b"secret")
        conn = ServerConn(key=key, rng=rng)
        synack, delivered = conn.accept(syn)
        assert synack.ack_len == 0
        assert delivered == b""
        assert synack.fo_kind is FoKind.COOKIE
        assert validate(synack.fo_cookie, key, CLIENT.ip)

    def test_cookie_request_mints_and_attaches(self, key, rng):
        syn = Packet(src=CLIENT, dst=SERVER, flags=TcpFlags.SYN,
                     fo_kind=FoKind.REQUEST)
        conn = ServerConn(key=key, rng=rng)
        synack, _ = conn.accept(syn)
        assert synack.fo_kind is FoKind.COOKIE
        assert validate(synack.fo_cookie, key, CLIENT.ip)

    def test_non_syn_rejected(self, key, rng):
        conn = ServerConn(key=key, rng=rng)
        with pytest.raises(ValueError):
            conn.accept(Packet(src=CLIENT, dst=SERVER, flags=TcpFlags.ACK))


class TestCookieApis:
    def test_cookie_gen_mints_independent_of_connections(self, key, rng):
        a = mint(key, CLIENT.ip, rng)
        b = mint(key, CLIENT.ip, rng)
        assert a != b
        assert validate(a, key, CLIENT.ip) and validate(b, key, CLIENT.ip)

    def test_cookie_gen_valid_across_pool(self, rng):
        material = rng.bytes(16)
        cookie = mint(ServerCookieKey(material), CLIENT.ip, rng)
        assert validate(cookie, ServerCookieKey(material), CLIENT.ip)

    def test_set_then_connect_uses_exact_bytes(self, key, rng):
        cookie = mint(key, CLIENT.ip, rng)
        h = Harness(cookie=cookie)
        h.conn.connect(b"x")
        assert h.sent[0].fo_cookie == cookie
        assert h.sent[0].payload == b"x"

    def test_set_scoped_to_destination(self, key, rng):
        cache = TfoClientCache()
        cache.set(CLIENT.ip, "198.51.100.1", 443, mint(key, CLIENT.ip, rng))
        assert cache.get(CLIENT.ip, "198.51.100.2", 443) is None

    def test_fop_never_reads_or_writes_kernel_cache(self, key, rng):
        # a fop connection has no kernel cache: it presents the cookie its
        # ticket carried, or none, never requests one, and keeps no cookie
        # a SYN-ACK hands out
        for cookie in (None, mint(key, CLIENT.ip, rng)):
            h = Harness(cookie=cookie)
            h.conn.connect(b"data")
            syn = h.sent[0]
            assert syn.fo_cookie == cookie
            assert syn.fo_kind is (FoKind.ABSENT if cookie is None
                                   else FoKind.COOKIE)
            h.conn.on_packet(synack_for(syn, fo_kind=FoKind.COOKIE,
                                        fo_cookie=mint(key, CLIENT.ip, rng)))
            assert h.conn.cookie == cookie
