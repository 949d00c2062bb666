import numpy as np
import pytest

from fopsim import tlschan
from fopsim.cookies import ServerCookieKey, validate
from fopsim.rngtools import random_bytes
from fopsim.tlschan import (
    FLAG_EARLY,
    FLAG_FOP,
    FLAG_PSK,
    MSG_CHLO,
    SHLO_FOP_OK,
    SHLO_PSK_OK,
    SHLO_RETRY,
    ChannelError,
    ClientSession,
    ClientTlsCache,
    DirectionalKey,
    ServerSession,
    SessionTicket,
    _decode_chlo,
    _decode_shlo,
    _encode_chlo,
    _encode_shlo,
    frame,
    parse_records,
    seal_record,
)


@pytest.fixture
def rng():
    return np.random.default_rng(23)


@pytest.fixture
def crypto_calls(monkeypatch):
    """Counts X25519 key generations and exchanges (``_master_secret``)."""
    calls = {"keygen": 0, "exchange": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tlschan.X25519PrivateKey, "from_private_bytes",
                        staticmethod(counted(
                            "keygen", tlschan.X25519PrivateKey.from_private_bytes)))
    monkeypatch.setattr(tlschan, "_master_secret",
                        counted("exchange", tlschan._master_secret))
    return calls


def make_ticket(rng, cookie=True, issued_at=0):
    return SessionTicket(ticket_id=rng.bytes(16), resumption_secret=rng.bytes(16),
                         embedded_cookie=rng.bytes(16) if cookie else None,
                         issued_at=issued_at)


class TestRecords:
    def test_seal_open_round_trip(self, rng):
        key = rng.bytes(16)
        sender = DirectionalKey(key)
        receiver = DirectionalKey(key)
        record = seal_record(sender, 2, b"hello record")
        [(tag, body)] = parse_records(record)
        assert (tag, receiver.open(body, tag)) == (2, b"hello record")

    def test_bit_flip_fails_authentication(self, rng):
        key = rng.bytes(16)
        record = bytearray(seal_record(DirectionalKey(key), 2, b"payload"))
        record[-1] ^= 0x01
        [(tag, body)] = parse_records(bytes(record))
        with pytest.raises(ChannelError):
            DirectionalKey(key).open(body, tag)

    def test_equal_plaintexts_seal_to_distinct_bytes(self, rng):
        sender = DirectionalKey(rng.bytes(16))
        assert sender.seal(b"same", 2) != sender.seal(b"same", 2)

    def test_tag_is_authenticated(self, rng):
        key = rng.bytes(16)
        sealed = DirectionalKey(key).seal(b"x", 1)
        with pytest.raises(ChannelError):
            DirectionalKey(key).open(sealed, 2)

    def test_framing_round_trip(self):
        data = frame(0, b"a") + frame(2, b"bb") + frame(1, b"")
        assert parse_records(data) == [(0, b"a"), (2, b"bb"), (1, b"")]
        largest = bytes(0xFFFF)
        assert parse_records(frame(3, largest)) == [(3, largest)]
        with pytest.raises(ChannelError, match="too large"):
            frame(3, largest + b"x")

    def test_truncated_record_rejected(self):
        with pytest.raises(ChannelError):
            parse_records(frame(0, b"abcdef")[:-2])

    def test_ticket_encode_decode(self, rng):
        for cookie in (True, False):
            ticket = make_ticket(rng, cookie=cookie, issued_at=12345)
            decoded = SessionTicket.decode(ticket.encode())
            assert decoded == ticket

    def test_truncated_ticket_raises_channel_error(self, rng):
        encoded = make_ticket(rng).encode()
        for body in (b"x" * 10, encoded[:33], encoded[:-1]):
            with pytest.raises(ChannelError):
                SessionTicket.decode(body)

    def test_ticket_cookie_flag_other_than_zero_or_one_rejected(self, rng):
        for cookie in (True, False):
            encoded = bytearray(make_ticket(rng, cookie=cookie).encode())
            assert encoded[32] == (1 if cookie else 0)
            for flag in (0x02, 0x80, 0xFF):
                encoded[32] = flag
                with pytest.raises(ChannelError):
                    SessionTicket.decode(bytes(encoded))

    def test_ticket_with_trailing_bytes_raises_channel_error(self, rng):
        for cookie in (True, False):
            with pytest.raises(ChannelError):
                SessionTicket.decode(make_ticket(rng, cookie=cookie).encode()
                                     + b"junk")


def client_session(hostname, rng, *, fop=False, ticket=None):
    """A client session that stores its tickets in a cache of its own."""
    return ClientSession(hostname, rng, ClientTlsCache(), None,
                         fop=fop, ticket=ticket)


def psk_chlo(rng, ticket_id=bytes(16)):
    """The body of a CHLO that offers ``ticket_id``."""
    return _encode_chlo(FLAG_PSK | FLAG_EARLY, rng.bytes(16), None, ticket_id,
                        "a.example")


RETRY = _encode_shlo(SHLO_RETRY, None, None, "a.example")


class TestHelloDecoders:
    def test_truncated_chlo_raises_channel_error(self, rng):
        chlo = client_session("a.example", rng).first_flight()[3:]
        assert _decode_chlo(chlo)[4] == "a.example"
        psk = psk_chlo(rng)
        assert _decode_chlo(psk)[2:] == (None, bytes(16), "a.example")
        for body in (b"\x01", chlo[:50], chlo[:-1], psk[:34], psk[:-1]):
            with pytest.raises(ChannelError):
                _decode_chlo(body)

    def test_truncated_shlo_raises_channel_error(self):
        shlo = bytes([2, 0]) + bytes(48) + bytes([3]) + b"a.b"
        psk = bytes([2, SHLO_PSK_OK]) + bytes(16) + bytes([3]) + b"a.b"
        retry = bytes([2, SHLO_RETRY, 3]) + b"a.b"
        assert _decode_shlo(shlo)[2:] == (bytes(32), "a.b")
        assert _decode_shlo(psk)[2:] == (None, "a.b")
        assert _decode_shlo(retry) == (SHLO_RETRY, None, None, "a.b")
        for body in (b"\x02", b"\x02\x00", shlo[:50], shlo[:-1], psk[:18],
                     psk[:-1], retry[:2], retry[:-1]):
            with pytest.raises(ChannelError):
                _decode_shlo(body)

    def test_hello_with_trailing_bytes_raises_channel_error(self, rng):
        [(_, chlo)] = parse_records(client_session("a.example", rng).first_flight())
        for body in (chlo, psk_chlo(rng)):  # key share and ticket layouts
            with pytest.raises(ChannelError, match="trailing"):
                _decode_chlo(body + b"junk")
        for pub in (bytes(32), None):  # full and psk_ke layouts
            flags = 0 if pub else SHLO_PSK_OK
            shlo = _encode_shlo(flags, bytes(16), pub, "a.example")
            with pytest.raises(ChannelError, match="trailing"):
                _decode_shlo(shlo + b"junk")
        with pytest.raises(ChannelError, match="trailing"):
            _decode_shlo(RETRY + b"junk")

    def test_non_utf8_hostname_raises_channel_error(self):
        with pytest.raises(ChannelError):
            _decode_shlo(bytes([2, 0]) + bytes(48) + bytes([1]) + b"\xff")

    @pytest.mark.parametrize("flag", [8, 0x10, 0x80])
    def test_unknown_chlo_flag_raises_channel_error(self, rng, flag):
        [(_, full)] = parse_records(client_session("a.example", rng).first_flight())
        for chlo in (full, psk_chlo(rng)):
            body = bytearray(chlo)
            body[1] |= flag
            with pytest.raises(ChannelError, match="flags"):
                _decode_chlo(bytes(body))

    def test_early_data_without_ticket_raises_channel_error(self, rng):
        [(_, chlo)] = parse_records(client_session("a.example", rng).first_flight())
        for flags in (FLAG_EARLY, FLAG_EARLY | FLAG_FOP):
            body = bytes([MSG_CHLO, flags]) + chlo[2:]
            with pytest.raises(ChannelError, match="early data"):
                _decode_chlo(body)

    @pytest.mark.parametrize("flag", [8, 0x10, 0x80])
    def test_unknown_shlo_flag_raises_channel_error(self, flag):
        for flags, pub in ((0, bytes(32)), (SHLO_PSK_OK, None)):
            body = bytearray(_encode_shlo(flags, bytes(16), pub, "a.example"))
            body[1] |= flag
            with pytest.raises(ChannelError, match="flags"):
                _decode_shlo(bytes(body))
        with pytest.raises(ChannelError, match="flags"):
            _decode_shlo(bytes([2, SHLO_RETRY | flag]) + RETRY[2:])

    @pytest.mark.parametrize("flag", [SHLO_PSK_OK, SHLO_FOP_OK])
    def test_retry_with_other_flags_raises_channel_error(self, flag):
        with pytest.raises(ChannelError, match="retry"):
            _decode_shlo(bytes([2, SHLO_RETRY | flag]) + RETRY[2:])


class TestClientCache:
    def test_store_then_take(self, rng):
        cache = ClientTlsCache()
        ticket = make_ticket(rng, issued_at=100)
        cache.store("shop.example", None, ticket)
        assert cache.take("shop.example", None, now=200,
                          lifetime=None) == ticket

    def test_context_mismatch_returns_nothing(self, rng):
        cache = ClientTlsCache()
        cache.store("shop.example", "ctx-a", make_ticket(rng))
        assert cache.take("shop.example", "ctx-b", now=1,
                          lifetime=None) is None
        assert cache.take("shop.example", None, now=1, lifetime=None) is None
        assert cache.take("shop.example", "ctx-a", now=2,
                          lifetime=None) is not None

    def test_hostname_mismatch_returns_nothing(self, rng):
        cache = ClientTlsCache()
        cache.store("shop.example", None, make_ticket(rng))
        assert cache.take("other.example", None, now=1, lifetime=None) is None

    def test_lifetime_boundary(self, rng):
        # RFC 8446 section 4.6.1: the lifetime runs from ticket issuance
        cache = ClientTlsCache()
        cache.store("h", None, make_ticket(rng, issued_at=1_000))
        assert cache.take("h", None, now=301_001,
                          lifetime=300_000) is None
        cache.store("h", None, make_ticket(rng, issued_at=1_000))
        assert cache.take("h", None, now=301_000,
                          lifetime=300_000) is not None

    def test_single_use(self, rng):
        cache = ClientTlsCache()
        cache.store("h", None, make_ticket(rng))
        assert cache.take("h", None, now=1, lifetime=None) is not None
        assert cache.take("h", None, now=2, lifetime=None) is None

    def test_fifo_consumption(self, rng):
        cache = ClientTlsCache()
        first = make_ticket(rng)
        second = make_ticket(rng)
        cache.store("h", None, first)
        cache.store("h", None, second)
        assert cache.take("h", None, now=2, lifetime=None) == first
        assert cache.take("h", None, now=3, lifetime=None) == second

    def test_expired_heads_purged_until_fresh_entry(self, rng):
        cache = ClientTlsCache()
        cache.store("h", None, make_ticket(rng))
        cache.store("h", None, make_ticket(rng))
        fresh = make_ticket(rng, issued_at=500)
        cache.store("h", None, fresh)
        assert cache.take("h", None, now=600, lifetime=200) == fresh

    def test_empty_cache(self):
        assert ClientTlsCache().take("h", None, now=0, lifetime=None) is None


class SessionPipe:
    """Runs a client and a server session over a direct byte pipe."""

    def __init__(self, rng, *, fop=True, ticket=None, hostname="shop.example",
                 server_hostnames=("shop.example",), server_key=None):
        self.hostname = hostname
        self.cache = ClientTlsCache()
        self.client = ClientSession(hostname, rng, self.cache, None,
                                    fop=fop, ticket=ticket)
        self.server_key = server_key or ServerCookieKey.generate(rng)
        self.store = {}
        self.issued_cookies = []
        self.server = ServerSession(
            hostnames=tuple(server_hostnames), cookie_key=self.server_key,
            ticket_store=self.store, rng=rng, client_ip="203.0.113.1",
            issued_cookies=self.issued_cookies)
        self.wire = []

    def tickets(self):
        """Take every ticket the client has stored, oldest first."""
        taken = []
        while (ticket := self.cache.take(self.hostname, None,
                                         now=0, lifetime=None)) is not None:
            taken.append(ticket)
        return taken

    def run_full(self):
        flight = self.client.first_flight()
        self.wire.append(flight)
        reply = self.server.on_bytes(flight, now=0)
        self.wire.append(reply)
        out = self.client.on_bytes(reply)
        while out:
            self.wire.append(out)
            reply = self.server.on_bytes(out, now=2)
            if not reply:
                break
            self.wire.append(reply)
            out = self.client.on_bytes(reply)


class TestSessions:
    def test_full_handshake_delivers_response_and_ticket(self, rng,
                                                         crypto_calls):
        pipe = SessionPipe(rng)
        pipe.run_full()
        assert pipe.client.response == tlschan.RESPONSE
        assert len(pipe.tickets()) == 1
        assert pipe.client.established and pipe.server.responded
        assert not pipe.client.resumption_accepted
        # a key pair on each side, and each side's exchange
        assert crypto_calls == {"keygen": 2, "exchange": 2}

    def test_tickets_carry_fresh_valid_cookies(self, rng):
        # one ticket per connection: two connections to the same pool
        key = ServerCookieKey.generate(rng)
        tickets = []
        for _ in range(2):
            pipe = SessionPipe(rng, server_key=key)
            pipe.run_full()
            (ticket,) = pipe.tickets()
            tickets.append(ticket)
            # the server records each ticket's cookie as it mints it
            assert pipe.issued_cookies == [ticket.embedded_cookie]
        cookies = [t.embedded_cookie for t in tickets]
        ids = [t.ticket_id for t in tickets]
        assert len(set(cookies)) == 2 and len(set(ids)) == 2
        for cookie in cookies:
            assert validate(cookie, key, "203.0.113.1")

    def test_plain_client_gets_cookieless_ticket(self, rng):
        pipe = SessionPipe(rng, fop=False)
        pipe.run_full()
        (ticket,) = pipe.tickets()
        assert ticket.embedded_cookie is None
        assert pipe.issued_cookies == []

    def test_wire_never_shows_ticket_cookie_in_clear(self, rng):
        pipe = SessionPipe(rng)
        pipe.run_full()
        (ticket,) = pipe.tickets()
        cookie = ticket.embedded_cookie
        assert all(cookie not in flight for flight in pipe.wire)

    def test_resumption_accepted_with_early_data(self, rng, crypto_calls):
        pipe = SessionPipe(rng)
        pipe.run_full()
        (first_ticket,) = pipe.tickets()

        crypto_calls.update(keygen=0, exchange=0)
        pipe2 = SessionPipe(rng, ticket=first_ticket)
        pipe2.store.update(pipe.store)
        flight = pipe2.client.first_flight()
        reply = pipe2.server.on_bytes(flight, now=10)
        assert pipe2.client.on_bytes(reply) == b""  # answered in 0-RTT
        assert pipe2.client.resumption_accepted
        assert pipe2.client.response == tlschan.RESPONSE  # early request answered
        assert len(pipe2.tickets()) == 1  # fresh ticket with the reply
        # psk_ke: neither side loads an X25519 key
        assert crypto_calls == {"keygen": 0, "exchange": 0}

    def test_unknown_ticket_falls_back_to_full_handshake(self, rng,
                                                         crypto_calls):
        pipe = SessionPipe(rng, ticket=make_ticket(rng))
        pipe.run_full()
        assert not pipe.client.resumption_accepted
        assert pipe.client.response == tlschan.RESPONSE  # re-requested under the new keys
        # CHLO with the ticket, retry request, CHLO with a share, SHLO
        hellos = [body for flight in pipe.wire
                  for tag, body in parse_records(flight) if tag == 0]
        assert [_decode_chlo(hellos[0])[2], _decode_shlo(hellos[1])[0]] \
            == [None, SHLO_RETRY]
        flags, client_random, share, ticket_id, _ = _decode_chlo(hellos[2])
        assert (flags, client_random, ticket_id) \
            == (FLAG_FOP, pipe.client.client_random, None)
        assert share is not None
        assert _decode_shlo(hellos[3])[0] == SHLO_FOP_OK
        # the retry costs the key pairs of a full handshake and no more
        assert crypto_calls == {"keygen": 2, "exchange": 2}

    def test_retry_draws_as_a_full_handshake(self, rng):
        # the client draws its random and scalar once; the server draws
        # nothing for the retry request, then as for any full handshake
        client_rng, server_rng = (np.random.default_rng(s) for s in (3, 5))
        client_expected, server_expected = (np.random.default_rng(s)
                                            for s in (3, 5))
        client = client_session("shop.example", client_rng, fop=True,
                               ticket=make_ticket(rng))
        server = ServerSession(hostnames=("shop.example",),
                               cookie_key=ServerCookieKey.generate(rng),
                               ticket_store={}, rng=server_rng,
                               client_ip="203.0.113.1", issued_cookies=[])
        retry = server.on_bytes(client.first_flight(), now=10)
        assert server_rng.bit_generator.state == server_expected.bit_generator.state
        chlo = client.on_bytes(retry)
        request = client.on_bytes(server.on_bytes(chlo, now=20))
        client.on_bytes(server.on_bytes(request, now=30))
        assert client.response == tlschan.RESPONSE
        random_bytes(client_expected, 48)
        for n in (48, 8, 32):
            random_bytes(server_expected, n)
        assert client_rng.bit_generator.state == client_expected.bit_generator.state
        assert server_rng.bit_generator.state == server_expected.bit_generator.state

    def test_retry_to_client_that_offered_no_ticket_raises_channel_error(self,
                                                                        rng):
        client = client_session("shop.example", rng)
        client.first_flight()
        retry = _encode_shlo(SHLO_RETRY, None, None, "shop.example")
        with pytest.raises(ChannelError, match="no ticket"):
            client.on_bytes(frame(0, retry))

    def test_second_retry_raises_channel_error(self, rng):
        client = client_session("shop.example", rng, ticket=make_ticket(rng))
        client.first_flight()
        retry = frame(0, _encode_shlo(SHLO_RETRY, None, None, "shop.example"))
        assert client.on_bytes(retry)  # the CHLO with a key share
        with pytest.raises(ChannelError, match="no ticket"):
            client.on_bytes(retry)
        assert not client.established

    def test_psk_shlo_after_retry_raises_channel_error(self, rng):
        client = client_session("shop.example", rng, ticket=make_ticket(rng))
        client.first_flight()
        client.on_bytes(frame(0, _encode_shlo(SHLO_RETRY, None, None,
                                              "shop.example")))
        shlo = _encode_shlo(SHLO_PSK_OK, bytes(16), None, "shop.example")
        with pytest.raises(ChannelError, match="no ticket"):
            client.on_bytes(frame(0, shlo))
        assert not client.established

    def test_full_shlo_to_ticket_offer_raises_channel_error(self, rng):
        # a psk_ke CHLO sent no key share to agree on
        client = client_session("shop.example", rng, ticket=make_ticket(rng))
        client.first_flight()
        shlo = _encode_shlo(0, bytes(16), bytes(32), "shop.example")
        with pytest.raises(ChannelError, match="no key share"):
            client.on_bytes(frame(0, shlo))
        assert not client.established

    def test_psk_chlo_after_retry_raises_channel_error(self, rng):
        pipe = SessionPipe(rng, ticket=make_ticket(rng))
        (tag, retry), = parse_records(
            pipe.server.on_bytes(pipe.client.first_flight(), now=0))
        assert _decode_shlo(retry)[0] == SHLO_RETRY
        # a second ticket offer, even one the server holds, is refused
        pipe.store[b"k" * 16] = b"s" * 16
        again = frame(0, _encode_chlo(FLAG_PSK, bytes(16), None, b"k" * 16,
                                      "shop.example"))
        with pytest.raises(ChannelError, match="after a retry"):
            pipe.server.on_bytes(again, now=1)
        assert b"k" * 16 in pipe.store

    def test_sealed_record_before_the_shlo_raises_channel_error(self, rng):
        client = client_session("shop.example", rng)
        client.first_flight()
        with pytest.raises(ChannelError, match="before handshake"):
            client.on_bytes(frame(tlschan.REC_APP, bytes(32)))
        assert not client.established and client.response is None

    def test_hello_other_than_a_chlo_at_the_server_raises_channel_error(
            self, rng):
        shlo = _encode_shlo(0, bytes(16), bytes(32), "shop.example")
        for body in (shlo, b""):
            pipe = SessionPipe(rng)
            with pytest.raises(ChannelError, match="unexpected handshake"):
                pipe.server.on_bytes(frame(0, body), now=0)
            assert pipe.store == {} and pipe.issued_cookies == []

    def test_second_chlo_after_the_answer_raises_channel_error(self, rng):
        # a session answers one CHLO, as a client takes one SHLO
        pipe = SessionPipe(rng)
        chlo = pipe.client.first_flight()
        assert pipe.server.on_bytes(chlo, now=0)
        with pytest.raises(ChannelError, match="unexpected record"):
            pipe.server.on_bytes(chlo, now=1)

    def test_early_data_after_a_retry_request_is_dropped(self, rng):
        # the rejected ticket's early data is dropped where it comes, in
        # the first flight or repeated later; the retried handshake then
        # answers the request sent under its own keys
        pipe = SessionPipe(rng, ticket=make_ticket(rng))
        flight = pipe.client.first_flight()
        (_, retry), = parse_records(pipe.server.on_bytes(flight, now=0))
        assert _decode_shlo(retry)[0] == SHLO_RETRY
        early = frame(*parse_records(flight)[1])
        assert pipe.server.on_bytes(early, now=1) == b""
        chlo = pipe.client.on_bytes(frame(0, retry))
        request = pipe.client.on_bytes(pipe.server.on_bytes(chlo, now=2))
        assert pipe.server.on_bytes(early + request, now=3)
        assert pipe.server.responded

    @pytest.mark.parametrize("resumed", [False, True])
    def test_server_draws_do_not_depend_on_resumption(self, rng, resumed):
        # the server random and the X25519 scalar (drawn even when psk_ke
        # leaves it unused), the ticket's cookie nonce, its id and secret
        pipe = SessionPipe(rng)
        pipe.run_full()
        server_rng = np.random.default_rng(5)
        expected = np.random.default_rng(5)
        server = ServerSession(hostnames=("shop.example",),
                               cookie_key=pipe.server_key,
                               ticket_store=dict(pipe.store), rng=server_rng,
                               client_ip="203.0.113.1", issued_cookies=[])
        ticket = pipe.tickets()[0] if resumed else None
        client = client_session("shop.example", rng, fop=True, ticket=ticket)
        client.on_bytes(server.on_bytes(client.first_flight(), now=10))
        assert client.resumption_accepted == resumed
        for n in (48, 8, 32):
            random_bytes(expected, n)
        assert server_rng.bit_generator.state == expected.bit_generator.state

    def test_psk_shlo_without_offered_ticket_raises_channel_error(self, rng):
        client = client_session("shop.example", rng)
        shlo = _encode_shlo(SHLO_PSK_OK, bytes(16), None, "shop.example")
        with pytest.raises(ChannelError, match="no ticket"):
            client.on_bytes(frame(0, shlo))
        assert not client.established

    def test_hostname_mismatch_aborts(self, rng):
        pipe = SessionPipe(rng, hostname="shop.example",
                           server_hostnames=("other.example",))
        reply = pipe.server.on_bytes(pipe.client.first_flight(), now=0)
        with pytest.raises(ChannelError):
            pipe.client.on_bytes(reply)
        assert not pipe.client.established

    def test_zero_key_share_raises_channel_error(self, rng):
        # an all-zero X25519 share is low-order: there is no shared secret
        client = client_session("shop.example", rng)
        shlo = _encode_shlo(0, bytes(16), bytes(32), "shop.example")
        with pytest.raises(ChannelError, match="key share"):
            client.on_bytes(frame(0, shlo))
        assert not client.established

    def test_virtual_host_pool_authenticates_each_name(self, rng):
        pipe = SessionPipe(rng, hostname="b.example",
                           server_hostnames=("a.example", "b.example"))
        pipe.run_full()
        assert pipe.client.response == tlschan.RESPONSE
