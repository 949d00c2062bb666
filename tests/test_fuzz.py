"""Parse boundaries under arbitrary input: each rejects what it cannot
parse with its module's own error type, and nothing else escapes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fopsim.capture import (
    MAGIC,
    CaptureError,
    capture_bytes,
    read_capture,
)
from fopsim.cookies import ServerCookieKey
from fopsim.simcore import Endpoint, FoKind, Packet, TcpFlags
from fopsim.tlschan import (
    FLAG_EARLY,
    FLAG_PSK,
    MSG_CHLO,
    MSG_SHLO,
    REC_HANDSHAKE,
    SHLO_FOP_OK,
    SHLO_PSK_OK,
    SHLO_RETRY,
    ChannelError,
    ClientSession,
    ClientTlsCache,
    ServerSession,
    SessionTicket,
    _decode_chlo,
    _decode_shlo,
    _encode_chlo,
    _encode_shlo,
    frame,
    parse_records,
)

fuzz = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)
blobs = st.binary(max_size=120)

HOST = b"shop.example"
# a hello's length-prefixed hostname: mostly the served name, else any bytes
hostnames = st.one_of(st.just(HOST), st.binary(max_size=20))


@pytest.mark.parametrize("decode", [parse_records, _decode_chlo,
                                    _decode_shlo, SessionTicket.decode])
@fuzz
@given(data=blobs)
def test_channel_decoders_raise_only_channel_error(decode, data):
    try:
        decode(data)
    except ChannelError:
        pass


@settings(fuzz, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=blobs)
def test_capture_record_raises_only_capture_error(tmp_path, data):
    # one record, whatever its body, behind a length that matches it
    path = tmp_path / "record.fopcap"
    path.write_bytes(MAGIC + len(data).to_bytes(4, "big") + data)
    try:
        read_capture(path)
    except CaptureError:
        pass


@settings(fuzz, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=blobs)
def test_read_capture_raises_only_capture_error(tmp_path, data):
    path = tmp_path / "fuzz.fopcap"
    path.write_bytes(MAGIC + data)
    try:
        read_capture(path)
    except CaptureError:
        pass


@fuzz
@given(head=st.binary(min_size=32, max_size=32), flag=st.integers(0, 255),
       rest=st.one_of(st.binary(min_size=8, max_size=8),
                      st.binary(min_size=24, max_size=24), blobs))
def test_ticket_decode_is_canonical(head, flag, rest):
    # ids and secret, the cookie flag, then [cookie +] issue time: a body
    # that decodes is the one encoding of its ticket
    body = head + bytes([flag]) + rest
    try:
        ticket = SessionTicket.decode(body)
    except ChannelError:
        return
    assert ticket.encode() == body


addresses = st.text(max_size=15)
ports = st.integers(1, 65535)


@st.composite
def packets(draw):
    kind = draw(st.sampled_from(list(FoKind)))
    return Packet(src=Endpoint(draw(addresses), draw(ports)),
                  dst=Endpoint(draw(addresses), draw(ports)),
                  flags=TcpFlags(draw(st.integers(0, 7))), fo_kind=kind,
                  fo_cookie=(draw(st.binary(min_size=16, max_size=16))
                             if kind is FoKind.COOKIE else None),
                  ack_len=draw(st.integers(0, 2**32 - 1)),
                  payload=draw(blobs))


@settings(fuzz, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=st.integers(0, 2**64 - 1), pkt=packets())
def test_packet_encode_decode_round_trip(tmp_path, t, pkt):
    path = tmp_path / "packet.fopcap"
    path.write_bytes(capture_bytes([(t, pkt)]))
    assert read_capture(path) == [(t, pkt)]


randoms = st.binary(min_size=16, max_size=16)
key_shares = st.binary(min_size=32, max_size=32)
# every flags byte a hello may carry: a ticket offer may carry early data,
# and a retry request carries no other flag
chlo_flags = st.sampled_from([f for f in range(8)
                              if not f & FLAG_EARLY or f & FLAG_PSK])
shlo_flags = st.sampled_from([0, SHLO_PSK_OK, SHLO_FOP_OK,
                              SHLO_PSK_OK | SHLO_FOP_OK, SHLO_RETRY])


@st.composite
def hellos(draw, msg):
    """A hello record of type ``msg`` under any flags byte, laid out as
    those flags select: a CHLO offering a ticket (FLAG_PSK) carries its
    id, any other CHLO a key share; a SHLO accepting one (SHLO_PSK_OK)
    carries a random, a retry request (SHLO_RETRY) nothing, any other
    SHLO a random and a key share. The flags are mostly valid ones, and
    the hostname mostly the served one."""
    valid = chlo_flags if msg == MSG_CHLO else shlo_flags
    flags = draw(st.one_of(valid, st.integers(0, 255)))
    body = bytes([msg, flags])
    if msg == MSG_CHLO:
        body += draw(randoms) + draw(randoms if flags & FLAG_PSK else key_shares)
    elif not flags & SHLO_RETRY:
        body += draw(randoms)
        if not flags & SHLO_PSK_OK:
            body += draw(key_shares)
    hostname = draw(hostnames)
    return frame(REC_HANDSHAKE, body + bytes([len(hostname)]) + hostname)


@fuzz
@given(flags=shlo_flags, random=randoms, key_share=key_shares,
       hostname=st.text(max_size=20))
def test_shlo_encode_decode_round_trip(flags, random, key_share, hostname):
    # an accepted PSK (psk_ke) carries no key share, a retry request
    # neither a random nor a share; every other SHLO carries both
    if flags & SHLO_RETRY:
        random = None
    pub = None if flags & (SHLO_PSK_OK | SHLO_RETRY) else key_share
    body = _encode_shlo(flags, random, pub, hostname)
    assert _decode_shlo(body) == (flags, random, pub, hostname)


@fuzz
@given(flags=chlo_flags, random=randoms, key_share=key_shares,
       ticket_id=randoms, hostname=st.text(max_size=20))
def test_chlo_encode_decode_round_trip(flags, random, key_share, ticket_id,
                                       hostname):
    # a ticket offer (psk_ke) carries the ticket id and no key share
    if flags & FLAG_PSK:
        key_share = None
    else:
        ticket_id = None
    body = _encode_chlo(flags, random, key_share, ticket_id, hostname)
    assert _decode_chlo(body) == (flags, random, key_share, ticket_id, hostname)


@pytest.mark.parametrize("msg, decode, encode", [
    (MSG_CHLO, _decode_chlo, _encode_chlo),
    (MSG_SHLO, _decode_shlo, _encode_shlo)], ids=["chlo", "shlo"])
@fuzz
@given(data=st.data())
def test_hello_decode_is_canonical(msg, decode, encode, data):
    # a hello body that decodes is the one encoding of its fields
    [(_, body)] = parse_records(data.draw(hellos(msg)))
    body += data.draw(st.sampled_from([b"", b"\x00", b"junk"]))
    try:
        fields = decode(body)
    except ChannelError:
        return
    assert encode(*fields) == body


@fuzz
@given(hello=hellos(MSG_CHLO), after=st.lists(hellos(MSG_CHLO), max_size=2),
       tail=st.binary(max_size=40))
def test_server_session_raises_only_channel_error(hello, after, tail):
    rng = np.random.default_rng(0)
    session = ServerSession(hostnames=(HOST.decode(),),
                            cookie_key=ServerCookieKey.generate(rng),
                            ticket_store={}, rng=rng, client_ip="203.0.113.1",
                            issued_cookies=[])
    try:
        session.on_bytes(hello + tail, 0)
        for flight in after:  # as after a retry request
            session.on_bytes(flight, 1)
    except ChannelError:
        pass


@fuzz
@given(offer=st.booleans(), replies=st.lists(hellos(MSG_SHLO), min_size=1,
                                             max_size=3),
       tail=st.binary(max_size=40))
def test_client_session_raises_only_channel_error(offer, replies, tail):
    rng = np.random.default_rng(0)
    ticket = None
    if offer:
        ticket = SessionTicket(rng.bytes(16), rng.bytes(16), None, 0)
    session = ClientSession(HOST.decode(), rng, ClientTlsCache(),
                            None, fop=True, ticket=ticket)
    session.first_flight()
    try:
        for reply in replies[:-1]:  # retry requests, or hellos that fail
            session.on_bytes(reply)
        session.on_bytes(replies[-1] + tail)
    except ChannelError:
        pass
