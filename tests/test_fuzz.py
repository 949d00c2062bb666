"""Parse boundaries under arbitrary input: each rejects what it cannot
parse with its module's own error type, and nothing else escapes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fopsim.capture import (
    MAGIC,
    CaptureError,
    decode_packet,
    encode_packet,
    read_capture,
)
from fopsim.cookies import ServerCookieKey
from fopsim.simcore import Endpoint, FoKind, Packet, TcpFlags
from fopsim.tlschan import (
    FLAG_PSK,
    MSG_CHLO,
    MSG_SHLO,
    REC_HANDSHAKE,
    SHLO_PSK_OK,
    ChannelError,
    ClientSession,
    ServerSession,
    SessionTicket,
    _decode_chlo,
    _decode_shlo,
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


@fuzz
@given(data=blobs)
def test_decode_packet_raises_only_capture_error(data):
    try:
        decode_packet(data)
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


@fuzz
@given(t=st.integers(0, 2**64 - 1), pkt=packets())
def test_packet_encode_decode_round_trip(t, pkt):
    record = encode_packet(t, pkt)
    assert decode_packet(record[4:]) == (t, pkt)


def _hello(msg, flags, random, key_share, hostname, ticket_id=b""):
    return frame(REC_HANDSHAKE, bytes([msg, flags]) + random + key_share
                 + ticket_id + bytes([len(hostname)]) + hostname)


randoms = st.binary(min_size=16, max_size=16)
key_shares = st.binary(min_size=32, max_size=32)


@fuzz
@given(flags=st.integers(0, 255), random=randoms, key_share=key_shares,
       hostname=st.text(max_size=20))
def test_shlo_encode_decode_round_trip(flags, random, key_share, hostname):
    # an accepted PSK (psk_ke) carries no key share; every other SHLO does
    pub = None if flags & SHLO_PSK_OK else key_share
    body = _encode_shlo(flags, random, pub, hostname)
    assert _decode_shlo(body) == (flags, random, pub, hostname)


@fuzz
@given(flags=st.integers(0, 255), random=randoms, key_share=key_shares,
       ticket_id=randoms, hostname=hostnames, tail=st.binary(max_size=40))
def test_server_session_raises_only_channel_error(flags, random, key_share,
                                                  ticket_id, hostname, tail):
    rng = np.random.default_rng(0)
    session = ServerSession(hostnames=(HOST.decode(),),
                            cookie_key=ServerCookieKey.generate(rng),
                            ticket_store={}, rng=rng, client_ip="203.0.113.1")
    flight = _hello(MSG_CHLO, flags, random, key_share, hostname,
                    ticket_id if flags & FLAG_PSK else b"")
    try:
        session.on_bytes(flight + tail, 0)
    except ChannelError:
        pass


@fuzz
@given(flags=st.integers(0, 255), random=randoms, key_share=key_shares,
       hostname=hostnames, tail=st.binary(max_size=40))
def test_client_session_raises_only_channel_error(flags, random, key_share,
                                                  hostname, tail):
    session = ClientSession(HOST.decode(), np.random.default_rng(0))
    try:
        session.on_bytes(_hello(MSG_SHLO, flags, random, key_share, hostname)
                         + tail)
    except ChannelError:
        pass
