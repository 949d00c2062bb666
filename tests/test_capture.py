import pytest

from fopsim.capture import (
    MAGIC,
    CaptureError,
    capture_bytes,
    read_capture,
    write_capture,
)
from fopsim.simcore import Endpoint, FoKind, Packet, TcpFlags
from fopsim.stack import World, schedule_fetch
from fopsim.transport import TcpVariant


def sample_packets():
    return [
        (0, Packet(src=Endpoint("203.0.113.1", 50001),
                   dst=Endpoint("198.51.100.1", 443), flags=TcpFlags.SYN,
                   fo_kind=FoKind.REQUEST)),
        (30, Packet(src=Endpoint("198.51.100.1", 443),
                    dst=Endpoint("203.0.113.1", 50001),
                    flags=TcpFlags.SYN | TcpFlags.ACK,
                    fo_kind=FoKind.COOKIE, fo_cookie=bytes(range(16)),
                    ack_len=120, payload=b"\x00\x01records")),
        (60, Packet(src=Endpoint("2001:db8::1", 50002),
                    dst=Endpoint("2001:db8::2", 443), flags=TcpFlags.ACK,
                    payload=b"")),
        (90, Packet(src=Endpoint("203.0.113.1", 50001),
                    dst=Endpoint("198.51.100.1", 443), flags=TcpFlags.RST)),
    ]


def record_body(t, pkt):
    """The body of ``pkt``'s capture record: what follows its u32 length."""
    return capture_bytes([(t, pkt)])[len(MAGIC) + 4:]


def read_records(tmp_path, *bodies):
    """The packets of a capture holding one record per body."""
    path = tmp_path / "records.fopcap"
    path.write_bytes(MAGIC + b"".join(len(body).to_bytes(4, "big") + body
                                      for body in bodies))
    return read_capture(path)


def test_round_trip_preserves_wire_fields(tmp_path):
    path = tmp_path / "trace.fopcap"
    write_capture(path, sample_packets())
    loaded = read_capture(path)
    for (t0, p0), (t1, p1) in zip(sample_packets(), loaded):
        assert t0 == t1
        assert (p0.src, p0.dst, p0.flags, p0.fo_kind, p0.fo_cookie,
                p0.ack_len, p0.payload) == \
               (p1.src, p1.dst, p1.flags, p1.fo_kind, p1.fo_cookie,
                p1.ack_len, p1.payload)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.fopcap"
    path.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(CaptureError):
        read_capture(path)


def test_truncated_file_rejected(tmp_path):
    blob = capture_bytes(sample_packets())
    path = tmp_path / "cut.fopcap"
    path.write_bytes(blob[:-3])
    with pytest.raises(CaptureError):
        read_capture(path)


def test_malformed_packet_record_raises_capture_error(tmp_path):
    record = record_body(*sample_packets()[1])
    assert read_records(tmp_path, record)[0][1].payload == b"\x00\x01records"
    for body in (b"12345", record[:20], record[:-1]):
        with pytest.raises(CaptureError):
            read_records(tmp_path, body)


def test_packet_record_with_trailing_bytes_raises_capture_error(tmp_path):
    record = record_body(*sample_packets()[1])
    with pytest.raises(CaptureError):
        read_records(tmp_path, record + b"\x00junk")


def test_capture_bytes_deterministic():
    assert capture_bytes(sample_packets()) == capture_bytes(sample_packets())
    assert capture_bytes(sample_packets()).startswith(MAGIC)


def test_live_trace_round_trips(tmp_path):
    world = World(3, 30, 30)
    world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
    client = world.add_client("alice", "203.0.113.1", TcpVariant.TFO,
                              lifetime=None, gateway=None)
    tap = world.attach_tap()
    for k in range(2):
        schedule_fetch(world, client, "shop.example", (), k * 5_000, "x", "x")
    world.run()
    path = tmp_path / "live.fopcap"
    write_capture(path, tap)
    loaded = read_capture(path)
    assert len(loaded) == len(tap)
    assert capture_bytes(loaded) == capture_bytes(tap)


def test_unknown_flag_bits_raise_capture_error(tmp_path):
    record = bytearray(record_body(*sample_packets()[2]))
    assert read_records(tmp_path, bytes(record))[0][1].flags == TcpFlags.ACK
    for flags in (0x10, 0x80, 0xF2, 0xFF):
        record[8] = flags
        with pytest.raises(CaptureError, match="flag"):
            read_records(tmp_path, bytes(record))


def test_unknown_fast_open_tag_raises_capture_error(tmp_path):
    record = bytearray(record_body(*sample_packets()[2]))
    for tag in (3, 0xFF):
        record[9] = tag
        with pytest.raises(CaptureError, match="Fast Open tag"):
            read_records(tmp_path, bytes(record))


def test_shared_endpoints_round_trip_every_field(tmp_path):
    client, server = Endpoint("203.0.113.1", 50001), Endpoint("198.51.100.1", 443)
    other = Endpoint("203.0.113.1", 50002)
    packets = [
        (0, Packet(client, server, TcpFlags.SYN, FoKind.COOKIE, bytes(16), 0,
                   b"early")),
        (30, Packet(server, client, TcpFlags.SYN | TcpFlags.ACK, ack_len=5)),
        (31, Packet(client, server, TcpFlags.ACK, payload=b"request")),
        (40, Packet(other, server, TcpFlags.SYN, FoKind.REQUEST)),
        (70, Packet(server, other, TcpFlags.SYN | TcpFlags.ACK, FoKind.COOKIE,
                    bytes(range(16)))),
        (90, Packet(client, server, TcpFlags.FIN | TcpFlags.ACK)),
    ]
    path = tmp_path / "shared.fopcap"
    write_capture(path, packets)
    loaded = read_capture(path)
    assert loaded == packets
    for (_, sent), (_, got) in zip(packets, loaded):
        assert type(got.flags) is TcpFlags and got.fo_kind is sent.fo_kind
    assert capture_bytes(loaded) == path.read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "port-zero", "bad-utf8"])
def test_damaged_endpoint_after_a_cached_one_raises(tmp_path, damage):
    # the first record caches its source endpoint; the second starts its
    # source with the same bytes, then breaks them
    t, pkt = sample_packets()[0]
    good = capture_bytes([(t, pkt)])[len(MAGIC):]
    body = bytearray(good[4:])
    ip = pkt.src.ip.encode()
    start = 14                       # the source endpoint follows the fields
    port_at = start + 1 + len(ip)
    assert body[start] == len(ip) and body[start + 1:port_at] == ip
    if damage == "truncated":
        body = body[:port_at + 1]
    elif damage == "port-zero":
        body[port_at:port_at + 2] = b"\x00\x00"
    else:
        body[port_at - 1] = 0xFF
    path = tmp_path / "damaged.fopcap"
    path.write_bytes(MAGIC + good + len(body).to_bytes(4, "big") + body)
    with pytest.raises(CaptureError, match="truncated endpoint"
                       if damage == "truncated" else "malformed"):
        read_capture(path)
    path.write_bytes(MAGIC + good + good)
    assert len(read_capture(path)) == 2
