import pytest

from fopsim.capture import (
    MAGIC,
    CaptureError,
    capture_bytes,
    decode_packet,
    encode_packet,
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
    ]


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


def test_malformed_packet_record_raises_capture_error():
    record = encode_packet(*sample_packets()[1])[4:]
    assert decode_packet(record)[1].payload == b"\x00\x01records"
    for body in (b"12345", record[:20], record[:-1]):
        with pytest.raises(CaptureError):
            decode_packet(body)


def test_packet_record_with_trailing_bytes_raises_capture_error():
    record = encode_packet(*sample_packets()[1])[4:]
    with pytest.raises(CaptureError):
        decode_packet(record + b"\x00junk")


def test_capture_bytes_deterministic():
    assert capture_bytes(sample_packets()) == capture_bytes(sample_packets())
    assert capture_bytes(sample_packets()).startswith(MAGIC)


def test_live_trace_round_trips(tmp_path):
    world = World(3, 30, 30)
    world.add_pool("shop.example", ["198.51.100.1"])
    client = world.add_client("alice", "203.0.113.1")
    tap = world.attach_tap()
    for k in range(2):
        schedule_fetch(world, client, "shop.example", (), k * 5_000,
                       variant=TcpVariant.TFO, truth_label="x",
                       context_label="x")
    world.run()
    path = tmp_path / "live.fopcap"
    write_capture(path, tap)
    loaded = read_capture(path)
    assert len(loaded) == len(tap)
    assert capture_bytes(loaded) == capture_bytes(tap)
