"""Length-prefixed packet capture files.

Layout: a 5-byte magic ("FOPC" + format version), then one record per
packet: u32 record length, u64 send time (ms), u8 flags, u8 Fast Open tag
(+16 cookie bytes when the tag says cookie), u32 acked payload length,
source and destination endpoints (u8 address length + UTF-8 address + u16
port), u32 payload length + payload. All integers big-endian. That is
every Packet field: the file is the wire view.
"""

from __future__ import annotations

import io
import struct
from typing import Iterable

from .simcore import Endpoint, FoKind, Packet, SimTime, TcpFlags

__all__ = ["MAGIC", "CaptureError", "encode_packet", "decode_packet",
           "write_capture", "read_capture", "capture_bytes"]

MAGIC = b"FOPC\x01"


class CaptureError(Exception):
    pass


def _encode_endpoint(ep: Endpoint) -> bytes:
    ip = ep.ip.encode("utf-8")
    return struct.pack(">B", len(ip)) + ip + struct.pack(">H", ep.port)


def _decode_endpoint(buf: bytes, off: int) -> tuple[Endpoint, int]:
    (iplen,) = struct.unpack_from(">B", buf, off)
    off += 1
    ip = buf[off:off + iplen].decode("utf-8")
    off += iplen
    (port,) = struct.unpack_from(">H", buf, off)
    return Endpoint(ip, port), off + 2


def encode_packet(t: SimTime, pkt: Packet) -> bytes:
    body = struct.pack(">QBB", t, int(pkt.flags), int(pkt.fo_kind))
    if pkt.fo_kind is FoKind.COOKIE:
        body += pkt.fo_cookie
    body += struct.pack(">I", pkt.ack_len)
    body += _encode_endpoint(pkt.src)
    body += _encode_endpoint(pkt.dst)
    body += struct.pack(">I", len(pkt.payload)) + pkt.payload
    return struct.pack(">I", len(body)) + body


def decode_packet(body: bytes) -> tuple[SimTime, Packet]:
    try:
        t, flags, fo_kind = struct.unpack_from(">QBB", body, 0)
        off = 10
        cookie = None
        if fo_kind == int(FoKind.COOKIE):
            cookie = body[off:off + 16]
            off += 16
        (ack_len,) = struct.unpack_from(">I", body, off)
        off += 4
        src, off = _decode_endpoint(body, off)
        dst, off = _decode_endpoint(body, off)
        (paylen,) = struct.unpack_from(">I", body, off)
        off += 4
        if len(body) != off + paylen:
            raise CaptureError("payload length does not match the record")
        payload = body[off:]
        # the constructors reject unknown option tags, bad ports and
        # short cookies with ValueError
        return t, Packet(src=src, dst=dst, flags=TcpFlags(flags),
                         fo_kind=FoKind(fo_kind), fo_cookie=cookie,
                         ack_len=ack_len, payload=payload)
    except (struct.error, ValueError) as exc:
        raise CaptureError(f"malformed packet record: {exc}") from exc


def capture_bytes(packets: Iterable[tuple[SimTime, Packet]]) -> bytes:
    out = io.BytesIO()
    out.write(MAGIC)
    for t, pkt in packets:
        out.write(encode_packet(t, pkt))
    return out.getvalue()


def write_capture(path, packets: Iterable[tuple[SimTime, Packet]]) -> None:
    with open(path, "wb") as fh:
        fh.write(capture_bytes(packets))


def read_capture(path) -> list[tuple[SimTime, Packet]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise CaptureError("not a capture file (bad magic)")
    packets = []
    off = len(MAGIC)
    while off < len(data):
        if off + 4 > len(data):
            raise CaptureError("truncated record header")
        (length,) = struct.unpack_from(">I", data, off)
        off += 4
        if off + length > len(data):
            raise CaptureError("truncated record body")
        packets.append(decode_packet(data[off:off + length]))
        off += length
    return packets
