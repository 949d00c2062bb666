"""Length-prefixed packet capture files.

Layout: a 5-byte magic ("FOPC" + format version), then one record per
packet: u32 record length, u64 send time (ms), u8 flags, u8 Fast Open tag
(+16 cookie bytes when the tag says cookie), u32 acked payload length,
source and destination endpoints (u8 address length + UTF-8 address + u16
port), u32 payload length + payload. All integers big-endian. That is
every Packet field: the file is the wire view. The flags byte holds only
SYN (1), ACK (2), FIN (4) and RST (8); a record with another bit set, an
unknown tag or bytes left over raises CaptureError.
"""

from __future__ import annotations

import io
import struct
from typing import Iterable

from .simcore import Endpoint, FoKind, Packet, SimTime, TcpFlags

__all__ = ["MAGIC", "CaptureError", "write_capture", "read_capture",
           "capture_bytes", "decode_capture"]

MAGIC = b"FOPC\x01"

_U32 = struct.Struct(">I")
# a record body's fields before its endpoints: send time, flags, Fast Open
# tag, the cookie when the tag says cookie, and the acked payload length
_FIELDS = struct.Struct(">QBBI")
_COOKIE_FIELDS = struct.Struct(">QBB16sI")
_COOKIE = int(FoKind.COOKIE)
# decode tables: the Fast Open kind of each tag (FoKind values are 0, 1, 2)
# and the TcpFlags of each valid flags byte (any mix of SYN, ACK, FIN
# and RST)
_FO_KINDS = tuple(FoKind)
_FLAGS = {v: TcpFlags(v) for v in range(16)}


class CaptureError(Exception):
    pass


def _encode_endpoint(ep: Endpoint) -> bytes:
    ip = ep.ip.encode("utf-8")
    return struct.pack(">B", len(ip)) + ip + struct.pack(">H", ep.port)


def capture_bytes(packets: Iterable[tuple[SimTime, Packet]]) -> bytes:
    out = io.BytesIO()
    write, u32 = out.write, _U32.pack
    write(MAGIC)
    encoded: dict[tuple[str, int], bytes] = {}  # each endpoint, encoded once
    for t, pkt in packets:
        src, dst, payload = pkt.src, pkt.dst, pkt.payload
        src_bytes = encoded.get((src.ip, src.port))
        if src_bytes is None:
            src_bytes = encoded[src.ip, src.port] = _encode_endpoint(src)
        dst_bytes = encoded.get((dst.ip, dst.port))
        if dst_bytes is None:
            dst_bytes = encoded[dst.ip, dst.port] = _encode_endpoint(dst)
        if pkt.fo_kind is FoKind.COOKIE:
            fields = _COOKIE_FIELDS.pack(t, pkt.flags, pkt.fo_kind,
                                         pkt.fo_cookie, pkt.ack_len)
        else:
            fields = _FIELDS.pack(t, pkt.flags, pkt.fo_kind, pkt.ack_len)
        write(u32(len(fields) + len(src_bytes) + len(dst_bytes) + 4
                  + len(payload)))
        write(fields)
        write(src_bytes)
        write(dst_bytes)
        write(u32(len(payload)))
        write(payload)
    return out.getvalue()


def _decode_endpoint(body: bytes, off: int, cache: dict) -> tuple[Endpoint, int]:
    """The endpoint at ``off`` and the offset after it. ``cache`` maps the
    raw bytes of each endpoint decoded so far to its Endpoint."""
    end = off + 3 + body[off]
    raw = body[off:end]
    if len(raw) != end - off:
        raise CaptureError("truncated endpoint")
    ep = cache.get(raw)
    if ep is None:
        # Endpoint rejects a bad port with ValueError
        ep = cache[raw] = Endpoint(raw[1:-2].decode("utf-8"),
                                   int.from_bytes(raw[-2:], "big"))
    return ep, end


def _decode(body: bytes, endpoints: dict) -> tuple[SimTime, Packet]:
    """One record body; ``endpoints`` is ``_decode_endpoint``'s cache."""
    try:
        if body[9] == _COOKIE:  # the tag byte
            t, flags, tag, cookie, ack_len = _COOKIE_FIELDS.unpack_from(body)
            off = _COOKIE_FIELDS.size
        else:
            t, flags, tag, ack_len = _FIELDS.unpack_from(body)
            cookie, off = None, _FIELDS.size
        src, off = _decode_endpoint(body, off, endpoints)
        dst, off = _decode_endpoint(body, off, endpoints)
        (paylen,) = _U32.unpack_from(body, off)
        off += 4
        if len(body) != off + paylen:
            raise CaptureError("payload length does not match the record")
        if flags not in _FLAGS:
            raise CaptureError(f"unknown TCP flag bits: {flags:#04x}")
        if tag >= len(_FO_KINDS):
            raise CaptureError(f"unknown Fast Open tag: {tag}")
        return t, Packet(src, dst, _FLAGS[flags], _FO_KINDS[tag], cookie,
                         ack_len, body[off:])
    except (struct.error, IndexError, ValueError) as exc:
        raise CaptureError(f"malformed packet record: {exc}") from exc


def write_capture(path, packets: Iterable[tuple[SimTime, Packet]]) -> None:
    with open(path, "wb") as fh:
        fh.write(capture_bytes(packets))


def read_capture(path) -> list[tuple[SimTime, Packet]]:
    with open(path, "rb") as fh:
        return decode_capture(fh.read())


def decode_capture(data: bytes) -> list[tuple[SimTime, Packet]]:
    """The packets of ``data``, a capture's bytes."""
    if not data.startswith(MAGIC):
        raise CaptureError("not a capture file (bad magic)")
    packets = []
    endpoints: dict[bytes, Endpoint] = {}
    off = len(MAGIC)
    while off < len(data):
        if off + 4 > len(data):
            raise CaptureError("truncated record header")
        (length,) = _U32.unpack_from(data, off)
        off += 4
        if off + length > len(data):
            raise CaptureError("truncated record body")
        packets.append(_decode(data[off:off + length], endpoints))
        off += length
    return packets
