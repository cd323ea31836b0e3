"""On-disk framing for :class:`~repro.core.stablelog.StableLog` records.

Every log record is serialized as a *frame*::

    u8  type tag | u8 flags | u16 window | u32 interval
    u32 payload length | u32 CRC32(payload)
    payload bytes

and frames are grouped into per-flush *segments*::

    u32 magic | u32 segment seq | u32 record count | u32 reserved
    frame*

The frame header is the integrity unit: each payload carries its own
CRC32, so a latent bit flip quarantines one record (and, because
replay needs a causally complete prefix, everything after it) rather
than the whole segment.  The length prefix makes frames
self-delimiting, which is what lets salvage decode the longest valid
prefix of a torn segment at byte granularity.

A payload is its record's declared fields (:mod:`repro.core.logrecords`),
from which ``LogRecord.nbytes`` is derived too: the byte accounting
everywhere in the simulator (``bytes_flushed``, Table-2 log sizes,
recovery read charges) is what a real disk would see, headers and
checksums included.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from ..errors import LogFormatError, ReproError
from .logrecords import FRAME_HEADER_BYTES, RECORD_TYPES, LogRecord

__all__ = [
    "FRAME_HEADER_BYTES", "SEGMENT_HEADER_BYTES", "SEGMENT_MAGIC",
    "encode_record", "encode_record_into", "decode_record",
    "encode_segment", "decode_segment",
]

#: type u8 | flags u8 | window u16 | interval u32 | payload_len u32 | crc u32
_FRAME = struct.Struct("<BBHIII")
assert _FRAME.size == FRAME_HEADER_BYTES
_FRAME_BLANK = bytes(FRAME_HEADER_BYTES)

#: magic u32 | seq u32 | nrecords u32 | reserved u32
_SEGHDR = struct.Struct("<IIII")
SEGMENT_HEADER_BYTES = _SEGHDR.size
SEGMENT_MAGIC = 0x53454731  # "SEG1"

_U32 = struct.Struct("<I")


def encode_record_into(out: bytearray, rec: LogRecord) -> None:
    """Append one framed record to ``out`` with no intermediate joins.

    The payload is written directly into ``out`` (page images and
    packed diffs copy once, through the buffer protocol); the CRC is
    then computed over memoryviews of the in-place header prefix and
    payload and patched into the reserved header slot.

    The CRC covers the header prefix *and* the payload, so a bit flip
    anywhere in the frame (a retagged type, a shifted interval, a
    damaged diff word) is detected rather than silently replayed.
    """
    assert rec.window < 0x10000, f"window tag {rec.window} overflows u16"
    hdr = len(out)
    out += _FRAME_BLANK
    start = hdr + FRAME_HEADER_BYTES
    rec.LAYOUT.enc(out, rec)
    plen = len(out) - start
    assert plen == rec.nbytes - FRAME_HEADER_BYTES, (
        f"{type(rec).__name__}: encoded {plen} payload bytes but "
        f"nbytes promises {rec.nbytes - FRAME_HEADER_BYTES}")
    # the CRC word is packed as 0 and patched in once computed
    _FRAME.pack_into(out, hdr, rec.TAG, 0, rec.window, rec.interval, plen, 0)
    view = memoryview(out)
    crc = zlib.crc32(view[start:], zlib.crc32(view[hdr:hdr + 12])) & 0xFFFFFFFF
    view.release()
    _U32.pack_into(out, hdr + 12, crc)


def encode_record(rec: LogRecord) -> bytes:
    """Serialize one record as a framed byte string."""
    out = bytearray()
    encode_record_into(out, rec)
    return bytes(out)


def decode_record(buf: bytes, off: int = 0) -> Tuple[LogRecord, int]:
    """Decode one frame at ``off``; returns ``(record, next_offset)``.

    Raises :class:`~repro.errors.LogFormatError` on a short frame, an
    unknown type tag, a CRC mismatch, or a payload that fails to parse.
    """
    remaining = len(buf) - off
    if remaining < FRAME_HEADER_BYTES:
        raise LogFormatError(
            f"truncated frame header: {remaining} bytes at offset {off}")
    tag, _flags, window, interval, plen, crc = _FRAME.unpack_from(buf, off)
    cls = RECORD_TYPES.get(tag)
    if cls is None:
        raise LogFormatError(f"unknown record type tag {tag} at offset {off}")
    if plen > remaining - FRAME_HEADER_BYTES:
        raise LogFormatError(
            f"frame payload length {plen} exceeds remaining "
            f"{remaining - FRAME_HEADER_BYTES} bytes at offset {off}")
    start = off + FRAME_HEADER_BYTES
    view = memoryview(buf)
    payload = view[start:start + plen]
    prefix_crc = zlib.crc32(view[off:off + 12])
    if zlib.crc32(payload, prefix_crc) & 0xFFFFFFFF != crc:
        raise LogFormatError(
            f"CRC mismatch in type-{tag} frame at offset {off}")
    try:
        rec, _ = cls.LAYOUT.dec(payload, 0, None, interval, window)
        nbytes = rec.nbytes
    except (struct.error, ValueError, ReproError) as exc:
        raise LogFormatError(
            f"unparseable type-{tag} payload at offset {off}: {exc}") from exc
    end = start + plen
    if nbytes != end - off:
        raise LogFormatError(
            f"frame at offset {off} decoded to {end - off} bytes but the "
            f"record accounts for {nbytes}")
    return rec, end


def encode_segment(seq: int, records: List[LogRecord]) -> bytes:
    """Serialize one per-flush segment (header + framed records).

    Accumulates the whole segment in one growable bytearray -- the
    flush path performs no per-record bytes joins.
    """
    out = bytearray(_SEGHDR.pack(SEGMENT_MAGIC, seq, len(records), 0))
    for r in records:
        encode_record_into(out, r)
    return bytes(out)


def decode_segment(
    data: bytes,
) -> Tuple[List[LogRecord], int, Optional[str]]:
    """Decode the longest valid prefix of a segment's frames.

    Returns ``(records, consumed_bytes, error)`` where ``error`` is
    ``None`` only if the header was sound and every declared frame
    decoded cleanly.  A torn or corrupt tail yields the records decoded
    before the damage -- exactly what the salvage scan keeps.
    """
    if len(data) < SEGMENT_HEADER_BYTES:
        return [], 0, f"truncated segment header: {len(data)} bytes"
    magic, seq, nrecords, _reserved = _SEGHDR.unpack_from(data, 0)
    if magic != SEGMENT_MAGIC:
        return [], 0, f"bad segment magic {magic:#010x} (seq field {seq})"
    records: List[LogRecord] = []
    off = SEGMENT_HEADER_BYTES
    for i in range(nrecords):
        try:
            rec, off = decode_record(data, off)
        except LogFormatError as exc:
            return records, off, f"frame {i}/{nrecords} of seq {seq}: {exc}"
        records.append(rec)
    if off != len(data):
        return records, off, (
            f"segment seq {seq}: {len(data) - off} trailing bytes after "
            f"{nrecords} frames"
        )
    return records, off, None
