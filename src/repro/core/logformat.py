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

Byte accounting everywhere in the simulator (``bytes_flushed``,
Table-2 log sizes, recovery read charges) is derived from this
encoding via ``LogRecord.nbytes`` -- :func:`encode_record` asserts the
two agree, so the sizes the harness reports are the sizes a real disk
would see, headers and checksums included.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

import numpy as np

from ..dsm.interval import IntervalRecord, VectorClock
from ..errors import LogFormatError, ReproError
from ..memory.diff import (
    DIFF_HEADER_BYTES,
    RUN_HEADER_BYTES,
    Diff,
    decode_diff,
    encode_diff,
)
from .logrecords import (
    FRAME_HEADER_BYTES,
    FetchLogRecord,
    IncomingDiffLogRecord,
    LogRecord,
    ModeSwitchLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)

__all__ = [
    "FRAME_HEADER_BYTES",
    "SEGMENT_HEADER_BYTES",
    "SEGMENT_MAGIC",
    "TYPE_TAGS",
    "encode_record",
    "encode_record_into",
    "decode_record",
    "encode_segment",
    "decode_segment",
]

#: type u8 | flags u8 | window u16 | interval u32 | payload_len u32 | crc u32
_FRAME = struct.Struct("<BBHIII")
assert _FRAME.size == FRAME_HEADER_BYTES
#: The header minus the trailing CRC word (patched in after the fact).
_FRAME12 = struct.Struct("<BBHII")
_FRAME_BLANK = bytes(FRAME_HEADER_BYTES)

#: magic u32 | seq u32 | nrecords u32 | reserved u32
_SEGHDR = struct.Struct("<IIII")
SEGMENT_HEADER_BYTES = _SEGHDR.size
SEGMENT_MAGIC = 0x53454731  # "SEG1"

TYPE_TAGS = {
    NoticeLogRecord: 1,
    FetchLogRecord: 2,
    PageCopyLogRecord: 3,
    UpdateEventLogRecord: 4,
    IncomingDiffLogRecord: 5,
    OwnDiffLogRecord: 6,
    ModeSwitchLogRecord: 7,
}
_BY_TAG = {tag: cls for cls, tag in TYPE_TAGS.items()}

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_NONE_VT = 0xFFFFFFFF


# ----------------------------------------------------------------------
# field codecs
# ----------------------------------------------------------------------
def _enc_vt(out: bytearray, vt: Optional[VectorClock]) -> None:
    """``u32 count`` (0xFFFFFFFF = None) + ``count`` u32 components."""
    if vt is None:
        out += _U32.pack(_NONE_VT)
        return
    out += _U32.pack(len(vt))
    out += struct.pack(f"<{len(vt)}I", *vt.as_tuple())


def _dec_vt(buf: bytes, off: int) -> Tuple[Optional[VectorClock], int]:
    (count,) = _U32.unpack_from(buf, off)
    off += 4
    if count == _NONE_VT:
        return None, off
    vals = struct.unpack_from(f"<{count}I", buf, off)
    return VectorClock(vals), off + 4 * count


def _enc_diff(out: bytearray, d: Diff) -> None:
    # encode_diff returns a packed uint8 ndarray; appending its .data
    # memoryview copies once into ``out`` (no .tobytes() intermediate;
    # a bare ``out += ndarray`` would dispatch to numpy broadcasting).
    out += encode_diff(d).data


def _dec_diff(buf: bytes, off: int) -> Tuple[Diff, int]:
    """Decode one self-delimiting packed diff starting at ``off``."""
    if len(buf) - off < DIFF_HEADER_BYTES:
        raise LogFormatError("truncated diff header")
    _page, wc, rc, _flags = struct.unpack_from("<IIII", buf, off)
    size = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * rc + 4 * wc
    if len(buf) - off < size:
        raise LogFormatError("truncated diff body")
    # .copy(): decode_diff keeps zero-copy views into its input, but the
    # frame buffer is transient
    arr = np.frombuffer(buf, dtype=np.uint8, count=size, offset=off).copy()
    return decode_diff(arr), off + size


# ----------------------------------------------------------------------
# payload codecs, one per record type
# ----------------------------------------------------------------------
def _payload_notice(out: bytearray, r: NoticeLogRecord) -> None:
    out += _U32.pack(len(r.records))
    for ir in r.records:
        out += struct.pack("<iiI", ir.node, ir.index, len(ir.pages))
        _enc_vt(out, ir.vt)
        out += struct.pack(f"<{len(ir.pages)}I", *ir.pages)


def _parse_notice(rec: NoticeLogRecord, buf: bytes) -> None:
    (count,) = _U32.unpack_from(buf, 0)
    off = 4
    for _ in range(count):
        node, index, npages = struct.unpack_from("<iiI", buf, off)
        off += 12
        vt, off = _dec_vt(buf, off)
        pages = struct.unpack_from(f"<{npages}I", buf, off)
        off += 4 * npages
        if vt is None:
            raise LogFormatError("notice interval record without a clock")
        rec.records.append(IntervalRecord(node, index, vt, tuple(pages)))


def _payload_fetch(out: bytearray, r: FetchLogRecord) -> None:
    out += _I32.pack(r.page)
    _enc_vt(out, r.version)


def _parse_fetch(rec: FetchLogRecord, buf: bytes) -> None:
    (rec.page,) = _I32.unpack_from(buf, 0)
    rec.version, _ = _dec_vt(buf, 4)


def _payload_pagecopy(out: bytearray, r: PageCopyLogRecord) -> None:
    out += _I32.pack(r.page)
    _enc_vt(out, r.version)
    if r.contents is None:
        out += _U32.pack(0)
    else:
        # page image appended via its memoryview: one copy into the
        # frame, no intermediate bytes object
        out += _U32.pack(len(r.contents))
        out += memoryview(r.contents)


def _parse_pagecopy(rec: PageCopyLogRecord, buf: bytes) -> None:
    (rec.page,) = _I32.unpack_from(buf, 0)
    rec.version, off = _dec_vt(buf, 4)
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    if n:
        rec.contents = np.frombuffer(buf, np.uint8, count=n, offset=off).copy()


def _payload_event(out: bytearray, r: UpdateEventLogRecord) -> None:
    out += struct.pack("<iiiI", r.writer, r.writer_index, r.part, len(r.pages))
    out += struct.pack(f"<{len(r.pages)}I", *r.pages)


def _parse_event(rec: UpdateEventLogRecord, buf: bytes) -> None:
    rec.writer, rec.writer_index, rec.part, npages = struct.unpack_from(
        "<iiiI", buf, 0
    )
    rec.pages = tuple(struct.unpack_from(f"<{npages}I", buf, 16))


def _payload_incoming(out: bytearray, r: IncomingDiffLogRecord) -> None:
    out += struct.pack("<iiI", r.writer, r.writer_index, len(r.diffs))
    _enc_vt(out, r.vt)
    for d in r.diffs:
        _enc_diff(out, d)


def _parse_incoming(rec: IncomingDiffLogRecord, buf: bytes) -> None:
    rec.writer, rec.writer_index, ndiffs = struct.unpack_from("<iiI", buf, 0)
    rec.vt, off = _dec_vt(buf, 12)
    for _ in range(ndiffs):
        d, off = _dec_diff(buf, off)
        rec.diffs.append(d)


def _payload_owndiff(out: bytearray, r: OwnDiffLogRecord) -> None:
    out += struct.pack(
        "<iIII", r.vt_index, len(r.diffs), len(r.home_diffs), len(r.early)
    )
    _enc_vt(out, r.vt)
    for d in r.diffs:
        _enc_diff(out, d)
    for d in r.home_diffs:
        _enc_diff(out, d)
    for part, d, evt in r.early:
        out += _I32.pack(part)
        _enc_diff(out, d)
        _enc_vt(out, evt)


def _parse_owndiff(rec: OwnDiffLogRecord, buf: bytes) -> None:
    rec.vt_index, nd, nh, ne = struct.unpack_from("<iIII", buf, 0)
    rec.vt, off = _dec_vt(buf, 16)
    for _ in range(nd):
        d, off = _dec_diff(buf, off)
        rec.diffs.append(d)
    for _ in range(nh):
        d, off = _dec_diff(buf, off)
        rec.home_diffs.append(d)
    for _ in range(ne):
        (part,) = _I32.unpack_from(buf, off)
        off += 4
        d, off = _dec_diff(buf, off)
        evt, off = _dec_vt(buf, off)
        if evt is None:
            raise LogFormatError("early diff without a clock")
        rec.early.append((part, d, evt))


#: Wire codes for the adaptive protocol's logging modes ("" marks the
#: absent previous mode of the bind-time record).
_MODE_CODES = {"": 0, "ml": 1, "ccl": 2}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}
_MODESWITCH = struct.Struct("<BBHdd")


def _payload_modeswitch(out: bytearray, r: ModeSwitchLogRecord) -> None:
    out += _MODESWITCH.pack(
        _MODE_CODES[r.mode],
        _MODE_CODES[r.prev_mode],
        0,
        r.est_replay_ml,
        r.est_replay_ccl,
    )


def _parse_modeswitch(rec: ModeSwitchLogRecord, buf: bytes) -> None:
    mode, prev, _pad, rec.est_replay_ml, rec.est_replay_ccl = (
        _MODESWITCH.unpack_from(buf, 0)
    )
    if mode not in _MODE_NAMES or prev not in _MODE_NAMES:
        raise LogFormatError(
            f"mode-switch record names unknown mode code {mode}/{prev}"
        )
    rec.mode = _MODE_NAMES[mode]
    rec.prev_mode = _MODE_NAMES[prev]


_ENCODERS = {
    NoticeLogRecord: _payload_notice,
    FetchLogRecord: _payload_fetch,
    PageCopyLogRecord: _payload_pagecopy,
    UpdateEventLogRecord: _payload_event,
    IncomingDiffLogRecord: _payload_incoming,
    OwnDiffLogRecord: _payload_owndiff,
    ModeSwitchLogRecord: _payload_modeswitch,
}
_PARSERS = {
    1: _parse_notice,
    2: _parse_fetch,
    3: _parse_pagecopy,
    4: _parse_event,
    5: _parse_incoming,
    6: _parse_owndiff,
    7: _parse_modeswitch,
}


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
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
    cls = type(rec)
    tag = TYPE_TAGS[cls]
    assert rec.window < 0x10000, f"window tag {rec.window} overflows u16"
    hdr = len(out)
    out += _FRAME_BLANK
    start = hdr + FRAME_HEADER_BYTES
    _ENCODERS[cls](out, rec)
    plen = len(out) - start
    assert plen == rec.nbytes - FRAME_HEADER_BYTES, (
        f"{cls.__name__}: encoded {plen} payload bytes but "
        f"nbytes promises {rec.nbytes - FRAME_HEADER_BYTES}"
    )
    _FRAME12.pack_into(out, hdr, tag, 0, rec.window, rec.interval, plen)
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
            f"truncated frame header: {remaining} bytes at offset {off}"
        )
    tag, _flags, window, interval, plen, crc = _FRAME.unpack_from(buf, off)
    if tag not in _PARSERS:
        raise LogFormatError(f"unknown record type tag {tag} at offset {off}")
    if plen > remaining - FRAME_HEADER_BYTES:
        raise LogFormatError(
            f"frame payload length {plen} exceeds remaining "
            f"{remaining - FRAME_HEADER_BYTES} bytes at offset {off}"
        )
    start = off + FRAME_HEADER_BYTES
    view = memoryview(buf)
    payload = view[start:start + plen]
    prefix_crc = zlib.crc32(view[off:off + 12])
    if zlib.crc32(payload, prefix_crc) & 0xFFFFFFFF != crc:
        raise LogFormatError(
            f"CRC mismatch in type-{tag} frame at offset {off}"
        )
    rec = _BY_TAG[tag](interval=interval, window=window)
    try:
        _PARSERS[tag](rec, payload)
        nbytes = rec.nbytes
    except (struct.error, ValueError, ReproError) as exc:
        raise LogFormatError(
            f"unparseable type-{tag} payload at offset {off}: {exc}"
        ) from exc
    end = start + plen
    if nbytes != end - off:
        raise LogFormatError(
            f"frame at offset {off} decoded to {end - off} bytes but the "
            f"record accounts for {nbytes}"
        )
    return rec, end


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
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
