"""Unit tests for the framed on-disk log format.

The frame CRC covers the header prefix *and* the payload, so these
tests flip bits in both regions and expect detection; segment decoding
must recover the longest valid frame prefix of a torn byte string --
the primitive the salvage scan is built on.
"""

import hashlib
import random
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FetchLogRecord,
    IncomingDiffLogRecord,
    ModeSwitchLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from repro.core.logformat import (
    FRAME_HEADER_BYTES,
    SEGMENT_HEADER_BYTES,
    SEGMENT_MAGIC,
    decode_record,
    decode_segment,
    encode_record,
    encode_segment,
)
from repro.core.logrecords import RECORD_TYPES
from repro.dsm import IntervalRecord, VectorClock
from repro.errors import LogFormatError
from repro.memory import Diff, create_diff

VT = VectorClock((3, 1, 0, 7))


def small_diff(page=0, nwords=3):
    return Diff(page, [(8, np.arange(nwords, dtype=np.uint32) + 1)])


def sample_records():
    """One of every record type, covering the optional-field variants."""
    page = np.zeros(256, dtype=np.uint8)
    cur = page.copy()
    cur.view(np.uint32)[5:9] = 0xABCD1234
    real_diff = create_diff(3, page, cur)
    return [
        NoticeLogRecord(2, 0, [
            IntervalRecord(0, 4, VT, (1, 2, 9)),
            IntervalRecord(3, 1, VectorClock((0, 0, 0, 1)), ()),
        ]),
        FetchLogRecord(2, 1, page=5, version=VT),
        FetchLogRecord(2, 0, page=5, version=None),
        PageCopyLogRecord(4, 0, page=7, contents=cur.copy(), version=VT),
        PageCopyLogRecord(4, 0, page=8, contents=None, version=None),
        UpdateEventLogRecord(5, 0, writer=3, writer_index=9, part=1,
                             pages=(1, 2, 9)),
        IncomingDiffLogRecord(6, 2, writer=1, writer_index=4, vt=VT,
                              diffs=[small_diff(0, 4), real_diff]),
        OwnDiffLogRecord(7, 0, vt_index=6, vt=VT, diffs=[small_diff(4)],
                         home_diffs=[small_diff(9, 2)],
                         early=[(1, small_diff(4, 1),
                                 VectorClock((1, 0, 0, 0)))]),
        ModeSwitchLogRecord(0, 0, mode="ml", prev_mode=""),
        ModeSwitchLogRecord(8, 0, mode="ccl", prev_mode="ml",
                            est_replay_ml=1.5e-3, est_replay_ccl=0.25e-3),
    ]


class TestFrames:
    def test_roundtrip_is_lossless(self):
        for rec in sample_records():
            buf = encode_record(rec)
            back, end = decode_record(buf)
            assert end == len(buf)
            assert type(back) is type(rec)
            assert back.interval == rec.interval
            assert back.window == rec.window
            # canonical re-encoding equality pins every payload field
            assert encode_record(back) == buf

    def test_nbytes_is_the_framed_size(self):
        for rec in sample_records():
            assert rec.nbytes == len(encode_record(rec))
            assert rec.nbytes >= FRAME_HEADER_BYTES

    def test_header_bit_flip_is_detected(self):
        buf = bytearray(encode_record(sample_records()[0]))
        for off in range(FRAME_HEADER_BYTES):
            for bit in range(8):
                damaged = bytearray(buf)
                damaged[off] ^= 1 << bit
                with pytest.raises(LogFormatError):
                    decode_record(bytes(damaged))

    def test_payload_bit_flip_is_detected(self):
        for rec in sample_records():
            buf = bytearray(encode_record(rec))
            for off in (FRAME_HEADER_BYTES, len(buf) // 2, len(buf) - 1):
                damaged = bytearray(buf)
                damaged[off] ^= 0x40
                with pytest.raises(LogFormatError):
                    decode_record(bytes(damaged))

    def test_truncated_frame_raises(self):
        buf = encode_record(sample_records()[0])
        with pytest.raises(LogFormatError):
            decode_record(buf[: FRAME_HEADER_BYTES - 1])
        with pytest.raises(LogFormatError):
            decode_record(buf[:-1])


class TestSegments:
    def test_roundtrip(self):
        records = sample_records()
        data = encode_segment(9, records)
        back, consumed, err = decode_segment(data)
        assert err is None
        assert consumed == len(data)
        assert [encode_record(r) for r in back] == [
            encode_record(r) for r in records
        ]

    def test_size_is_header_plus_frames(self):
        records = sample_records()
        data = encode_segment(0, records)
        assert len(data) == SEGMENT_HEADER_BYTES + sum(
            r.nbytes for r in records
        )

    def test_bad_magic_yields_nothing(self):
        data = bytearray(encode_segment(0, sample_records()[:2]))
        data[0] ^= 0xFF
        recs, consumed, err = decode_segment(bytes(data))
        assert recs == [] and consumed == 0
        assert err is not None and "magic" in err

    def test_short_header_yields_nothing(self):
        recs, consumed, err = decode_segment(b"\x01" * 7)
        assert recs == [] and consumed == 0 and err is not None

    def test_torn_prefix_recovers_whole_frames(self):
        """Every torn length recovers exactly the frames that fit."""
        records = sample_records()
        data = encode_segment(3, records)
        sizes = [r.nbytes for r in records]
        bounds = [SEGMENT_HEADER_BYTES]
        for s in sizes:
            bounds.append(bounds[-1] + s)
        for cut in range(len(data) + 1):
            recs, _consumed, err = decode_segment(data[:cut])
            if cut < SEGMENT_HEADER_BYTES:
                assert recs == []
                continue
            expect = sum(1 for b in bounds[1:] if b <= cut)
            assert len(recs) == expect, f"cut={cut}"
            assert (err is None) == (cut == len(data))

    def test_mid_segment_flip_keeps_the_prefix(self):
        records = sample_records()
        data = bytearray(encode_segment(1, records))
        # damage the third frame's payload: frames 0-1 must survive
        off = SEGMENT_HEADER_BYTES + records[0].nbytes + records[1].nbytes
        data[off + FRAME_HEADER_BYTES] ^= 0x01
        recs, _consumed, err = decode_segment(bytes(data))
        assert len(recs) == 2
        assert err is not None

    def test_magic_is_seg1(self):
        assert SEGMENT_MAGIC.to_bytes(4, "big") == b"SEG1"


#: sha256 of ``encode_segment(7, sample_records())`` and of each
#: record's frame: the sizes are pinned elsewhere, these pin the bytes.
GOLDEN_SEGMENT = (
    "75eeaa548c46c1366af41f7f79696f120f91b72d4dfeef79915bfdebb5b8e8db")
GOLDEN_FRAMES = [
    "71241cc95b781428673d8ab1c0e93b49e3ed998e2ab48a05f7928dfb082d3b17",
    "535b263f45b99a39f6ff13cfb27beefbb761d18132dbd14fc68fdfd94db1cc54",
    "f9be06a67d3c732a2827e10f1dec3ffbaa76962daaef5b01b55a660e615ae907",
    "3583f5b0c9786e2963e9e9f3955e17cbd010d1d33792fbbafc1fadad8143f9a3",
    "64128ee92d612f5638b8fca3bb06c3e9b17747c0729ffd14fbd00ea29e5e3c1b",
    "c48c5db0e95fb17c0b61c932bba72943cd6ed18a5d74f777f240e384cae71989",
    "420e3f89acb3315d4c3070306709b34deabeaa8b0afd8ae6601b6b1b1016bdab",
    "622c32d712ccaf139f9a7422d4d35db9840192fadcbe9e57ce6168361cf7030a",
    "e3741c86840bc286a95f9ec9ac0844801ba58ad158f0129f7f17340d753c3e85",
    "18d2c178613ec2ffc2d8bdc08f9a2c4859c5e776a0de6310e7a0f7a0437936ac",
]


def test_golden_encoded_bytes():
    """Every byte of the on-disk encoding, not just its size."""
    records = sample_records()
    assert (hashlib.sha256(encode_segment(7, records)).hexdigest()
            == GOLDEN_SEGMENT)
    assert [hashlib.sha256(encode_record(r)).hexdigest()
            for r in records] == GOLDEN_FRAMES


def _doc_row(cls):
    """``docs/recovery.md``'s payload table row for one record type:
    prefix slots (a list's slot is its count), then the bodies."""
    head = [f"`{n}` count" if c.size else (f"`{n}` {c.name}" if n else c.name)
            for n, c in cls.FIELDS if c.fmt]
    body = [f"`{n}` {c.name}" for n, c in cls.FIELDS if c.size]
    return (f"| {cls.TAG} | `{cls.__name__}` | `{cls.LAYOUT.prefix.format}` "
            f"| {', '.join(head + body)} |")


def test_doc_payload_table_matches_the_declarations():
    doc = Path(__file__).parents[2] / "docs" / "recovery.md"
    rows = [line for line in doc.read_text().splitlines()
            if line.startswith("| ") and line[2:3].isdigit()]
    assert rows == [_doc_row(RECORD_TYPES[t]) for t in sorted(RECORD_TYPES)]


def _field_spans(rec):
    """``(offset, width)`` in the payload of each declared field of
    ``rec``: its prefix slot, or the first (up to 4) bytes of its body."""
    spans, fmt = [], "<"
    body = rec.LAYOUT.prefix.size
    for name, codec in rec.FIELDS:
        if codec.fmt:
            start = struct.calcsize(fmt)
            fmt += codec.fmt
            spans.append((start, struct.calcsize(fmt) - start))
        if codec.size:
            size = codec.size(getattr(rec, name))
            if not codec.fmt:
                spans.append((body, min(4, size)))
            body += size
    return spans


class TestSegmentFuzz:
    """Seeded mutations of a sound segment: whatever the damage,
    ``decode_segment`` returns a prefix of its frames and never raises."""

    MUTATIONS = 4000

    @staticmethod
    def _segment():
        records = sample_records()
        data = encode_segment(7, records)
        bounds = [SEGMENT_HEADER_BYTES]
        for r in records:
            bounds.append(bounds[-1] + r.nbytes)
        return [encode_record(r) for r in records], data, bounds

    def test_bit_flips_and_truncations_decode_to_a_prefix(self):
        frames, data, _bounds = self._segment()
        rng = random.Random(0)
        for _ in range(self.MUTATIONS):
            damaged = bytearray(data)
            if rng.random() < 0.5:
                bit = rng.randrange(8 * len(damaged))
                damaged[bit // 8] ^= 1 << bit % 8
            else:
                del damaged[rng.randrange(len(damaged)):]
            recs, _consumed, _err = decode_segment(bytes(damaged))
            assert [encode_record(r) for r in recs] == frames[:len(recs)]

    def test_payload_mutations_under_a_sound_crc_decode_to_a_prefix(self):
        """The CRC is recomputed over the mutated payload, so only the
        parser stands between counts that overrun it and the caller."""
        frames, data, bounds = self._segment()
        rng = random.Random(0)
        rejected = 0
        for _ in range(self.MUTATIONS):
            damaged = bytearray(data)
            k = rng.randrange(len(frames))
            hdr, end = bounds[k], bounds[k + 1]
            for _m in range(rng.randint(1, 3)):
                damaged[rng.randrange(hdr + FRAME_HEADER_BYTES, end)] = (
                    rng.randrange(256))
            crc = zlib.crc32(damaged[hdr + FRAME_HEADER_BYTES:end],
                             zlib.crc32(damaged[hdr:hdr + 12]))
            struct.pack_into("<I", damaged, hdr + 12, crc)
            recs, _consumed, err = decode_segment(bytes(damaged))
            assert [encode_record(r) for r in recs[:k]] == frames[:k]
            if len(recs) == k:
                rejected += 1
                assert f"at offset {hdr}" in err
            else:
                assert len(recs) == len(frames)
        assert rejected > self.MUTATIONS // 10

    def test_boundary_values_in_every_declared_field(self):
        """Each of five boundary words, written into each declared
        field under a recomputed CRC, decodes or raises LogFormatError."""
        tried = 0
        for rec in sample_records():
            frame = encode_record(rec)
            for off, width in _field_spans(rec):
                for value in (0, 1, 0x7FFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF):
                    buf = bytearray(frame)
                    at = FRAME_HEADER_BYTES + off
                    buf[at:at + width] = (
                        value & (1 << 8 * width) - 1).to_bytes(width, "little")
                    crc = zlib.crc32(buf[FRAME_HEADER_BYTES:],
                                     zlib.crc32(buf[:12]))
                    struct.pack_into("<I", buf, 12, crc)
                    try:
                        decode_record(bytes(buf))
                    except LogFormatError:
                        pass
                    tried += 1
        assert tried == 5 * sum(len(_field_spans(r)) for r in sample_records())
