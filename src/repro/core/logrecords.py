"""Typed log records, their declared payload layouts and byte-exact sizes.

Both logging protocols append these records to a node's
:class:`~repro.core.stablelog.StableLog`.  Every record carries the
*bundle index* -- the node-local interval counter at the time the
logged event happened -- plus, where replay ordering matters inside an
interval, the *window tag* (how many lock acquires the interval had
completed when the event occurred).  Recovery replays bundle ``i`` at
the start of replay-interval ``i`` and window ``m`` records at the
``m``-th acquire, reproducing the failure-free schedule.

Sizes follow the encodings of Section 3 -- notices encode as interval
records, ML's page-copy records carry a full page image, diff records
carry the run-length-encoded diff bytes -- plus the on-disk framing of
:mod:`repro.core.logformat`: a 16-byte frame header per record.  Each
record class declares its payload once, in its class statement, as a
type ``tag`` and ordered ``(name, codec)`` ``fields``: a fixed-width
prefix (scalars and the counts of trailing lists), then the bodies.  ``nbytes``,
the encoder and the decoder are all derived from that declaration, so
the size every byte count in the harness is charged from and the bytes
a disk would hold cannot drift apart.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..dsm.interval import IntervalRecord, VectorClock
from ..dsm.messages import records_nbytes
from ..errors import LogFormatError
from ..memory.diff import (DIFF_HEADER_BYTES, RUN_HEADER_BYTES, Diff,
                           decode_diff, encode_diff)

__all__ = [
    "LogRecord", "NoticeLogRecord", "FetchLogRecord", "PageCopyLogRecord",
    "UpdateEventLogRecord", "IncomingDiffLogRecord", "OwnDiffLogRecord",
    "ModeSwitchLogRecord",
]

#: Frame header bytes per record: type tag (1), flags (1), window (2),
#: interval (4), payload length (4), payload CRC32 (4).
FRAME_HEADER_BYTES = 16

_U32 = struct.Struct("<I")
_NONE = 0xFFFFFFFF


@dataclass(frozen=True)
class Codec:
    """How one declared field is written.

    A field owns a slot of its layout's fixed-width prefix (``fmt``, a
    struct code, filled by ``wire`` -- a list's slot holds its length)
    and/or a body after the prefix, measured by ``size`` and appended by
    ``enc``.  ``dec(buf, off, slot)`` reads the field back as ``(value,
    next_offset)``; a field without one decodes to its slot.
    """

    name: str
    fmt: str = ""
    size: Optional[Callable] = None
    enc: Optional[Callable] = None
    dec: Optional[Callable] = None
    wire: Optional[Callable] = None


def _enc_vt(out: bytearray, vt: Optional[VectorClock]) -> None:
    v = () if vt is None else vt.as_tuple()
    out += struct.pack(f"<I{len(v)}I", _NONE if vt is None else len(v), *v)


def _dec_vt(buf, off: int, _slot) -> Tuple[Optional[VectorClock], int]:
    (count,) = _U32.unpack_from(buf, off)
    if count == _NONE:
        return None, off + 4
    vals = struct.unpack_from(f"<{count}I", buf, off + 4)  # unsigned: none negative
    return VectorClock._trusted(vals), off + 4 + 4 * count


def _enc_diff(out: bytearray, d: Diff) -> None:
    # encode_diff returns a packed uint8 ndarray; appending its .data
    # memoryview copies once into ``out`` (no .tobytes() intermediate;
    # a bare ``out += ndarray`` would dispatch to numpy broadcasting).
    out += encode_diff(d).data


def _dec_diff(buf, off: int, _slot) -> Tuple[Diff, int]:
    """Decode one self-delimiting packed diff starting at ``off`` (a
    short buffer raises, and the frame decoder reports it)."""
    _page, wc, rc, _flags = struct.unpack_from("<IIII", buf, off)
    size = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * rc + 4 * wc
    # .copy(): decode_diff keeps zero-copy views into its input, but the
    # frame buffer is transient
    arr = np.frombuffer(buf, dtype=np.uint8, count=size, offset=off).copy()
    return decode_diff(arr), off + size


def _enc_image(out: bytearray, contents: Optional[np.ndarray]) -> None:
    out += _U32.pack(0 if contents is None else len(contents))
    if contents is not None:
        # page image appended via its memoryview: one copy into the
        # frame, no intermediate bytes object
        out += memoryview(contents)


def _dec_image(buf, off: int, _slot):
    (n,) = _U32.unpack_from(buf, off)
    image = np.frombuffer(buf, np.uint8, n, off + 4).copy() if n else None
    return image, off + 4 + n


#: The adaptive protocol's logging modes by wire code ("" marks the
#: absent previous mode of the bind-time record).
_MODES = ("", "ml", "ccl")


def _dec_mode(_buf, off: int, code: int):
    if code >= len(_MODES):
        raise LogFormatError(f"mode-switch record: unknown mode code {code}")
    return _MODES[code], off


I32 = Codec("i32", "i")
F64 = Codec("f64", "d")
#: A logging mode as its u8 wire code.
MODE = Codec("mode u8", "B", dec=_dec_mode, wire=_MODES.index)
#: Two zero bytes; declared with an empty name, it carries no value.
PAD16 = Codec("pad u16", "2x")
#: Optional vector clock: u32 count (0xFFFFFFFF = None) + u32 components.
VT = Codec("vt", size=lambda vt: 4 if vt is None else 4 + vt.nbytes,
           enc=_enc_vt, dec=_dec_vt)
#: One self-delimiting packed diff (its own header carries its sizes).
DIFF = Codec("diff", size=attrgetter("nbytes"), enc=_enc_diff, dec=_dec_diff)
#: u32 byte length, then the bytes; None encodes as length 0.
PAGE_IMAGE = Codec("page_image", size=lambda c: 4 if c is None else 4 + len(c),
                   enc=_enc_image, dec=_dec_image)
#: u32 values, their count in the prefix.
U32S = Codec(
    "u32[]", "I", size=lambda v: 4 * len(v),
    enc=lambda out, v: out.extend(struct.pack(f"<{len(v)}I", *v)),
    dec=lambda buf, off, n: (struct.unpack_from(f"<{n}I", buf, off),
                             off + 4 * n),
    wire=len)


def counted(item, size: Optional[Callable] = None) -> Codec:
    """A list whose count sits in the prefix and whose items follow."""
    isize, ienc, idec = item.size, item.enc, item.dec

    def enc(out: bytearray, items) -> None:
        for x in items:
            ienc(out, x)

    def dec(buf, off: int, n: int):
        items = []
        for _ in range(n):
            x, off = idec(buf, off, None)
            items.append(x)
        return items, off

    return Codec(f"{item.name}[]", "I",
                 size or (lambda items: sum(map(isize, items))),
                 enc, dec, len)


class Layout:
    """A declaration compiled at import into three plain functions.

    ``size(obj)``, ``enc(out, obj)`` and ``dec(buf, off, slot, *head)``
    are generated as Python source -- the way :mod:`dataclasses` writes
    ``__init__`` -- so the per-record path makes the calls a hand-written
    codec would and interprets nothing field by field.  Values are read
    as attributes (with ``items``, as tuple items in declaration order);
    ``dec`` rebuilds the object as ``make(*head, **fields)``.  ``size``
    adds ``header``, a constant counted in front of the payload.  The
    three make a layout a body codec too, an item of :func:`counted`.
    """

    def __init__(self, name, fields, make, items=False, header=0):
        self.name = name
        self.prefix = struct.Struct("<" + "".join(c.fmt for _n, c in fields))
        ns = {"prefix": self.prefix, "make": make}
        sizes, slots, writes = [str(header + self.prefix.size)], [], []
        unpacked, reads, kws = [], [], []
        for k, (fname, c) in enumerate((n, c) for n, c in fields if n):
            v, x = f"o[{k}]" if items else f"o.{fname}", f"x{k}"
            ns.update({f"w{k}": c.wire, f"s{k}": c.size, f"e{k}": c.enc,
                       f"d{k}": c.dec})
            if c.fmt:
                slots.append(f"w{k}({v})" if c.wire else v)
                unpacked.append(x)
            if c.size:
                sizes.append(f"s{k}({v})")
                writes.append(f"    e{k}(out, {v})")
            if c.dec:
                slot = x if c.fmt else None
                reads.append(f"    {x}, off = d{k}(buf, off, {slot})")
            kws.append(f"{fname}={x}")
        self.source = "\n".join([
            "def size(o):",
            f"    return {' + '.join(sizes)}",
            "def enc(out, o):",
            f"    out += prefix.pack({', '.join(slots)})",
            *writes,
            "def dec(buf, off, _slot, *head):",
            f"    [{', '.join(unpacked)}] = prefix.unpack_from(buf, off)",
            f"    off += {self.prefix.size}",
            *reads,
            f"    return make(*head, {', '.join(kws)}), off",
        ])
        exec(compile(self.source, f"<layout of {self.name}>", "exec"), ns)
        self.size, self.enc, self.dec = ns["size"], ns["enc"], ns["dec"]


def _interval_record(node, index, vt, pages) -> IntervalRecord:
    if vt is None:
        raise LogFormatError("notice interval record without a clock")
    return IntervalRecord(node, index, vt, pages)


def _early_entry(part, diff, vt) -> Tuple[int, Diff, VectorClock]:
    if vt is None:
        raise LogFormatError("early diff without a clock")
    return part, diff, vt


#: A notice's interval record: ``<iiI`` (node, index, page count), its
#: clock, its pages -- sized from the record's cached wire size plus
#: the clock's count word, so wire and log accounting share one formula.
INTERVAL_RECORDS = counted(
    Layout("interval_record", (("node", I32), ("index", I32), ("vt", VT),
                               ("pages", U32S)), _interval_record),
    size=lambda records: records_nbytes(records) + 4 * len(records))
DIFFS = counted(DIFF)
#: An early (mid-interval) flush: i32 part tag, its diff, its clock.
EARLY = counted(Layout("early", (("part", I32), ("diff", DIFF), ("vt", VT)),
                       _early_entry, items=True))

#: Record class by type tag, filled as the classes are declared.
RECORD_TYPES: Dict[int, type] = {}


@dataclass
class LogRecord:
    """Base: every record knows its bundle index and window tag.

    A subclass declares its type ``tag`` and payload ``fields`` in its
    class statement; its ``LAYOUT`` is compiled from them at class
    creation, and its ``nbytes`` -- the exact framed size, header
    included -- is the layout's ``size``.
    """

    interval: int
    window: int = 0

    def __init_subclass__(cls, tag: int, fields, **kwargs):
        super().__init_subclass__(**kwargs)
        assert tag not in RECORD_TYPES, f"type tag {tag} reused"
        RECORD_TYPES[tag] = cls
        cls.TAG, cls.FIELDS = tag, fields
        cls.LAYOUT = Layout(cls.__name__, fields, cls,
                            header=FRAME_HEADER_BYTES)
        cls.nbytes = property(cls.LAYOUT.size)


@dataclass
class NoticeLogRecord(LogRecord, tag=1, fields=(
        ("records", INTERVAL_RECORDS),)):
    """Write-invalidation notices received with a grant / barrier release.

    Logged by **both** protocols (they are the skeleton of replay).
    """

    records: List[IntervalRecord] = field(default_factory=list)


@dataclass
class FetchLogRecord(LogRecord, tag=2, fields=(
        ("page", I32), ("version", VT))):
    """CCL: *metadata only* for a fetched page -- id and fetch-time version.

    Recovery prefetches the page and reconstructs exactly this version;
    the page contents themselves are deliberately not logged (they are
    reconstructible), which is the heart of CCL's log-size advantage.
    """

    page: int = -1
    version: Optional[VectorClock] = None


@dataclass
class PageCopyLogRecord(LogRecord, tag=3, fields=(
        ("page", I32), ("version", VT), ("contents", PAGE_IMAGE))):
    """ML: the full contents of a fetched page (what makes ML logs huge)."""

    page: int = -1
    contents: Optional[np.ndarray] = None
    version: Optional[VectorClock] = None


@dataclass
class UpdateEventLogRecord(LogRecord, tag=4, fields=(
        ("writer", I32), ("writer_index", I32), ("part", I32), ("pages", U32S))):
    """CCL: the *event* of incoming updates -- 12 bytes per page, no contents.

    ``(writer, writer_index, part)`` identifies the writer's logged diff
    batch recovery must fetch; ``pages`` lists the home pages the batch
    touched.
    """

    writer: int = -1
    writer_index: int = -1
    part: int = 0
    pages: Tuple[int, ...] = ()


@dataclass
class IncomingDiffLogRecord(LogRecord, tag=5, fields=(
        ("writer", I32), ("writer_index", I32), ("vt", VT), ("diffs", DIFFS))):
    """ML: contents of a received diff batch (applied to home copies)."""

    writer: int = -1
    writer_index: int = -1
    vt: Optional[VectorClock] = None
    diffs: List[Diff] = field(default_factory=list)


@dataclass
class OwnDiffLogRecord(LogRecord, tag=6, fields=(
        ("vt_index", I32), ("vt", VT), ("diffs", DIFFS),
        ("home_diffs", DIFFS), ("early", EARLY))):
    """CCL: the diffs this node itself produced at an interval end.

    Includes the diffs flushed to remote homes *and* -- a conservative
    extension over the paper -- diffs of the node's writes to its own
    home pages, so that a surviving home can serve its own modifications
    during a peer's recovery instead of rolling back and re-executing
    (the paper's stated worst case).  ``vt_index`` is the writer-side
    interval number referenced by update-event records.
    """

    vt_index: int = -1
    vt: Optional[VectorClock] = None
    diffs: List[Diff] = field(default_factory=list)
    home_diffs: List[Diff] = field(default_factory=list)
    #: Early (mid-interval) flushes: ``(part, diff, vt_at_flush)``.
    early: List[Tuple[int, Diff, VectorClock]] = field(default_factory=list)

    def find(self, page: int, part: int = 0):
        """The ``(diff, vt)`` this interval's flush ``part`` produced for
        ``page``, if any (part 0 = the end-of-interval flush)."""
        if part == 0:
            for d in self.diffs:
                if d.page == page:
                    return d, self.vt
            for d in self.home_diffs:
                if d.page == page:
                    return d, self.vt
            return None
        for p, d, evt in self.early:
            if p == part and d.page == page:
                return d, evt
        return None


@dataclass
class ModeSwitchLogRecord(LogRecord, tag=7, fields=(
        ("mode", MODE), ("prev_mode", MODE), ("", PAD16),
        ("est_replay_ml", F64), ("est_replay_ccl", F64))):
    """Adaptive logging: the logging mode in effect from ``interval`` on.

    Appended by the adaptive protocol whenever its cost model flips
    between CCL and ML mode (and once at bind time, so every log opens
    with its starting mode).  Replay reads these records first and
    dispatches each interval segment to the matching replay engine.
    The two replay-time estimates that drove the decision are logged
    too -- they make post-mortem analysis of a switch schedule possible
    without rerunning the cost model.
    """

    mode: str = "ccl"
    prev_mode: str = ""
    est_replay_ml: float = 0.0
    est_replay_ccl: float = 0.0
