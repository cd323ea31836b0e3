"""Optional event tracing, kept in one columnar store.

A :class:`Tracer` records, when enabled, point events named by
:class:`Ev` with a JSON-serialisable detail, **causal spans** (a named
``[t0, t1]`` activity on a node's *strand* -- ``main``, ``server`` for
the handler loop, ``disk`` for in-flight log flushes -- with a parent),
and **message edges** (send->receive hops): the DAG
:mod:`repro.obs.critical` walks.  JSON Lines (:meth:`Tracer.to_jsonl`,
:meth:`Tracer.from_jsonl`) carry a trace offline.

A traced run keeps no object per record: events (page transitions
included), spans and edges are rows of typed ``array`` columns
(:attr:`Tracer.columns`) naming ids in one string table; details are
pickled 256 rows to a chunk and rebuilt when read (:meth:`Tracer.details`);
an ``interval_end``/``early_diff`` names its diffs' masks, read as
:func:`~repro.memory.diff.runs_of_mask` tables (``.tolist()`` to
compare).  :attr:`Tracer.events`/``spans``/``edges`` build objects on
read; the obs readers read the columns.
"""

from __future__ import annotations

import json
import pickle
import weakref
from array import array
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..jsonio import json_records, read_text
from ..memory.diff import runs_of_mask

__all__ = ["Ev", "TraceEvent", "Span", "MsgEdge", "Tracer", "TRACING_ACTIVE"]

#: Module-level "any tracer enabled" flag, maintained by the
#: :attr:`Tracer.enabled` setter.  Hot call sites check this (one module
#: attribute load) before touching per-object tracer state or building
#: span names / detail dicts, so a tracing-off run allocates nothing on
#: the observation paths.  An enabled tracer stops counting when it is
#: disabled or collected; sites still check their own tracer's
#: ``enabled`` when the flag is set, since another tracer may be on.
TRACING_ACTIVE = False

_enabled_tracers = 0


def _release_enabled() -> None:
    global _enabled_tracers, TRACING_ACTIVE
    _enabled_tracers -= 1
    TRACING_ACTIVE = _enabled_tracers > 0


class Ev:
    """Typed event-name constants of the trace schema.

    Each event carries a JSON-safe dict: ``vt`` is the emitting node's
    applied vector timestamp, :attr:`INTERVAL_END` carries
    word-granularity write runs and :attr:`PAGE_SERVE`/:attr:`PAGE_FETCH`
    a CRC32 of the page.  Every kind has a reader in
    :mod:`repro.analysis` or :mod:`repro.obs`.
    """

    # -- synchronisation (carry the node's own vt) ---------------------
    LOCK_ACQUIRED = "lock_acquired"
    LOCK_RELEASED = "lock_released"
    BARRIER_ENTER = "barrier_enter"
    BARRIER_EXIT = "barrier_exit"

    # -- manager side --------------------------------------------------
    LOCK_GRANT = "lock_grant"
    BARRIER_CHECKIN = "barrier_checkin"

    # -- intervals and diffs -------------------------------------------
    INTERVAL_END = "interval_end"
    EARLY_DIFF = "early_diff"
    DIFF_SEND = "diff_send"
    DIFF_APPLY = "diff_apply"
    DIFF_ACKED = "diff_acked"

    # -- page movement and state ---------------------------------------
    PAGE_SERVE = "page_serve"
    PAGE_FETCH = "page_fetch"
    PAGE_STATE = "page_state"

    #: Events whose ``detail["vt"]`` is the emitting node's own applied
    #: timestamp (the invariant checker's monotonicity set).
    OWN_VT_EVENTS = frozenset(
        {LOCK_ACQUIRED, LOCK_RELEASED, BARRIER_ENTER, BARRIER_EXIT, INTERVAL_END}
    )


def _by_reference(obj: Any) -> Any:
    """``json.dumps`` hook: nested lists for an array a detail carries."""
    try:
        return obj.tolist()
    except AttributeError:
        raise TypeError(
            f"trace detail value of type {type(obj).__name__} "
            "is not JSON serialisable"
        ) from None


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped protocol event."""

    time: float
    node: int
    event: str
    detail: Any = None

    def to_json(self) -> str:
        """Encode as one JSON Lines record."""
        return json.dumps(
            {"t": self.time, "n": self.node, "e": self.event, "d": self.detail},
            separators=(",", ":"), default=_by_reference,
        )


@dataclass(slots=True)
class Span:
    """One span row.  ``t1 < 0``: still open (cut off by a crash, or a
    flush outliving the run).  ``parent``: the enclosing span on the
    strand, or -1.  ``cat``: what the critical path attributes time to
    (``cpu``, ``sync``, ``wait``, ``disk`` or ``handler``)."""

    sid: int
    parent: int
    node: int
    strand: str
    name: str
    cat: str
    t0: float
    t1: float = -1.0
    detail: Any = None

    def to_json(self) -> str:
        """Encode as one JSON Lines record (key ``s`` tags the type)."""
        return json.dumps({"s": self.sid, "p": self.parent, "n": self.node, "st": self.strand,
                           "nm": self.name, "c": self.cat, "t0": self.t0, "t1": self.t1,
                           "d": self.detail}, separators=(",", ":"))


@dataclass(slots=True)
class MsgEdge:
    """One edge row.  ``t_recv < 0``: never delivered (dropped, or in
    flight at the end).  A duplicate keeps the first arrival, as
    :attr:`repro.sim.network.NetMessage.delivered_at` does; a
    retransmission is a new edge."""

    eid: int
    src: int
    dst: int
    kind: str
    size: int
    t_send: float
    t_recv: float = -1.0

    def to_json(self) -> str:
        """Encode as one JSON Lines record (key ``ei`` tags the type)."""
        return json.dumps({"ei": self.eid, "src": self.src, "dst": self.dst, "k": self.kind,
                           "sz": self.size, "ts": self.t_send, "tr": self.t_recv},
                          separators=(",", ":"))


class _Rows(Sequence):
    """Read-only rows of a table, each built when indexed."""

    def __init__(self, count: Callable[[], int], row: Callable[[int], Any]):
        self._count, self._row = count, row

    def __len__(self) -> int:
        return self._count()

    def __getitem__(self, i: int) -> Any:
        if not -len(self) <= i < len(self):
            raise IndexError(f"row {i} of {len(self)}")
        return self._row(i % len(self))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


#: Column name -> ``array`` type code, per table.  Rows wait flat in one
#: list per table (no object per row) and move into the columns 1024 at
#: a time; ``t1``/``tr``, set later, wait in a list of their own.
_TABLES = {
    "events": {"t": "d", "node": "i", "ev": "i"},
    "spans": {"parent": "i", "node": "i", "strand": "i", "name": "i",
              "cat": "i", "t0": "d", "t1": "d"},
    "edges": {"src": "i", "dst": "i", "kind": "i", "size": "q", "ts": "d", "tr": "d"},
}
_NAMED = frozenset({"ev", "strand", "name", "cat", "kind"})  # string-table ids
_WIDTH = {"events": 3, "spans": 6, "edges": 5}  # fields of a pending row
_ROWS, _DETAILS = 1024, 256  # rows per move; details per pickled chunk (they die young)
_MASKED = frozenset({Ev.EARLY_DIFF, Ev.INTERVAL_END})  # details naming diff masks
_NUMBER, _TIME, _INT, _TEXT, _I32 = (int, float), (int, float), (int,), (str,), 1 << 31


def _field(obj: Dict[str, Any], key: str, kinds: Tuple[type, ...], bits: int = 64) -> Any:
    """A loaded record's field; a TypeError unless its type is one of
    ``kinds``, an int fits its ``bits``-bit column and a ``_TIME`` is >= 0."""
    value, limit = obj[key], 1 << bits - 1
    if type(value) not in kinds or type(value) is int and not -limit <= value < limit \
            or kinds is _TIME and not value >= 0:
        raise TypeError(f"field {key!r}: {value!r} is not {'/'.join(k.__name__ for k in kinds)}")
    return value


class Tracer:
    """Append-only columnar trace store with simple filtering helpers."""

    def __init__(self, enabled: bool = False):
        self._enabled = False
        self.enabled = enabled
        self._reset()

    def _reset(self) -> None:
        #: The string table every name column holds ids into.
        self.strings: List[str] = []
        self._ids: Dict[str, int] = {}
        self._columns = {table: {name: array(code) for name, code in spec.items()}
                         for table, spec in _TABLES.items()}
        self._stored = dict.fromkeys(_TABLES, 0)
        self._rows: Dict[str, List[Any]] = {table: [] for table in _TABLES}
        self._ev_rows, self._sp_rows, self._ed_rows = self._rows.values()
        self._sp_t1, self._ed_tr = [], []  # t1/tr of pending rows
        #: Details: pending; pickled in chunks (and each chunk's first row);
        #: replaced by :meth:`end` after their chunk was pickled.
        self._details: Dict[str, List[Any]] = {"events": [], "spans": []}
        self._ev_details, self._sp_details = self._details.values()
        self._sealed = {"events": 0, "spans": 0}
        self._chunks, self._starts = {"events": [], "spans": []}, {"events": [], "spans": []}
        self._replaced: Dict[int, bytes] = {}
        self._cache: Tuple[Any, List[Any]] = (None, [])
        #: Diff masks a live detail names by index (the diffs' own arrays).
        self._masks: List[np.ndarray] = []
        self._events: List[TraceEvent] = []
        #: Open-span stack per (node, strand), and the stack of each open span.
        self._stacks: Dict[Tuple[int, str], List[int]] = defaultdict(list)
        self._open: Dict[int, List[int]] = {}

    @property
    def enabled(self) -> bool:
        """Whether this tracer records (the setter maintains :data:`TRACING_ACTIVE`)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        global _enabled_tracers, TRACING_ACTIVE
        if value and not self._enabled:
            _enabled_tracers += 1
            TRACING_ACTIVE = True
            # released once: by the disable below, or when collected
            self._release = weakref.finalize(self, _release_enabled)
        elif not value and self._enabled:
            self._release()
        self._enabled = value

    def _intern(self, s: str) -> int:
        i = self._ids.get(s)
        if i is None:
            i = self._ids[s] = len(self.strings)
            self.strings.append(s)
        return i

    def _seal(self, table: str) -> None:
        """Pickle ``table``'s pending details as one chunk; move full rows."""
        details = self._details[table]
        if details:
            self._starts[table].append(self._sealed[table])
            self._chunks[table].append(pickle.dumps(details, 5))
            self._sealed[table] += len(details)
            details.clear()
        if len(self._rows[table]) >= _ROWS * _WIDTH[table]:
            self._move(table)

    def _move(self, table: str) -> None:
        """Transpose ``table``'s pending rows into its columns."""
        rows, width, cols = self._rows[table], _WIDTH[table], self._columns[table]
        fields = [rows[i::width] for i in range(width)]
        if table != "events":
            fields.append(self._sp_t1 if table == "spans" else self._ed_tr)
        named = [values for name, values in zip(cols, fields) if name in _NAMED]
        for name in chain.from_iterable(zip(*named)) if set().union(*named) - self._ids.keys() else ():
            self._intern(name)  # new names take ids in the order they were recorded
        for (name, col), values in zip(cols.items(), fields):
            col += array(col.typecode, list(map(self._ids.__getitem__, values)) if name in _NAMED else values)
        self._stored[table] += len(rows) // width
        for pending in fields[width:] + [rows]:
            pending.clear()

    @property
    def columns(self) -> Dict[str, Dict[str, array]]:
        """The store, read-only: table -> column -> ``array``, row ``i`` of
        every column being record ``i``; names are ids into :attr:`strings`."""
        for table in _TABLES:
            if table != "edges":
                self._seal(table)
            self._move(table)
        return self._columns

    def details(self, table: str, rows: Optional[Iterable[int]] = None) -> Iterator[Any]:
        """The detail of each of ``rows`` (ascending; default all) of
        ``table`` (``events``/``spans``), as :attr:`events` and
        :attr:`spans` carry it.  Shared with a decode cache: read-only."""
        cols = self.columns[table]
        starts, chunks = self._starts[table], self._chunks[table]
        replaced = self._replaced if table == "spans" else {}
        names, start, end, chunk = cols.get("ev"), 0, 0, []
        for row in range(len(cols["node"])) if rows is None else rows:
            if not start <= row < end:
                i = bisect_right(starts, row) - 1
                if self._cache[0] != (table, i):
                    self._cache = ((table, i), pickle.loads(chunks[i]))
                chunk = self._cache[1]
                start, end = starts[i], starts[i] + len(chunk)
            detail = chunk[row - start]
            if row in replaced:
                detail = pickle.loads(replaced[row])
            yield detail if names is None else self._read(self.strings[names[row]], detail)

    def detail(self, table: str, row: int) -> Any:
        """The detail of one row (:meth:`details`)."""
        return next(self.details(table, (row,)))

    def _read(self, event: str, detail: Any) -> Any:
        """An event detail as read: a transition's tuple becomes its dict,
        a live row's diff masks (tuples; JSON never yields one) run tables."""
        if type(detail) is tuple and event == Ev.PAGE_STATE:
            return dict(zip(("page", "from", "to", "reason", "home"), detail))
        if event in _MASKED and type(detail) is dict:
            runs, writes = detail.get("runs"), detail.get("writes")
            if type(runs) is tuple:
                detail = {**detail, "runs": self._runs(*runs)}
            if type(writes) is list and writes and type(writes[0]) is tuple:
                detail = {**detail, "writes": [{"page": page, "runs": self._runs(mask, count)}
                                               for page, mask, count in writes]}
        return detail

    def _runs(self, mask: Any, count: int) -> np.ndarray:
        return runs_of_mask(self._masks[mask] if type(mask) is int else mask, count)

    def _mask(self, mask: np.ndarray) -> int:
        self._masks.append(mask)
        return len(self._masks) - 1

    def record(self, time: float, node: int, event: str, detail: Any = None) -> None:
        """Record an event if tracing is enabled (built when first read)."""
        if self._enabled:
            if event in _MASKED and type(detail) is dict:
                runs, writes = detail.get("runs"), detail.get("writes")
                if type(runs) is tuple:  # a live diff's (mask, run count)
                    detail["runs"] = (self._mask(runs[0]), runs[1])
                elif writes and type(writes[0]) is tuple:
                    detail["writes"] = [(page, self._mask(mask), count)
                                        for page, mask, count in writes]
            self._event(time, node, event, detail)

    def transition(self, time: float, node: int, page: int, old: Any, new: Any,
                   reason: str, home: int) -> None:
        """Record a ``page_state`` event; its detail dict is built when read."""
        if self._enabled:
            self._event(time, node, Ev.PAGE_STATE,
                        (page, old._value_, new._value_, reason, home))

    def _event(self, time: float, node: int, event: str, detail: Any) -> None:
        self._ev_rows += time, node, event
        details = self._ev_details
        details.append(detail)
        if len(details) >= _DETAILS:
            self._seal("events")

    @property
    def events(self) -> List[TraceEvent]:
        """Every event, in record order (built on first read)."""
        cols, start = self.columns["events"], len(self._events)
        self._events.extend(map(
            TraceEvent, cols["t"][start:], cols["node"][start:],
            map(self.strings.__getitem__, cols["ev"][start:]),
            self.details("events", range(start, len(cols["t"])))))
        return self._events

    def begin(self, time: float, node: int, name: str, cat: str, strand: str = "main",
              detail: Any = None, parent: Optional[int] = None) -> int:
        """Open a span; returns its id (-1 when tracing is disabled).  The
        parent defaults to the innermost open span on ``(node, strand)``."""
        if not self._enabled:
            return -1
        stack = self._stacks[(node, strand)]
        if parent is None:
            parent = stack[-1] if stack else -1
        t1 = self._sp_t1
        sid = self._stored["spans"] + len(t1)
        t1.append(-1.0)
        self._sp_rows += parent, node, strand, name, cat, time
        self._sp_details.append(detail)
        stack.append(sid)
        self._open[sid] = stack
        if len(self._sp_details) >= _DETAILS:
            self._seal("spans")
        return sid

    def end(self, sid: int, time: float, detail: Any = None) -> None:
        """Close a span opened by :meth:`begin` (no-op for sid < 0),
        replacing its detail with a given one (e.g. the edge that ended a wait)."""
        if sid < 0 or not self._enabled:
            return
        pending = sid - self._stored["spans"]
        t1, at = (self._columns["spans"]["t1"], sid) if pending < 0 else (self._sp_t1, pending)
        if at >= len(t1):
            return  # a flush-completion callback may fire after clear()
        t1[at] = time
        if detail is not None:
            if sid >= self._sealed["spans"]:
                self._sp_details[sid - self._sealed["spans"]] = detail
            else:
                self._replaced[sid] = pickle.dumps(detail, 5)
        stack = self._open.pop(sid, None)
        if stack is not None:
            stack.remove(sid)

    def edge_send(self, time: float, src: int, dst: int, kind: str,
                  size: int) -> int:
        """Record a message leaving ``src``; returns the edge id (-1 off)."""
        if not self._enabled:
            return -1
        tr = self._ed_tr
        eid = self._stored["edges"] + len(tr)
        tr.append(-1.0)
        self._ed_rows += src, dst, kind, size, time
        if len(tr) >= _ROWS:
            self._move("edges")
        return eid

    def edge_recv(self, eid: int, time: float) -> None:
        """Record the first delivery of edge ``eid`` (no-op for eid < 0)."""
        if eid < 0 or not self._enabled:
            return
        pending = eid - self._stored["edges"]
        tr, at = (self._columns["edges"]["tr"], eid) if pending < 0 else (self._ed_tr, pending)
        if at < len(tr) and tr[at] < 0:
            tr[at] = time

    @property
    def spans(self) -> Sequence:
        """Causal spans in begin order (a span's id is its row), built on read."""
        return _Rows(lambda: self._stored["spans"] + len(self._sp_t1), self._span)

    @property
    def edges(self) -> Sequence:
        """Message edges in send order (an edge's id is its row), built on read."""
        return _Rows(lambda: self._stored["edges"] + len(self._ed_tr), self._edge)

    def _span(self, i: int) -> Span:
        sp, s = self.columns["spans"], self.strings
        return Span(i, sp["parent"][i], sp["node"][i], s[sp["strand"][i]],
                    s[sp["name"][i]], s[sp["cat"][i]], sp["t0"][i], sp["t1"][i],
                    self.detail("spans", i))

    def _edge(self, i: int) -> MsgEdge:
        ed = self.columns["edges"]
        return MsgEdge(i, ed["src"][i], ed["dst"][i], self.strings[ed["kind"][i]],
                       ed["size"][i], ed["ts"][i], ed["tr"][i])

    def filter(self, event: Optional[str] = None, node: Optional[int] = None) -> List[TraceEvent]:
        """Events matching the given event name and/or node."""
        return [e for e in self.events
                if (event is None or e.event == event) and (node is None or e.node == node)]

    def clear(self) -> None:
        """Drop all recorded events, spans, and edges."""
        self._reset()

    def __len__(self) -> int:  # counts without building events
        return self._stored["events"] + len(self._ev_rows) // 3

    def to_jsonl(self) -> str:
        """Encode the whole trace as JSON Lines: events, spans, edges, each
        record tagged by its key (``e`` / ``s`` / ``ei``)."""
        lines = [e.to_json() for e in self.events]
        lines.extend(s.to_json() for s in self.spans)
        lines.extend(m.to_json() for m in self.edges)
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str, source: str = "trace") -> "Tracer":
        """A (disabled) tracer of :meth:`to_jsonl` output, recorded anew; a
        torn line, a missing field or one of the wrong type is a
        :class:`~repro.errors.BundleError` naming ``source`` and the line."""
        tracer = cls(enabled=True)
        rows, details = tracer._ev_rows, tracer._ev_details

        def add(obj: Dict[str, Any]) -> None:
            if "e" in obj:
                t, n, e = obj["t"], obj["n"], obj["e"]
                if type(t) not in _NUMBER or type(n) is not int or type(e) is not str \
                        or not -_I32 <= n < _I32 or not t >= 0:
                    _field(obj, "t", _TIME), _field(obj, "n", _INT, 32), _field(obj, "e", _TEXT)
                rows.extend((t, n, e))  # _event, inline
                details.append(obj.get("d"))
                if len(details) >= _DETAILS:
                    tracer._seal("events")
            elif "ei" in obj:
                tr = _field(obj, "tr", _NUMBER)
                eid = tracer.edge_send(
                    _field(obj, "ts", _TIME), _field(obj, "src", _INT, 32),
                    _field(obj, "dst", _INT, 32), _field(obj, "k", _TEXT),
                    _field(obj, "sz", _INT))
                tracer.edge_recv(eid, tr)
            else:
                parent, t1 = _field(obj, "p", _INT), _field(obj, "t1", _NUMBER)
                if not -1 <= parent < len(tracer.spans):
                    raise ValueError(f"parent {parent} is no earlier span")
                sid = tracer.begin(
                    _field(obj, "t0", _TIME), _field(obj, "n", _INT, 32),
                    _field(obj, "nm", _TEXT), _field(obj, "c", _TEXT),
                    _field(obj, "st", _TEXT), obj.get("d"), parent)
                if t1 >= 0:
                    tracer.end(sid, t1)

        try:
            json_records(text, source, add)
        finally:
            tracer.enabled = False
        return tracer

    def save(self, path: str) -> int:
        """Write the trace to ``path`` as JSON Lines; returns event count."""
        with open(path, "w") as fh:
            text = self.to_jsonl()
            if text:
                fh.write(text + "\n")
        return len(self)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read a JSON Lines trace written by :meth:`save`."""
        return cls.from_jsonl(read_text(path), source=path)
