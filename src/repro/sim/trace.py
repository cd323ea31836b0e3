"""Optional event tracing with a typed, serialisable event schema.

A :class:`Tracer` records events when enabled.  Tracing is off by
default; tests, the recovery debugger, and the coherence sanitizer
(:mod:`repro.analysis`) turn it on to inspect protocol interleavings.

Event names are the typed constants of :class:`Ev`.  Structured events
carry a JSON-serialisable ``detail`` dict (vector clocks as plain int
lists, page states as their string values), so a whole trace can round-
trip through JSON Lines via :meth:`Tracer.to_jsonl` /
:meth:`Tracer.from_jsonl` and be analysed offline with
``python -m repro analyze <trace>``.  Recording builds no event:
:meth:`Tracer.record` appends a plain tuple, :meth:`Tracer.transition`
a page-state transition's fields, and the first read of
:attr:`Tracer.events` turns the pending records into
:class:`TraceEvent` objects, in order.  The ``runs`` of
``interval_end``/``early_diff`` are recorded as the diff's read-only
``mask`` and ``run_count`` and read as the ``(start, length)`` array
:meth:`~repro.memory.diff.Diff.run_table` builds from them, which
:meth:`TraceEvent.to_json` writes as nested int lists; whoever reads
``runs`` from a live trace calls ``.tolist()`` first (the race
detector does).

The legacy scalar events (``acquire``/``release``/``barrier``/``seal``/
``fault`` with a bare id as detail) are retained unchanged; the
structured schema is additive.

Beyond point events, the tracer also records **causal spans** and
**message edges** (the ``repro.obs`` telemetry substrate):

* a :class:`Span` is a named, categorised ``[t0, t1]`` activity on one
  node's *strand* (``main`` for the application process, ``server`` for
  the protocol handler loop, ``disk`` for in-flight log flushes), with a
  parent span id, forming a per-strand tree;
* a :class:`MsgEdge` is one network message's send->receive hop,
  stamped by the network layer on every DSM message.

Together they form the causal DAG a run's wall time decomposes over:
spans nest within a strand, edges connect strands across nodes.  The
critical-path extractor (:mod:`repro.obs.critical`) walks exactly this
structure.  Span/edge recording is gated on :attr:`Tracer.enabled` too.
"""

from __future__ import annotations

import json
import weakref
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..jsonio import json_records, parse_json, read_text
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

    Scalar legacy events (detail is a bare id):

    * :attr:`ACQUIRE`, :attr:`RELEASE`, :attr:`BARRIER`, :attr:`SEAL`,
      :attr:`FAULT`

    Structured events (detail is a JSON-safe dict):

    * synchronisation: :attr:`LOCK_ACQUIRED`, :attr:`LOCK_RELEASED`,
      :attr:`BARRIER_ENTER`, :attr:`BARRIER_EXIT` -- each carries the
      node's applied vector timestamp ``vt``;
    * manager side: :attr:`LOCK_GRANT`, :attr:`LOCK_QUEUE`,
      :attr:`LOCK_FREE`, :attr:`BARRIER_CHECKIN`,
      :attr:`BARRIER_ALL_IN`;
    * intervals and diffs: :attr:`INTERVAL_END` (with word-granularity
      write runs), :attr:`EARLY_DIFF`, :attr:`DIFF_SEND`,
      :attr:`DIFF_APPLY`, :attr:`DIFF_ACKED`;
    * page movement: :attr:`PAGE_SERVE`, :attr:`PAGE_FETCH` (both with
      a CRC32 of the transferred bytes), :attr:`PAGE_STATE` for
      page-table state-machine transitions;
    * logging layer (emitted by
      :class:`~repro.dsm.logginghooks.LoggingHooks`): :attr:`LOG_NOTICES`,
      :attr:`LOG_FETCH`, :attr:`LOG_UPDATE`, :attr:`LOG_EARLY_DIFF`,
      :attr:`LOG_INTERVAL`.
    """

    # -- legacy scalar events (kept stable for existing tooling) -------
    ACQUIRE = "acquire"
    RELEASE = "release"
    BARRIER = "barrier"
    SEAL = "seal"
    FAULT = "fault"

    # -- synchronisation (carry the node's own vt) ---------------------
    LOCK_ACQUIRED = "lock_acquired"
    LOCK_RELEASED = "lock_released"
    BARRIER_ENTER = "barrier_enter"
    BARRIER_EXIT = "barrier_exit"

    # -- manager side --------------------------------------------------
    LOCK_GRANT = "lock_grant"
    LOCK_QUEUE = "lock_queue"
    LOCK_FREE = "lock_free"
    BARRIER_CHECKIN = "barrier_checkin"
    BARRIER_ALL_IN = "barrier_all_in"

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

    # -- logging layer ---------------------------------------------------
    LOG_NOTICES = "log_notices"
    LOG_FETCH = "log_fetch"
    LOG_UPDATE = "log_update"
    LOG_EARLY_DIFF = "log_early_diff"
    LOG_INTERVAL = "log_interval"

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

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Decode one JSON Lines record."""
        obj = parse_json(line, "trace record")
        return cls(obj["t"], obj["n"], obj["e"], obj.get("d"))


def _event(item: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a pending record stands for."""
    if len(item) == 7:  # from Tracer.transition
        time, node, page, old, new, reason, home = item
        return TraceEvent(time, node, Ev.PAGE_STATE, {"page": page, "from": old.value,
                          "to": new.value, "reason": reason, "home": home})
    time, node, event, detail = item
    if event == Ev.EARLY_DIFF:
        detail["runs"] = runs_of_mask(*detail["runs"])
    elif event == Ev.INTERVAL_END:
        detail["writes"] = [{"page": page, "runs": runs_of_mask(mask, count)}
                            for page, mask, count in detail["writes"]]
    return TraceEvent(time, node, event, detail)


@dataclass(slots=True)
class Span:
    """One named activity interval on a node's strand.

    ``t1 < 0`` marks a span still open (ended by a crash, or a disk
    flush whose completion outlived the run).  ``parent`` is the id of
    the enclosing span on the same strand, or -1 for a root.  ``cat``
    is the coarse category the critical-path extractor attributes time
    to: ``cpu``, ``sync``, ``wait``, ``disk``, or ``handler``.
    """

    sid: int
    parent: int
    node: int
    strand: str
    name: str
    cat: str
    t0: float
    t1: float = -1.0
    detail: Any = None

    @property
    def duration(self) -> float:
        """Closed-span length (0.0 while the span is still open)."""
        return self.t1 - self.t0 if self.t1 >= 0 else 0.0

    def to_json(self) -> str:
        """Encode as one JSON Lines record (key ``s`` tags the type)."""
        return json.dumps(
            {"s": self.sid, "p": self.parent, "n": self.node,
             "st": self.strand, "nm": self.name, "c": self.cat,
             "t0": self.t0, "t1": self.t1, "d": self.detail},
            separators=(",", ":"),
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "Span":
        return cls(obj["s"], obj["p"], obj["n"], obj["st"], obj["nm"],
                   obj["c"], obj["t0"], obj["t1"], obj.get("d"))


@dataclass(slots=True)
class MsgEdge:
    """One message's send->receive hop (the DAG's cross-node edges).

    ``t_recv < 0`` marks a message never delivered (dropped by fault
    injection, or in flight when the run ended).  A duplicate copy keeps
    the first arrival time, as :attr:`repro.sim.network.NetMessage.delivered_at`
    does; a retransmission is a new edge.
    """

    eid: int
    src: int
    dst: int
    kind: str
    size: int
    t_send: float
    t_recv: float = -1.0

    def to_json(self) -> str:
        """Encode as one JSON Lines record (key ``ei`` tags the type)."""
        return json.dumps(
            {"ei": self.eid, "src": self.src, "dst": self.dst,
             "k": self.kind, "sz": self.size,
             "ts": self.t_send, "tr": self.t_recv},
            separators=(",", ":"),
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "MsgEdge":
        return cls(obj["ei"], obj["src"], obj["dst"], obj["k"], obj["sz"],
                   obj["ts"], obj["tr"])


class Tracer:
    """Append-only trace buffer with simple filtering helpers.

    ``maxlen`` bounds the buffer: when set, only the most recent
    ``maxlen`` events are retained (older events are dropped silently),
    which keeps long benchmark runs from growing the trace without
    bound.  The default is unbounded, preserving full traces for the
    invariant checker.  A bounded tracer materialises each record at once.
    """

    def __init__(self, enabled: bool = False, maxlen: Optional[int] = None):
        self._enabled = False
        self.enabled = enabled
        self.maxlen = maxlen
        self._events: List[TraceEvent] = [] if maxlen is None else deque(maxlen=maxlen)  # type: ignore[assignment]
        self._pending: List[tuple] = []  # recorded, not yet in _events
        self.dropped = 0
        #: Causal spans, in begin order; a span's id is its list index.
        self.spans: List[Span] = []
        #: Message edges, in send order; an edge's id is its list index.
        self.edges: List[MsgEdge] = []
        #: Open-span stack per (node, strand), for parent assignment.
        self._stacks: Dict[Tuple[int, str], List[int]] = defaultdict(list)

    @property
    def enabled(self) -> bool:
        """Whether this tracer records; the setter maintains
        :data:`TRACING_ACTIVE` so hot paths can short-circuit globally."""
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

    def record(self, time: float, node: int, event: str, detail: Any = None) -> None:
        """Record an event if tracing is enabled (built when first read)."""
        if self._enabled:
            self._pending.append((time, node, event, detail))
            if self.maxlen is not None:
                self._materialise()

    def transition(self, time: float, node: int, page: int, old: Any, new: Any,
                   reason: str, home: int) -> None:
        """Record a ``page_state`` event; its detail dict is built when read."""
        if self._enabled:
            self._pending.append((time, node, page, old, new, reason, home))
            if self.maxlen is not None:
                self._materialise()

    @property
    def events(self) -> List[TraceEvent]:
        """Every retained event, in record order (materialised on read)."""
        if self._pending:
            self._materialise()
        return self._events

    def _materialise(self) -> None:
        pending, events = self._pending, self._events
        if self.maxlen is not None:
            self.dropped += max(0, len(events) + len(pending) - self.maxlen)
        events.extend(map(_event, pending))
        pending.clear()

    # ------------------------------------------------------------------
    # causal spans and message edges
    # ------------------------------------------------------------------
    def begin(
        self,
        time: float,
        node: int,
        name: str,
        cat: str,
        strand: str = "main",
        detail: Any = None,
        parent: Optional[int] = None,
    ) -> int:
        """Open a span; returns its id (-1 when tracing is disabled).

        The parent defaults to the innermost open span on the same
        ``(node, strand)``; pass ``parent`` to attach elsewhere (e.g. a
        disk-strand flush span parented to the sealing release).
        """
        if not self._enabled:
            return -1
        stack = self._stacks[(node, strand)]
        if parent is None:
            parent = stack[-1] if stack else -1
        sid = len(self.spans)
        self.spans.append(Span(sid, parent, node, strand, name, cat, time, -1.0, detail))
        stack.append(sid)
        return sid

    def end(self, sid: int, time: float, detail: Any = None) -> None:
        """Close a span opened by :meth:`begin` (no-op for sid < 0),
        replacing its detail with a given one (e.g. the edge that ended a wait)."""
        # bounds check: a flush-completion callback may fire after clear()
        if sid < 0 or sid >= len(self.spans) or not self._enabled:
            return
        span = self.spans[sid]
        span.t1 = time
        if detail is not None:
            span.detail = detail
        stack = self._stacks.get((span.node, span.strand))
        if stack and sid in stack:
            stack.remove(sid)

    def edge_send(self, time: float, src: int, dst: int, kind: str,
                  size: int) -> int:
        """Record a message leaving ``src``; returns the edge id (-1 off)."""
        if not self._enabled:
            return -1
        eid = len(self.edges)
        self.edges.append(MsgEdge(eid, src, dst, kind, size, time))
        return eid

    def edge_recv(self, eid: int, time: float) -> None:
        """Record the first delivery of edge ``eid`` (no-op for eid < 0)."""
        if eid < 0 or eid >= len(self.edges) or not self._enabled:
            return
        edge = self.edges[eid]
        if edge.t_recv < 0:
            edge.t_recv = time

    def filter(self, event: Optional[str] = None, node: Optional[int] = None) -> List[TraceEvent]:
        """Events matching the given event name and/or node."""
        return [e for e in self.events
                if (event is None or e.event == event) and (node is None or e.node == node)]

    def clear(self) -> None:
        """Drop all recorded events, spans, and edges."""
        self._events.clear()
        self._pending.clear()
        self.dropped = 0
        self.spans.clear()
        self.edges.clear()
        self._stacks.clear()

    def __len__(self) -> int:  # counts without materialising
        return len(self._events) + len(self._pending)

    # ------------------------------------------------------------------
    # offline (de)serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Encode the whole trace as JSON Lines.

        Events first (legacy layout, so pre-span tooling keeps working),
        then spans, then edges; each record type is distinguished by its
        tag key (``e`` / ``s`` / ``ei``).
        """
        lines = [e.to_json() for e in self.events]
        lines.extend(s.to_json() for s in self.spans)
        lines.extend(m.to_json() for m in self.edges)
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str, maxlen: Optional[int] = None,
                   source: str = "trace") -> "Tracer":
        """Rebuild a (disabled) tracer from :meth:`to_jsonl` output; a torn
        line is a :class:`~repro.errors.BundleError` naming ``source``."""
        tracer = cls(enabled=False, maxlen=maxlen)

        def add(obj: Dict[str, Any]) -> None:
            if "e" in obj:
                tracer._events.append(TraceEvent(obj["t"], obj["n"], obj["e"], obj.get("d")))
            elif "ei" in obj:
                tracer.edges.append(MsgEdge.from_obj(obj))
            else:
                tracer.spans.append(Span.from_obj(obj))

        json_records(text, source, add)
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
