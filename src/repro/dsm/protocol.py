"""The declared protocol state machine: one row per message kind.

This table is the *specification* the static conformance pass
(:mod:`repro.analysis.protoflow`) checks the implementation against.
The send/handler graph extracted from the AST of ``dsm/`` must line up
with it:

* every kind sent on the wire must have a consumer (PROTO001), unless
  declared ``external`` (consumed outside ``dsm/``, e.g. by the
  recovery responders);
* a handler that mutates one of its declared ``logged_state``
  attributes must call the declared ``log_hook`` on the same path
  (PROTO002) -- the piecewise-deterministic replay contract: state a
  handler changes is reconstructible only if the corresponding log
  record was appended;
* a reply payload constructed by a handler must not sit across a
  ``raise`` before its send (PROTO003) -- an exception in the gap
  leaves the peer waiting forever.

Keeping the table in ``dsm/`` (next to the handlers) rather than in the
analysis package makes it part of the protocol's public contract; the
model checker's docs reference it as the message catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["MessageSpec", "PROTOCOL", "payload_class_names"]


@dataclass(frozen=True)
class MessageSpec:
    """Declared shape and obligations of one message kind."""

    kind: str
    #: Payload dataclass name (see :mod:`repro.dsm.messages`).
    payload: str
    #: Function names allowed to consume this kind (dispatch arm or
    #: ``expect()`` site).  Informational plus PROTO002 scoping.
    consumers: Tuple[str, ...] = ()
    #: ``self.<attr>`` names the consumer mutates that must be covered
    #: by a log record for replay to reconstruct them.
    logged_state: Tuple[str, ...] = ()
    #: ``self.hooks.<name>`` that must be called whenever any
    #: ``logged_state`` attribute is mutated in a consumer body.
    log_hook: str = ""
    #: True when the kind is consumed outside ``dsm/`` (recovery
    #: responders, transports) -- exempt from PROTO001.
    external: bool = False
    #: True for pseudo-kinds that never cross the wire (local fast
    #: paths reusing the expect() plumbing).
    internal: bool = field(default=False)


_SPECS = (
    # -- data path ------------------------------------------------------
    MessageSpec(
        "page_req", "PageRequest",
        consumers=("_serve_page",),
    ),
    MessageSpec(
        "page_reply", "PageReply",
        consumers=("_fault_fetch",),
        logged_state=("memory",),
        log_hook="notify_page_fetched",
    ),
    MessageSpec(
        "diff", "DiffBatch",
        consumers=("_apply_incoming_diffs",),
        logged_state=("home_events", "memory"),
        log_hook="notify_update_received",
    ),
    MessageSpec(
        "diff_ack", "DiffAck",
        consumers=("_end_interval", "_early_diff_flush"),
        logged_state=("vt", "interval_index"),
        log_hook="notify_interval_end",
    ),
    # -- lock path ------------------------------------------------------
    MessageSpec(
        "lock_req", "LockRequest",
        consumers=("_manage_lock_request",),
    ),
    MessageSpec(
        "lock_grant", "LockGrant",
        consumers=("acquire",),
        logged_state=("acq_seq", "peer_known_vt"),
        log_hook="notify_notices_received",
    ),
    MessageSpec(
        "lock_rel", "LockRelease",
        consumers=("_manage_lock_release",),
    ),
    MessageSpec(
        "local_grant", "LockGrant",
        consumers=("_acquire_local",),
        internal=True,
    ),
    # -- barrier path ---------------------------------------------------
    MessageSpec(
        "barrier_checkin", "BarrierCheckin",
        consumers=("_manage_barrier_checkin",),
    ),
    MessageSpec(
        "barrier_release", "BarrierRelease",
        consumers=("_barrier_as_worker",),
        logged_state=("barrier_episode", "peer_known_vt"),
        log_hook="notify_notices_received",
    ),
    # -- reliable transport ---------------------------------------------
    MessageSpec(
        "rel_ack", "RelAck",
        consumers=("_on_deliver",),
    ),
    # -- home replication (quorum-mirrored homes) ------------------------
    MessageSpec(
        "replica_update", "ReplicaUpdate",
        consumers=("_apply_replica_update",),
    ),
    MessageSpec(
        "replica_ack", "ReplicaAck",
        consumers=("_on_replica_ack",),
    ),
    # -- recovery traffic (phase B, consumed in core/) -------------------
    MessageSpec("recon_req", "ReconRequest", external=True),
    MessageSpec("recon_reply", "ReconReply", external=True),
    MessageSpec("logdiff_req", "LogDiffRequest", external=True),
    MessageSpec("logdiff_reply", "LogDiffReply", external=True),
    # -- failover fencing (phase B, consumed in core/) -------------------
    MessageSpec("promote_req", "PromoteRequest", external=True),
    MessageSpec("promote_ack", "PromoteAck", external=True),
)

#: kind -> spec, the machine-readable protocol contract.
PROTOCOL: Dict[str, MessageSpec] = {s.kind: s for s in _SPECS}


def payload_class_names() -> Tuple[str, ...]:
    """All declared payload class names (PROTO003 tracks these)."""
    return tuple(sorted({s.payload for s in PROTOCOL.values()}))
