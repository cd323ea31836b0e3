"""Deterministic network and disk fault injection.

A :class:`FaultPlan` tells the :class:`~repro.sim.network.Network` how to
misbehave: per-link / per-kind probabilities of dropping, duplicating,
delaying, and reordering messages, plus *live kills* at arbitrary
virtual times that discard the victim's queued NIC frames and every
delivery still in flight to or from it.

A :class:`DiskFaultPlan` does the same for stable storage: per-node
probabilities of *torn tails* (a crash mid-flush persists a byte-
granularity prefix of the in-flight segment instead of losing the whole
flush), *transient write errors* (the flush path retries with backoff),
and *latent bit rot* (single-bit flips in already-persistent segments,
caught by the per-frame CRCs at salvage time).

All randomness comes from seeded ``random.Random`` streams.  Faults
consulted in simulator event order (message deliveries, write errors)
draw from one sequential stream; faults that must be stable across
repeated queries (torn tails and bit rot are evaluated per crash
*instant*, and the chaos suite probes many instants of one run) are
pure functions of ``(seed, node, segment)`` via string-seeded RNGs.

``FaultPlan.none()`` / ``DiskFaultPlan.none()`` are inert: consumers
detect them and take the exact fault-free code path, so every statistic
of an unfaulted run stays byte-identical with or without a plan
attached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["LinkFaults", "FaultPlan", "DiskFaults", "DiskFaultPlan"]


@dataclass(frozen=True)
class LinkFaults:
    """Fault rates for one (link, kind) class of traffic.

    ``delay_s`` scales both the plain-delay and the reorder hold-back;
    a reorder is just a hold-back long enough (a few message times) to
    let later traffic on the same link overtake the held frame.
    """

    #: Probability a frame is lost outright.
    drop: float = 0.0
    #: Probability a second copy of the frame is delivered.
    dup: float = 0.0
    #: Probability a frame is delivered late (jittered ``delay_s``).
    delay: float = 0.0
    #: Probability a frame is held back past later traffic on its link.
    reorder: float = 0.0
    #: Base extra latency for delayed/held frames (seconds).
    delay_s: float = 600e-6

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "delay", "reorder"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"bad {name} probability {p}")
        if self.delay_s < 0:
            raise SimulationError(f"negative fault delay {self.delay_s}")

    @property
    def quiet(self) -> bool:
        """True when this class of traffic is never disturbed."""
        return not (self.drop or self.dup or self.delay or self.reorder)


class FaultPlan:
    """A seeded, deterministic schedule of network misbehaviour.

    Resolution order for a frame's fault rates: an exact ``kinds``
    override wins, then a ``links`` ``(src, dst)`` override, then the
    plan-wide default.  ``kills`` maps a node id to the virtual time it
    dies; from that instant no frame from or to it is ever delivered.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[LinkFaults] = None,
        links: Optional[Dict[Tuple[int, int], LinkFaults]] = None,
        kinds: Optional[Dict[str, LinkFaults]] = None,
        kills: Optional[Dict[int, float]] = None,
    ):
        self.seed = seed
        self.default = default or LinkFaults()
        self.links = dict(links or {})
        self.kinds = dict(kinds or {})
        self.kills = dict(kills or {})
        #: Zone-partition windows: ``(side_a, side_b, start, until)``
        #: frozensets of node ranks; frames crossing between the sides
        #: inside the window are discarded (both directions).
        self.partitions: List[Tuple[frozenset, frozenset, float, float]] = []
        self._rng = random.Random(seed)
        #: Fault bookkeeping, reported by the chaos harness.
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.dead_discards = 0
        self.partition_discards = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that never interferes (and costs nothing)."""
        return cls(seed=0)

    @classmethod
    def uniform(
        cls,
        seed: int,
        drop: float = 0.0,
        dup: float = 0.0,
        delay: float = 0.0,
        reorder: float = 0.0,
        delay_s: float = 600e-6,
    ) -> "FaultPlan":
        """Same fault rates on every link and message kind."""
        return cls(
            seed=seed,
            default=LinkFaults(drop=drop, dup=dup, delay=delay,
                               reorder=reorder, delay_s=delay_s),
        )

    def kill(self, node: int, at_time: float) -> "FaultPlan":
        """Schedule a live kill of ``node`` at virtual time ``at_time``."""
        if node < 0 or at_time < 0:
            raise SimulationError(f"bad kill ({node}, {at_time})")
        self.kills[node] = at_time
        return self

    def partition(self, side_a, side_b, start: float,
                  until: float = float("inf")) -> "FaultPlan":
        """Partition ``side_a`` from ``side_b`` during ``[start, until)``.

        Frames crossing between the two sides inside the window are
        discarded in both directions; traffic within a side is
        untouched.  The partition heals at ``until`` (default: never).
        """
        a, b = frozenset(side_a), frozenset(side_b)
        if not a or not b:
            raise SimulationError("partition sides must be non-empty")
        if a & b:
            raise SimulationError(
                f"partition sides overlap: {sorted(a & b)}"
            )
        if start < 0 or until <= start:
            raise SimulationError(f"bad partition window [{start}, {until})")
        self.partitions.append((a, b, start, until))
        return self

    # ------------------------------------------------------------------
    # queries (called by the network in event order)
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the network must consult this plan at all."""
        if self.kills or self.partitions:
            return True
        if not self.default.quiet:
            return True
        return any(not f.quiet for f in self.links.values()) or any(
            not f.quiet for f in self.kinds.values()
        )

    def faults_for(self, src: int, dst: int, kind: str) -> LinkFaults:
        """The fault rates governing one frame."""
        by_kind = self.kinds.get(kind)
        if by_kind is not None:
            return by_kind
        by_link = self.links.get((src, dst))
        if by_link is not None:
            return by_link
        return self.default

    def delivery_delays(self, src: int, dst: int, kind: str) -> List[float]:
        """Extra latencies for each copy of a frame to deliver.

        An empty list means the frame is dropped; more than one entry
        means duplication.  Consumes RNG draws, so must be called
        exactly once per transmission attempt, at post time.
        """
        f = self.faults_for(src, dst, kind)
        if f.quiet:
            return [0.0]
        rng = self._rng
        if f.drop and rng.random() < f.drop:
            self.dropped += 1
            return []
        extra = 0.0
        if f.delay and rng.random() < f.delay:
            extra += f.delay_s * (0.5 + rng.random())
            self.delayed += 1
        if f.reorder and rng.random() < f.reorder:
            # hold back long enough for later same-link traffic to pass
            extra += f.delay_s * (2.0 + 2.0 * rng.random())
            self.reordered += 1
        delays = [extra]
        if f.dup and rng.random() < f.dup:
            delays.append(extra + f.delay_s * rng.random())
            self.duplicated += 1
        return delays

    def struck_dead(self, src: int, dst: int, at_time: float) -> bool:
        """Whether a delivery at ``at_time`` involves a dead endpoint.

        A frame still in flight (or queued on the victim's NIC) when the
        kill fires completes its delivery *after* the kill instant, so
        checking the delivery time discards exactly the in-flight set.
        """
        t_src = self.kills.get(src)
        if t_src is not None and at_time >= t_src:
            return True
        t_dst = self.kills.get(dst)
        return t_dst is not None and at_time >= t_dst

    def partitioned(self, src: int, dst: int, at_time: float) -> bool:
        """Whether a delivery at ``at_time`` crosses an open partition."""
        for side_a, side_b, start, until in self.partitions:
            if not (start <= at_time < until):
                continue
            if (src in side_a and dst in side_b) or (
                src in side_b and dst in side_a
            ):
                return True
        return False

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Injected-fault counts for reports and tests."""
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "dead_discards": self.dead_discards,
            "partition_discards": self.partition_discards,
        }

    def describe(self) -> str:
        """One-line description used in chaos repro commands."""
        d = self.default
        parts = [f"seed={self.seed}", f"drop={d.drop:g}", f"dup={d.dup:g}",
                 f"delay={d.delay:g}", f"reorder={d.reorder:g}"]
        if self.kills:
            parts.append("kills=" + ",".join(
                f"{n}@{t:g}" for n, t in sorted(self.kills.items())))
        if self.partitions:
            parts.append("partitions=" + ";".join(
                f"{sorted(a)}|{sorted(b)}@[{t0:g},{t1:g})"
                for a, b, t0, t1 in self.partitions))
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.describe()}>"


@dataclass(frozen=True)
class DiskFaults:
    """Stable-storage fault rates for one node's disk."""

    #: Probability a crash mid-flush leaves a byte-granularity prefix of
    #: the in-flight segment on disk (vs. losing the flush whole).
    torn_tail: float = 0.0
    #: Per-flush probability of a transient write error (retried).
    write_error: float = 0.0
    #: Per-segment probability of a latent single-bit flip.
    bitrot: float = 0.0
    #: Transient write errors are retried at most this many times.
    max_retries: int = 6
    #: Base backoff before a retry (seconds, scaled by attempt).
    retry_backoff_s: float = 200e-6

    def __post_init__(self) -> None:
        for name in ("torn_tail", "write_error", "bitrot"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise SimulationError(f"bad {name} probability {p}")
        if self.max_retries < 0:
            raise SimulationError(f"negative max_retries {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise SimulationError(
                f"negative retry backoff {self.retry_backoff_s}"
            )

    @property
    def quiet(self) -> bool:
        """True when this disk never misbehaves."""
        return not (self.torn_tail or self.write_error or self.bitrot)


class DiskFaultPlan:
    """A seeded, deterministic schedule of stable-storage misbehaviour.

    Write-error draws happen in flush order (one per attempt), so they
    come from a sequential stream.  Torn-tail and bit-rot draws must
    give the same answer every time the same segment is examined --
    ``durable_view``/salvage run once per probed crash instant -- so
    they are pure functions of ``(seed, node, segment seq)``.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[DiskFaults] = None,
        nodes: Optional[Dict[int, DiskFaults]] = None,
    ):
        self.seed = seed
        self.default = default or DiskFaults()
        self.nodes = dict(nodes or {})
        # xor-folded so the write-error stream never aliases the network
        # plan's stream under a shared seed
        self._rng = random.Random(seed ^ 0x5D15C0DE)
        #: Fault bookkeeping, reported by the chaos harness.
        self.write_errors = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "DiskFaultPlan":
        """A plan that never interferes (and costs nothing)."""
        return cls(seed=0)

    @classmethod
    def uniform(
        cls,
        seed: int,
        torn_tail: float = 0.0,
        write_error: float = 0.0,
        bitrot: float = 0.0,
    ) -> "DiskFaultPlan":
        """Same fault rates on every node's disk."""
        return cls(
            seed=seed,
            default=DiskFaults(torn_tail=torn_tail, write_error=write_error,
                               bitrot=bitrot),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the storage layer must consult this plan at all."""
        if not self.default.quiet:
            return True
        return any(not f.quiet for f in self.nodes.values())

    def faults_for(self, node: int) -> DiskFaults:
        """The fault rates governing one node's disk."""
        return self.nodes.get(node, self.default)

    def write_fails(self, node: int) -> bool:
        """Whether this flush attempt hits a transient write error.

        Consumes an RNG draw, so must be called exactly once per
        attempt, in simulator event order.
        """
        f = self.faults_for(node)
        if not f.write_error:
            return False
        if self._rng.random() < f.write_error:
            self.write_errors += 1
            return True
        return False

    def torn_bytes(self, node: int, seq: int, nbytes: int) -> Optional[int]:
        """Surviving byte-prefix length of an in-flight segment, or None.

        ``None`` reproduces the ideal all-or-nothing rule (the whole
        flush is lost); an integer in ``[0, nbytes)`` is how many bytes
        of the segment a crash during this flush leaves on disk.  Pure
        in ``(seed, node, seq)``.
        """
        f = self.faults_for(node)
        if not f.torn_tail or nbytes <= 0:
            return None
        rng = random.Random(f"{self.seed}:{node}:{seq}:torn")
        if rng.random() >= f.torn_tail:
            return None
        return rng.randrange(nbytes)

    def bitrot_flip(self, node: int, seq: int,
                    nbytes: int) -> Optional[Tuple[int, int]]:
        """Latent ``(byte_offset, bit_mask)`` flip in a durable segment.

        ``None`` means the segment is pristine.  Pure in
        ``(seed, node, seq)``, so every examination of one segment sees
        the same damage.
        """
        f = self.faults_for(node)
        if not f.bitrot or nbytes <= 0:
            return None
        rng = random.Random(f"{self.seed}:{node}:{seq}:rot")
        if rng.random() >= f.bitrot:
            return None
        return rng.randrange(nbytes), 1 << rng.randrange(8)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Injected-fault counts for reports and tests."""
        return {"write_errors": self.write_errors}

    def describe(self) -> str:
        """One-line description used in chaos repro commands."""
        d = self.default
        return (
            f"disk-seed={self.seed} torn={d.torn_tail:g} "
            f"werr={d.write_error:g} bitrot={d.bitrot:g}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskFaultPlan {self.describe()}>"
