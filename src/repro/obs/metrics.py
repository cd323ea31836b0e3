"""Typed metrics registry with Prometheus text rendering.

:class:`MetricsRegistry` subsumes the ad-hoc :class:`~repro.sim.stats.Counter`
tallies scattered across the protocol layers with three typed metric
kinds:

* **counter** -- monotone totals (``repro_page_faults_total``);
* **gauge** -- point-in-time values (``repro_run_time_seconds``);
* **histogram** -- bucketed distributions (span durations).

:meth:`MetricsRegistry.from_run` snapshots one finished
:class:`~repro.dsm.system.RunResult` (plus, optionally, its trace) into
a registry; :meth:`MetricsRegistry.render_prometheus` emits the
standard text exposition format and :meth:`MetricsRegistry.snapshot` a
JSON-safe dict for the run manifest.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["MetricsRegistry", "DEFAULT_BUCKETS"]

#: Histogram bucket bounds for virtual-second durations (sim times are
#: micro- to milli-second scale at the paper's parameters).
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and line feed are the three characters the
    format requires escaping inside label values.
    """
    return (value.replace("\\", r"\\")
                 .replace('"', r"\"")
                 .replace("\n", r"\n"))


def _fmt_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


class _Metric:
    """One named metric family (all label combinations)."""

    def __init__(self, name: str, mtype: str, help_text: str,
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.mtype = mtype
        self.help = help_text
        self.buckets = tuple(buckets) if buckets else None
        #: scalar metrics: labels -> value;
        #: histograms: labels -> [counts per bucket + inf, sum, count]
        self.samples: Dict[LabelKey, Any] = {}


class MetricsRegistry:
    """A typed collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- recording -----------------------------------------------------
    def _family(self, name: str, mtype: str, help_text: str,
                buckets: Optional[Sequence[float]] = None) -> _Metric:
        m = self._metrics.get(name)
        if m is None:
            m = _Metric(name, mtype, help_text, buckets)
            self._metrics[name] = m
        elif m.mtype != mtype:
            raise ValueError(
                f"metric {name!r} is a {m.mtype}, re-registered as {mtype}"
            )
        return m

    def counter(self, name: str, value: float = 1.0, help_text: str = "",
                **labels: Any) -> None:
        """Add ``value`` to a monotone counter."""
        m = self._family(name, "counter", help_text)
        key = _label_key(labels)
        m.samples[key] = m.samples.get(key, 0.0) + value

    def gauge(self, name: str, value: float, help_text: str = "",
              **labels: Any) -> None:
        """Set a gauge to ``value``."""
        m = self._family(name, "gauge", help_text)
        m.samples[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, help_text: str = "",
                buckets: Sequence[float] = DEFAULT_BUCKETS,
                **labels: Any) -> None:
        """Record one observation into a histogram."""
        m = self._family(name, "histogram", help_text, buckets)
        key = _label_key(labels)
        state = m.samples.get(key)
        if state is None:
            state = {"buckets": [0] * (len(m.buckets) + 1),
                     "sum": 0.0, "count": 0}
            m.samples[key] = state
        for i, bound in enumerate(m.buckets):
            if value <= bound:
                state["buckets"][i] += 1
        state["buckets"][-1] += 1  # +Inf
        state["sum"] += value
        state["count"] += 1

    def get(self, name: str, **labels: Any) -> Any:
        """Current value of one sample (None when absent)."""
        m = self._metrics.get(name)
        if m is None:
            return None
        return m.samples.get(_label_key(labels))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export --------------------------------------------------------
    def render_prometheus(self) -> str:
        """Standard Prometheus text exposition of every metric."""
        out: List[str] = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if m.help:
                out.append(f"# HELP {name} {m.help}")
            out.append(f"# TYPE {name} {m.mtype}")
            for key in sorted(m.samples):
                if m.mtype != "histogram":
                    out.append(f"{name}{_fmt_labels(key)} {m.samples[key]:g}")
                    continue
                state = m.samples[key]
                assert m.buckets is not None
                for i, bound in enumerate(m.buckets):
                    le = _fmt_labels(key, [("le", f"{bound:g}")])
                    out.append(f"{name}_bucket{le} {state['buckets'][i]}")
                inf = _fmt_labels(key, [("le", "+Inf")])
                out.append(f"{name}_bucket{inf} {state['buckets'][-1]}")
                out.append(f"{name}_sum{_fmt_labels(key)} {state['sum']:g}")
                out.append(f"{name}_count{_fmt_labels(key)} {state['count']}")
        return "\n".join(out) + ("\n" if out else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump (type, help, and every labelled sample)."""
        doc: Dict[str, Any] = {}
        for name, m in sorted(self._metrics.items()):
            doc[name] = {
                "type": m.mtype,
                "help": m.help,
                "samples": [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(m.samples.items())
                ],
            }
            if m.buckets is not None:
                doc[name]["buckets"] = list(m.buckets)
        return doc

    # -- construction from a finished run ------------------------------
    @classmethod
    def from_run(cls, result: Any, tracer: Any = None) -> "MetricsRegistry":
        """Snapshot a :class:`~repro.dsm.system.RunResult` (and trace).

        Subsumes the per-node ``Counter`` tallies and ``TimeBreakdown``
        buckets under typed, labelled metric families; with a trace,
        adds span-duration histograms per category.
        """
        reg = cls()
        reg.gauge("repro_run_time_seconds", result.total_time,
                  help_text="virtual wall time of the run",
                  app=result.app_name, protocol=result.protocol)
        reg.gauge("repro_run_completed", 1.0 if result.completed else 0.0,
                  help_text="1 when the run finished, 0 when it stalled")
        for kind, nbytes in sorted(result.bytes_by_kind.items()):
            reg.counter("repro_network_bytes_total", nbytes,
                        help_text="wire bytes sent, by message kind",
                        kind=kind)
        reg.counter("repro_network_messages_total", result.network_msgs,
                    help_text="messages sent across all nodes")
        for stats in result.node_stats:
            for key, value in sorted(stats.counters.items()):
                reg.counter(f"repro_{key}_total", value,
                            help_text="protocol event counter",
                            node=stats.node_id)
            for cat in stats.time:
                reg.counter("repro_time_seconds_total", stats.time.get(cat),
                            help_text="virtual seconds by breakdown bucket",
                            node=stats.node_id, category=cat)
        for op, rec in sorted(getattr(result.aggregate, "latency", {}).items()):
            for stat, value in rec.percentiles().items():
                reg.gauge("repro_op_latency_seconds", value,
                          help_text="per-operation latency distribution "
                                    "(streaming log-bucketed recorder)",
                          op=op, stat=stat)
        live = reclaimed = 0.0
        mode_bytes = {"ml": 0.0, "ccl": 0.0}
        mode_switches = 0.0
        for summary in result.log_summaries:
            for key, value in sorted(summary.items()):
                if isinstance(value, (int, float)):
                    reg.counter(f"repro_log_{key}_total", value,
                                help_text="stable-log statistic")
            live += summary.get("live_log_bytes", 0)
            reclaimed += summary.get("reclaimed_bytes", 0)
            mode_switches += summary.get("mode_switches", 0)
            for mode in mode_bytes:
                mode_bytes[mode] += summary.get(f"{mode}_mode_bytes", 0)
        if mode_switches or any(mode_bytes.values()):
            # adaptive hybrid logging: how the log volume split between
            # the two modes, and how often the cost model flipped
            reg.counter("repro_log_mode_switches", mode_switches,
                        help_text="adaptive logging mode switches across "
                                  "all nodes")
            for mode, nbytes in sorted(mode_bytes.items()):
                reg.gauge("repro_log_mode_bytes", nbytes,
                          help_text="log bytes appended while the adaptive "
                                    "protocol ran in each mode",
                          mode=mode)
        reg.gauge("repro_log_live_bytes", live,
                  help_text="on-disk log bytes not yet reclaimed by "
                            "checkpoint-driven truncation")
        reg.gauge("repro_log_reclaimed_bytes", reclaimed,
                  help_text="log bytes reclaimed by checkpoint-driven "
                            "truncation")
        for disk in getattr(result, "disk_stats", None) or []:
            for kind, samples in sorted(disk.get("op_latencies", {}).items()):
                for value in samples:
                    reg.observe("repro_disk_op_latency_seconds", value,
                                help_text="disk op latency (queueing + "
                                          "service) by kind",
                                kind=kind, disk=disk.get("name", "disk"))
        if getattr(result, "replication", 1) > 1:
            # quorum-replicated homes: promotion counts and the latency
            # from mirror send to quorum ack, per primary
            for stats in getattr(result, "replication_stats", None) or []:
                node = stats.get("node")
                reg.counter("repro_replication_failovers_total",
                            stats.get("failovers", 0),
                            help_text="replica promotions applied onto "
                                      "this node (it became a primary)",
                            node=node)
                reg.counter("repro_replication_mirror_bytes_total",
                            stats.get("mirror_bytes", 0),
                            help_text="wire bytes of sealed home-state "
                                      "mirrors pushed to followers",
                            node=node)
                for wait in stats.get("quorum_waits", ()):
                    reg.observe("repro_replication_quorum_latency_seconds",
                                wait,
                                help_text="mirror send to quorum ack, one "
                                          "observation per sealed interval",
                                node=node)
        zones = getattr(result, "zones", None)
        if zones is not None:
            dead = set(getattr(result, "dead_nodes", ()) or ())
            for zone in sorted(set(zones)):
                alive = any(
                    n not in dead
                    for n, z in enumerate(zones) if z == zone
                )
                reg.gauge("repro_zone_alive", 1.0 if alive else 0.0,
                          help_text="1 when at least one node in the fault "
                                    "domain survived the run",
                          zone=zone)
        if tracer is not None:
            reg.gauge("repro_trace_events", len(tracer),
                      help_text="recorded point events")
            reg.gauge("repro_trace_spans", len(tracer.spans),
                      help_text="recorded causal spans")
            reg.gauge("repro_trace_edges", len(tracer.edges),
                      help_text="recorded message edges")
            for span in tracer.spans:
                if span.t1 >= 0:
                    reg.observe("repro_span_duration_seconds", span.duration,
                                help_text="span durations by category",
                                cat=span.cat)
        return reg
