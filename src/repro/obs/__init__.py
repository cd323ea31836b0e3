"""Observability: causal spans, exporters, metrics, run artifacts.

The telemetry layer on top of :mod:`repro.sim.trace`'s span/edge
substrate:

* :mod:`repro.obs.critical` -- causal critical-path extraction and the
  flush/communication overlap metric (the paper's central claim,
  measured directly);
* :mod:`repro.obs.export` -- Chrome trace-event / Perfetto JSON
  timelines from a recorded trace;
* :mod:`repro.obs.metrics` -- a typed metrics registry
  (counters/gauges/histograms) with Prometheus text rendering;
* :mod:`repro.obs.latency` -- the streaming log-bucketed latency
  recorder (HDR-style, bounded memory, mergeable across nodes) the
  protocol hot paths feed;
* :mod:`repro.obs.analytics` -- a numpy struct-of-arrays view of a
  trace and the built-in ``repro query`` reports (imported directly,
  not re-exported here, to keep package import cheap);
* :mod:`repro.obs.explain` -- the run diff: attribution between two
  runs or two perf-trajectory entries (``repro explain``);
* :mod:`repro.obs.artifacts` -- per-run ``runs/<id>/manifest.json``
  bundles and their loading, the one reader of a recorded trace;
* :mod:`repro.obs.console` -- the harness's console output layer
  (``--quiet`` / ``--json``).

Everything here is read-only over a finished run, and no reader writes
into the bundle it reads: recording stays in the simulator layer,
gated on ``Tracer.enabled``, so that tracing off remains byte-identical
to the pre-telemetry behaviour.
"""

from .artifacts import git_rev, load_bundle, load_trace, write_bundle
from .console import Console, get_console
from .critical import critical_path, flush_overlap, render_overlap, summarize_path
from .export import chrome_trace, validate_chrome_trace, write_chrome_trace
from .latency import LatencyRecorder
from .metrics import MetricsRegistry

__all__ = [
    "Console",
    "get_console",
    "LatencyRecorder",
    "MetricsRegistry",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "critical_path",
    "summarize_path",
    "flush_overlap",
    "render_overlap",
    "git_rev",
    "write_bundle",
    "load_bundle",
    "load_trace",
]
