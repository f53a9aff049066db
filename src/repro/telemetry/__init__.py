"""repro.telemetry — tracing, metrics, and timeline export.

The observability subsystem for the fleet engine, devices, and trainer:

* :mod:`repro.telemetry.registry` — labeled counters/gauges/histograms
  behind a thread-safe :class:`MetricsRegistry` (plus a process-global
  default);
* :mod:`repro.telemetry.tracer` — a span/event :class:`Tracer` driven by
  the *simulated* clock, ring-buffered with an optional JSONL sink;
* :mod:`repro.telemetry.facade` — the :class:`Telemetry` handle
  components are instrumented against, and the no-op
  :class:`NullTelemetry` fast path (:data:`NULL_TELEMETRY`) that keeps
  uninstrumented runs bitwise-identical;
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON
  (Perfetto-loadable), Prometheus text exposition, and per-device
  utilization timelines.

Quick use::

    from repro.telemetry import Telemetry, write_artifacts

    tel = Telemetry()
    engine = FleetEngine(cluster, selector, telemetry=tel)
    ...
    write_artifacts(tel, "out/")   # trace.json + metrics.prom + timeline.json
"""

from repro.telemetry.facade import (
    METRIC_HELP,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    SketchMetric,
    default_registry,
    set_default_registry,
)
from repro.telemetry.tracer import Event, JsonlSink, Span, Tracer
from repro.telemetry.export import (
    chrome_trace,
    device_timelines,
    prometheus_text,
    utilization_from_timelines,
    write_artifacts,
    write_chrome_trace,
)

__all__ = [
    "METRIC_HELP",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "SketchMetric",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "Event",
    "JsonlSink",
    "Span",
    "Tracer",
    "chrome_trace",
    "device_timelines",
    "prometheus_text",
    "utilization_from_timelines",
    "write_artifacts",
    "write_chrome_trace",
]
