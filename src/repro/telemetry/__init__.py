"""``repro.telemetry`` — zero-overhead-when-off observability.

The subsystem has four pieces (see ``docs/OBSERVABILITY.md``):

:class:`MetricRegistry`
    Hierarchically named counters, gauges, and fixed-bucket histograms
    (``controller.ch0.rdq.occupancy``, ``core.ch0.decision.long``).
:class:`TraceBuffer`
    A bounded, cycle-stamped ring of bus/decision/phase events.
:mod:`~repro.telemetry.probes`
    The objects wired into the controller, DRAM channel, MiL policy,
    and campaign runner.  Wiring happens once, at construction time;
    with no session attached every instrumentation site is a single
    ``is None`` test, so the disabled fast path is unchanged.
:mod:`~repro.telemetry.export`
    JSON-lines metrics dumps and Chrome trace-event files (Perfetto).

There is no process-wide switch: a run is observed when it is handed
a :class:`TelemetrySession` (the CLI builds one for ``--telemetry``;
library callers construct their own and pass it down).
"""

from __future__ import annotations

from .clock import monotonic_ts
from .export import (
    chrome_trace_events,
    load_metrics_jsonl,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .probes import CampaignProbe, ChannelProbe, PhaseTimer, ServiceProbe
from .registry import Counter, Gauge, Histogram, MetricRegistry
from .session import TelemetrySession
from .trace import TraceBuffer, TraceEvent

__all__ = [
    "CampaignProbe",
    "ChannelProbe",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "PhaseTimer",
    "ServiceProbe",
    "TelemetrySession",
    "TraceBuffer",
    "TraceEvent",
    "chrome_trace_events",
    "load_metrics_jsonl",
    "monotonic_ts",
    "write_chrome_trace",
    "write_metrics_jsonl",
]

