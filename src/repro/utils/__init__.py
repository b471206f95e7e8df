"""Shared utilities: RNG fan-out, metrics, tracing, telemetry, profiling,
tables, timers."""

from repro.utils.metrics import (
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.utils.profiler import (
    DeterministicProfiler,
)
from repro.utils.telemetry import (
    InMemoryExporter,
    JsonlExporter,
    OpenMetricsExporter,
    TelemetrySink,
    parse_openmetrics,
    render_openmetrics_snapshot,
    validate_openmetrics,
)
from repro.utils.tracing import (
    Tracer,
    read_trace,
)
from repro.utils.rng import as_generator, spawn_generators, spawn_seeds
from repro.utils.tables import format_series, format_table
from repro.utils.timers import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_index,
    check_matrix,
    check_positive,
    check_vector,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "Tracer",
    "read_trace",
    "DeterministicProfiler",
    "TelemetrySink",
    "InMemoryExporter",
    "JsonlExporter",
    "OpenMetricsExporter",
    "parse_openmetrics",
    "render_openmetrics_snapshot",
    "validate_openmetrics",
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "format_series",
    "format_table",
    "Stopwatch",
    "check_fraction",
    "check_index",
    "check_matrix",
    "check_positive",
    "check_vector",
]
