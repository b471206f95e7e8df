"""The one holder of a run's observer state.

A run is observed by five components: the :class:`~repro.utils.tracing.
Tracer`, the :class:`~repro.utils.telemetry.TelemetrySink`, the
:class:`~repro.utils.profiler.DeterministicProfiler`, the
:class:`~repro.obs.ledger.PlacementLedger` and an optional
:class:`~repro.utils.metrics.MetricsRegistry`.  They travel together as
one frozen :class:`Observers` record held in a single
:mod:`contextvars` variable:

* **readers** call :func:`observers` and use a field
  (``observers().tracer.span(...)``).  The default record holds shared
  *disabled* instances, so an instrumented hot path pays one context
  variable read plus one ``enabled`` check when observation is off;
* **writers** use :func:`observing`, which pushes a copy of the current
  record with some fields replaced and resets the variable on exit,
  even when the body raises.  Resetting the token is what makes a leak
  impossible: whatever was observed before the block is observed after
  it, object for object.

:class:`repro.runtime.context.RunContext` is the usual writer (the CLI
flags build one); tests and the conformance invariants push fresh
components directly::

    with observing(tracer=Tracer()) as obs:
        solve()
        events = obs.tracer.records()

Only this module touches the context variable itself
(``tests/test_layering.py`` enforces it).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.obs.ledger import PlacementLedger
from repro.utils.metrics import MetricsRegistry
from repro.utils.profiler import DeterministicProfiler
from repro.utils.telemetry import TelemetrySink
from repro.utils.tracing import Tracer


@dataclass(frozen=True)
class Observers:
    """The observer components of the running code, as one record.

    ``metrics`` is ``None`` when no run-wide registry is collecting;
    every other field always holds an instance, disabled when off.
    """

    tracer: Tracer
    sink: TelemetrySink
    profiler: DeterministicProfiler
    ledger: PlacementLedger
    metrics: Optional[MetricsRegistry] = None


#: the record seen when nothing is observing: shared disabled instances
DISABLED = Observers(
    tracer=Tracer(capacity=1, enabled=False),
    sink=TelemetrySink(enabled=False),
    profiler=DeterministicProfiler(enabled=False),
    ledger=PlacementLedger(enabled=False),
)

_OBSERVERS: ContextVar[Observers] = ContextVar(
    "repro_observers", default=DISABLED
)


#: ``observers()`` returns the observer record of the running code
#: (:data:`DISABLED` when nothing observes).  It is the variable's bound
#: ``get``, so a hot-path read runs no Python frame.
observers = _OBSERVERS.get


@contextmanager
def observing(**fields) -> Iterator[Observers]:
    """Observe a block with ``fields`` replaced in the current record.

    Yields the pushed record; the previous record is restored on exit.
    Unknown field names raise :class:`TypeError`.
    """
    token = _OBSERVERS.set(replace(_OBSERVERS.get(), **fields))
    try:
        yield _OBSERVERS.get()
    finally:
        _OBSERVERS.reset(token)


__all__ = ["DISABLED", "Observers", "observers", "observing"]
