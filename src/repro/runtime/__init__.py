"""Runtime layer: run contexts, the solver registry, shared CLI flags.

Three pieces, layered between ``utils`` and every consumer:

* :mod:`repro.runtime.context` — :class:`RunContext`, the single owner
  of cross-cutting state (tracer, telemetry sink, profiler, metrics
  registry, fault plan, RNG tree, parallelism policy), with contextvar
  scoping, deterministic ``fork(worker_id)`` children for process-pool
  workers, and explicit leak-free teardown;
* :mod:`repro.runtime.registry` — :class:`SolverRegistry`, where every
  algorithm registers once with declared capabilities;
* :mod:`repro.runtime.cli_options` — the one definition site of the
  ``--trace/--profile/--openmetrics/--telemetry/--metrics/--ledger/
  --faults/--parallel`` flag groups and the :func:`runtime_session`
  wrapper.

:class:`RunContext` pushes the run's observer record through
:func:`repro.obs.holder.observing`; only :mod:`repro.obs.holder` itself
touches the context variable behind it (``tests/test_layering.py``
enforces it).  See ``docs/architecture.md``.
"""

from repro.runtime.cli_options import (
    ALL_GROUPS,
    GROUP_FAULTS,
    GROUP_LEDGER,
    GROUP_METRICS,
    GROUP_PARALLEL,
    GROUP_PROFILE,
    GROUP_TELEMETRY,
    GROUP_TRACE,
    add_runtime_options,
    context_from_args,
    runtime_session,
)
from repro.runtime.context import (
    PARALLEL_ENV_VAR,
    RunContext,
    ambient_context,
    current_context,
    resolve_max_workers,
)
from repro.runtime.registry import (
    OptimalSolver,
    SolverRegistry,
    SolverSpec,
    default_registry,
)

__all__ = [
    "ALL_GROUPS",
    "GROUP_FAULTS",
    "GROUP_LEDGER",
    "GROUP_METRICS",
    "GROUP_PARALLEL",
    "GROUP_PROFILE",
    "GROUP_TELEMETRY",
    "GROUP_TRACE",
    "OptimalSolver",
    "PARALLEL_ENV_VAR",
    "RunContext",
    "SolverRegistry",
    "SolverSpec",
    "add_runtime_options",
    "ambient_context",
    "context_from_args",
    "current_context",
    "default_registry",
    "resolve_max_workers",
    "runtime_session",
]
