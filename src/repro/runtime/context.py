"""The unified run context: one owner for every cross-cutting concern.

Every entry point used to wire the tracer, telemetry sink, profiler,
metrics registry, fault plan, RNG tree and parallelism policy by hand.
:class:`RunContext` centralises all of it:

* ``install()`` builds the run's observer record
  (:class:`~repro.obs.holder.Observers`) and pushes it through
  :func:`~repro.obs.holder.observing`, then registers itself in a
  :mod:`contextvars` variable so nested code can find the active context
  with :func:`current_context`;
* a component the enclosing record already has enabled is *adopted*:
  the context uses it rather than building a second one;
* ``teardown()`` flushes the telemetry sink (final snapshot + exporter
  close) and pops the pushed record, restoring the enclosing one object
  for object; it is idempotent, so no observer can leak between runs or
  tests.  Contexts nest and are torn down innermost first;
* ``fork(worker_id)`` derives a deterministic, **picklable** child
  context for :class:`~repro.experiments.parallel.ParallelRunner`
  workers: the child's ``install()`` decides *by pid* whether it runs in
  a pool worker (fresh per-task tracer whose snapshot ships back to the
  parent) or in-process (records straight into the live tracer).

The context manager :meth:`RunContext.activate` composes ``install`` +
``teardown``; :func:`ambient_context` returns the active context or an
uninstalled stand-in reflecting the live observers, so library code
works identically inside and outside a managed run.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.obs.holder import Observers, observers, observing
from repro.obs.ledger import PlacementLedger
from repro.utils.metrics import MetricsRegistry
from repro.utils.profiler import DeterministicProfiler
from repro.utils.telemetry import TelemetrySink
from repro.utils.tracing import DEFAULT_CAPACITY, Tracer

#: the active context, scoped with :mod:`contextvars` so async/threaded
#: callers each see their own installation
_ACTIVE: ContextVar[Optional["RunContext"]] = ContextVar(
    "repro_run_context", default=None
)

#: environment variable supplying the default worker count
PARALLEL_ENV_VAR = "REPRO_PARALLEL"


def _check_workers(max_workers: int) -> int:
    if max_workers < 1:
        raise ValidationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    return max_workers


def resolve_max_workers(max_workers: Optional[int] = None) -> int:
    """Effective worker count.

    Explicit > the active context's ``max_workers`` (inherited by nested
    contexts that set none) > ``$REPRO_PARALLEL`` > 1.
    """
    if max_workers is not None:
        return _check_workers(max_workers)
    ctx = _ACTIVE.get()
    if ctx is not None and ctx._workers is not None:
        return ctx._workers
    env = os.environ.get(PARALLEL_ENV_VAR, "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"${PARALLEL_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ValidationError(
                f"${PARALLEL_ENV_VAR} must be >= 1, got {workers}"
            )
        return workers
    return 1


# --------------------------------------------------------------------- #
# the context
# --------------------------------------------------------------------- #
class RunContext:
    """Owns the cross-cutting state of one run.

    Parameters
    ----------
    seed:
        Root of the run's RNG tree (anything
        :class:`numpy.random.SeedSequence` accepts).  ``fork(i)``
        derives child ``i``'s sequence from it deterministically.
    trace / trace_capacity:
        Observe the run with a tracer (ring buffer of ``trace_capacity``
        records).
    profile / profile_every:
        Observe the run with the deterministic profiler, sampling one
        stack per ``profile_every`` progress ticks.  Profiling samples
        the tracer's open-span stack, so the context enables tracing
        alongside it.
    telemetry / exporters:
        Observe the run with a :class:`~repro.utils.telemetry.TelemetrySink`;
        ``exporters`` are attached to it on install.
    metrics / registry:
        ``registry`` supplies an explicit
        :class:`~repro.utils.metrics.MetricsRegistry` (attached to the
        sink, *not* pushed into the observer record).  ``metrics=True``
        without a registry puts a run-wide registry in the record
        instead.
    ledger:
        Observe the run with a :class:`~repro.obs.ledger.PlacementLedger`,
        so every replica add/drop/deferral records its attribution
        (``repro explain``).
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` for commands that replay
        traces; carried, not interpreted.
    max_workers:
        Default worker count for :func:`resolve_max_workers` while the
        context is active; nested contexts that set none inherit it.
    """

    def __init__(
        self,
        *,
        seed=None,
        trace: bool = False,
        trace_capacity: int = DEFAULT_CAPACITY,
        profile: bool = False,
        profile_every: int = 1,
        telemetry: bool = False,
        exporters: Sequence[object] = (),
        metrics: bool = False,
        registry: Optional[MetricsRegistry] = None,
        ledger: bool = False,
        fault_plan=None,
        max_workers: Optional[int] = None,
        _fork_parent_pid: Optional[int] = None,
        _worker_id: Optional[int] = None,
    ) -> None:
        self._seed_spec = seed
        self._seed: Optional[np.random.SeedSequence] = (
            seed if isinstance(seed, np.random.SeedSequence) else None
        )
        self.trace_requested = bool(trace)
        self.trace_capacity = trace_capacity
        self.profile_requested = bool(profile)
        self.profile_every = profile_every
        self.telemetry_requested = bool(telemetry)
        self._exporters: List[object] = list(exporters)
        self.metrics_requested = bool(metrics)
        self._registry = registry
        self._metrics: Optional[MetricsRegistry] = registry
        self.ledger_requested = bool(ledger)
        self.fault_plan = fault_plan
        if max_workers is not None:
            _check_workers(max_workers)
        self.max_workers = max_workers
        self.worker_id = _worker_id
        self._fork_parent_pid = _fork_parent_pid
        # populated by install
        self._observers: Optional[Observers] = None
        self._workers: Optional[int] = None
        self._scope: Optional[ExitStack] = None
        self._token = None

    # ------------------------------------------------------------------ #
    # deterministic RNG tree
    # ------------------------------------------------------------------ #
    @property
    def seed(self) -> np.random.SeedSequence:
        """Root seed sequence (materialised lazily from the spec)."""
        if self._seed is None:
            self._seed = np.random.SeedSequence(self._seed_spec)
        return self._seed

    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """``n`` child sequences with the root's spawn counter reset.

        Re-deriving from entropy/spawn-key state (instead of calling
        ``spawn`` on the shared object) keeps the children identical no
        matter how many times or in which process this is called — the
        property the parallel harness's bit-identity rests on.
        """
        seq = self.seed
        seq = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=seq.spawn_key,
            pool_size=seq.pool_size,
        )
        return list(seq.spawn(n))

    def fork(self, worker_id: int) -> "RunContext":
        """A deterministic, picklable child context for worker ``id``.

        The child's seed extends this context's spawn key with
        ``worker_id``, so any two forks with the same id are identical
        and forks with different ids are statistically independent.  The
        child carries the parent pid: its ``install()`` performs the
        per-task tracer setup only when it actually runs in another
        process (see :meth:`_install_forked`).
        """
        if worker_id < 0:
            raise ValidationError(
                f"worker_id must be >= 0, got {worker_id}"
            )
        seq = self.seed
        child_seed = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=(*seq.spawn_key, worker_id),
            pool_size=seq.pool_size,
        )
        return RunContext(
            seed=child_seed,
            trace=self.trace_requested or self.tracer.enabled,
            trace_capacity=self.trace_capacity,
            fault_plan=self.fault_plan,
            _fork_parent_pid=os.getpid(),
            _worker_id=worker_id,
        )

    # ------------------------------------------------------------------ #
    # component access: the pushed record, else the live one
    # ------------------------------------------------------------------ #
    @property
    def tracer(self) -> Tracer:
        return (self._observers or observers()).tracer

    @property
    def profiler(self) -> DeterministicProfiler:
        return (self._observers or observers()).profiler

    @property
    def sink(self) -> TelemetrySink:
        return (self._observers or observers()).sink

    @property
    def ledger(self) -> PlacementLedger:
        return (self._observers or observers()).ledger

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The run's metrics registry, or ``None`` when none was asked."""
        return self._metrics

    @property
    def installed(self) -> bool:
        return self._token is not None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def install(self) -> "RunContext":
        """Push this run's observer record and become the active context.

        Components the enclosing record already has enabled are adopted;
        everything else requested is built fresh.
        """
        if self.installed:
            raise ValidationError("RunContext is already installed")
        parent = _ACTIVE.get()
        self._workers = self.max_workers
        if self._workers is None and parent is not None:
            self._workers = parent._workers
        self._scope = ExitStack()
        self._observers = self._scope.enter_context(
            observing(**self._components(observers()))
        )
        self._token = _ACTIVE.set(self)
        return self

    def _components(self, outer: Observers) -> dict:
        """The fields this context replaces in the enclosing record."""
        fields = {}
        if self._fork_parent_pid is not None:
            # A pool worker inherits the parent's tracer through fork(),
            # but records written to that copy would be lost: it gets a
            # fresh tracer whose snapshot ships back.  In the parent
            # (serial path, in-process retry) the fork records straight
            # into the live tracer.
            if self._in_worker():
                fields["tracer"] = Tracer(capacity=self.trace_capacity)
            return fields
        if self.metrics_requested and self._registry is None:
            self._metrics = (
                outer.metrics if outer.metrics is not None
                else MetricsRegistry()
            )
            fields["metrics"] = self._metrics
        if self.telemetry_requested:
            sink = outer.sink if outer.sink.enabled else TelemetrySink()
            if sink.registry is None:
                sink.registry = self._metrics
            for exporter in self._exporters:
                sink.attach_exporter(exporter)
            fields["sink"] = sink
        if self.ledger_requested:
            fields["ledger"] = (
                outer.ledger if outer.ledger.enabled else PlacementLedger()
            )
        if self.trace_requested or self.profile_requested:
            fields["tracer"] = (
                outer.tracer
                if outer.tracer.enabled
                else Tracer(capacity=self.trace_capacity)
            )
        if self.profile_requested:
            fields["profiler"] = (
                outer.profiler
                if outer.profiler.enabled
                else DeterministicProfiler(
                    sample_every=self.profile_every, tracer=fields["tracer"]
                )
            )
        return fields

    def _in_worker(self) -> bool:
        """True for a traced fork child running in a pool worker process."""
        return (
            self.trace_requested
            and self._fork_parent_pid is not None
            and os.getpid() != self._fork_parent_pid
        )

    def teardown(self) -> None:
        """Flush the sink and restore the enclosing record; idempotent."""
        if not self.installed:
            return
        _ACTIVE.reset(self._token)
        self._token = None
        try:
            if self.telemetry_requested:
                self.sink.snapshot()  # final state, even if the body raised
                self.sink.close()
        finally:
            self._scope.close()
            self._scope = None

    @contextmanager
    def activate(self) -> Iterator["RunContext"]:
        """``install()`` on entry, ``teardown()`` on exit."""
        self.install()
        try:
            yield self
        finally:
            self.teardown()

    # a forked, uninstalled context must be shippable to pool workers
    def __getstate__(self):
        if self.installed:
            raise ValidationError(
                "an installed RunContext cannot be pickled; "
                "ship fork() children instead"
            )
        return self.__dict__

    def trace_snapshot(self):
        """The fork's own trace, for re-parenting — ``None`` in-process.

        Only meaningful on fork children: pool workers return their
        private tracer's snapshot; in-process forks recorded straight
        into the live tracer and return ``None``.
        """
        if self._in_worker():
            return self.tracer.snapshot()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [
            name
            for name, on in (
                ("trace", self.trace_requested),
                ("profile", self.profile_requested),
                ("telemetry", self.telemetry_requested),
                ("metrics", self._metrics is not None),
                ("ledger", self.ledger_requested),
                ("faults", self.fault_plan is not None),
            )
            if on
        ]
        state = "installed" if self.installed else "idle"
        return f"RunContext({state}, {'+'.join(flags) or 'bare'})"


# --------------------------------------------------------------------- #
# module-level access
# --------------------------------------------------------------------- #
def current_context() -> Optional[RunContext]:
    """The active (installed) context, or ``None``."""
    return _ACTIVE.get()


def ambient_context() -> RunContext:
    """The active context, else an uninstalled stand-in.

    The stand-in reflects the live observers (its ``tracer``/``sink``
    properties read :func:`~repro.obs.holder.observers`, and its trace
    flag mirrors whether the live tracer is enabled), so harness code
    can fork workers identically whether or not a managed run is active.
    """
    ctx = _ACTIVE.get()
    if ctx is not None:
        return ctx
    return RunContext(trace=observers().tracer.enabled)


__all__ = [
    "PARALLEL_ENV_VAR",
    "RunContext",
    "ambient_context",
    "current_context",
    "resolve_max_workers",
]
