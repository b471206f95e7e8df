"""Outside-in instrumentation: spans recorded around calls into the program.

The benchmark never edits ``src/repro``.  :meth:`Probe.installed` swaps
a recording wrapper into a module or class attribute for the duration
of a ``with`` block and puts the original back on exit, so the program runs
its own code and the probe sees only the calls that cross a layer
boundary.

Every wrapper records a span: name, start, end, the span that was open
when it started (its parent) and the run id shared by one workload run.
Spans stay in memory until the run ends.
A layer's self time is its span durations minus the part its child
spans cover (:func:`self_times`); :func:`write_spans` saves them.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Hook:
    """One instrumented attribute: ``module:Owner.attr`` or ``module:func``.

    ``counter`` turns the call's arguments and result into counts added
    to the probe's counters (e.g. rows priced).  With ``span=False`` only
    the counter runs — used where a span per call would be one per
    simulated request.
    """

    target: str
    name: str
    counter: Optional[Counter] = None
    span: bool = True


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: str


@dataclass
class Probe:
    """Records spans and counters for the hooks it installs."""

    run_id: str
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: calls through count-only wrappers (they record no span)
    counted_calls: int = 0
    _stack: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def span(self, name: str) -> "_SpanContext":
        """A span around the benchmark's own code (set-up, solve, ...)."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: Span) -> None:
        record.end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def take(self) -> "tuple[List[Span], Dict[str, float]]":
        """Hand over the spans and counters recorded so far and start
        afresh (hooks stay installed).  Parent indices are positions in
        the returned list."""
        taken = (self.spans, self.counters)
        self.spans, self.counters = [], {}
        self.counted_calls = 0
        self._stack.clear()
        return taken

    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self, hooks: Sequence[Hook]) -> Iterator["Probe"]:
        """Wrap every hook's target for the ``with`` block, then restore it."""
        undo = []
        try:
            for hook in hooks:
                owner, attr = _resolve(hook.target)
                own = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(hook, original))
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    # an inherited attribute: drop the override
                    delattr(owner, attr)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        probe = self
        name, counter = hook.name, hook.counter

        if not hook.span:

            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                probe.counted_calls += 1
                for key, amount in counter(args, kwargs, result).items():
                    probe.count(key, amount)
                return result

            return counted

        def spanned(*args, **kwargs):
            record = probe._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                probe._close(record)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    probe.count(key, amount)
            return result

        return spanned


class _SpanContext:
    def __init__(self, probe: Probe, name: str) -> None:
        self._probe = probe
        self._name = name
        self.record: Optional[Span] = None

    def __enter__(self) -> "_SpanContext":
        self.record = self._probe._open(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._probe._close(self.record)

    @property
    def seconds(self) -> float:
        return self.record.end - self.record.start


def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` -> ``(Cls, "attr")``; ``"pkg.mod:f"`` -> ``(mod, "f")``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the time its children cover.

    Spans come from one thread and nest strictly, so children of a span
    never overlap one another and the subtraction is exact.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record.parent >= 0:
            child_time[record.parent] += record.end - record.start
    totals: Dict[str, float] = {}
    for index, record in enumerate(spans):
        own = (record.end - record.start) - child_time[index]
        totals[record.name] = totals.get(record.name, 0.0) + own
    return totals


def write_spans(path, batches: Sequence[Sequence[Span]]) -> int:
    """Save span batches as JSON lines with run-wide ``id``/``parent``.

    Returns the number of spans written.
    """
    offset = 0
    with open(path, "w", encoding="utf-8") as handle:
        for batch in batches:
            for index, record in enumerate(batch):
                row = asdict(record)
                row["id"] = offset + index
                if record.parent >= 0:
                    row["parent"] = offset + record.parent
                handle.write(json.dumps(row) + "\n")
            offset += len(batch)
    return offset


def wrapper_costs(calls: int = 20_000) -> "tuple[float, float]":
    """Seconds a span wrapper and a count-only wrapper add to one call,
    timed on a no-op: ``(per span, per counted call)``."""

    def noop(*args, **kwargs):
        return None

    def cost(hook: Hook) -> float:
        probe = Probe("wrapper-cost")
        wrapped = probe._wrap(hook, noop)
        started = time.perf_counter()
        for _ in range(calls):
            noop(1)
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped(1)
        return max(time.perf_counter() - started - bare, 0.0) / calls

    count = lambda a, k, r: {}  # noqa: E731
    return cost(Hook("", "noop", count)), cost(Hook("", "noop", count, span=False))


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """Inclusive durations of every span called ``name``, in call order."""
    return [r.end - r.start for r in spans if r.name == name]
