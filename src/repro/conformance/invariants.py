"""Machine-checkable invariant registry for the conformance harness.

Every invariant is a named property of a solved scenario that must hold
on *any* conforming build of this repo.  The registry turns the paper's
scattered identities (Eq. 5 is one arithmetic everywhere, SRA only takes
positive-benefit steps, the distributed protocol computes the
centralised scheme, the adaptive loop never worsens a static workload)
into one enforced catalogue the oracle runs over every corpus scenario.

Adding an invariant::

    @invariant(
        "my-property",
        "one-line description shown by `repro conform corpus`",
        applies=lambda ctx: ctx.instance.num_sites <= 32,
    )
    def _check_my_property(ctx: ConformanceContext) -> List[str]:
        return []  # list of violation messages; empty == pass

Checks may also raise — :func:`run_invariants` converts an exception
into a violation rather than aborting the scenario, so one broken
invariant cannot mask the others.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.benefit import (
    benefit_matrix,
    deallocation_estimate,
    deallocation_estimates_for_site,
    replication_benefit,
)
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.holder import observing
from repro.obs.ledger import PlacementLedger
from repro.runtime.registry import default_registry
from repro.utils.tracing import Tracer

#: relative tolerance for cross-algorithm cost comparisons (heuristic vs
#: exact solver): the two sides sum the same per-object terms in
#: different orders, so only accumulation error — not bit-identity — is
#: guaranteed between them
OPTIMALITY_RTOL = 1e-9

#: instance-size ceiling for the exact branch-and-bound oracle
OPTIMAL_MAX_SITES = 6
OPTIMAL_MAX_OBJECTS = 7

#: instance-size ceiling for the heavier protocol-level invariants
PROTOCOL_MAX_SITES = 16
PROTOCOL_MAX_OBJECTS = 40


class ConformanceContext:
    """Everything the invariant checks need about one solved scenario.

    The expensive artifacts (cost model, SRA solve with its traced
    placement events, ``D'``) are computed once, lazily, and shared by
    every invariant and by the differential oracle.
    """

    def __init__(
        self,
        instance: DRPInstance,
        fault_plan=None,
        seed: int = 0,
        update_fraction: float = 1.0,
    ) -> None:
        if not isinstance(instance, DRPInstance):
            raise ValidationError(
                "ConformanceContext needs a dense DRPInstance; sparse "
                "problems are exercised inside the oracle's paths"
            )
        self.instance = instance
        self.fault_plan = fault_plan
        self.seed = int(seed)
        self.update_fraction = update_fraction
        self._model: Optional[CostModel] = None
        self._sra_result = None
        self._place_events: Optional[List[Dict[str, object]]] = None

    @property
    def model(self) -> CostModel:
        if self._model is None:
            self._model = CostModel(
                self.instance, update_fraction=self.update_fraction
            )
        return self._model

    def _solve_sra(self) -> None:
        # One traced solve serves both the scheme consumers and the
        # benefit-ordering invariant (sra.place events carry the Eq. 5
        # benefit of every placement actually taken).
        with observing(tracer=Tracer()) as obs:
            self._sra_result = default_registry().create(
                "sra", update_fraction=self.update_fraction
            ).run(self.instance, self.model)
            self._place_events = [
                dict(r["attrs"])
                for r in obs.tracer.records()
                if r.get("type") == "event" and r.get("name") == "sra.place"
            ]

    @property
    def sra_result(self):
        if self._sra_result is None:
            self._solve_sra()
        return self._sra_result

    @property
    def scheme(self) -> ReplicationScheme:
        return self.sra_result.scheme

    @property
    def place_events(self) -> List[Dict[str, object]]:
        """``sra.place`` event attrs (site, obj, benefit, step) in order."""
        if self._place_events is None:
            self._solve_sra()
        return list(self._place_events)

    def d_prime(self) -> float:
        return self.model.d_prime()


@dataclass(frozen=True)
class Violation:
    """One invariant failure on one scenario."""

    invariant: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "message": self.message}


@dataclass(frozen=True)
class Invariant:
    """A registered, named conformance property."""

    name: str
    description: str
    check: Callable[[ConformanceContext], List[str]]
    applies: Callable[[ConformanceContext], bool]


_REGISTRY: "OrderedDict[str, Invariant]" = OrderedDict()


def invariant(
    name: str,
    description: str,
    applies: Optional[Callable[[ConformanceContext], bool]] = None,
) -> Callable:
    """Register a check function under ``name`` (decorator)."""

    def decorate(fn: Callable[[ConformanceContext], List[str]]):
        if name in _REGISTRY:
            raise ValidationError(f"invariant {name!r} already registered")
        _REGISTRY[name] = Invariant(
            name=name,
            description=description,
            check=fn,
            applies=applies if applies is not None else (lambda ctx: True),
        )
        return fn

    return decorate


def all_invariants() -> List[Invariant]:
    """Every registered invariant, in registration order."""
    return list(_REGISTRY.values())


def get_invariant(name: str) -> Invariant:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValidationError(
            f"unknown invariant {name!r}; known: {known}"
        ) from None


def run_invariants(
    ctx: ConformanceContext,
    names: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Run (a subset of) the registry over one scenario context.

    A check that raises contributes a violation naming the exception —
    one broken invariant never hides the rest.
    """
    selected = (
        [get_invariant(n) for n in names]
        if names is not None
        else all_invariants()
    )
    violations: List[Violation] = []
    for inv in selected:
        if not inv.applies(ctx):
            continue
        try:
            messages = inv.check(ctx) or []
        except Exception as exc:  # noqa: BLE001 — reported, not masked
            messages = [f"check raised {type(exc).__name__}: {exc}"]
        violations.extend(Violation(inv.name, msg) for msg in messages)
    return violations


# --------------------------------------------------------------------- #
# the catalogue
# --------------------------------------------------------------------- #
@invariant(
    "scheme-feasibility",
    "solved schemes fit every capacity and keep a primary copy per object",
)
def _check_feasibility(ctx: ConformanceContext) -> List[str]:
    out: List[str] = []
    scheme = ctx.scheme
    instance = ctx.instance
    for site, used, cap in scheme.capacity_violations():
        out.append(
            f"site {site} stores {used:g} units over capacity {cap:g}"
        )
    mat = scheme.matrix
    for k in range(instance.num_objects):
        primary = int(instance.primaries[k])
        if not mat[primary, k]:
            out.append(f"object {k} lost its primary copy at {primary}")
        if not mat[:, k].any():
            out.append(f"object {k} has no replica at all")
    return out


@invariant(
    "optimal-lower-bound",
    "no algorithm beats the exact branch-and-bound cost on tiny instances",
    applies=lambda ctx: (
        ctx.instance.num_sites <= OPTIMAL_MAX_SITES
        and ctx.instance.num_objects <= OPTIMAL_MAX_OBJECTS
    ),
)
def _check_optimal_lower_bound(ctx: ConformanceContext) -> List[str]:
    out: List[str] = []
    optimal = default_registry().create("optimal").run(ctx.instance, ctx.model)
    scale = max(1.0, abs(optimal.total_cost))
    slack = OPTIMALITY_RTOL * scale
    heuristic = ctx.sra_result.total_cost
    if heuristic < optimal.total_cost - slack:
        out.append(
            f"SRA cost {heuristic!r} beats the exact optimum "
            f"{optimal.total_cost!r} — one of the two is mispriced"
        )
    d_prime = ctx.d_prime()
    if d_prime < optimal.total_cost - slack:
        out.append(
            f"primary-only cost {d_prime!r} beats the exact optimum "
            f"{optimal.total_cost!r}"
        )
    return out


@invariant(
    "sra-benefit-ordering",
    "every SRA placement had strictly positive Eq. 5 benefit and the "
    "greedy result dominates the primary-only allocation",
)
def _check_sra_benefit_ordering(ctx: ConformanceContext) -> List[str]:
    out: List[str] = []
    events = ctx.place_events
    stats = ctx.sra_result.stats
    created = int(stats["replicas_created"])
    if len(events) != created:
        out.append(
            f"traced {len(events)} sra.place events but stats report "
            f"{created} replicas created"
        )
    for event in events:
        benefit = float(event["benefit"])
        if not benefit > 0.0:
            out.append(
                f"placement of object {event['obj']} at site "
                f"{event['site']} had non-positive benefit {benefit!r}"
            )
    d_prime = ctx.d_prime()
    cost = ctx.sra_result.total_cost
    slack = OPTIMALITY_RTOL * max(1.0, abs(d_prime))
    if cost > d_prime + slack:
        out.append(
            f"SRA cost {cost!r} exceeds the primary-only cost "
            f"{d_prime!r} despite only positive-benefit steps"
        )
    return out


@invariant(
    "eq5-eq6-consistency",
    "the vectorised Eq. 5 benefit matrix and Eq. 6 estimates equal the "
    "scalar formulas cell by cell",
)
def _check_eq5_eq6_consistency(ctx: ConformanceContext) -> List[str]:
    out: List[str] = []
    instance = ctx.instance
    uf = ctx.update_fraction
    p0 = ReplicationScheme.primary_only(instance)
    full = benefit_matrix(instance, p0, update_fraction=uf)
    if not np.array_equal(np.isnan(full), p0.matrix):
        out.append("benefit_matrix is not NaN exactly at the held cells")
    for obj in range(instance.num_objects):
        nearest = p0.nearest_sites(obj)
        for site in np.nonzero(~p0.matrix[:, obj])[0]:
            scalar = replication_benefit(
                instance, p0, int(site), obj,
                nearest=int(nearest[site]), update_fraction=uf,
            )
            if scalar != full[site, obj]:
                out.append(
                    f"Eq. 5 matrix/scalar mismatch at (site {site}, "
                    f"object {obj}): {full[site, obj]!r} vs {scalar!r}"
                )
                return out
    scheme = ctx.scheme
    for site in range(instance.num_sites):
        vec = deallocation_estimates_for_site(
            instance, scheme, site, droppable_only=False
        )
        for obj in scheme.objects_at(site):
            scalar = deallocation_estimate(
                instance, scheme, site, int(obj)
            )
            vectored = float(vec[obj])
            same = (
                scalar == vectored
                or (np.isnan(scalar) and np.isnan(vectored))
            )
            if not same:
                out.append(
                    f"Eq. 6 scalar/vector mismatch at (site {site}, "
                    f"object {int(obj)}): {scalar!r} vs {vectored!r}"
                )
                return out
    return out


@invariant(
    "adaptive-static-no-worsening",
    "the adaptive loop neither adapts nor worsens cost on a static "
    "workload",
    applies=lambda ctx: (
        ctx.instance.num_sites <= PROTOCOL_MAX_SITES
        and ctx.instance.num_objects <= PROTOCOL_MAX_OBJECTS
    ),
)
def _check_adaptive_static(ctx: ConformanceContext) -> List[str]:
    from repro.sim.adaptive import AdaptiveReplicationLoop

    out: List[str] = []
    instance = ctx.instance
    loop = AdaptiveReplicationLoop(
        instance,
        ctx.scheme.copy(),
        threshold=0.5,
        rng=ctx.seed,
    )
    report = loop.run([instance, instance])
    if report.adaptations != 0:
        out.append(
            f"static workload triggered {report.adaptations} adaptations"
        )
    if report.total_migrations != 0:
        out.append(
            f"static workload migrated {report.total_migrations} replicas"
        )
    series = report.savings_series()
    slack = OPTIMALITY_RTOL * max(1.0, abs(series[0]) if series else 1.0)
    for epoch, savings in enumerate(series[1:], start=1):
        if savings < series[0] - slack:
            out.append(
                f"epoch {epoch} savings {savings!r}% fell below epoch 0 "
                f"savings {series[0]!r}% on a static workload"
            )
    return out


@invariant(
    "distributed-sra-equivalence",
    "the fault-free distributed SRA protocol reproduces the centralised "
    "scheme bit for bit",
    applies=lambda ctx: (
        ctx.instance.num_sites <= PROTOCOL_MAX_SITES
        and ctx.instance.num_objects <= PROTOCOL_MAX_OBJECTS
    ),
)
def _check_distributed_equivalence(ctx: ConformanceContext) -> List[str]:
    # The protocol is message-instrumented; run it under a scratch
    # tracer so a caller's ``--trace`` session records the *scenario*,
    # not the oracle's internal replays.
    with observing(tracer=Tracer()):
        report = default_registry().create(
            "distributed-sra", leader_site=0
        ).run(ctx.instance)
    central = ctx.scheme.matrix
    distributed = report.scheme.matrix
    if not np.array_equal(central, distributed):
        diff = np.nonzero(central != distributed)
        return [
            f"distributed scheme differs from centralised SRA at "
            f"{len(diff[0])} cells (first: site {diff[0][0]}, "
            f"object {diff[1][0]})"
        ]
    return []


@invariant(
    "ledger-scheme-consistency",
    "replaying the placement ledger's add/drop stream reproduces the "
    "solved scheme bit for bit",
)
def _check_ledger_scheme_consistency(ctx: ConformanceContext) -> List[str]:
    # A fresh solve under a scratch ledger (and scratch tracer, so a
    # --trace session is untouched) captures the placement stream; SRA
    # is deterministic, so the replayed scheme must equal ctx.scheme.
    with observing(tracer=Tracer(), ledger=PlacementLedger()) as obs:
        result = default_registry().create(
            "sra", update_fraction=ctx.update_fraction
        ).run(ctx.instance, ctx.model)
    replayed = ReplicationScheme.primary_only(ctx.instance)
    for action, site, obj in obs.ledger.replay_ops():
        if action == "add":
            replayed.add_replica(site, obj)
        else:
            replayed.drop_replica(site, obj)
    out: List[str] = []
    if not np.array_equal(replayed.matrix, result.scheme.matrix):
        diff = np.nonzero(replayed.matrix != result.scheme.matrix)
        out.append(
            f"ledger replay differs from the solved scheme at "
            f"{len(diff[0])} cells (first: site {diff[0][0]}, "
            f"object {diff[1][0]})"
        )
    if not np.array_equal(result.scheme.matrix, ctx.scheme.matrix):
        out.append(
            "re-solving under the scratch ledger changed the scheme — "
            "ledger recording is not behaviour-neutral"
        )
    return out


@invariant(
    "fault-replay-determinism",
    "replaying one trace under one fault plan twice yields identical "
    "metrics",
    applies=lambda ctx: ctx.fault_plan is not None,
)
def _check_fault_replay_determinism(ctx: ConformanceContext) -> List[str]:
    from repro.sim.faults import FaultInjector
    from repro.sim.protocol import ReplicaSystem
    from repro.workload.trace import generate_trace

    instance = ctx.instance
    trace = generate_trace(instance, rng=ctx.seed)

    def one_replay() -> Dict[str, float]:
        system = ReplicaSystem(instance, ctx.scheme.copy())
        injector = FaultInjector(ctx.fault_plan)
        metrics = system.replay(trace, injector=injector)
        summary = dict(metrics.summary())
        summary.update(metrics.fault_events)
        return summary

    first, second = one_replay(), one_replay()
    if first != second:
        diff_keys = sorted(
            k
            for k in set(first) | set(second)
            if first.get(k) != second.get(k)
        )
        return [
            f"two replays under the same fault plan disagree on "
            f"{', '.join(diff_keys)}"
        ]
    return []


__all__ = [
    "OPTIMALITY_RTOL",
    "OPTIMAL_MAX_SITES",
    "OPTIMAL_MAX_OBJECTS",
    "PROTOCOL_MAX_SITES",
    "PROTOCOL_MAX_OBJECTS",
    "ConformanceContext",
    "Invariant",
    "Violation",
    "all_invariants",
    "get_invariant",
    "invariant",
    "run_invariants",
]
