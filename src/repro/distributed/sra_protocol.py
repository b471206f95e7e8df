"""Token-passing distributed SRA (Section 3, "distributed version").

Protocol flow:

1. the leader distributes the nightly statistics (global per-object write
   totals) to every site — one ``STATS`` message each;
2. while ``LS`` is non-empty, the leader sends the ``TOKEN`` to the next
   site in round-robin order;
3. the token holder runs one local greedy step; if it replicates object
   ``k`` it broadcasts ``REPLICATE(k)`` to every other site (so they can
   update their ``SN_ik`` field) and fetches the object payload from its
   current nearest replicator (an ``OBJECT_TRANSFER`` data message);
4. the token returns to the leader (``TOKEN_RETURN``) carrying whether
   the site's candidate list is now empty, in which case the leader
   retires it from ``LS``.

The emulation produces bit-identical schemes to the centralised
:class:`repro.algorithms.SRA` (tests assert this) while exposing the
message complexity the paper glosses over.

Degraded operation
------------------
With a :class:`~repro.sim.faults.FaultPlan` (transition times read as
**round numbers**; round 0 is the STATS phase) the protocol hardens:

* unreliable control sends (``STATS``, ``TOKEN``/``TOKEN_RETURN``) are
  retried under a :class:`~repro.distributed.retry.RetryPolicy` with
  exponential backoff; an unresponsive peer is either *suspected*
  (retired from ``LS``) or the run aborts with
  :class:`~repro.errors.RetryExhaustedError`, per the policy;
* token handling is idempotent — a duplicated ``TOKEN`` re-sends the
  cached ``TOKEN_RETURN`` without re-running the greedy step;
* a crashed leader triggers exactly one deterministic re-election per
  crash: the lowest-numbered alive site takes over, announces itself
  with ``ELECTION`` messages and rebuilds ``LS`` from the alive sites
  (election and recovery-resync messages model an atomic procedure and
  are not themselves subject to message faults);
* a recovering site is resynchronised (fresh ``STATS``; missed
  ``REPLICATE`` announcements are replayed into its ``SN`` fields, which
  are idempotent minima) and rejoins ``LS`` if its candidate list is
  non-empty;
* ``REPLICATE`` broadcasts are best-effort gossip (lossy, no retry) and
  ``OBJECT_TRANSFER`` payloads ride a reliable data-plane transport and
  are exempt from message faults.

With ``fault_plan=None`` the original code path runs untouched and the
message log is byte-identical to the pre-hardening protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.distributed.messages import Message, MessageKind, MessageLog
from repro.distributed.node import LeaderNode, SiteNode
from repro.distributed.retry import DEFAULT_RETRY_POLICY, RAISE, RetryPolicy
from repro.errors import ProtocolError, RetryExhaustedError, ValidationError
from repro.obs.holder import observers
from repro.sim.faults import FaultPlan, ProtocolFaults


@dataclass
class DistributedSRAReport:
    """Outcome of one distributed SRA execution."""

    scheme: ReplicationScheme
    log: MessageLog
    token_rounds: int
    replications: int
    # Degraded-mode bookkeeping; all zero/empty on a fault-free run.
    elections: int = 0
    retries: int = 0
    duplicates: int = 0
    total_backoff: float = 0.0
    suspected_sites: List[int] = field(default_factory=list)
    leader_history: List[int] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        return {
            "token_rounds": float(self.token_rounds),
            "replications": float(self.replications),
            "elections": float(self.elections),
            "retries": float(self.retries),
            "duplicates": float(self.duplicates),
            "total_backoff": float(self.total_backoff),
            "suspected_sites": float(len(self.suspected_sites)),
            **self.log.summary(),
        }


class DistributedSRA:
    """Emulated distributed execution of the greedy algorithm.

    Parameters
    ----------
    leader_site:
        Site hosting the leader role (owns ``LS`` and the token).
    max_rounds:
        Safety valve against protocol bugs; the greedy terminates after
        at most ``M * N`` replications plus ``M * (N + 1)`` empty visits
        (crash/recovery cycles extend the bound accordingly).
    fault_plan:
        Optional fault schedule; transition times are round numbers.
        ``None`` (the default) runs the original, unhardened protocol.
    retry:
        Send-retry policy used only when a fault plan is active.
    """

    def __init__(
        self,
        leader_site: int = 0,
        max_rounds: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ):
        self.leader_site = leader_site
        self.max_rounds = max_rounds
        self.fault_plan = fault_plan
        self.retry = retry

    def run(self, instance: DRPInstance) -> DistributedSRAReport:
        if not 0 <= self.leader_site < instance.num_sites:
            raise ValidationError(
                f"leader_site {self.leader_site} out of range "
                f"[0, {instance.num_sites})"
            )
        log = MessageLog(instance.cost)
        nodes = [
            SiteNode(site, instance) for site in range(instance.num_sites)
        ]
        leader = LeaderNode(self.leader_site, instance.num_sites)

        # Install primary copies (already in place before the algorithm).
        for obj in range(instance.num_objects):
            nodes[int(instance.primaries[obj])].host_primary(obj)

        write_totals = instance.writes.sum(axis=0).astype(float)

        if self.fault_plan is not None:
            with observers().ledger.scope(
                algorithm="dsra", leader=self.leader_site
            ):
                return self._run_hardened(
                    instance, log, nodes, leader, write_totals
                )

        # ------------------------------------------------------------- #
        # Fault-free path: the original protocol, byte for byte.
        # ------------------------------------------------------------- #
        tracer = observers().tracer
        ledger = observers().ledger
        # Phase 1: statistics distribution.
        with ledger.scope(algorithm="dsra", leader=self.leader_site), \
                tracer.span("dsra.stats", sites=instance.num_sites):
            for node in nodes:
                log.record(
                    Message(
                        sender=self.leader_site,
                        receiver=node.site,
                        kind=MessageKind.STATS,
                        size_units=0.0,  # control traffic: cost ignored by D
                        payload=None,
                    )
                )
                node.receive_stats(write_totals)

        # Phase 2: token rounds.
        limit = self.max_rounds or (
            instance.num_sites * (2 * instance.num_objects + 2)
        )
        rounds = 0
        replications = 0
        profiler = observers().profiler
        while not leader.done:
            rounds += 1
            profiler.tick()
            if rounds > limit:
                raise ProtocolError(
                    f"distributed SRA exceeded {limit} token rounds; "
                    "protocol is not terminating"
                )
            site = leader.next_site()
            assert site is not None
            with ledger.scope(
                algorithm="dsra", leader=self.leader_site, round=rounds
            ), tracer.span("dsra.round", round=rounds, site=site):
                log.record(
                    Message(self.leader_site, site, MessageKind.TOKEN, 0.0)
                )
                node = nodes[site]
                replicated = self._greedy_visit(
                    instance, log, nodes, node, site
                )
                if replicated is not None:
                    replications += 1
                exhausted = node.exhausted
                log.record(
                    Message(
                        site,
                        self.leader_site,
                        MessageKind.TOKEN_RETURN,
                        0.0,
                        payload=exhausted,
                    )
                )
                if exhausted:
                    leader.retire(site)
                else:
                    leader.advance()

        return self._publish_report(
            DistributedSRAReport(
                scheme=self._collect_scheme(instance, nodes),
                log=log,
                token_rounds=rounds,
                replications=replications,
                leader_history=[self.leader_site],
            )
        )

    # ------------------------------------------------------------------ #
    # shared pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def _publish_report(
        report: DistributedSRAReport,
    ) -> DistributedSRAReport:
        """Export the run's protocol counters to the telemetry sink.

        A no-op (one enabled check) when no sink is installed, so the
        protocol emulation itself stays cost-free to instrumentation.
        """
        sink = observers().sink
        if sink.enabled:
            sink.set_gauge("repro_dsra_token_rounds", report.token_rounds)
            sink.set_gauge("repro_dsra_replications", report.replications)
            sink.set_gauge("repro_dsra_elections", report.elections)
            sink.set_gauge("repro_dsra_retries", report.retries)
            sink.set_gauge("repro_dsra_duplicates", report.duplicates)
            sink.set_gauge(
                "repro_dsra_suspected_sites", len(report.suspected_sites)
            )
            sink.set_gauge(
                "repro_dsra_control_cost", report.log.control_cost
            )
            sink.set_gauge("repro_dsra_data_cost", report.log.data_cost)
            for kind, count in report.log.count_by_kind.items():
                sink.set_gauge(
                    "repro_dsra_messages", count, kind=kind.value
                )
        return report

    def _greedy_visit(
        self,
        instance: DRPInstance,
        log: MessageLog,
        nodes: List[SiteNode],
        node: SiteNode,
        site: int,
        crashed: Optional[Set[int]] = None,
        faults: Optional[ProtocolFaults] = None,
        history: Optional[List[Tuple[int, int]]] = None,
    ) -> Optional[int]:
        """One token visit: greedy step plus its data/announce traffic.

        Returns the replicated object (or ``None``).  With ``crashed`` /
        ``faults`` given, crashed peers are skipped and ``REPLICATE``
        legs are best-effort (lossy, idempotent).
        """
        source = None
        replicated = None
        if not node.exhausted:
            # Fetch source must be captured before the step updates SN.
            snapshot_nearest = node.nearest.copy()
            with observers().tracer.span("dsra.greedy", site=site):
                replicated = node.greedy_step()
            if replicated is not None:
                source = int(snapshot_nearest[replicated])
        if replicated is None:
            return None
        if crashed is not None and source in crashed:
            # The nearest known replica is down; pull from the object's
            # primary instead (always a valid holder).
            fallback = int(instance.primaries[replicated])
            if fallback not in crashed:
                source = fallback
        # Data: pull the object payload from the chosen replica.  The
        # data-plane transport is reliable; message faults do not apply.
        log.record(
            Message(
                sender=source if source is not None else site,
                receiver=site,
                kind=MessageKind.OBJECT_TRANSFER,
                size_units=float(instance.sizes[replicated]),
                payload=replicated,
            )
        )
        ledger = observers().ledger
        if ledger.enabled:
            ledger.record(
                "add",
                obj=replicated,
                site=site,
                source=source if source is not None else site,
            )
        if history is not None:
            history.append((replicated, site))
        # Control: announce the new replica to every other site.
        for other in nodes:
            if other.site == site:
                continue
            if crashed is not None and other.site in crashed:
                continue  # resynchronised from history on recovery
            lost = False
            if faults is not None and other.site != site:
                lost, dup, _ = faults.messages.judge()
                if dup:
                    self._duplicates += 1  # observe_replication is a min
            log.record(
                Message(
                    site, other.site, MessageKind.REPLICATE, 0.0,
                    payload=(replicated, site),
                ),
                lost=lost,
            )
            if lost:
                continue  # best-effort gossip: peer's SN goes stale
            other.observe_replication(replicated, site)
        return replicated

    @staticmethod
    def _collect_scheme(
        instance: DRPInstance, nodes: List[SiteNode]
    ) -> ReplicationScheme:
        matrix = np.zeros(
            (instance.num_sites, instance.num_objects), dtype=bool
        )
        for node in nodes:
            for obj in node.replicas:
                matrix[node.site, obj] = True
        return ReplicationScheme.from_matrix(instance, matrix)

    # ------------------------------------------------------------------ #
    # hardened path (fault plan active)
    # ------------------------------------------------------------------ #
    def _run_hardened(
        self,
        instance: DRPInstance,
        log: MessageLog,
        nodes: List[SiteNode],
        leader: LeaderNode,
        write_totals: np.ndarray,
    ) -> DistributedSRAReport:
        tracer = observers().tracer
        faults = ProtocolFaults(self.fault_plan, instance.num_sites)
        policy = self.retry
        self._duplicates = 0
        self._retries = 0
        self._backoff = 0.0
        elections = 0
        suspected: Set[int] = set()
        leader_history = [leader.site]
        history: List[Tuple[int, int]] = []  # (obj, site) replications

        def apply_transitions(time: float) -> None:
            nonlocal elections
            ledger = observers().ledger
            for kind, site in faults.advance_to(time):
                if ledger.enabled:
                    ledger.record("fault", site=site, fault=kind, round=time)
                if kind == "crash":
                    tracer.event(
                        "protocol.site_crash", site=site, round=time
                    )
                    continue
                # recovery: resync (atomic procedure) and rejoin LS
                tracer.event(
                    "protocol.site_recovery", site=site, round=time
                )
                suspected.discard(site)
                node = nodes[site]
                log.record(
                    Message(
                        leader.site, site, MessageKind.STATS, 0.0
                    )
                )
                node.receive_stats(write_totals)
                for obj, replicator in history:
                    node.observe_replication(obj, replicator)
                if not node.exhausted and site not in leader.active:
                    leader.active.append(site)
            if leader.site in faults.crashed:
                alive = [
                    s
                    for s in range(instance.num_sites)
                    if s not in faults.crashed
                ]
                if not alive:
                    raise ProtocolError(
                        "every site is down; cannot elect a leader"
                    )
                new_leader = min(alive)
                elections += 1
                for s in alive:
                    if s != new_leader:
                        log.record(
                            Message(
                                new_leader,
                                s,
                                MessageKind.ELECTION,
                                0.0,
                                payload=new_leader,
                            )
                        )
                leader.active = [
                    s for s in leader.active if s not in faults.crashed
                ]
                leader.site = new_leader
                leader._cursor = 0
                leader_history.append(new_leader)
                tracer.event(
                    "protocol.election",
                    new_leader=new_leader,
                    round=time,
                )

        # Round 0: statistics distribution (retried per site).
        with tracer.span("dsra.stats", sites=instance.num_sites) as stats_span:
            apply_transitions(0.0)
            for node in nodes:
                if node.site == leader.site:
                    log.record(
                        Message(leader.site, node.site, MessageKind.STATS, 0.0)
                    )
                    node.receive_stats(write_totals)
                    continue
                if self._send_with_retry(
                    log, faults, policy, leader.site, node.site,
                    MessageKind.STATS, "STATS",
                ):
                    node.receive_stats(write_totals)
                else:
                    self._suspect(leader, suspected, node.site, tracer, 0)
            stats_span.set(retries=self._retries, backoff=self._backoff)

        # Token rounds.
        limit = self.max_rounds or (
            (instance.num_sites + len(self.fault_plan.crashes))
            * (2 * instance.num_objects + 2)
        )
        rounds = 0
        replications = 0
        profiler = observers().profiler
        while not leader.done:
            rounds += 1
            profiler.tick()
            if rounds > limit:
                raise ProtocolError(
                    f"distributed SRA exceeded {limit} token rounds; "
                    "protocol is not terminating"
                )
            apply_transitions(float(rounds))
            if leader.done:
                break
            site = leader.next_site()
            assert site is not None
            node = nodes[site]
            retries_before = self._retries
            backoff_before = self._backoff
            with observers().ledger.scope(round=rounds), tracer.span(
                "dsra.round", round=rounds, site=site
            ) as round_span:
                outcome = self._token_round(
                    instance, log, nodes, faults, policy, leader, node,
                    history,
                )
                round_span.set(
                    retries=self._retries - retries_before,
                    backoff=self._backoff - backoff_before,
                    suspected=outcome is None,
                )
                if outcome is None:
                    self._suspect(leader, suspected, site, tracer, rounds)
                    continue
                replicated, exhausted = outcome
                if replicated is not None:
                    replications += 1
                if exhausted:
                    leader.retire(site)
                else:
                    leader.advance()

        return self._publish_report(
            DistributedSRAReport(
                scheme=self._collect_scheme(instance, nodes),
                log=log,
                token_rounds=rounds,
                replications=replications,
                elections=elections,
                retries=self._retries,
                duplicates=self._duplicates,
                total_backoff=self._backoff,
                suspected_sites=sorted(suspected),
                leader_history=leader_history,
            )
        )

    def _suspect(
        self,
        leader: LeaderNode,
        suspected: Set[int],
        site: int,
        tracer,
        round_index: int,
    ) -> None:
        suspected.add(site)
        if site in leader.active:
            leader.retire(site)
        tracer.event("protocol.suspect", site=site, round=round_index)

    def _send_with_retry(
        self,
        log: MessageLog,
        faults: ProtocolFaults,
        policy: RetryPolicy,
        sender: int,
        receiver: int,
        kind: MessageKind,
        operation: str,
    ) -> bool:
        """Send one control message, retrying on loss / crashed peer.

        Every attempt is recorded in the log (it really went out on the
        wire).  Returns True on delivery; on exhaustion either returns
        False (``suspect``) or raises :class:`RetryExhaustedError`.
        """
        attempts = 0
        for delay in self._attempt_delays(policy):
            attempts += 1
            self._backoff += delay
            if attempts > 1:
                self._retries += 1
            # The fate is judged before the log call (same RNG stream,
            # same draw order) so the trace can mark the send as lost.
            lost, dup, _ = faults.messages.judge()
            if dup:
                self._duplicates += 1  # receivers dedup idempotently
            delivered = receiver not in faults.crashed and not lost
            log.record(
                Message(sender, receiver, kind, 0.0), lost=not delivered
            )
            if delivered:
                return True
        if policy.on_exhaust == RAISE:
            raise RetryExhaustedError(operation, receiver, attempts)
        return False

    @staticmethod
    def _attempt_delays(policy: RetryPolicy) -> List[float]:
        return [0.0] + list(policy.delays())

    def _token_round(
        self,
        instance: DRPInstance,
        log: MessageLog,
        nodes: List[SiteNode],
        faults: ProtocolFaults,
        policy: RetryPolicy,
        leader: LeaderNode,
        node: SiteNode,
        history: List[Tuple[int, int]],
    ) -> Optional[Tuple[Optional[int], bool]]:
        """One hardened token round against ``node``.

        Returns ``(replicated, exhausted)`` on success, or ``None`` when
        every attempt failed and the policy says ``suspect``.  The
        greedy step runs at most once per round no matter how many token
        copies arrive (idempotent tokens, cached reply).
        """
        site = node.site
        processed = False
        replicated: Optional[int] = None
        cached_reply = False
        attempts = 0
        for delay in self._attempt_delays(policy):
            attempts += 1
            self._backoff += delay
            if attempts > 1:
                self._retries += 1
            if site == leader.site:
                lost, dup = False, False  # local delivery is reliable
            else:
                lost, dup, _ = faults.messages.judge()
            arrived = site not in faults.crashed and not lost
            log.record(
                Message(leader.site, site, MessageKind.TOKEN, 0.0),
                lost=not arrived,
            )
            if not arrived:
                continue  # token never arrived; back off and resend
            if not processed:
                processed = True
                replicated = self._greedy_visit(
                    instance, log, nodes, node, site,
                    crashed=faults.crashed, faults=faults, history=history,
                )
                cached_reply = node.exhausted
            # One TOKEN_RETURN per delivered token copy; a duplicated
            # token re-sends the cached reply without re-processing.
            copies = 2 if dup else 1
            if dup:
                self._duplicates += 1
            delivered = False
            for _ in range(copies):
                if site == leader.site:
                    lost2, dup2 = False, False
                else:
                    lost2, dup2, _ = faults.messages.judge()
                if dup2:
                    self._duplicates += 1  # leader dedups by round
                arrived2 = (
                    not lost2 and leader.site not in faults.crashed
                )
                log.record(
                    Message(
                        site,
                        leader.site,
                        MessageKind.TOKEN_RETURN,
                        0.0,
                        payload=cached_reply,
                    ),
                    lost=not arrived2,
                )
                if arrived2:
                    delivered = True
            if delivered:
                return (replicated, cached_reply)
        if policy.on_exhaust == RAISE:
            raise RetryExhaustedError("TOKEN", site, attempts)
        return None


__all__ = ["DistributedSRA", "DistributedSRAReport"]
