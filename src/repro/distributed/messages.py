"""Message fabric for the distributed-protocol emulations.

Messages are control traffic: the paper's cost model deliberately ignores
them ("the communication cost of control messages has minor impact"), but
the emulation counts them — and their cost-weighted volume — so that claim
can actually be checked against the data traffic a scheme saves.

When tracing is enabled, :meth:`MessageLog.record` additionally stamps a
:class:`TraceContext` (parent span id + the sender's Lamport clock) onto
every message and emits paired ``msg.send`` / ``msg.recv`` point events
carrying a per-message flow key, so the happens-before DAG builder in
:mod:`repro.obs.causal` can reconstruct token hops and the Chrome
exporter can render them as Perfetto flow arrows.  The log keeps one
Lamport clock per site, ticked on send and advanced with
``max(local, sender)+1`` on receive; with tracing off none of this runs
and the log's contents are byte-identical to earlier builds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.obs.holder import observers

#: point-event names emitted by :meth:`MessageLog.record`
SEND_EVENT = "msg.send"
RECV_EVENT = "msg.recv"


@dataclass(frozen=True)
class TraceContext:
    """Causal metadata stamped onto a message at send time.

    ``parent_span`` is the tracer span open at the send site (the DSRA
    round, the monitor collection, ...); ``clock`` is the sender's
    Lamport clock after the send tick.  Comparison is excluded so two
    otherwise-equal messages stay equal regardless of when they were
    sent.
    """

    parent_span: Optional[int] = None
    clock: int = 0


class MessageKind(enum.Enum):
    """Protocol message types of the distributed SRA."""

    STATS = "stats"  # leader -> sites: global per-object write totals
    TOKEN = "token"  # leader -> site: permission to run one greedy step
    TOKEN_RETURN = "token-return"  # site -> leader: step done / list empty
    REPLICATE = "replicate"  # site -> all: new replica announcement
    OBJECT_TRANSFER = "object-transfer"  # data: replica payload shipment
    ELECTION = "election"  # new leader -> all: leadership change notice


@dataclass(frozen=True)
class Message:
    """One protocol message between two sites."""

    sender: int
    receiver: int
    kind: MessageKind
    size_units: float = 1.0
    payload: Optional[object] = None
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size_units < 0:
            raise ValidationError(
                f"size_units must be >= 0, got {self.size_units}"
            )


class MessageLog:
    """Accumulates protocol traffic and its cost-weighted volume.

    ``cost`` is the network's per-unit transfer cost matrix; every message
    contributes ``size_units * C(sender, receiver)`` to the transfer cost
    of its category (control vs data).
    """

    def __init__(self, cost: np.ndarray) -> None:
        self._cost = np.asarray(cost, dtype=float)
        self.messages: List[Message] = []
        self.count_by_kind: Dict[MessageKind, int] = {
            kind: 0 for kind in MessageKind
        }
        self.control_cost = 0.0
        self.data_cost = 0.0
        #: per-site Lamport clocks (only advanced while tracing is on)
        self.clocks: Dict[int, int] = {}

    def record(self, message: Message, *, lost: bool = False) -> None:
        """Account one message; ``lost`` marks an in-flight drop.

        A lost message still costs its send (the sender paid the
        bandwidth) and still emits ``msg.send``, but never ticks the
        receiver's clock and emits no ``msg.recv`` — in the causal DAG it
        is a send with no matching receive.
        """
        seq = len(self.messages)
        self.messages.append(message)
        self.count_by_kind[message.kind] += 1
        cost = message.size_units * float(
            self._cost[message.sender, message.receiver]
        )
        if message.kind is MessageKind.OBJECT_TRANSFER:
            self.data_cost += cost
        else:
            self.control_cost += cost
        tracer = observers().tracer
        if not tracer.enabled:
            return
        src, dst = message.sender, message.receiver
        send_clock = self.clocks.get(src, 0) + 1
        self.clocks[src] = send_clock
        object.__setattr__(
            message,
            "trace",
            TraceContext(parent_span=tracer.current_span_id, clock=send_clock),
        )
        flow = f"{src}->{dst}#{seq}"
        tracer.event(
            SEND_EVENT,
            kind=message.kind.value,
            src=src,
            dst=dst,
            seq=seq,
            clock=send_clock,
            size=float(message.size_units),
            lost=bool(lost),
            flow=flow,
            flow_phase="s",
        )
        if lost:
            return
        recv_clock = max(self.clocks.get(dst, 0), send_clock) + 1
        self.clocks[dst] = recv_clock
        tracer.event(
            RECV_EVENT,
            kind=message.kind.value,
            src=src,
            dst=dst,
            seq=seq,
            clock=recv_clock,
            flow=flow,
            flow_phase="f",
        )

    @property
    def total_messages(self) -> int:
        return len(self.messages)

    @property
    def control_messages(self) -> int:
        return self.total_messages - self.count_by_kind[
            MessageKind.OBJECT_TRANSFER
        ]

    def summary(self) -> Dict[str, float]:
        return {
            "total_messages": float(self.total_messages),
            "control_messages": float(self.control_messages),
            "control_cost": self.control_cost,
            "data_cost": self.data_cost,
            **{
                f"count[{kind.value}]": float(count)
                for kind, count in self.count_by_kind.items()
            },
        }


__all__ = [
    "MessageKind",
    "Message",
    "MessageLog",
    "TraceContext",
    "SEND_EVENT",
    "RECV_EVENT",
]
