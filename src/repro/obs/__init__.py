"""Observer state, happens-before DAGs and the placement ledger.

``repro.obs`` sits directly above :mod:`repro.utils` in the layer map —
it may import utils (and nothing higher), while the kernel, algorithm,
sim and distributed layers may import it.  Three members:

* :mod:`repro.obs.holder` — the one holder of a run's observer state:
  the frozen :class:`Observers` record (tracer, telemetry sink,
  profiler, ledger, metrics registry) that readers fetch with
  :func:`observers` and writers push with :func:`observing`;
* :mod:`repro.obs.causal` — builds a happens-before DAG over an exported
  trace (message send/receive events, Lamport clocks, program order) and
  extracts per-round critical-path / latency attribution for the
  distributed protocols;
* :mod:`repro.obs.ledger` — the append-only :class:`PlacementLedger`
  recording every replica add / drop / deferral with full attribution,
  plus the ``repro explain`` decision-chain renderer.

See ``docs/causality.md``.
"""

from repro.obs.causal import (
    CausalDag,
    build_dag,
    causal_sections,
    dsra_rounds,
    message_flow,
    monitor_rounds,
)
from repro.obs.holder import Observers, observers, observing
from repro.obs.ledger import (
    PlacementLedger,
    explain_entries,
    read_ledger,
    render_explanation,
)

__all__ = [
    "CausalDag",
    "Observers",
    "build_dag",
    "causal_sections",
    "dsra_rounds",
    "message_flow",
    "monitor_rounds",
    "observers",
    "observing",
    "PlacementLedger",
    "explain_entries",
    "read_ledger",
    "render_explanation",
]
