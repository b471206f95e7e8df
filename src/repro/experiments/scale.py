"""Large-instance ``--scale`` profile runs: sparse problems at M~1000, N~10k.

The problems themselves come from :mod:`repro.workload.scale` (the
sparsified Section 6.1 recipe and the ``SCALE_TIERS`` grid);
``run_scale`` backs the ``repro-experiments --scale`` CLI flag, which CI
runs at the ``small`` tier under a 2 GiB address-space cap.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.errors import ValidationError
from repro.workload.scale import SCALE_TIERS, ScaleSpec, generate_scale_problem


def run_scale(
    tier: str,
    seed: int = 7,
    spec: Optional[ScaleSpec] = None,
) -> Dict[str, object]:
    """Generate one tier's sparse problem, run SRA, report the outcome.

    Backs ``repro-experiments --scale TIER``.  Returns a flat JSON-able
    dict (sizes, nnz, SRA cost/savings, wall-clock seconds).
    """
    from repro.runtime.registry import default_registry

    if spec is None:
        if tier not in SCALE_TIERS:
            raise ValidationError(
                f"unknown scale tier {tier!r}; "
                f"expected one of {sorted(SCALE_TIERS)}"
            )
        m, n = SCALE_TIERS[tier]
        spec = ScaleSpec(num_sites=m, num_objects=n)
    started = time.perf_counter()
    problem = generate_scale_problem(spec, rng=seed)
    generated = time.perf_counter()
    # the registry's sparse-capable solver (only SRA declares it today)
    result = default_registry().create("sra").run(problem)
    solved = time.perf_counter()
    return {
        "tier": tier,
        "num_sites": spec.num_sites,
        "num_objects": spec.num_objects,
        "read_nnz": problem.reads.nnz,
        "write_nnz": problem.writes.nnz,
        "total_cost": result.total_cost,
        "d_prime": result.d_prime,
        "savings_percent": result.savings_percent,
        "extra_replicas": result.extra_replicas,
        "generate_seconds": generated - started,
        "solve_seconds": solved - generated,
        "seed": seed,
    }


__all__ = ["run_scale"]
