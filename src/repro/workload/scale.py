"""Sparse scale problems at M~1000, N~10k for the ``--scale`` profile.

The paper's Section 6.1 recipe draws a read count for *every* (site,
object) pair, which bakes a dense ``(M, N)`` matrix into the generator
itself.  Real traces are overwhelmingly zero per pair — a site touches a
small working set — so the scale generator draws each site's working set
(``reads_per_site`` objects) and each object's writer set
(``writers_per_object`` sites) directly in coordinate form and never
materialises a dense count matrix: peak memory is ``O(nnz + M^2)``
(the cost matrix is inherently dense), not ``O(M * N)``.

The rest of the recipe mirrors Section 6.1: per-object update totals are
``update_ratio`` times the object's total reads, jittered to
``U[T/2, 3T/2]`` and multinomial-scattered over the writer set; sizes
are uniform with mean ``size_mean``; capacities and primaries use the
same feasible-by-construction assignment as the dense generator.

``SCALE_TIERS`` names the benchmark grid of ``BENCH_scale.json``
(M in {128, 512, 1024}, N in {1k, 10k});
:func:`repro.experiments.scale.run_scale` backs the
``repro-experiments --scale`` CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.network.generators import paper_cost_matrix
from repro.utils.rng import SeedLike, as_generator
from repro.workload.generator import _assign_primaries
from repro.workload.sparse import SparseCounts, SparseProblem


@dataclass(frozen=True)
class ScaleSpec:
    """Knobs of one sparse scale instance (Section 6.1, sparsified)."""

    num_sites: int
    num_objects: int
    reads_per_site: int = 64
    read_low: int = 1
    read_high: int = 40
    update_ratio: float = 0.05
    writers_per_object: int = 8
    size_mean: int = 35
    capacity_ratio: float = 0.3
    cost_low: int = 1
    cost_high: int = 10

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise ValidationError(
                f"num_sites must be >= 2, got {self.num_sites}"
            )
        if self.num_objects < 1:
            raise ValidationError(
                f"num_objects must be >= 1, got {self.num_objects}"
            )
        if self.reads_per_site < 1:
            raise ValidationError(
                f"reads_per_site must be >= 1, got {self.reads_per_site}"
            )
        if self.writers_per_object < 1:
            raise ValidationError(
                "writers_per_object must be >= 1, got "
                f"{self.writers_per_object}"
            )
        if not 1 <= self.read_low <= self.read_high:
            raise ValidationError(
                f"need 1 <= read_low <= read_high, got "
                f"[{self.read_low}, {self.read_high}]"
            )
        if not 0.0 <= self.update_ratio:
            raise ValidationError(
                f"update_ratio must be >= 0, got {self.update_ratio}"
            )
        if self.size_mean < 1:
            raise ValidationError(
                f"size_mean must be >= 1, got {self.size_mean}"
            )
        if self.capacity_ratio <= 0.0:
            raise ValidationError(
                f"capacity_ratio must be > 0, got {self.capacity_ratio}"
            )


#: benchmark tiers of BENCH_scale.json: name -> (num_sites, num_objects)
SCALE_TIERS: Dict[str, Tuple[int, int]] = {
    "small": (128, 1_000),
    "medium": (512, 10_000),
    "large": (1_024, 10_000),
}


def generate_scale_problem(
    spec: ScaleSpec, rng: SeedLike = None
) -> SparseProblem:
    """One sparse DRP problem following the sparsified 6.1 recipe."""
    gen = as_generator(rng)
    m, n = spec.num_sites, spec.num_objects

    cost = paper_cost_matrix(m, spec.cost_low, spec.cost_high, gen)

    # Reads: each site draws a working set without replacement, one
    # count per member — COO triplets straight into CSR.
    per_site = min(spec.reads_per_site, n)
    read_rows = np.repeat(np.arange(m, dtype=np.int64), per_site)
    read_cols = np.empty(m * per_site, dtype=np.int64)
    for i in range(m):
        read_cols[i * per_site:(i + 1) * per_site] = gen.choice(
            n, size=per_site, replace=False
        )
    read_vals = gen.integers(
        spec.read_low, spec.read_high + 1, size=m * per_site
    ).astype(np.int64)
    reads = SparseCounts.from_coo((m, n), read_rows, read_cols, read_vals)

    # Writes: per-object jittered update totals scattered over a small
    # writer set (the sparse analogue of _scatter_counts over all sites).
    total_reads = reads.column_sums()
    writers_n = min(spec.writers_per_object, m)
    w_rows: List[np.ndarray] = []
    w_cols: List[np.ndarray] = []
    w_vals: List[np.ndarray] = []
    uniform = np.full(writers_n, 1.0 / writers_n)
    for k in range(n):
        base = spec.update_ratio * float(total_reads[k])
        if base <= 0:
            continue
        total_updates = int(
            round(gen.uniform(base / 2.0, 3.0 * base / 2.0))
        )
        if total_updates <= 0:
            continue
        writers = gen.choice(m, size=writers_n, replace=False)
        counts = gen.multinomial(total_updates, uniform)
        nz = counts > 0
        w_rows.append(writers[nz].astype(np.int64))
        w_cols.append(np.full(int(nz.sum()), k, dtype=np.int64))
        w_vals.append(counts[nz].astype(np.int64))
    if w_rows:
        writes = SparseCounts.from_coo(
            (m, n),
            np.concatenate(w_rows),
            np.concatenate(w_cols),
            np.concatenate(w_vals),
        )
    else:
        writes = SparseCounts.from_coo(
            (m, n),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )

    sizes = gen.integers(1, 2 * spec.size_mean, size=n).astype(np.int64)

    total_size = float(sizes.sum())
    cap_low = spec.capacity_ratio * total_size / 2.0
    cap_high = 3.0 * spec.capacity_ratio * total_size / 2.0
    capacities = np.ceil(gen.uniform(cap_low, cap_high, size=m)).astype(
        np.int64
    )
    primaries = _assign_primaries(sizes, capacities, gen)

    return SparseProblem(
        cost=cost,
        sizes=sizes,
        capacities=capacities,
        reads=reads,
        writes=writes,
        primaries=primaries,
    )


__all__ = ["ScaleSpec", "SCALE_TIERS", "generate_scale_problem"]
