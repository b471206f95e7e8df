"""Convergence diagnostics for GA runs.

GRA results carry per-generation convergence records — project the flat
series with ``result.stats.history("best_fitness")`` (one entry per
generation, monotone because of elite tracking).  These helpers answer
the budget
questions the paper settles by eyeballing: how many generations until
within x% of the final value, where progress stalls, and how much of
the final quality the initial (SRA-seeded) population already had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of one best-fitness history."""

    generations: int
    initial_fitness: float
    final_fitness: float
    improvement: float
    generations_to_95pct: Optional[int]
    generations_to_99pct: Optional[int]
    stalled_from: Optional[int]
    seeding_share: float

    def summary(self) -> str:
        g95 = (
            "n/a"
            if self.generations_to_95pct is None
            else str(self.generations_to_95pct)
        )
        stalled = "never" if self.stalled_from is None else str(self.stalled_from)
        return (
            f"fitness {self.initial_fitness:.4f} -> {self.final_fitness:.4f} "
            f"over {self.generations} generations; 95% of the gain by "
            f"generation {g95}; stalled from generation {stalled}; "
            f"seeding contributed {self.seeding_share * 100:.1f}% of the "
            "final fitness"
        )


def _first_generation_reaching(
    history: np.ndarray, target: float
) -> Optional[int]:
    hits = np.nonzero(history >= target - 1e-12)[0]
    return int(hits[0]) if hits.size else None


def analyze_convergence(
    history: Sequence[float],
    stall_window: int = 10,
) -> ConvergenceReport:
    """Analyse a monotone best-fitness history.

    ``history[0]`` is the fitness of the initial population's best
    member; subsequent entries are per-generation best-so-far values.
    ``stalled_from`` is the first generation after which nothing
    improved for ``stall_window`` consecutive generations (and never
    again).
    """
    arr = np.asarray(list(history), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("history must be a non-empty sequence")
    if np.any(np.diff(arr) < -1e-9):
        raise ValidationError(
            "history must be non-decreasing (best-so-far fitness)"
        )
    if stall_window < 1:
        raise ValidationError(
            f"stall_window must be >= 1, got {stall_window}"
        )

    initial = float(arr[0])
    final = float(arr[-1])
    improvement = final - initial

    if improvement > 1e-12:
        g95 = _first_generation_reaching(arr, initial + 0.95 * improvement)
        g99 = _first_generation_reaching(arr, initial + 0.99 * improvement)
    else:
        g95 = g99 = 0

    # last generation where fitness improved
    improved = np.nonzero(np.diff(arr) > 1e-12)[0]
    if improved.size == 0:
        stalled_from: Optional[int] = 0
    else:
        last_gain = int(improved[-1]) + 1
        remaining = arr.size - 1 - last_gain
        stalled_from = last_gain if remaining >= stall_window else None

    seeding_share = 0.0 if final <= 0 else min(1.0, max(0.0, initial / final))

    return ConvergenceReport(
        generations=arr.size - 1,
        initial_fitness=initial,
        final_fitness=final,
        improvement=improvement,
        generations_to_95pct=g95,
        generations_to_99pct=g99,
        stalled_from=stalled_from,
        seeding_share=seeding_share,
    )


__all__ = ["ConvergenceReport", "analyze_convergence"]
