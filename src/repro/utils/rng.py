"""Deterministic random-number utilities.

Every stochastic component in this library accepts either a seed or a
ready-made :class:`numpy.random.Generator`.  Experiments need *independent*
streams per network instance and per algorithm run; we derive those with
:class:`numpy.random.SeedSequence` spawning, which guarantees statistically
independent child streams from a single master seed.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a sequence of
    integers, a :class:`~numpy.random.SeedSequence` or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent seed sequences from ``seed``.

    If ``seed`` is already a generator its bit-generator's seed sequence is
    reused, so spawning from the same generator object twice yields
    *different* children (the generator tracks spawn state).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return list(seq.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from ``seed``."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


def random_round(value: float, rng: np.random.Generator) -> int:
    """Round ``value`` to an integer, stochastically on the fractional part.

    Used by stochastic-remainder selection: ``2.3`` becomes ``3`` with
    probability ``0.3`` and ``2`` otherwise, keeping expectation exact.
    """
    base = int(np.floor(value))
    frac = value - base
    if frac > 0.0 and rng.random() < frac:
        return base + 1
    return base


def weighted_choice(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Roulette-wheel pick of an index proportionally to ``weights``.

    Falls back to a uniform pick when every weight is zero (an empty wheel
    would otherwise be a division by zero).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = float(weights.sum())
    if total <= 0.0:
        return int(rng.integers(weights.size))
    return int(rng.choice(weights.size, p=weights / total))


__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_seeds",
    "spawn_generators",
    "random_round",
    "weighted_choice",
]
