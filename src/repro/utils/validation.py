"""Argument-validation helpers shared across the package.

These keep constructor bodies readable: each check raises
:class:`repro.errors.ValidationError` with a message naming the offending
argument, which the test-suite asserts on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Ensure ``value`` is a positive (or non-negative) finite number."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_fraction(name: str, value: float, allow_zero: bool = True) -> float:
    """Ensure ``value`` lies in [0, 1] (probabilities, ratios)."""
    value = check_positive(name, value, allow_zero=allow_zero)
    if value > 1.0:
        raise ValidationError(f"{name} must be <= 1, got {value!r}")
    return value


def check_index(name: str, value: int, size: int) -> int:
    """Ensure ``value`` is a valid index into a collection of ``size``."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer index, got {value!r}")
    if not 0 <= value < size:
        raise ValidationError(f"{name} must be in [0, {size}), got {value}")
    return int(value)


def check_vector(
    name: str,
    array: np.ndarray,
    length: Optional[int] = None,
    non_negative: bool = False,
    dtype: Optional[type] = None,
) -> np.ndarray:
    """Validate and copy a 1-D numeric array."""
    arr = np.asarray(array, dtype=dtype) if dtype else np.asarray(array)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(
            f"{name} must have length {length}, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if non_negative and np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    return arr.copy()


def check_matrix(
    name: str,
    array: np.ndarray,
    shape: Optional[Tuple[int, int]] = None,
    non_negative: bool = False,
    dtype: Optional[type] = None,
) -> np.ndarray:
    """Validate and copy a 2-D numeric array."""
    arr = np.asarray(array, dtype=dtype) if dtype else np.asarray(array)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    if non_negative and np.any(arr < 0):
        raise ValidationError(f"{name} must be non-negative")
    return arr.copy()


def check_cost_matrix(cost: np.ndarray) -> np.ndarray:
    """Validate and copy a DRP cost matrix ``C(i, j)`` as float64.

    The one rule every problem constructor applies: finite, non-negative,
    square, zero diagonal, and symmetric up to :func:`numpy.allclose`
    (shortest-path closures computed in floating point may differ from
    their transpose in the last bits).
    """
    cost = check_matrix("cost", cost, non_negative=True, dtype=float)
    if cost.shape[0] != cost.shape[1]:
        raise ValidationError(
            f"cost matrix must be square, got shape {cost.shape}"
        )
    if np.any(np.diagonal(cost) != 0.0):
        raise ValidationError("cost diagonal (C(i,i)) must be zero")
    if not np.allclose(cost, cost.T):
        raise ValidationError("cost matrix must be symmetric (C(i,j)=C(j,i))")
    return cost


__all__ = [
    "check_cost_matrix",
    "check_positive",
    "check_fraction",
    "check_index",
    "check_vector",
    "check_matrix",
]
