"""Sparse workload representation for large-instance scale runs.

The paper evaluates up to a few hundred sites, but the ROADMAP north star
is production scale: M around 1,000 sites and N around 10,000 objects.
At that size the dense ``(M, N)`` int64 read/write matrices cost ~160 MB
*each*, yet real traces are overwhelmingly zero per (site, object) pair —
a site touches a small working set of objects.  This module stores the
access counts sparsely:

* :class:`SparseCounts` — an immutable CSR matrix of non-negative int64
  counts with lazily-built column (CSC) access and *dense tile*
  materialisation, the primitive the blocked cost kernels consume;
* :class:`SparseProblem` — the DRP inputs with sparse ``reads``/``writes``
  and dense network-side arrays (``cost``, ``sizes``, ``capacities``,
  ``primaries`` are inherently dense and small), duck-type compatible
  with :class:`~repro.core.problem.DRPInstance` everywhere the access
  matrices are not indexed densely.

``SparseProblem.to_instance()`` is the dense fallback: algorithms without
a sparse-aware path (GRA, AGRA) densify and run unchanged, while the
scale-aware paths (:class:`~repro.core.cost.SparseCostModel`, SRA's
sparse solve) stay within a bounded memory envelope and produce costs
**bit-identical** to the dense path — the blocked kernels materialise
dense object-column tiles with the exact same elementwise arithmetic, so
there is no approximation anywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_cost_matrix, check_counts


class SparseCounts:
    """Immutable CSR matrix of non-negative ``int64`` counts.

    Rows are sites, columns are objects.  Stored explicitly as the usual
    ``indptr`` / ``indices`` / ``data`` triplet (no SciPy dependency);
    column-major (CSC) views are built lazily on first column access and
    cached.  Explicit zeros are dropped on construction so ``nnz`` always
    counts genuinely non-zero entries.
    """

    __slots__ = (
        "shape", "indptr", "indices", "data",
        "_col_indptr", "_col_indices", "_col_data",
    )

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        rows, cols = int(shape[0]), int(shape[1])
        if rows < 1 or cols < 1:
            raise ValidationError(
                f"sparse counts need a positive shape, got {shape}"
            )
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(check_counts("counts", data), dtype=np.int64)
        if indptr.shape != (rows + 1,) or indptr[0] != 0:
            raise ValidationError(
                f"indptr must have shape ({rows + 1},) and start at 0"
            )
        if np.any(np.diff(indptr) < 0) or indptr[-1] != indices.shape[0]:
            raise ValidationError("indptr must be non-decreasing up to nnz")
        if data.shape != indices.shape:
            raise ValidationError("indices and data must be aligned")
        if indices.size and (indices.min() < 0 or indices.max() >= cols):
            raise ValidationError(f"column indices out of range [0, {cols})")
        # Normalise: sorted column indices per row, duplicates summed,
        # explicit zeros dropped — so equal matrices have equal storage.
        keep_ptr = [0]
        keep_idx = []
        keep_val = []
        for row in range(rows):
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            cols_r = indices[lo:hi]
            vals_r = data[lo:hi]
            if cols_r.size:
                order = np.argsort(cols_r, kind="stable")
                cols_r = cols_r[order]
                vals_r = vals_r[order]
                uniq, start = np.unique(cols_r, return_index=True)
                summed = np.add.reduceat(vals_r, start)
                nz = summed != 0
                cols_r, vals_r = uniq[nz], summed[nz]
            keep_idx.append(cols_r)
            keep_val.append(vals_r)
            keep_ptr.append(keep_ptr[-1] + cols_r.size)
        self.shape = (rows, cols)
        self.indptr = np.asarray(keep_ptr, dtype=np.int64)
        self.indices = (
            np.concatenate(keep_idx) if keep_idx else np.empty(0, np.int64)
        ).astype(np.int64)
        self.data = (
            np.concatenate(keep_val) if keep_val else np.empty(0, np.int64)
        ).astype(np.int64)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.data.setflags(write=False)
        self._col_indptr: Optional[np.ndarray] = None
        self._col_indices: Optional[np.ndarray] = None
        self._col_data: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseCounts":
        """CSR form of a dense ``(M, N)`` count matrix."""
        mat = np.asarray(dense)
        if mat.ndim != 2:
            raise ValidationError(
                f"dense counts must be 2-D, got shape {mat.shape}"
            )
        rows, cols = np.nonzero(mat)
        indptr = np.zeros(mat.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(mat.shape, indptr, cols, mat[rows, cols])

    @classmethod
    def from_coo(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "SparseCounts":
        """Build from coordinate triplets (duplicates are summed)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        if not (rows.shape == cols.shape == values.shape):
            raise ValidationError("COO triplets must be aligned 1-D arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]):
            raise ValidationError(
                f"row indices out of range [0, {shape[0]})"
            )
        order = np.argsort(rows, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(shape, indptr, cols, values)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of the dense grid that is non-zero."""
        return self.nnz / float(self.shape[0] * self.shape[1])

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(object_indices, counts)`` of one site's row (views)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def row_dense(self, i: int) -> np.ndarray:
        """One site's row as a dense ``(N,)`` int64 vector."""
        out = np.zeros(self.shape[1], dtype=np.int64)
        idx, vals = self.row(i)
        out[idx] = vals
        return out

    def _build_columns(self) -> None:
        cols = self.indices
        order = np.argsort(cols, kind="stable")
        # Row id of each stored entry, recovered from indptr.
        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=np.int64),
            np.diff(self.indptr),
        )
        self._col_indices = row_ids[order]
        self._col_data = self.data[order]
        counts = np.bincount(cols, minlength=self.shape[1])
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._col_indptr = indptr

    def column(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(site_indices, counts)`` of one object's column (views)."""
        if self._col_indptr is None:
            self._build_columns()
        lo = int(self._col_indptr[k])
        hi = int(self._col_indptr[k + 1])
        return self._col_indices[lo:hi], self._col_data[lo:hi]

    def dense_block(self, start: int, stop: int) -> np.ndarray:
        """Columns ``[start, stop)`` as a dense ``(M, stop-start)`` tile.

        This is the object-column tile the blocked cost kernels operate
        on: peak memory is ``M * (stop - start)`` int64 regardless of N.
        """
        if not 0 <= start < stop <= self.shape[1]:
            raise ValidationError(
                f"tile [{start}, {stop}) out of range for {self.shape[1]}"
                " columns"
            )
        if self._col_indptr is None:
            self._build_columns()
        width = stop - start
        out = np.zeros((self.shape[0], width), dtype=np.int64)
        lo = int(self._col_indptr[start])
        hi = int(self._col_indptr[stop])
        cols = np.repeat(
            np.arange(start, stop, dtype=np.int64),
            np.diff(self._col_indptr[start:stop + 1]),
        )
        out[self._col_indices[lo:hi], cols - start] = self._col_data[lo:hi]
        return out

    def to_dense(self) -> np.ndarray:
        """The full dense ``(M, N)`` int64 matrix."""
        out = np.zeros(self.shape, dtype=np.int64)
        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=np.int64),
            np.diff(self.indptr),
        )
        out[row_ids, self.indices] = self.data
        return out

    def row_sums(self) -> np.ndarray:
        """Per-site totals, shape ``(M,)`` (exact — integer addition)."""
        return np.add.reduceat(
            np.concatenate((self.data, [np.int64(0)])),
            self.indptr[:-1],
        ) * (np.diff(self.indptr) > 0)

    def column_sums(self) -> np.ndarray:
        """Per-object totals, shape ``(N,)`` (exact — integer addition)."""
        return np.bincount(
            self.indices, weights=self.data, minlength=self.shape[1]
        ).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseCounts):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:  # immutable value type
        return hash((self.shape, self.data.tobytes(),
                     self.indices.tobytes()))

    def __repr__(self) -> str:
        return (
            f"SparseCounts(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f})"
        )


class SparseProblem:
    """DRP inputs with CSR access matrices and dense network-side arrays.

    Shapes mirror :class:`~repro.core.problem.DRPInstance`; ``reads`` and
    ``writes`` are :class:`SparseCounts`.  The network-side arrays are
    validated exactly like the dense instance (the shared
    :func:`~repro.utils.validation.check_cost_matrix` rule, positive
    sizes, in-range primaries, primary copies that fit their sites).
    """

    def __init__(
        self,
        cost: np.ndarray,
        sizes: np.ndarray,
        capacities: np.ndarray,
        reads: SparseCounts,
        writes: SparseCounts,
        primaries: np.ndarray,
    ) -> None:
        self._cost = check_cost_matrix(cost)
        # Sizes and capacities are real-valued, as in DRPInstance;
        # integer inputs stay exact in float64.
        self._sizes = np.ascontiguousarray(sizes, dtype=float)
        self._capacities = np.ascontiguousarray(capacities, dtype=float)
        self._primaries = np.ascontiguousarray(primaries, dtype=np.int64)
        m = self._cost.shape[0]
        n = self._sizes.shape[0]
        if np.any(self._sizes <= 0):
            raise ValidationError("object sizes must be positive")
        if self._capacities.shape != (m,):
            raise ValidationError(
                f"capacities must have shape ({m},), got "
                f"{self._capacities.shape}"
            )
        if self._primaries.shape != (n,):
            raise ValidationError(
                f"primaries must have shape ({n},), got "
                f"{self._primaries.shape}"
            )
        if n and (self._primaries.min() < 0 or self._primaries.max() >= m):
            raise ValidationError(f"primaries out of range [0, {m})")
        for name, counts in (("reads", reads), ("writes", writes)):
            if not isinstance(counts, SparseCounts):
                raise ValidationError(
                    f"{name} must be SparseCounts, got "
                    f"{type(counts).__name__}"
                )
            if counts.shape != (m, n):
                raise ValidationError(
                    f"{name} must have shape ({m}, {n}), got {counts.shape}"
                )
        load = np.bincount(
            self._primaries, weights=self._sizes, minlength=m
        )
        over = np.nonzero(load > self._capacities)[0]
        if over.size:
            site = int(over[0])
            raise ValidationError(
                f"primary copies at site {site} need {load[site]:.0f} "
                f"units but its capacity is {self._capacities[site]:g}"
            )
        self._reads = reads
        self._writes = writes
        for arr in (self._cost, self._sizes, self._capacities,
                    self._primaries):
            arr.setflags(write=False)

    # -- DRPInstance-compatible surface -------------------------------- #
    @property
    def num_sites(self) -> int:
        return self._cost.shape[0]

    @property
    def num_objects(self) -> int:
        return self._sizes.shape[0]

    @property
    def cost(self) -> np.ndarray:
        return self._cost

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def capacities(self) -> np.ndarray:
        return self._capacities

    @property
    def reads(self) -> SparseCounts:
        return self._reads

    @property
    def writes(self) -> SparseCounts:
        return self._writes

    @property
    def primaries(self) -> np.ndarray:
        return self._primaries

    # ------------------------------------------------------------------ #
    @classmethod
    def from_instance(cls, instance) -> "SparseProblem":
        """Sparsify a dense :class:`~repro.core.problem.DRPInstance`."""
        return cls(
            cost=instance.cost,
            sizes=instance.sizes,
            capacities=instance.capacities,
            reads=SparseCounts.from_dense(instance.reads),
            writes=SparseCounts.from_dense(instance.writes),
            primaries=instance.primaries,
        )

    def to_instance(self):
        """Densify into a :class:`~repro.core.problem.DRPInstance`.

        This is the compatibility fallback for algorithms without a
        sparse-aware path; it materialises the two dense ``(M, N)``
        matrices, so avoid it at full scale.
        """
        from repro.core.problem import DRPInstance

        return DRPInstance(
            cost=self._cost,
            sizes=self._sizes,
            capacities=self._capacities,
            reads=self._reads.to_dense(),
            writes=self._writes.to_dense(),
            primaries=self._primaries,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseProblem):
            return NotImplemented
        return (
            np.array_equal(self._cost, other._cost)
            and np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._capacities, other._capacities)
            and np.array_equal(self._primaries, other._primaries)
            and self._reads == other._reads
            and self._writes == other._writes
        )

    def __repr__(self) -> str:
        return (
            f"SparseProblem(M={self.num_sites}, N={self.num_objects}, "
            f"read_nnz={self._reads.nnz}, write_nnz={self._writes.nnz})"
        )


__all__ = ["SparseCounts", "SparseProblem"]
