"""Sparse workload representation: CSR storage and the sparse problem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DRPInstance
from repro.errors import ValidationError
from repro.workload import (
    SparseCounts,
    SparseProblem,
    WorkloadSpec,
    generate_instance,
)


def dense_fixture() -> np.ndarray:
    return np.array(
        [
            [0, 3, 0, 0, 7],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [2, 0, 5, 0, 9],
        ],
        dtype=np.int64,
    )


# --------------------------------------------------------------------- #
# SparseCounts
# --------------------------------------------------------------------- #
class TestSparseCounts:
    def test_from_dense_round_trip(self):
        dense = dense_fixture()
        sparse = SparseCounts.from_dense(dense)
        assert sparse.shape == dense.shape
        assert sparse.nnz == int(np.count_nonzero(dense))
        assert np.array_equal(sparse.to_dense(), dense)

    def test_from_coo_round_trip(self):
        dense = dense_fixture()
        rows, cols = np.nonzero(dense)
        sparse = SparseCounts.from_coo(
            dense.shape, rows, cols, dense[rows, cols]
        )
        assert np.array_equal(sparse.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        sparse = SparseCounts.from_coo(
            (2, 3),
            rows=np.array([0, 0, 1, 0]),
            cols=np.array([1, 1, 2, 1]),
            values=np.array([2, 3, 4, 5]),
        )
        expected = np.array([[0, 10, 0], [0, 0, 4]])
        assert np.array_equal(sparse.to_dense(), expected)
        assert sparse.nnz == 2

    def test_explicit_zeros_dropped(self):
        sparse = SparseCounts.from_coo(
            (2, 2),
            rows=np.array([0, 1]),
            cols=np.array([0, 1]),
            values=np.array([0, 4]),
        )
        assert sparse.nnz == 1
        assert np.array_equal(sparse.to_dense(), [[0, 0], [0, 4]])

    def test_row_access(self):
        dense = dense_fixture()
        sparse = SparseCounts.from_dense(dense)
        idx, vals = sparse.row(0)
        assert list(idx) == [1, 4]
        assert list(vals) == [3, 7]
        idx, vals = sparse.row(2)  # empty row
        assert idx.size == 0 and vals.size == 0
        for i in range(dense.shape[0]):
            assert np.array_equal(sparse.row_dense(i), dense[i])

    def test_column_access(self):
        dense = dense_fixture()
        sparse = SparseCounts.from_dense(dense)
        idx, vals = sparse.column(0)
        assert list(idx) == [1, 3]
        assert list(vals) == [1, 2]
        idx, vals = sparse.column(3)  # empty column
        assert idx.size == 0 and vals.size == 0

    def test_dense_block_tiles(self):
        dense = dense_fixture()
        sparse = SparseCounts.from_dense(dense)
        for start in range(dense.shape[1]):
            for stop in range(start + 1, dense.shape[1] + 1):
                assert np.array_equal(
                    sparse.dense_block(start, stop), dense[:, start:stop]
                )

    def test_dense_block_range_checked(self):
        sparse = SparseCounts.from_dense(dense_fixture())
        with pytest.raises(ValidationError):
            sparse.dense_block(2, 2)
        with pytest.raises(ValidationError):
            sparse.dense_block(0, 6)
        with pytest.raises(ValidationError):
            sparse.dense_block(-1, 2)

    def test_sums_match_dense(self):
        dense = dense_fixture()
        sparse = SparseCounts.from_dense(dense)
        assert np.array_equal(sparse.row_sums(), dense.sum(axis=1))
        assert np.array_equal(sparse.column_sums(), dense.sum(axis=0))
        assert sparse.row_sums().dtype == np.int64
        assert sparse.column_sums().dtype == np.int64

    def test_density(self):
        sparse = SparseCounts.from_dense(dense_fixture())
        assert sparse.density == pytest.approx(6 / 20)

    def test_equality_and_hash_are_structural(self):
        dense = dense_fixture()
        a = SparseCounts.from_dense(dense)
        rows, cols = np.nonzero(dense)
        b = SparseCounts.from_coo(dense.shape, rows, cols, dense[rows, cols])
        assert a == b
        assert hash(a) == hash(b)
        c = SparseCounts.from_dense(dense + 1)
        assert a != c

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            SparseCounts.from_dense(np.arange(4))  # 1-D
        with pytest.raises(ValidationError):
            SparseCounts.from_coo(
                (2, 2), np.array([0]), np.array([5]), np.array([1])
            )  # column out of range
        with pytest.raises(ValidationError):
            SparseCounts.from_coo(
                (2, 2), np.array([3]), np.array([0]), np.array([1])
            )  # row out of range
        with pytest.raises(ValidationError):
            SparseCounts.from_coo(
                (2, 2), np.array([0]), np.array([0]), np.array([-1])
            )  # negative count
        with pytest.raises(ValidationError):
            SparseCounts.from_coo(
                (2, 2), np.array([0, 1]), np.array([0]), np.array([1])
            )  # misaligned triplets

    def test_storage_is_immutable(self):
        sparse = SparseCounts.from_dense(dense_fixture())
        with pytest.raises(ValueError):
            sparse.data[0] = 99


# --------------------------------------------------------------------- #
# SparseProblem
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dense_instance() -> DRPInstance:
    return generate_instance(
        WorkloadSpec(num_sites=8, num_objects=15, update_ratio=0.05,
                     capacity_ratio=0.3),
        rng=404,
    )


class TestSparseProblem:
    def test_from_instance_round_trip(self, dense_instance):
        sparse = SparseProblem.from_instance(dense_instance)
        assert sparse.num_sites == dense_instance.num_sites
        assert sparse.num_objects == dense_instance.num_objects
        assert np.array_equal(sparse.cost, dense_instance.cost)
        assert np.array_equal(
            sparse.reads.to_dense(), dense_instance.reads
        )
        assert np.array_equal(
            sparse.writes.to_dense(), dense_instance.writes
        )
        back = sparse.to_instance()
        assert isinstance(back, DRPInstance)
        assert np.array_equal(back.reads, dense_instance.reads)
        assert np.array_equal(back.writes, dense_instance.writes)
        assert np.array_equal(back.primaries, dense_instance.primaries)

    def test_equality(self, dense_instance):
        a = SparseProblem.from_instance(dense_instance)
        b = SparseProblem.from_instance(dense_instance)
        assert a == b

    def test_validation_mirrors_dense_instance(self, dense_instance):
        good = SparseProblem.from_instance(dense_instance)
        asym = dense_instance.cost.copy()
        asym[0, 1] += 1.0
        with pytest.raises(ValidationError):
            SparseProblem(
                cost=asym,
                sizes=good.sizes,
                capacities=good.capacities,
                reads=good.reads,
                writes=good.writes,
                primaries=good.primaries,
            )
        with pytest.raises(ValidationError):
            SparseProblem(
                cost=good.cost,
                sizes=good.sizes,
                capacities=good.capacities,
                reads=good.reads,
                writes=good.writes,
                primaries=np.full_like(good.primaries, 99),
            )
        with pytest.raises(ValidationError):
            SparseProblem(
                cost=good.cost,
                sizes=good.sizes,
                capacities=np.zeros_like(good.capacities),
                reads=good.reads,
                writes=good.writes,
                primaries=good.primaries,
            )
        with pytest.raises(ValidationError):
            SparseProblem(
                cost=good.cost,
                sizes=good.sizes,
                capacities=good.capacities,
                reads=dense_instance.reads,  # dense array, not SparseCounts
                writes=good.writes,
                primaries=good.primaries,
            )


def _edited_cost(cost, edit):
    cost = cost.copy()
    if edit == "near-symmetric":
        cost[0, 1] += 1e-12
    elif edit == "asymmetric":
        cost[0, 1] += 1.0
    elif edit == "diagonal":
        cost[2, 2] = 1.0
    elif edit == "negative":
        cost[0, 1] = cost[1, 0] = -1.0
    elif edit == "infinite":
        cost[0, 1] = cost[1, 0] = np.inf
    elif edit == "non-square":
        cost = cost[:, :-1]
    return cost


@pytest.mark.parametrize(
    "edit",
    ["near-symmetric", "asymmetric", "diagonal", "negative", "infinite",
     "non-square"],
)
def test_dense_and_sparse_share_one_cost_rule(dense_instance, edit):
    cost = _edited_cost(dense_instance.cost, edit)
    good = SparseProblem.from_instance(dense_instance)
    outcomes = []
    for build in (
        lambda: DRPInstance(
            cost, dense_instance.sizes, dense_instance.capacities,
            dense_instance.reads, dense_instance.writes,
            dense_instance.primaries,
        ),
        lambda: SparseProblem(
            cost, good.sizes, good.capacities, good.reads, good.writes,
            good.primaries,
        ),
    ):
        try:
            build()
            outcomes.append("accepted")
        except ValidationError:
            outcomes.append("rejected")
    expected = "accepted" if edit == "near-symmetric" else "rejected"
    assert outcomes == [expected, expected]


def test_near_symmetric_cost_solves_identically_dense_and_sparse(
    dense_instance,
):
    from repro.algorithms.sra import SRA

    cost = _edited_cost(dense_instance.cost, "near-symmetric")
    dense = DRPInstance(
        cost, dense_instance.sizes, dense_instance.capacities,
        dense_instance.reads, dense_instance.writes, dense_instance.primaries,
    )
    sparse = SparseProblem.from_instance(dense)
    expected = SRA().run(dense)
    result = SRA().run(sparse)
    assert np.array_equal(result.scheme.matrix, expected.scheme.matrix)
    assert result.total_cost == expected.total_cost
    assert result.d_prime == expected.d_prime


def test_fractional_counts_rejected_by_every_path():
    """A count is a number of requests.  Fractional reads and writes were
    once truncated to int64 by the sparse path and rounded by the trace
    generator while the dense model priced them as given: on this 6x8
    instance with +0.5 reads and +0.25 writes, dense D' was 60,760.25
    and sparse D' 58,907.0.  Every constructor now rejects them."""
    inst = generate_instance(WorkloadSpec(num_sites=6, num_objects=8), rng=3)
    reads, writes = inst.reads + 0.5, inst.writes + 0.25
    for build in (
        lambda: inst.with_patterns(reads=reads),
        lambda: inst.with_patterns(writes=writes),
        lambda: SparseCounts.from_dense(reads),
        lambda: SparseCounts.from_coo((6, 8), [0], [1], [0.25]),
        lambda: SparseCounts((6, 8), [0, 1, 1, 1, 1, 1, 1], [2], [1.5]),
    ):
        with pytest.raises(ValidationError, match="whole request counts"):
            build()
    # whole-valued floats are counts: both paths keep them exactly
    whole = SparseCounts.from_dense(inst.reads.astype(float))
    assert np.array_equal(whole.to_dense(), inst.reads)
