"""Soft conditioning via feature-space neighborhoods.

Exact stratification compares records with identical feature vectors; for
continuous or high-cardinality features that leaves every stratum nearly
empty.  Here each record is instead compared against its neighborhood
(k nearest or all records within a distance ball), the local dependence
between the outcome and the sensitive attribute is measured inside the
neighborhood, and the audit passes when the fraction of non-violating
records is high enough.

Queries are exact.  Two engines propose candidates for a whole block of
records: a KD-tree for all-numeric features at any n (L1 metric on weighted
scaled coordinates equals the record distance), and a linear scan for mixed
features.  Neither decides anything: the canonical distance kernel gives
every candidate its exact distance, one selection step picks the k nearest
under one tie rule, and rows tied at the k-th neighbor are settled by one
bulk ball query, so tree-backed and linear-scan results are identical.

A NeighborIndex passes over every record's neighborhood once per
neighborhood spec and keeps only counts: how many of the record's neighbors
fall in each joint (target, prediction, sensitive) cell.  The soft criteria
of one audit (isp, ftu, ieo, isuff) differ only in which of those cells they
add up, so they share that one pass and slice its (n, cells) array.  Member
lists are never kept, so memory stays O(n * cells) at any radius.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .criteria import CriterionSpec
from .dataset import Dataset
from .distance import DistanceSpec, FeatureSpace
from .errors import AllIndeterminate, GroupCriterion, InvalidParams
from .measures import mi_nats, rate_gap

DEFAULT_EPSILON = 0.05
DEFAULT_DELTA = 0.05
DEFAULT_MIN_NEIGHBORHOOD = 10
SOFT_MEASURE_KINDS = ("mi", "rate")

# relative margin over rounding: kNN rows whose (k+1)-th distance is within
# it of the k-th are tied, and ball candidates are proposed out to it
_TREE_SLACK = 1e-9
_BLOCK_CELLS = 1 << 16       # cells in the widest per-row array of one vectorized block


def _block_rows(width: int) -> int:
    """Rows per block when each row carries `width` cells.

    Every chunked loop (kNN selection, ball queries, the count pass) sizes its
    blocks here, so one budget bounds their scratch memory.
    """
    return max(16, _BLOCK_CELLS // max(width, 1))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """knn(k) or ball(radius in (0, 1]); include_self keeps the record itself."""

    mode: str                  # 'knn' or 'ball'
    k: int | None = None
    radius: float | None = None
    include_self: bool = True

    def __post_init__(self):
        if self.mode == "knn":
            if self.k is None or self.k < 1:
                raise InvalidParams("knn mode needs k >= 1")
        elif self.mode == "ball":
            if self.radius is None or not (0.0 < self.radius <= 1.0):
                raise InvalidParams("ball mode needs radius in (0, 1]")
        else:
            raise InvalidParams(f"unknown neighborhood mode {self.mode!r}")


class NeighborIndex:
    """Immutable exact neighbor queries over a dataset's feature space."""

    def __init__(self, dataset: Dataset, dist: DistanceSpec | None = None):
        self.dataset = dataset
        self.space = FeatureSpace(dataset, dist)
        self.n = self.space.n
        # joint (Y, Ŷ, S) cell of every record: (y * |Ŷ| + ŷ) * |S| + s
        self.cell_shape = (dataset.y.arity, dataset.y_hat.arity, dataset.s.arity)
        self._cells = (dataset.y.codes * dataset.y_hat.arity
                       + dataset.y_hat.codes) * dataset.s.arity + dataset.s.codes
        self._counts: dict[NeighborhoodSpec, np.ndarray] = {}
        self._coords = self.space.tree_coordinates()
        self._tree = None if self._coords is None else cKDTree(self._coords)

    # -- single-record queries -------------------------------------------

    def knn(self, i: int, k: int, include_self: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """k nearest records to record i, ordered by (distance, record index)."""
        members, dists = self._knn_block(np.array([i]), k, include_self)
        order = np.lexsort((members[0], dists[0]))
        return members[0, order], dists[0, order]

    def ball(self, i: int, radius: float, include_self: bool = True) -> np.ndarray:
        """All records within `radius` of record i, in ascending index order."""
        if radius <= 0:
            raise InvalidParams("radius must be positive")
        return self._ball_block(np.array([i]), radius, include_self)[1]

    # -- batched queries ----------------------------------------------------

    def cell_counts(self, nspec: NeighborhoodSpec) -> np.ndarray:
        """Every record's neighbor count per joint (Y, Ŷ, S) cell, shape (n, cells).

        Row i, reshaped to cell_shape, counts record i's neighbors by their
        (target, prediction, sensitive) values.  One pass over the neighbor
        blocks fills it, one bincount per block as the block is produced, so
        no member list outlives its block.  Computed once per spec and cached
        read-only.
        """
        counts = self._counts.get(nspec)
        if counts is not None:
            return counts
        knn = nspec.mode == "knn"
        # knn blocks are sized for their (rows, k) outputs; the scan engine
        # splits them further into rows of width n
        step = _block_rows(nspec.k + 2 if knn else self.n)
        cells = int(np.prod(self.cell_shape))
        counts = np.empty((self.n, cells), dtype=np.int64)
        queries = np.arange(self.n, dtype=np.int64)
        for lo in range(0, self.n, step):
            q = queries[lo:lo + step]
            if knn:
                members = self._knn_block(q, nspec.k, nspec.include_self)[0].ravel()
                sizes = nspec.k
            else:
                offsets, members, _ = self._ball_block(q, nspec.radius, nspec.include_self)
                sizes = np.diff(offsets)
            owner = np.repeat(np.arange(len(q), dtype=np.int64) * cells, sizes)
            counts[lo:lo + len(q)] = np.bincount(
                owner + self._cells[members], minlength=len(q) * cells).reshape(len(q), cells)
        counts.flags.writeable = False
        self._counts[nspec] = counts
        return counts

    def _check_k(self, k: int, include_self: bool) -> None:
        if not (1 <= k <= self.n - (0 if include_self else 1)):
            raise InvalidParams(f"k={k} out of range for n={self.n}")

    def _knn_block(self, queries: np.ndarray, k: int, include_self: bool):
        # The one selection step for both engines.  An engine proposes each
        # row's kq + 1 nearest records, self included, with exact distances.
        # A row whose (kq+1)-th distance lies beyond the slack margin of its
        # other kq keeps those kq, in engine order.  Any other row is tied:
        # its largest kept distance r bounds its true k-th, so the ball of
        # radius r holds its k nearest, and one bulk ball query settles every
        # tied row exactly, in (distance, index) order.  The margin also covers
        # the rounding by which the tree's pruning metric may misorder
        # candidates.  Without self, kq is k + 1 and self is dropped; a row
        # whose kept kq lack self is tied.
        self._check_k(k, include_self)
        kq = k if include_self else k + 1
        members = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        engine = self._propose_tree if self._tree is not None else self._propose_scan
        for lo, cand, d in engine(queries, min(kq + 1, self.n)):
            q = queries[lo:lo + len(cand)]
            tied = np.zeros(len(q), dtype=bool)
            if cand.shape[1] > kq:
                tied = d[:, kq] <= d[:, :kq].max(axis=1) * (1.0 + _TREE_SLACK) + 1e-12
                cand, d = cand[:, :kq], d[:, :kq]
            if not include_self:
                is_self = cand == q[:, None]
                tied |= ~is_self.any(axis=1)
                keep = np.ones(cand.shape, dtype=bool)
                keep[np.arange(len(q)), is_self.argmax(axis=1)] = False
                cand, d = cand[keep].reshape(len(q), k), d[keep].reshape(len(q), k)
            members[lo:lo + len(q)] = cand
            dists[lo:lo + len(q)] = d
            tied_rows = lo + np.flatnonzero(tied)
            step = _block_rows(self.n)     # a ball of duplicates holds every record
            for t in range(0, len(tied_rows), step):
                rows = tied_rows[t:t + step]
                offsets, ball, d_ball = self._ball_block(queries[rows], dists[rows].max(axis=1),
                                                         include_self)
                owner = np.repeat(np.arange(len(rows)), np.diff(offsets))
                first_k = np.lexsort((ball, d_ball, owner))[offsets[:-1, None] + np.arange(k)]
                members[rows] = ball[first_k]
                dists[rows] = d_ball[first_k]
        return members, dists

    def _propose_scan(self, queries, width):
        # Each row's `width` nearest by the exact distance, the width-th last.
        # The block loop stays here rather than in the caller: a block's
        # arrays then live until the next block's are allocated, and the
        # allocator reuses their pages instead of returning and re-faulting
        # them on every block (measured 2x slower on a 4000-record mixed audit).
        step = _block_rows(self.n)
        for lo in range(0, len(queries), step):
            d = self.space.block_distances(queries[lo:lo + step])
            cand = np.argpartition(d, width - 1, axis=1)[:, :width]
            yield lo, cand, np.take_along_axis(d, cand, axis=1)

    def _propose_tree(self, queries, width):
        # Each row's `width` nearest under the pruning metric, which differs
        # from the exact distance only by rounding, then their exact distances.
        step = _block_rows(width)
        for lo in range(0, len(queries), step):
            q = queries[lo:lo + step]
            # reshaped because a query for one neighbor returns 1-D arrays
            cand = self._tree.query(self._coords[q], k=width, p=1.0,
                                    workers=1)[1].reshape(len(q), width)
            d = self.space.pair_distances(np.repeat(q, width), cand.ravel())
            yield lo, cand, d.reshape(cand.shape)

    def _ball_block(self, queries: np.ndarray, radius, include_self: bool):
        """Records within `radius` (a scalar or one per query) of each query.

        Returns CSR arrays (offsets, members, distances), each query's
        members in ascending index order with their exact distances.  The
        radius may be 0 (exact duplicates only).
        """
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), queries.shape)
        # the engines propose, per query, every record within the slack radius
        # with its exact distance; those distances then decide membership
        reach = radius * (1.0 + _TREE_SLACK) + 1e-12
        if self._tree is not None:
            cands = self._tree.query_ball_point(self._coords[queries], reach, p=1.0,
                                                workers=1, return_sorted=True)
            sizes = np.fromiter(map(len, cands), dtype=np.int64, count=len(queries))
            members = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.int64,
                                  count=sizes.sum())
            d = self.space.pair_distances(np.repeat(queries, sizes), members)
        else:
            d = self.space.block_distances(queries)
            inside = d <= reach[:, None]
            sizes = np.count_nonzero(inside, axis=1)
            flat = np.flatnonzero(inside)
            members = flat - np.repeat(np.arange(len(queries)) * self.n, sizes)
            d = d.ravel()[flat]
        keep = d <= np.repeat(radius, sizes)
        if not include_self:
            keep &= members != np.repeat(queries, sizes)
        offsets = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if keep.all():              # the common case: every proposal is a member
            return offsets, members, d
        kept = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return kept[offsets], members[keep], d[keep]


def build_index(dataset: Dataset, dist: DistanceSpec | None = None) -> NeighborIndex:
    """Build an immutable exact neighbor index over the dataset's features."""
    return NeighborIndex(dataset, dist)


@dataclass
class SoftResult:
    """Per-record soft audit of a feature-conditioned criterion."""

    criterion: CriterionSpec
    measure_kind: str            # 'mi' (local nats) or 'rate' (largest rate spread)
    epsilon: float               # local violation threshold
    delta: float                 # allowed violating fraction
    neighborhood: NeighborhoodSpec
    neighborhood_sizes: np.ndarray   # after conditioning-variable restriction
    local_values: np.ndarray         # nan where indeterminate
    violated: np.ndarray             # bool, always False where indeterminate
    indeterminate: np.ndarray        # bool
    satisfied_fraction: float        # non-violating / determinate
    indeterminate_fraction: float
    passed: bool
    min_neighborhood: int

    @property
    def flagged_indices(self) -> np.ndarray:
        return np.nonzero(self.violated)[0]


def soft_evaluate(
    dataset: Dataset,
    spec: CriterionSpec,
    nspec: NeighborhoodSpec,
    dist: DistanceSpec | None = None,
    measure_kind: str = "mi",
    epsilon: float = DEFAULT_EPSILON,
    delta: float = DEFAULT_DELTA,
    min_neighborhood: int = DEFAULT_MIN_NEIGHBORHOOD,
    index: NeighborIndex | None = None,
) -> SoftResult:
    """Audit a feature-conditioned criterion record by record.

    For every record: take its neighborhood, keep only members that share
    the record's own value of the non-feature conditioning variables (the
    observed target for individual equalized odds, the prediction for
    individual sufficiency), measure the local dependence between the
    criterion's outcome variable and the sensitive attribute over those
    members, and flag a violation when it exceeds epsilon.  Records whose
    restricted neighborhood is smaller than min_neighborhood are
    indeterminate: they are reported but excluded from the satisfied
    fraction's denominator.  The audit passes when
    satisfied_fraction >= 1 - delta.

    A shared `index` must have been built for this dataset (the same object
    or an equal one) and with the weights of `dist`; its neighbor counts
    carry that dataset's labels and that distance.
    """
    if "features" not in spec.given:
        raise GroupCriterion(f"criterion {spec.id!r} does not condition on features")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidParams("epsilon must be finite and positive")
    if not (0.0 <= delta < 1.0):
        raise InvalidParams("delta must be in [0, 1)")
    if min_neighborhood < 1:
        raise InvalidParams("min_neighborhood must be >= 1")
    if measure_kind not in SOFT_MEASURE_KINDS:
        raise InvalidParams(f"soft measure kind must be one of {SOFT_MEASURE_KINDS}")

    cond_tokens = [g for g in spec.given if g != "features"]
    other = {"target": "prediction", "prediction": "target"}.get(spec.left)
    if other is None or not set(cond_tokens) <= {other}:
        raise InvalidParams(f"criterion {spec.id!r}: a soft criterion measures the target or "
                            "the prediction, given the features and at most the other one")
    if index is None:
        index = build_index(dataset, dist)
    elif index.dataset is not dataset and not index.dataset.equals(dataset):
        raise InvalidParams("the neighbor index was built for a different dataset")
    elif not np.array_equal(index.space.weights,
                            (dist or DistanceSpec()).column_weights(index.space.column_names)):
        raise InvalidParams("the neighbor index was built with different distance weights")
    n = dataset.n

    # (n, Y, Ŷ, S) neighbor counts -> (n, other label, left, S); then keep the
    # record's own value of the other label when the criterion conditions on
    # it, else add its values up.  Integer sums, so every table is exact.
    table = index.cell_counts(nspec).reshape(n, *index.cell_shape)
    if spec.left == "target":
        table = table.swapaxes(1, 2)
    if cond_tokens:
        table = table[np.arange(n), dataset.column(other).codes]
    else:
        table = table.sum(axis=1)
    counts = np.ascontiguousarray(table, dtype=np.float64)
    cells = counts.shape[1] * counts.shape[2]
    tot = counts.sum(axis=(1, 2))
    sizes = tot.astype(np.int64)
    ok = tot > 0
    if measure_kind == "mi":
        with np.errstate(invalid="ignore", divide="ignore"):
            probs = counts / tot[:, None, None]
        # rows with an empty neighborhood get a placeholder uniform table;
        # their value is discarded below
        probs = np.where(ok[:, None, None], probs, 1.0 / cells)
        values = np.where(ok, mi_nats(probs), np.nan)
    else:
        values = np.where(ok, rate_gap(counts), np.nan)

    indeterminate = sizes < min_neighborhood
    values[indeterminate] = np.nan
    determinate_count = int((~indeterminate).sum())
    if determinate_count == 0:
        raise AllIndeterminate(
            f"every record's restricted neighborhood is below {min_neighborhood}"
        )
    violated = np.zeros(n, dtype=bool)
    det = ~indeterminate
    violated[det] = values[det] > epsilon
    satisfied = determinate_count - int(violated.sum())
    satisfied_fraction = satisfied / determinate_count
    return SoftResult(
        criterion=spec,
        measure_kind=measure_kind,
        epsilon=epsilon,
        delta=delta,
        neighborhood=nspec,
        neighborhood_sizes=sizes,
        local_values=values,
        violated=violated,
        indeterminate=indeterminate,
        satisfied_fraction=satisfied_fraction,
        indeterminate_fraction=1.0 - determinate_count / n,
        passed=satisfied_fraction >= 1.0 - delta,
        min_neighborhood=min_neighborhood,
    )
