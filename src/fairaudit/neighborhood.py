"""Soft conditioning via feature-space neighborhoods.

Exact stratification compares records with identical feature vectors; for
continuous or high-cardinality features that leaves every stratum nearly
empty.  Here each record is instead compared against its neighborhood
(k nearest or all records within a distance ball), the local dependence
between the outcome and the sensitive attribute is measured inside the
neighborhood, and the audit passes when the fraction of non-violating
records is high enough.

Queries are exact.  For pure-numeric features a KD-tree prunes candidates
(L1 metric on weighted scaled coordinates equals the record distance), but
final membership is always decided by the canonical distance kernel, so
tree-backed and linear-scan results are identical.  Each engine only
proposes candidates for a whole block of records; one selection step picks
the k nearest, and rows with a tie at the k-th neighbor are settled by one
bulk ball query.

A NeighborIndex passes over every record's neighborhood once per
neighborhood spec and keeps only counts: how many of the record's neighbors
fall in each joint (target, prediction, sensitive) cell.  The soft criteria
of one audit (isp, ftu, ieo, isuff) differ only in which of those cells they
add up, so they share that one pass and slice its (n, cells) array.  Member
lists are never kept, so memory stays O(n * cells) at any radius.
"""

from __future__ import annotations

import itertools
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

_TREE_MIN_RECORDS = 1024     # below this a linear scan wins
_TREE_SLACK = 1e-9           # relative candidate-radius inflation over the pruning metric
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
        self._tree = None
        if self.space.pure_numeric and self.n >= _TREE_MIN_RECORDS:
            self._coords = self.space.tree_coordinates()
            self._tree = cKDTree(self._coords)

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
                offsets, members = self._ball_block(q, nspec.radius, nspec.include_self)
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
        # The engine yields, per block, k candidates per row with their exact
        # distances.  An untied row's candidates are its k nearest, kept in
        # engine order.  A tied row's largest candidate distance r bounds its
        # true k-th, so the ball of radius r holds its k nearest; one bulk
        # ball query settles every tied row exactly, in (distance, index) order.
        self._check_k(k, include_self)
        members = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        engine = self._knn_tree if self._tree is not None else self._knn_linear
        for lo, cand, d, tied in engine(queries, k, include_self):
            members[lo:lo + len(cand)] = cand
            dists[lo:lo + len(cand)] = d
            tied_rows = lo + np.flatnonzero(tied)
            step = _block_rows(self.n)     # a ball of duplicates holds every record
            for t in range(0, len(tied_rows), step):
                rows = tied_rows[t:t + step]
                offsets, ball = self._ball_block(queries[rows], dists[rows].max(axis=1),
                                                 include_self)
                owner = np.repeat(np.arange(len(rows)), np.diff(offsets))
                d_ball = self.space.pair_distances(queries[rows][owner], ball)
                first_k = np.lexsort((ball, d_ball, owner))[offsets[:-1, None] + np.arange(k)]
                members[rows] = ball[first_k]
                dists[rows] = d_ball[first_k]
        return members, dists

    def _knn_linear(self, queries, k, include_self):
        # The k+1 smallest distances of each row settle its k nearest unless
        # the (k+1)-th ties the largest of the other k.  The block loop stays
        # here rather than in the caller: a block's arrays then live until the
        # next block's are allocated, and the allocator reuses their pages
        # instead of returning and re-faulting them on every block (measured
        # 2x slower on a 4000-record mixed audit).
        width = min(k + 1, self.n)
        step = _block_rows(self.n)
        for lo in range(0, len(queries), step):
            q = queries[lo:lo + step]
            d = self.space.block_distances(q)
            if not include_self:
                d[np.arange(len(q)), q] = np.inf
            cand = np.argpartition(d, width - 1, axis=1)[:, :width]
            cand_d = np.take_along_axis(d, cand, axis=1)
            if width == k:
                tied = np.zeros(len(q), dtype=bool)
            else:
                tied = cand_d[:, k] == cand_d[:, :k].max(axis=1)
            yield lo, cand[:, :k], cand_d[:, :k], tied

    def _knn_tree(self, queries, k, include_self):
        # One tree query returns each row's kq nearest plus the next one.  When
        # that extra neighbor lies beyond the slack radius of the kq-th, the kq
        # are exactly the records the radius admits.  Otherwise (a tie under
        # the pruning metric, or self excluded but not among the kq) the row
        # is marked tied.  With self excluded the kq = k + 1 candidates lose
        # their farthest: self, at inf, on every untied row.
        kq = k if include_self else k + 1
        step = _block_rows(kq + 1)
        for lo in range(0, len(queries), step):
            q = queries[lo:lo + step]
            tree_d, cand = self._tree.query(self._coords[q], k=kq + 1, p=1.0, workers=1)
            cand = cand[:, :kq]
            owners = np.broadcast_to(q[:, None], cand.shape)
            d = self.space.pair_distances(owners.ravel(), cand.ravel()).reshape(cand.shape)
            is_self = cand == owners
            if not include_self:
                d[is_self] = np.inf
            # the second slack factor absorbs rounding differences between the
            # tree's nearest-neighbor and radius searches
            radius = tree_d[:, kq - 1] * (1.0 + _TREE_SLACK) + 1e-12
            tied = tree_d[:, kq] <= radius * (1.0 + _TREE_SLACK)
            if not include_self:
                tied |= ~is_self.any(axis=1)
                keep = np.ones(cand.shape, dtype=bool)
                keep[np.arange(len(q)), d.argmax(axis=1)] = False
                cand, d = cand[keep].reshape(len(q), k), d[keep].reshape(len(q), k)
            yield lo, cand, d, tied

    def _ball_block(self, queries: np.ndarray, radius, include_self: bool):
        """Records within `radius` (a scalar or one per query) of each query.

        Returns CSR arrays (offsets, members), each query's members in
        ascending index order.  The radius may be 0 (exact duplicates only).
        """
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), queries.shape)
        if self._tree is not None:
            cands = self._tree.query_ball_point(
                self._coords[queries], radius * (1.0 + _TREE_SLACK) + 1e-12, p=1.0,
                workers=1, return_sorted=True)
            sizes = np.fromiter(map(len, cands), dtype=np.int64, count=len(queries))
            members = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.int64,
                                  count=sizes.sum())
            row = np.repeat(np.arange(len(queries)), sizes)
            owner = queries[row]
            keep = self.space.pair_distances(owner, members) <= radius[row]
            if not include_self:
                keep &= members != owner
            members = members[keep]
            sizes = np.bincount(row[keep], minlength=len(queries))
        else:
            inside = self.space.block_distances(queries) <= radius[:, None]
            if not include_self:
                inside[np.arange(len(queries)), queries] = False
            sizes = inside.sum(axis=1)
            members = np.flatnonzero(inside) - np.repeat(np.arange(len(queries)) * self.n, sizes)
        offsets = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return offsets, members


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
    or an equal one); its neighbor counts carry that dataset's labels.
    """
    if "features" not in spec.given:
        raise GroupCriterion(f"criterion {spec.id!r} does not condition on features")
    if epsilon <= 0:
        raise InvalidParams("epsilon must be positive")
    if not (0.0 <= delta < 1.0):
        raise InvalidParams("delta must be in [0, 1)")
    if min_neighborhood < 1:
        raise InvalidParams("min_neighborhood must be >= 1")
    if measure_kind not in ("mi", "rate"):
        raise InvalidParams("soft measure kind must be 'mi' or 'rate'")

    cond_tokens = [g for g in spec.given if g != "features"]
    other = {"target": "prediction", "prediction": "target"}.get(spec.left)
    if other is None or not set(cond_tokens) <= {other}:
        raise InvalidParams(f"criterion {spec.id!r}: a soft criterion measures the target or "
                            "the prediction, given the features and at most the other one")
    if index is None:
        index = build_index(dataset, dist)
    elif index.dataset is not dataset and not index.dataset.equals(dataset):
        raise InvalidParams("the neighbor index was built for a different dataset")
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
