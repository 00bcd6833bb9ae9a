"""Soft conditioning via feature-space neighborhoods.

Exact stratification compares records with identical feature vectors; for
continuous or high-cardinality features that leaves every stratum nearly
empty.  Here each record is instead compared against its neighborhood
(k nearest or all records within a distance ball), the local dependence
between the outcome and the sensitive attribute is measured inside the
neighborhood, and the audit passes when the fraction of non-violating
records is high enough.

Queries are exact: two proposers feed one selection step.  For a block of
queries an engine proposes each one's nearest records, or every record
within a reach, and the canonical distance kernel gives each candidate its
exact distance.  A KD-tree (Bentley, 1975) proposes for all-numeric
features, whose weighted scaled coordinates have L1 distance equal to the
record distance, and a scan for mixed ones.  The scan sorts the records
once on `FeatureSpace.sweep_key`, a weighted numeric column whose term
bounds the distance from below, and compares a block only with the
records in a key window that must hold their neighbors (Friedman, Baskett
and Shustek, 1975); where the key bounds little, that is the full O(n^2)
scan.  One step then selects: the k nearest under one tie rule, rows tied
at the k-th neighbor settled by one bulk ball query, and ball members by
their exact distance, so both engines give identical results.

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
import numbers
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


def _with_slack(distance):
    """A distance widened by the margin over rounding that every engine allows."""
    return distance * (1.0 + _TREE_SLACK) + 1e-12


def _block_rows(width: int) -> int:
    """Rows per block when each row carries `width` cells.

    Every chunked loop (kNN selection, ball queries, the count pass) sizes its
    blocks here, so one budget bounds their scratch memory.
    """
    return max(16, _BLOCK_CELLS // max(width, 1))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """knn(k) or ball(radius in (0, 1]), taken over all records.

    The record itself is one candidate like any other: a ball always holds
    it, and a kNN neighborhood holds it unless exact duplicates of it come
    first in (distance, index) order.
    """

    mode: str                  # 'knn' or 'ball'
    k: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.mode == "knn":
            if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral) or self.k < 1:
                raise InvalidParams("knn mode needs an integer k >= 1")
        elif self.mode == "ball":
            if (self.radius is None or isinstance(self.radius, (bool, np.bool_))
                    or not (0.0 < self.radius <= 1.0)):
                raise InvalidParams("ball mode needs a numeric radius in (0, 1]")
        else:
            raise InvalidParams(f"unknown neighborhood mode {self.mode!r}")


class NeighborIndex:
    """Immutable exact neighbor queries over a dataset's feature space."""

    def __init__(self, dataset: Dataset, dist: DistanceSpec | None = None, *,
                 engine: str | None = None):
        self.dataset = dataset
        self.space = FeatureSpace(dataset, dist)
        self.n = self.space.n
        # joint (Y, Ŷ, S) cell of every record: (y * |Ŷ| + ŷ) * |S| + s
        self.cell_shape = (dataset.y.arity, dataset.y_hat.arity, dataset.s.arity)
        self._cells = (dataset.y.codes * dataset.y_hat.arity
                       + dataset.y_hat.codes) * dataset.s.arity + dataset.s.codes
        self._counts: dict[NeighborhoodSpec, np.ndarray] = {}
        # the tree exactly when there are tree coordinates, unless `engine` names one
        coords = self.space.tree_coordinates()
        if engine == "scan" or (engine is None and coords is None):
            self.engine = _ScanEngine(self.space)
        elif engine in (None, "tree") and coords is not None:
            self.engine = _TreeEngine(self.space, coords)
        else:
            raise InvalidParams(f"no {engine!r} neighbor engine for these features")

    # -- single-record queries -------------------------------------------

    def knn(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest records to record i, ordered by (distance, record index)."""
        members, dists = self._knn_block(np.array([i]), k)
        order = np.lexsort((members[0], dists[0]))
        return members[0, order], dists[0, order]

    def ball(self, i: int, radius: float) -> np.ndarray:
        """All records within `radius` of record i, in ascending index order."""
        if not radius > 0:
            raise InvalidParams("radius must be positive")
        return self._ball_block(np.array([i]), radius)[1]

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
        # blocks are sized for their (rows, k) members or (rows, n) distances;
        # an engine may propose a kNN block in smaller blocks of its own
        step = _block_rows(nspec.k + 2 if knn else self.n)
        cells = int(np.prod(self.cell_shape))
        counts = np.empty((self.n, cells), dtype=np.int64)
        for lo in range(0, self.n, step):
            q = self.engine.order[lo:lo + step]
            if knn:
                members = self._knn_block(q, nspec.k)[0].ravel()
                sizes = nspec.k
            else:
                offsets, members, _ = self._ball_block(q, nspec.radius)
                sizes = np.diff(offsets)
            owner = np.repeat(np.arange(len(q), dtype=np.int64) * cells, sizes)
            counts[q] = np.bincount(
                owner + self._cells[members], minlength=len(q) * cells).reshape(len(q), cells)
        counts.flags.writeable = False
        self._counts[nspec] = counts
        return counts

    def _knn_block(self, queries: np.ndarray, k: int):
        # The one selection step for both engines.  An engine proposes each
        # row's k + 1 nearest records with exact distances.  A row whose
        # (k+1)-th distance lies beyond the slack margin of its other k keeps
        # those k, in engine order.  Any other row is tied: its largest kept
        # distance r bounds its true k-th, so the ball of radius r holds its
        # k nearest, and one bulk ball query settles every tied row exactly,
        # in (distance, index) order.  The margin also covers the rounding by
        # which the tree's pruning metric may misorder candidates.
        if not (1 <= k <= self.n):
            raise InvalidParams(f"k={k} out of range for n={self.n}")
        members = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        for block, cand, d in self.engine.propose_knn(queries, min(k + 1, self.n)):
            tied = np.zeros(len(cand), dtype=bool)
            if cand.shape[1] > k:
                tied = d[:, k] <= _with_slack(d[:, :k].max(axis=1))
                cand, d = cand[:, :k], d[:, :k]
            members[block] = cand
            dists[block] = d
            tied_rows = block[tied]
            step = _block_rows(self.n)     # a ball of duplicates holds every record
            for t in range(0, len(tied_rows), step):
                rows = tied_rows[t:t + step]
                offsets, ball, d_ball = self._ball_block(queries[rows], dists[rows].max(axis=1))
                owner = np.repeat(np.arange(len(rows)), np.diff(offsets))
                first_k = np.lexsort((ball, d_ball, owner))[offsets[:-1, None] + np.arange(k)]
                members[rows] = ball[first_k]
                dists[rows] = d_ball[first_k]
        return members, dists

    def _ball_block(self, queries: np.ndarray, radius):
        """Records within `radius` (a scalar or one per query) of each query.

        Returns CSR arrays (offsets, members, distances), each query's
        members in ascending index order with their exact distances.  The
        radius may be 0 (exact duplicates only).
        """
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), queries.shape)
        # the engine proposes, per query, every record within the slack radius
        # with its exact distance; those distances then decide membership
        sizes, members, d = self.engine.propose_ball(queries, _with_slack(radius))
        keep = d <= np.repeat(radius, sizes)
        offsets = np.zeros(len(queries) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if keep.all():              # the common case: every proposal is a member
            return offsets, members, d
        kept = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return kept[offsets], members[keep], d[keep]


class _TreeEngine:
    """Candidates from a KD-tree over `FeatureSpace.tree_coordinates`."""

    def __init__(self, space: FeatureSpace, coords: np.ndarray):
        self.space = space
        self.order = np.arange(space.n, dtype=np.int64)
        self._kdtree = cKDTree(coords)     # its `data` are the coordinates

    def propose_knn(self, queries, width):
        # Each row's `width` nearest under the pruning metric (the exact
        # distance up to rounding), with exact distances and row positions.
        step = _block_rows(width)
        for lo in range(0, len(queries), step):
            q = queries[lo:lo + step]
            # reshaped because a query for one neighbor returns 1-D arrays
            cand = self._kdtree.query(self._kdtree.data[q], k=width, p=1.0,
                                      workers=1)[1].reshape(len(q), width)
            d = self.space.pair_distances(np.repeat(q, width), cand.ravel())
            yield np.arange(lo, lo + len(q)), cand, d.reshape(cand.shape)

    def propose_ball(self, queries, reach):
        cands = self._kdtree.query_ball_point(self._kdtree.data[queries], reach, p=1.0,
                                              workers=1, return_sorted=True)
        sizes = np.fromiter(map(len, cands), dtype=np.int64, count=len(queries))
        members = np.fromiter(itertools.chain.from_iterable(cands), dtype=np.int64,
                              count=sizes.sum())
        return sizes, members, self.space.pair_distances(np.repeat(queries, sizes), members)


class _ScanEngine:
    """Candidates from block scans, pruned by a sweep on `FeatureSpace.sweep_key`."""

    def __init__(self, space: FeatureSpace):
        self.space = space
        self.n = space.n
        self._key = space.sweep_key()
        # queries go in key order, so that a block's rows share one window
        self.order = (np.arange(self.n, dtype=np.int64) if self._key is None
                      else np.argsort(self._key, kind="stable"))
        self._sorted_key = None if self._key is None else self._key[self.order]
        # one flat buffer for every scan block: a fresh block-sized array
        # costs more in page faults than the kernel spends on arithmetic (a
        # 4000-record mixed audit's block temporaries took about 89,000 minor
        # faults, the reused buffer about 4,200)
        self._buf = np.empty(_block_rows(self.n) * self.n)

    def propose_knn(self, queries, width):
        # Each row's `width` nearest by the exact distance, the width-th last,
        # yielded with the rows' positions in `queries`.  Without a sweep key
        # every block scans all records.  With one, a block scans only the
        # key-sorted records in a window around its rows' keys, widened by
        # the reach the previous block needed.  A row is accepted when every
        # record whose key lies within its width-th distance (with the tie
        # slack) of its own is in the window: any record outside is farther
        # than all of its picks.  The other rows are retried once over the
        # hull of those key ranges, which holds their true nearest.
        step = _block_rows(self.n)
        reach = None
        for lo in range(0, len(queries), step):
            rows = np.arange(lo, min(lo + step, len(queries)))
            if self._key is None or reach is None:
                # with a key, the first row's full scan sets the first reach
                full = rows if self._key is None else rows[:1]
                cand, d = self._nearest(queries[full], None, width)
                yield full, cand, d
                reach = _with_slack(d.max())
                rows = rows[len(full):]
                if not len(rows):
                    continue
            q = queries[rows]
            kq = self._key[q]
            a, b = self._key_window(kq.min() - reach, kq.max() + reach, width)
            cand, d = self._nearest(q, self.order[a:b], width)
            r = _with_slack(d.max(axis=1))
            reach = r.max()
            if b - a == self.n:         # the full scan settles every row
                yield rows, cand, d
                continue
            ok = ((np.searchsorted(self._sorted_key, kq - r, "left") >= a)
                  & (np.searchsorted(self._sorted_key, kq + r, "right") <= b))
            yield rows[ok], cand[ok], d[ok]
            if not ok.all():
                retry = ~ok
                a, b = self._key_window((kq - r)[retry].min(), (kq + r)[retry].max(), width)
                cand, d = self._nearest(q[retry], self.order[a:b], width)
                r[retry] = _with_slack(d.max(axis=1))
                reach = r.max()
                yield rows[retry], cand, d

    def propose_ball(self, queries, reach):
        # with a sweep key, only records whose key lies within some query's
        # reach can be members: scan that window, in index order
        records = None
        if self._key is not None:
            kq = self._key[queries]
            a, b = self._key_window((kq - reach).min(), (kq + reach).max())
            records = None if b - a == self.n else np.sort(self.order[a:b])
        d = self._scan(queries, records)
        inside = d <= reach[:, None]
        sizes = np.count_nonzero(inside, axis=1)
        flat = np.flatnonzero(inside)
        members = flat - np.repeat(np.arange(len(queries)) * d.shape[1], sizes)
        if records is not None:
            members = records[members]
        return sizes, members, d.ravel()[flat]

    def _nearest(self, queries, records, width):
        # each query's `width` nearest of `records` (all records when None)
        # and their distances; take_along_axis copies the distances out of
        # the buffer before the next block overwrites it
        if records is not None and len(records) == self.n:
            records = None
        d = self._scan(queries, records)
        local = np.argpartition(d, width - 1, axis=1)[:, :width]
        d = np.take_along_axis(d, local, axis=1)
        return (local if records is None else records[local]), d

    def _key_window(self, lo, hi, width=1):
        # key-sorted positions [a, b) of the records with key in [lo, hi],
        # widened to at least `width` records; a window over most records
        # costs about what the full scan does, so it becomes (0, n)
        a = int(np.searchsorted(self._sorted_key, lo, "left"))
        b = int(np.searchsorted(self._sorted_key, hi, "right"))
        if b - a < width:
            a = max(0, min(a, self.n - width))
            b = a + width
        return (0, self.n) if 2 * (b - a) > self.n else (a, b)

    def _scan(self, queries, records):
        # distances from the queries to `records` (all when None), written
        # into the leading cells of the buffer when they fit there
        width = self.n if records is None else len(records)
        fits = len(queries) * width <= len(self._buf)
        out = self._buf[:len(queries) * width].reshape(len(queries), width) if fits else None
        return self.space.block_distances(queries, records=records, out=out)


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


def check_soft_params(measure_kind: str, epsilon: float, delta: float,
                      min_neighborhood: int) -> None:
    """Raise InvalidParams unless these soft-evaluation parameters are valid.

    epsilon must be finite and positive, delta in [0, 1), min_neighborhood
    at least 1 and the measure kind one of SOFT_MEASURE_KINDS.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidParams("epsilon must be finite and positive")
    if not (0.0 <= delta < 1.0):
        raise InvalidParams("delta must be in [0, 1)")
    if min_neighborhood < 1:
        raise InvalidParams("min_neighborhood must be >= 1")
    if measure_kind not in SOFT_MEASURE_KINDS:
        raise InvalidParams(f"soft measure kind must be one of {SOFT_MEASURE_KINDS}")


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
    check_soft_params(measure_kind, epsilon, delta, min_neighborhood)

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
