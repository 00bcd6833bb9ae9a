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
exact distance.  Both index weighted scaled numeric columns
(`FeatureSpace.coordinates`).  All-numeric features have one per
positive weight, and their L1 distance equals the record distance; over
three or more a KD-tree proposes (Bentley, 1975).  Every other feature set
is cut into strips over one or two coordinates (the cell method of
Bentley, Stanat and Williams, 1977): all-numeric ones over their own, and
mixed ones over their heaviest numeric columns, whose L1 distance bounds
the record distance from below, so the strips a ball meets still hold all
of its members.  Those strips are ranked by the exact kernel, and where
they bound little that is the full O(n^2) scan.  One step then selects:
the k nearest under one tie rule, rows tied at the k-th neighbor settled
by one bulk ball query, and ball members by their exact distance, so every
engine gives identical results.

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

from .criteria import CriterionSpec
from .dataset import Dataset
from .distance import DistanceSpec, FeatureSpace, short_row_buffers
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
_GRID_ROWS = 64              # queries per block that the grid engine's strips are shaped for
_STRIP_SHIFT = 4.0           # key offset between strips: [-1, 2] bounds of two strips stay apart


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
        # the tree for three or more coordinates whose L1 is the distance,
        # the strips for any other feature set, unless `engine` names one
        coords, exact = self.space.coordinates()
        if engine is None:
            engine = "tree" if exact and coords.shape[1] > 2 else "grid"
        if engine == "grid":
            self.engine = _GridEngine(self.space, coords, exact)
        elif engine == "tree" and exact:
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


def _within(d, reach, records=None):
    """Ball proposals from a (queries, records) block of distances `d`.

    CSR (sizes, members, distances) of the cells within each query's reach,
    every query's members in the order of `records` (all records when None).
    """
    inside = d <= reach[:, None]
    sizes = np.count_nonzero(inside, axis=1)
    flat = np.flatnonzero(inside)
    members = flat - np.repeat(np.arange(len(d)) * d.shape[1], sizes)
    if records is not None:
        members = records[members]
    return sizes, members, d.ravel()[flat]


class _TreeEngine:
    """Candidates from a KD-tree over `FeatureSpace.coordinates` whose L1 is the distance."""

    def __init__(self, space: FeatureSpace, coords: np.ndarray):
        from scipy.spatial import cKDTree    # here, so that only this engine loads scipy
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


class _GridEngine:
    """Candidates from strips over one or two of `FeatureSpace.coordinates`.

    The records are cut into strips of consecutive coordinate-0 rank and
    sorted on their last coordinate within each strip: the cell method for
    fixed-radius neighbors (Bentley, Stanat and Williams, 1977), or in one
    coordinate a single sorted sweep, the projection search of Friedman,
    Baskett and Shustek (1975).  `order` is that sort, and the coordinates
    are kept permuted into it, so the records a query can reach in a strip
    are one contiguous run of positions.  A record of a strip lies at least
    the strip's coordinate-0 gap from a query, so an L1 ball reaches into
    each strip only as far as its radius exceeds that gap: a ball about a
    far outlier meets few strips, and those narrowly.

    The coordinates' L1 distance is the record distance (`exact`) or a lower
    bound of it, so the runs that a ball meets hold all of its members
    either way.  With `exact`, candidates are ranked by L1 (the distance up
    to rounding) and take their exact distances from `pair_distances`, as
    the tree's do.  Otherwise the runs are ranked by exact
    `block_distances`, and runs over more than half the records are
    scanned as all records, which costs about the same.
    """

    def __init__(self, space: FeatureSpace, coords: np.ndarray, exact: bool):
        self.space = space
        self._exact = exact
        n, dims = coords.shape
        # strips of sqrt(n * _GRID_ROWS) records: a block of that many
        # consecutive queries is then about as wide as it is tall
        self._height = n if dims == 1 else max(1, math.isqrt(n * _GRID_ROWS))
        strip = np.empty(n, dtype=np.int64)
        strip[np.argsort(coords[:, 0], kind="stable")] = np.arange(n) // self._height
        self.order = np.lexsort((coords[:, -1], strip))
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self.order] = np.arange(n)
        self._coords = np.ascontiguousarray(coords[self.order].T)     # (dims, n)
        self._starts = np.arange(0, n, self._height)
        self._stops = np.minimum(self._starts + self._height, n)
        # one flat buffer for every block of distances: a fresh block-sized
        # array costs more in page faults than the kernel spends on
        # arithmetic (a 4000-record mixed audit's block temporaries took
        # about 89,000 minor faults, a reused buffer about 4,200).  L1
        # ranking takes two blocks of the cell budget, for the sum and its
        # column terms; the kernel takes one ball block of the count pass,
        # _block_rows(n) rows of n cells
        self._buf = np.empty(2 * _BLOCK_CELLS if exact else _block_rows(n) * n)
        # the kernel costs about as much over more than half the records as
        # over all of them, which need no sorted window, and coordinates
        # that are all equal bound nothing (-1: every window is all
        # records); L1 ranking keeps its windows
        self._whole = np.inf if exact else n / 2 if np.ptp(coords, axis=0).any() else -1
        # each strip's coordinate-0 range and the first and last of its
        # sorted last coordinate
        self._strip_lo = np.minimum.reduceat(self._coords[0], self._starts)
        self._strip_hi = np.maximum.reduceat(self._coords[0], self._starts)
        self._key_lo = self._coords[-1, self._starts]
        self._key_hi = self._coords[-1, self._stops - 1]
        # the last coordinate, in [0, 1], plus _STRIP_SHIFT times the strip
        # number: one sorted array in which every strip's run is found at
        # once.  The bounds of a strip that a ball meets hold that query's
        # own key, so lo <= 1 and hi >= 0, and clipped to [-1, 2] and
        # shifted alike they stay off the other strips.  Rounding is
        # monotone, so a shifted bound never drops a record within it.
        self._shifted = self._coords[-1] + _STRIP_SHIFT * (np.arange(n) // self._height)

    def propose_knn(self, queries, width):
        # Each row's `width` nearest, the width-th last, with exact
        # distances, yielded with the rows' positions in `queries`.  Rows go
        # in strip order, in blocks of the cell budget that stay within one
        # strip, so each block is compact.  A block scans the balls about
        # its rows with the radius the previous block carried: the largest
        # that it accepted, or the smallest that it retried if it accepted
        # none.  A strip's first block takes the smallest radius carried so
        # far, so that tail rows at a strip's end do not widen the next
        # strip.  A row is accepted when the ball of radius r about it, r its
        # width-th distance with the tie slack, lies inside the scanned
        # region: every record outside is farther than all of its picks.
        # The other rows are retried once over their own balls, which hold
        # their true nearest.
        rank = self._rank[queries]
        by_rank = np.argsort(rank, kind="stable")
        strip_ends = np.append(np.flatnonzero(np.diff(rank[by_rank] // self._height)) + 1,
                               len(queries))
        start, step, low = 0, _block_rows(len(self.order)), np.inf
        for end in strip_ends:
            reach = 0.0 if low == np.inf else low
            while start < end:
                rows = by_rank[start:min(start + step, end)]
                start += len(rows)
                q, qc = queries[rows], self._coords[:, rank[rows]]
                cand, d, lo, hi, size = self._nearest(q, qc, reach, width)
                step = min(_GRID_ROWS, _block_rows(size))
                r = _with_slack(d.max(axis=1))
                ok = self._settled(qc, r, lo, hi)
                if ok.all():
                    yield rows, cand, d
                    reach = r.max()
                else:
                    yield rows[ok], cand[ok], d[ok]
                    cand, d = self._nearest(q[~ok], qc[:, ~ok], r[~ok], width)[:2]
                    yield rows[~ok], cand, d
                    # the largest radius accepted, or the smallest retried if none was
                    reach = r[ok].max() if ok.any() else _with_slack(d.max(axis=1).min())
                low = min(low, reach)

    def propose_ball(self, queries, reach):
        # the records that the queries' balls meet, in index order, that lie
        # within their reach
        qc = self._coords[:, self._rank[queries]]
        pos = self._window(qc, reach)[0]
        records = None if pos is None else np.sort(self.order[pos])
        return _within(self._distances(queries, records), reach, records)

    def _nearest(self, queries, qc, radius, width):
        # Each query's `width` nearest among the records that the balls of
        # `radius` about the queries meet, the radius doubled until they
        # hold that many, with exact distances; also the last coordinate's
        # bounds scanned in each strip (None when every record was) and the
        # number of records scanned.
        while True:
            pos, lo, hi = self._window(qc, radius)
            if pos is None or len(pos) >= width:
                break
            radius = np.maximum(2 * radius, np.ptp(qc, axis=1).sum() + _with_slack(0.0))
        if self._exact:
            local = np.argpartition(self._l1(qc, pos), width - 1, axis=1)[:, :width]
            cand = self.order[pos[local]]
            d = self.space.pair_distances(np.repeat(queries, width), cand.ravel())
            return cand, d.reshape(cand.shape), lo, hi, len(pos)
        records = None if pos is None else self.order[pos]
        if records is None:
            lo = hi = None
        size = len(self.order) if records is None else len(records)
        cand = np.empty((len(queries), width), dtype=np.int64)
        d = np.empty(cand.shape)
        # ranked in pieces of the count pass's ball block rows, which the
        # buffer holds at any width, so that the kernel's column term and
        # the partition's indices stay as small as that block's
        step = _block_rows(len(self.order))
        for at in range(0, len(queries), step):
            block = self._distances(queries[at:at + step], records)
            local = np.argpartition(block, width - 1, axis=1)[:, :width]
            cand[at:at + step] = local if records is None else records[local]
            d[at:at + step] = np.take_along_axis(block, local, axis=1)
        return cand, d, lo, hi, size

    def _distances(self, queries, records):
        # exact distances from the queries to `records` (all records when
        # None), written into the leading cells of the buffer when they fit
        width = len(self.order) if records is None else len(records)
        size = len(queries) * width
        out = self._buf[:size].reshape(len(queries), width) if size <= len(self._buf) else None
        return self.space.block_distances(queries, records, out)

    def _settled(self, qc, radius, lo, hi):
        # which queries' balls of `radius` lie inside the bounds [lo, hi]
        # scanned in each strip: all of them when every record was scanned
        # (lo None)
        if lo is None:
            return np.ones(len(radius), dtype=bool)
        rest = self._rest(qc, radius)
        # a bound past the strip's first or last record excludes nothing
        lo = np.where(lo <= self._key_lo, -np.inf, lo)[:, None]
        hi = np.where(hi >= self._key_hi, np.inf, hi)[:, None]
        return ((rest < 0) | ((qc[-1] - rest >= lo) & (qc[-1] + rest <= hi))).all(axis=0)

    def _rest(self, qc, radius):
        # (strips, queries): how far the ball of `radius` about each query
        # reaches along the last coordinate in each strip, negative where it
        # misses the strip
        gap = np.maximum(self._strip_lo[:, None] - qc[0], qc[0] - self._strip_hi[:, None])
        return radius - np.maximum(gap, 0.0)

    def _window(self, qc, radius):
        # Strip-order positions of the records that the queries' balls of
        # `radius` meet, found for all strips at once in the shifted keys,
        # and per strip the hull [lo, hi] of the last coordinate's ranges
        # that the balls meet there (lo > hi where none does).  Positions
        # None (all records) when they are more than `_whole`, and bounds
        # None too when the coordinates bound nothing.
        if self._whole < 0:
            return None, None, None
        rest = self._rest(qc, radius)
        meets = rest >= 0
        lo = np.where(meets, qc[-1] - rest, np.inf).min(axis=1)
        hi = np.where(meets, qc[-1] + rest, -np.inf).max(axis=1)
        strips = np.flatnonzero(lo <= hi)
        shift = _STRIP_SHIFT * strips
        a = np.searchsorted(self._shifted, np.maximum(lo[strips], -1.0) + shift, "left")
        b = np.searchsorted(self._shifted, np.minimum(hi[strips], 2.0) + shift, "right")
        sizes = b - a
        total = sizes.sum()
        if total > self._whole:
            return None, lo, hi
        return np.repeat(a + sizes - np.cumsum(sizes), sizes) + np.arange(total), lo, hi

    def _l1(self, qc, pos):
        # (queries, len(pos)) L1 over the coordinates, written into the
        # buffer when it fits there
        shape = (qc.shape[1], len(pos))
        size = shape[0] * shape[1]
        if 2 * size <= len(self._buf):
            l1, term = self._buf[:size].reshape(shape), self._buf[size:2 * size].reshape(shape)
        else:
            l1, term = np.empty(shape), np.empty(shape)
        with short_row_buffers():
            for t, (qcol, col) in enumerate(zip(qc, self._coords[:, pos])):
                dst = l1 if t == 0 else term
                np.subtract(qcol[:, None], col, out=dst)
                np.abs(dst, out=dst)
                if t:
                    l1 += term
        return l1


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
