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

A NeighborIndex computes every record's neighborhood once per
neighborhood spec and caches it, so the soft criteria of one audit (isp,
ftu, ieo, isuff), which differ only in how they restrict and count the
members, share one neighbor query.  Ball neighborhoods are cached only up
to a fixed member budget; past it (a large radius admits up to n^2
members) they are queried afresh block by block for each criterion, so
memory stays bounded at any radius.
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
_BALL_MEMO_CELLS = 1 << 22   # ball members cached per spec (32 MiB); larger sets are streamed


def _block_rows(width: int) -> int:
    """Rows per block when each row carries `width` cells.

    Every chunked loop (kNN selection, ball queries, local counts) sizes its
    blocks here, so one budget bounds their scratch memory.
    """
    return max(16, _BLOCK_CELLS // max(width, 1))


def _join_blocks(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate consecutive CSR blocks (lo, offsets, members) into one."""
    starts = np.cumsum([0] + [len(members) for _, _, members in blocks])
    offsets = [offs[:-1] + start for (_, offs, _), start in zip(blocks, starts)]
    return (np.concatenate(offsets + [starts[-1:]]).astype(np.int64),
            np.concatenate([members for _, _, members in blocks]))


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
        self.space = FeatureSpace(dataset, dist)
        self.n = self.space.n
        self._tree = None
        self._hoods: dict[NeighborhoodSpec, tuple[np.ndarray, np.ndarray]] = {}
        if self.space.pure_numeric and self.n >= _TREE_MIN_RECORDS:
            self._coords = self.space.tree_coordinates()
            self._tree = cKDTree(self._coords)

    # -- single-record queries -------------------------------------------

    def knn(self, i: int, k: int, include_self: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """k nearest records to record i, ordered by (distance, record index)."""
        members, dists = self._knn_block(np.array([i]), k, include_self)
        return members[0], dists[0]

    def ball(self, i: int, radius: float, include_self: bool = True) -> np.ndarray:
        """All records within `radius` of record i, in ascending index order."""
        if radius <= 0:
            raise InvalidParams("radius must be positive")
        return self._ball_block(np.array([i]), radius, include_self)[1]

    # -- batched queries ----------------------------------------------------

    def neighborhoods(self, nspec: NeighborhoodSpec) -> tuple[np.ndarray, np.ndarray]:
        """Every record's neighborhood as CSR arrays (offsets, members).

        Record i's neighborhood is members[offsets[i]:offsets[i + 1]], ordered
        by (distance, record index) in knn mode and by record index in ball
        mode.  Cached arrays are read-only.  This holds every member at once
        (up to n^2 in ball mode); soft_evaluate streams neighborhood_blocks
        instead.
        """
        blocks = list(self.neighborhood_blocks(nspec))
        hoods = self._hoods.get(nspec)
        return hoods if hoods is not None else _join_blocks(blocks)

    def neighborhood_blocks(self, nspec: NeighborhoodSpec):
        """Yield every record's neighborhood as consecutive CSR blocks.

        Each block is (lo, offsets, members): record lo + j's neighborhood is
        members[offsets[j]:offsets[j + 1]].  knn lists (n * k members) are
        computed once per spec and cached, so the soft criteria of one audit
        share them.  Ball lists are cached only while their total stays within
        _BALL_MEMO_CELLS members; a larger ball set is queried afresh, block
        by block, on every pass, so memory stays bounded whatever the radius.
        """
        hoods = self._hoods.get(nspec)
        if hoods is None and nspec.mode == "knn":
            hoods = self._memo(nspec, self._knn_lists(nspec.k, nspec.include_self))
        if hoods is not None:
            offsets, members = hoods
            step = _block_rows(len(members) // max(self.n, 1))
            for lo in range(0, self.n, step):
                hi = min(lo + step, self.n)
                yield lo, offsets[lo:hi + 1] - offsets[lo], members[offsets[lo]:offsets[hi]]
            return
        kept, total = [], 0
        queries = np.arange(self.n, dtype=np.int64)
        step = _block_rows(self.n)
        for lo in range(0, self.n, step):
            block = (lo, *self._ball_block(queries[lo:lo + step], nspec.radius,
                                           nspec.include_self))
            yield block
            total += len(block[2])
            if total > _BALL_MEMO_CELLS:
                kept = None
            elif kept is not None:
                kept.append(block)
        if kept is not None:
            self._memo(nspec, _join_blocks(kept))

    def _memo(self, nspec: NeighborhoodSpec, hoods: tuple[np.ndarray, np.ndarray]):
        for arr in hoods:
            arr.flags.writeable = False
        self._hoods[nspec] = hoods
        return hoods

    def _knn_lists(self, k: int, include_self: bool) -> tuple[np.ndarray, np.ndarray]:
        self._check_k(k, include_self)
        members = np.empty((self.n, k), dtype=np.int64)
        queries = np.arange(self.n, dtype=np.int64)
        step = _block_rows(k + 2)    # sized for the (rows, k) outputs; the scan
                                     # engine splits further into rows of width n
        for lo in range(0, self.n, step):
            members[lo:lo + step] = self._knn_block(queries[lo:lo + step], k, include_self)[0]
        return np.arange(self.n + 1, dtype=np.int64) * k, members.ravel()

    def _check_k(self, k: int, include_self: bool) -> None:
        if not (1 <= k <= self.n - (0 if include_self else 1)):
            raise InvalidParams(f"k={k} out of range for n={self.n}")

    def _knn_block(self, queries: np.ndarray, k: int, include_self: bool):
        # The engine yields, per block, at least k candidates per row with
        # their exact distances (self at inf when excluded).  Untied rows keep
        # their first k by (distance, index).  A tied row's k-th candidate
        # distance r bounds its true k-th, so the ball of radius r holds its
        # k nearest; one bulk ball query settles every tied row exactly.
        self._check_k(k, include_self)
        members = np.empty((len(queries), k), dtype=np.int64)
        dists = np.empty((len(queries), k))
        engine = self._knn_tree if self._tree is not None else self._knn_linear
        for lo, cand, d, tied in engine(queries, k, include_self):
            order = np.lexsort((cand, d), axis=-1)[:, :k]
            members[lo:lo + len(cand)] = np.take_along_axis(cand, order, axis=1)
            dists[lo:lo + len(cand)] = np.take_along_axis(d, order, axis=1)
            tied_rows = lo + np.flatnonzero(tied)
            step = _block_rows(self.n)     # a ball of duplicates holds every record
            for t in range(0, len(tied_rows), step):
                rows = tied_rows[t:t + step]
                offsets, ball = self._ball_block(queries[rows], dists[rows, k - 1], include_self)
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
            yield lo, cand, cand_d, tied

    def _knn_tree(self, queries, k, include_self):
        # One tree query returns each row's kq nearest plus the next one.  When
        # that extra neighbor lies beyond the slack radius of the kq-th, the kq
        # are exactly the records the radius admits.  Otherwise (a tie under
        # the pruning metric, or self excluded but not among the kq) the row
        # is marked tied.
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

    if index is None:
        index = build_index(dataset, dist)
    n = dataset.n
    left = dataset.column(spec.left)
    s = dataset.s
    r_arity, c_arity = left.arity, s.arity
    cells = r_arity * c_arity
    pair_code = left.codes * c_arity + s.codes

    cond_tokens = [g for g in spec.given if g != "features"]
    if cond_tokens:
        cond_code = np.zeros(n, dtype=np.int64)
        for token in cond_tokens:
            col = dataset.column(token)
            cond_code = cond_code * col.arity + col.codes
    else:
        cond_code = None

    sizes = np.zeros(n, dtype=np.int64)
    values = np.full(n, np.nan)
    for lo, offsets, flat in index.neighborhood_blocks(nspec):
        m = len(offsets) - 1
        local = np.repeat(np.arange(m), np.diff(offsets))
        if cond_code is not None:
            keep = cond_code[flat] == cond_code[local + lo]
            local = local[keep]
            flat = flat[keep]
        counts = np.bincount(local * cells + pair_code[flat], minlength=m * cells)
        counts = counts.reshape(m, r_arity, c_arity).astype(np.float64)
        tot = counts.sum(axis=(1, 2))
        sizes[lo:lo + m] = tot.astype(np.int64)
        ok = tot > 0
        if measure_kind == "mi":
            with np.errstate(invalid="ignore", divide="ignore"):
                probs = counts / tot[:, None, None]
            # rows with an empty neighborhood get a placeholder uniform table;
            # their value is discarded below
            probs = np.where(ok[:, None, None], probs, 1.0 / cells)
            chunk_vals = np.where(ok, mi_nats(probs), np.nan)
        else:
            chunk_vals = np.where(ok, rate_gap(counts), np.nan)
        values[lo:lo + m] = chunk_vals

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
