"""Mixed-type record distance (Gower style).

Numeric columns are min-max normalized to [0, 1] and compared by absolute
difference; categorical columns contribute 0/1 mismatch.  The distance is
the weighted mean of per-column contributions, so it always lands in
[0, 1], is symmetric, and is zero exactly on identical feature vectors.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateInput, InvalidParams, NoFeatures


@dataclass(frozen=True)
class DistanceSpec:
    """Per-column weights for the mixed-type distance (default weight 1)."""

    weights: dict[str, float] | None = None

    def column_weights(self, names: list[str]) -> np.ndarray:
        """Gower weights of the named feature columns, in that order.

        A weight for any other column is an error, not silently ignored.
        """
        weights = self.weights or {}
        unknown = sorted(set(weights) - set(names))
        if unknown:
            raise InvalidParams(f"weights name columns that are not features: {unknown}")
        return gower_weights([float(weights.get(name, 1.0)) for name in names], len(names))


class FeatureSpace:
    """Encoded feature columns of a dataset plus the canonical distance kernel.

    Every consumer (strip and tree neighbor queries, audits) funnels
    through `pair_distances` / `block_distances`, which accumulate column
    contributions in dataset feature order, so distances are bit-identical
    no matter which query strategy produced the candidate pairs.

    Both take numpy's `out=` idiom: given a float64 array of the result's
    shape, they write the distances there and return it; without one they
    allocate the result.  The kernel works in place either way, one scratch
    array per call: each weighted column term is built in it (difference,
    absolute value, or mismatch as 0/1, then times the weight), added to
    the zeroed result, and the sum divided by the total weight at the end.
    Those are the operations, in the order, of
    `sum(w * |a - b| or w * (a != b)) / total_weight` over the columns, so
    the in-place result is bit-identical to that formula.

    `dataset` is kept only to check a shared neighbor index against
    (`soft_evaluate`); the kernel reads the encoded columns alone.
    """

    def __init__(self, dataset: Dataset, dist: DistanceSpec | None = None):
        if not dataset.features:
            raise NoFeatures("dataset has no feature columns")
        dist = dist or DistanceSpec()
        self.dataset = dataset
        self.n = dataset.n
        self.column_names = dataset.feature_names()
        self.weights = dist.column_weights(self.column_names)
        self.total_weight = float(self.weights.sum())

        self._kinds = [c.kind for c in dataset.features]
        self._columns = [c.codes if c.kind != "numeric"
                         else min_max_scale(c.values, names=[f"feature {c.name!r}"])
                         for c in dataset.features]

    def pair_distances(self, a: np.ndarray, b: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Distances for aligned index arrays a[i] <-> b[i]."""
        return self._distances(a, b, out)

    def block_distances(self, query_idx: np.ndarray, records: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Distances from each query record to each of `records` (all n by default).

        Shape (len(query_idx), len(records)).  A window of records gets the
        same bits as the matching columns of the full block.
        """
        return self._distances(query_idx[:, None],
                               np.arange(self.n) if records is None else records, out)

    def _distances(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if out is None:
            acc = np.zeros(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        else:
            acc = out
            acc.fill(0.0)
        term = np.empty(shape)
        for kind, col, w in zip(self._kinds, self._columns, self.weights):
            if w > 0.0:
                if kind == "numeric":
                    np.subtract(col[a], col[b], out=term)
                    np.abs(term, out=term)
                else:
                    np.not_equal(col[a], col[b], out=term)
                term *= w
                acc += term
        acc /= self.total_weight
        return acc

    def coordinates(self) -> tuple[np.ndarray, bool]:
        """Weighted scaled coordinates for a coordinate engine, and whether
        their L1 distance is this distance (True) or bounds it from below.

        This is the one place that decides what a coordinate engine indexes.
        Each coordinate is a positive-weight numeric column times w / W.  An
        all-numeric feature set gets one per positive weight, and their L1
        distance equals this distance up to rounding.  Any other gets its one
        or two heaviest positive-weight numeric columns, in feature order:
        their terms are some of the non-negative terms that the distance adds
        up, so their L1 distance bounds it from below, up to rounding.
        Without such a column that is one constant coordinate, which bounds
        nothing.  The coordinates only prune candidates, never decide
        membership.
        """
        numeric = [j for j, (kind, w) in enumerate(zip(self._kinds, self.weights))
                   if kind == "numeric" and w > 0.0]
        exact = all(kind == "numeric" for kind in self._kinds)
        if not exact:
            numeric = sorted(sorted(numeric, key=lambda j: -self.weights[j])[:2])
        if not numeric:
            return np.zeros((self.n, 1)), False
        return np.stack([self._columns[j] * (self.weights[j] / self.total_weight)
                         for j in numeric], axis=1), exact


def min_max_scale(x: np.ndarray, axis: int = 0, names=None) -> np.ndarray:
    """Gower's scaling of finite values along `axis`: (x - lo) / span.

    Values constant along `axis` (span 0) become 0, so they contribute
    nothing.  This is the one scaling every Gower distance here uses.  A
    column whose span is not a finite float64 (a NaN, an infinity, or a
    range like [-1e308, 1e308] that overflows) would scale to NaN: it raises
    DegenerateInput, named by its label in `names` (one per column).  When
    every lo is +0.0 and every span 1.0 the scaling changes no bit, and `x`
    itself is returned, not a copy (a -0.0 lo would flip the sign of a zero).
    """
    lo = x.min(axis=axis, keepdims=True)
    hi = x.max(axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    if not np.isfinite(span).all():
        at = np.flatnonzero(~np.isfinite(span))[0]
        raise DegenerateInput(f"{'a numeric column' if names is None else names[at]} ranges "
                              f"from {float(lo.flat[at])!r} to {float(hi.flat[at])!r}: its "
                              "span is not a finite float64, so it cannot be scaled")
    if (span == 1.0).all() and (lo == 0.0).all() and not np.signbit(lo).any():
        return x
    out = x - lo
    out /= np.where(span > 0, span, 1.0)
    return out


def gower_weights(weights, p: int) -> np.ndarray:
    """Per-column Gower weights for a p-column matrix (default all 1)."""
    w = np.ones(p) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (p,) or not (w >= 0).all() or not 0 < w.sum() < np.inf:
        raise InvalidParams(f"weights must be {p} non-negative values with positive total")
    return w


def gower_matrix_condensed(matrix: np.ndarray, weights=None, names=None):
    """Condensed pairwise distances of a raw numeric matrix, in the blocks
    of `condensed_blocks`, each divided by the total weight in place.

    Same scaling and weighting rules as FeatureSpace, for callers that work
    on plain arrays rather than datasets, and the same column order.
    `names` label the columns in `min_max_scale`'s errors.
    """
    x = np.asarray(matrix, dtype=np.float64)
    w = gower_weights(weights, x.shape[1])
    total = w.sum()
    blocks = condensed_blocks(min_max_scale(np.ascontiguousarray(x.T), axis=1, names=names), w)
    return ((start, np.divide(d, total, out=d)) for start, d in blocks)


_CONDENSED_BLOCK = 1 << 15     # cells per block of rows: the scratch arrays stay in cache


@contextmanager
def short_row_buffers():
    """A scope in which numpy ufuncs take short broadcast rows unbuffered.

    numpy buffers an operand broadcast along rows shorter than its ufunc
    buffer (8192 items by default): `col[:, None] - other` over (32, 2000)
    took four times as long as over (16, 4000).  A buffer of 256 items keeps
    each row one inner loop.  The size is restored on exit.
    """
    size = np.setbufsize(256)
    try:
        yield
    finally:
        np.setbufsize(size)


def condensed_blocks(columns: np.ndarray, weights=None, squared: bool = False):
    """Per-pair sums of column terms, condensed (i < j, row-major) like pdist,
    as (start, sums) per block of rows: the sums of pairs start, start + 1, ...
    in a buffer that the next block overwrites, so memory is O(_CONDENSED_BLOCK + n).

    `columns` is (p, n): one row of values per column.  The term of a pair
    in column t is w[t] * |a - b| (with `weights`) or |a - b|, or (a - b)^2
    when `squared` (unweighted).  Each pair's terms are added left to right
    from the first, so the sums carry the bits of scipy's pdist
    'cityblock' (with or without w) and 'sqeuclidean'.  A block of rows is
    a rectangle over the columns j > its first row; each row's j > i part
    is copied out.
    """
    n = columns.shape[1]
    acc, term, out = np.zeros((3, _CONDENSED_BLOCK + n))     # acc stays 0 without columns
    pos = lo = 0
    while lo < n - 1:
        width = n - 1 - lo
        rows = max(1, min(width, _CONDENSED_BLOCK // width))
        block = acc[:rows * width].reshape(rows, width)
        scratch = term[:rows * width].reshape(rows, width)
        with short_row_buffers():       # off the yield: the caller keeps numpy's buffer
            for t, col in enumerate(columns):
                dst = block if t == 0 else scratch
                np.subtract(col[lo:lo + rows, None], col[lo + 1:], out=dst)
                if squared:
                    np.multiply(dst, dst, out=dst)
                else:
                    np.abs(dst, out=dst)
                    if weights is not None and weights[t] != 1.0:   # w * x is x at w = 1
                        dst *= weights[t]
                if t:
                    block += scratch
        k = 0
        for r in range(rows):
            out[k:k + width - r] = block[r, r:]
            k += width - r
        yield pos, out[:k]
        pos += k
        lo += rows
