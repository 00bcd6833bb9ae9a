"""Mixed-type record distance (Gower style).

Numeric columns are min-max normalized to [0, 1] and compared by absolute
difference; categorical columns contribute 0/1 mismatch.  The distance is
the weighted mean of per-column contributions, so it always lands in
[0, 1], is symmetric, and is zero exactly on identical feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .dataset import Dataset
from .errors import InvalidParams, NoFeatures


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

    Every consumer (the scan, tree-accelerated queries, audits) funnels
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
    """

    def __init__(self, dataset: Dataset, dist: DistanceSpec | None = None):
        if not dataset.features:
            raise NoFeatures("dataset has no feature columns")
        dist = dist or DistanceSpec()
        self.n = dataset.n
        self.column_names = dataset.feature_names()
        self.weights = dist.column_weights(self.column_names)
        self.total_weight = float(self.weights.sum())

        self._kinds = [c.kind for c in dataset.features]
        self._columns = [min_max_scale(c.values) if c.kind == "numeric" else c.codes
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

    def sweep_key(self) -> np.ndarray | None:
        """One scaled column that bounds the distance from below, or None.

        The positive-weight numeric column of largest weight w, times w / W:
        its term is one of the non-negative terms the distance adds up, so
        |key[i] - key[j]| <= distance(i, j) up to rounding.  Records sorted
        on it need only be scanned inside a key window (the projection
        search of Friedman, Baskett and Shustek, 1975).  None when no
        numeric column has a positive weight.
        """
        numeric = [(w, j) for j, (kind, w) in enumerate(zip(self._kinds, self.weights))
                   if kind == "numeric" and w > 0.0]
        if not numeric:
            return None
        w, j = max(numeric, key=lambda pair: pair[0])
        return self._columns[j] * (w / self.total_weight)

    def tree_coordinates(self) -> np.ndarray | None:
        """Weighted scaled coordinates in which L1 distance equals this distance.

        This is the one place that decides which feature sets a KD-tree can
        index: all-numeric ones get coordinates, any other gets None.  The
        coordinates only prune candidates, never decide membership.
        """
        if any(kind != "numeric" for kind in self._kinds):
            return None
        cols = [col * (w / self.total_weight)
                for col, w in zip(self._columns, self.weights) if w > 0.0]
        return np.stack(cols, axis=1)


def min_max_scale(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Gower's scaling of finite values along `axis`: (x - lo) / span.

    Values constant along `axis` (span 0) become 0, so they contribute
    nothing.  This is the one scaling every Gower distance here uses.
    """
    lo = x.min(axis=axis, keepdims=True)
    span = x.max(axis=axis, keepdims=True) - lo
    return (x - lo) / np.where(span > 0, span, 1.0)


def gower_weights(weights, p: int) -> np.ndarray:
    """Per-column Gower weights for a p-column matrix (default all 1)."""
    w = np.ones(p) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (p,) or not (w >= 0).all() or not 0 < w.sum() < np.inf:
        raise InvalidParams(f"weights must be {p} non-negative values with positive total")
    return w


def gower_matrix_condensed(matrix: np.ndarray, weights=None) -> np.ndarray:
    """Condensed (i < j, row-major) pairwise distances for a raw numeric matrix.

    Same scaling and weighting rules as FeatureSpace, for callers that work
    on plain arrays rather than datasets.  pdist adds the weighted column
    terms left to right, as `FeatureSpace.pair_distances` does.
    """
    x = np.asarray(matrix, dtype=np.float64)
    w = gower_weights(weights, x.shape[1])
    d = pdist(min_max_scale(x), "cityblock", w=w)
    d /= w.sum()                   # in place: no second condensed array
    return d
