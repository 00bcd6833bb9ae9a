"""Empirical joint distributions: contingency tables, with optional stratification.

A table is a count tensor of shape (..., R, C): one (R, C) table, or the
(G, R, C) stack of every stratum of a stratification, which the measures
score in one vectorized pass.  stratified_contingency builds that stack
with a single bincount over (stratum, row, column) codes, so no per-stratum
object is built on the way.  Probabilities are plain double-precision
ratios, computed per table of the stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, stratify
from .errors import AllStrataDropped, EmptyTable, SameVariable

DEFAULT_MIN_COUNT = 5


@dataclass(frozen=True)
class ContingencyTable:
    """Non-negative integer counts over the cross-product of two categorical variables.

    counts has shape (row_arity, col_arity), or (..., row_arity, col_arity)
    for a stack of tables; total counts the records of the whole stack.
    """

    counts: np.ndarray  # (..., row_arity, col_arity) int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim < 2:
            raise ValueError("counts must have at least 2 dimensions")
        if (c < 0).any():
            raise ValueError("counts must be non-negative")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def row_arity(self) -> int:
        return self.counts.shape[-2]

    @property
    def col_arity(self) -> int:
        return self.counts.shape[-1]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class JointTable:
    """Cell probabilities, each (R, C) table of the stack summing to one."""

    probs: np.ndarray  # (..., row_arity, col_arity) float64
    smoothing_alpha: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim < 2 or (p < 0).any():
            raise ValueError("probs must be a non-negative array of at least 2 dimensions")
        total = p.sum(axis=(-2, -1))
        off = np.abs(total - 1.0) > 1e-12
        if off.any():
            raise ValueError(f"cell probabilities sum to {float(total[off].flat[0])!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def row_arity(self) -> int:
        return self.probs.shape[-2]

    @property
    def col_arity(self) -> int:
        return self.probs.shape[-1]


class _Entries(Sequence):
    """(key, ContingencyTable, weight) per retained stratum, built on access."""

    def __init__(self, strata: "StratifiedTables"):
        self._strata = strata

    def __len__(self) -> int:
        return len(self._strata.keys)

    def __getitem__(self, i: int):
        s = self._strata
        return tuple(s.keys[i].tolist()), ContingencyTable(s.table.counts[i]), float(s.weights[i])


class StratifiedTables:
    """The retained strata of one stratification as a single (G, R, C) count stack.

    keys[g] is stratum g's row of condition codes in a (G, m) int64 array
    (lexicographic order), table.counts[g] its counts and weights[g] its
    record fraction of the whole dataset; weights and dropped_mass sum to one.
    """

    def __init__(self, entries, dropped_mass: float, min_count: int):
        """Collect (key, ContingencyTable, weight) triples into one stack."""
        keys, tables, weights = zip(*entries) if entries else ((), (), ())
        counts = np.stack([table.counts for table in tables]) if tables else np.zeros((0, 1, 1))
        codes = np.array(keys, dtype=np.int64) if keys else np.zeros((0, 0), dtype=np.int64)
        self._set(codes, ContingencyTable(counts), np.array(weights, dtype=np.float64),
                  dropped_mass, min_count)

    @classmethod
    def stacked(cls, keys, table: ContingencyTable, weights: np.ndarray,
                dropped_mass: float, min_count: int) -> "StratifiedTables":
        """From the (G, m) key codes, (G, R, C) table and weights of the retained strata."""
        strata = cls.__new__(cls)
        strata._set(keys, table, weights, dropped_mass, min_count)
        return strata

    def _set(self, keys, table, weights, dropped_mass, min_count):
        if (table.counts.sum(axis=(-2, -1)) < min_count).any():
            raise ValueError("retained stratum below min_count")
        total = dropped_mass + float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights + dropped_mass sum to {total!r}, not 1")
        self.keys, self.table, self.weights = keys, table, weights
        self.dropped_mass, self.min_count = dropped_mass, min_count

    @property
    def entries(self) -> _Entries:
        return _Entries(self)


def contingency(dataset: Dataset, row_var: str, col_var: str) -> ContingencyTable:
    """Cross-tabulate two categorical columns of the dataset."""
    return marginal_table(stratified_contingency(dataset, row_var, col_var, [], min_count=1))


def normalize(table: ContingencyTable, alpha: float = 0.0) -> JointTable:
    """Empirical cell probabilities with optional Laplace smoothing, per table.

    p(i,j) = (count(i,j) + alpha) / (total + alpha * cells)
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and non-negative")
    cells = table.row_arity * table.col_arity
    denom = table.counts.sum(axis=(-2, -1), keepdims=True) + alpha * cells
    if (denom <= 0).any():
        raise EmptyTable("table is empty and alpha is 0")
    return JointTable((table.counts + alpha) / denom, smoothing_alpha=alpha)


def stratified_contingency(
    dataset: Dataset,
    row_var: str,
    col_var: str,
    condition_columns,
    min_count: int = DEFAULT_MIN_COUNT,
) -> StratifiedTables:
    """Per-stratum cross-tabulation of (row_var, col_var) given exact condition values.

    Strata smaller than min_count are dropped; their record fraction is
    reported as dropped_mass.  Raises AllStrataDropped when nothing remains,
    which signals that exact conditioning cannot be supported by the data.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if row_var == col_var:
        raise SameVariable(f"row and column variable are both {row_var!r}")
    row = dataset.column(row_var)
    col = dataset.column(col_var)
    if row is col:
        raise SameVariable(f"{row_var!r} and {col_var!r} resolve to the same column")
    r, c = row.arity, col.arity
    strata = stratify(dataset, condition_columns)
    sizes = strata.sizes
    flat = (strata.labels * r + row.codes) * c + col.codes
    counts = np.bincount(flat, minlength=len(sizes) * r * c).reshape(-1, r, c)
    kept = sizes >= min_count
    if not kept.any():
        raise AllStrataDropped(
            f"no stratum reaches min_count={min_count}; use soft conditioning"
        )
    n = dataset.n
    return StratifiedTables.stacked(
        strata.codes[kept], ContingencyTable(counts[kept]), sizes[kept] / n,
        dropped_mass=int(sizes[~kept].sum()) / n, min_count=min_count,
    )


def marginal_table(strata: StratifiedTables) -> ContingencyTable:
    """Count-wise sum of all retained strata (equals the unconditioned table when min_count=1)."""
    return ContingencyTable(strata.table.counts.sum(axis=0))
