"""Audit a representation map for distance expansion.

A fair-representation map must never move a pair of records further apart
in the mapped space than they were in the original space:

    d_mapped(M(x1), M(x2)) <= d_original(x1, x2)   for all pairs.

Given the original vectors and their images, this module scans record
pairs, computes the ratio d_mapped / d_original for each, and reports the
worst ratio together with the offending pairs.  Pairs that coincide on
both sides are skipped; a pair that coincides only in the original space
is an automatic violation (the ratio is infinite) and is flagged rather
than encoded as a float.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .distance import gower_matrix_condensed, gower_weights, min_max_scale
from .errors import DegenerateInput, InvalidParams, NotAProbabilityVector, ParseError
from .rng import CounterRng

DEFAULT_TOL = 1e-9
EXHAUSTIVE_LIMIT = 2000        # n(n-1)/2 ~ 2e6 pairs
DEFAULT_SAMPLE_COUNT = 2_000_000
MAX_LISTED_VIOLATIONS = 100
_PAIR_BLOCK = 1 << 16          # sampled pairs per block: the temporaries stay in cache

ORIGINAL_METRICS = ("euclidean", "manhattan", "gower")
MAPPED_METRICS = ORIGINAL_METRICS + ("total_variation",)


@dataclass(frozen=True)
class Violation:
    i: int
    j: int
    d_original: float
    d_mapped: float
    ratio: float          # finite part; meaningless when infinite is set
    infinite: bool = False


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float                     # over finite-ratio pairs
    violations: tuple[Violation, ...]    # worst first, capped at MAX_LISTED_VIOLATIONS
    violation_count: int                 # total, not capped
    infinite_count: int
    pairs_examined: int
    skipped_coincident: int              # d_original = d_mapped = 0 pairs
    sampling: str                        # 'exhaustive' or 'sampled'
    sample_seed: int | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def _distances(matrix, metric, weights, i=None, j=None) -> np.ndarray:
    """Distances of all pairs in condensed order, or of the pairs (i[t], j[t]).

    Both add each pair's column terms left to right, as pdist does, so a
    sampled pair's distance is bit-identical to its exhaustive value.  The
    sampled pairs go in blocks of _PAIR_BLOCK over 1-D gathers of contiguous
    columns, so no (pairs, p) temporary is ever built.
    """
    if i is None and metric == "gower":
        return gower_matrix_condensed(matrix, weights)
    if i is None:
        acc = pdist(matrix, "sqeuclidean" if metric == "euclidean" else "cityblock")
    else:
        columns, w = np.ascontiguousarray(matrix.T), None
        if metric == "gower":
            w = gower_weights(weights, len(columns))
            columns = min_max_scale(columns, axis=1)
        acc = np.zeros(len(i))
        for start in range(0, len(i), _PAIR_BLOCK):
            a, b = i[start:start + _PAIR_BLOCK], j[start:start + _PAIR_BLOCK]
            block = acc[start:start + _PAIR_BLOCK]
            for t, col in enumerate(columns):
                d = col[a] - col[b]
                if metric == "euclidean":
                    block += d * d
                else:
                    np.abs(d, out=d)
                    block += d if w is None else w[t] * d
    if metric == "euclidean":
        return np.sqrt(acc)
    if metric == "total_variation":
        return 0.5 * acc
    return acc if metric == "manhattan" else acc / w.sum()


def _pair_index(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, of positions in the row-major condensed pair order."""
    root = np.sqrt(-8.0 * flat + 4.0 * n * (n - 1) - 7.0)
    i = (n - 2 - np.floor(root / 2.0 - 0.5)).astype(np.int64)
    return i, flat + i + 1 - i * (2 * n - i - 1) // 2


def audit_map(
    original: np.ndarray,
    mapped: np.ndarray,
    d_original: str = "euclidean",
    d_mapped: str = "euclidean",
    *,
    weights=None,
    sampling: str = "auto",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
) -> LipschitzReport:
    """Scan record pairs for distance expansion under the map.

    `original` is (n, p), `mapped` is (n, q), row i of each describing the
    same record.  The scan is exhaustive up to n = 2000; beyond that pairs
    are sampled uniformly and a seed is mandatory (sampling='exhaustive'
    forces the full scan at any size).  A pair violates when
    d_mapped / d_original > 1 + tol.
    """
    original = np.asarray(original, dtype=np.float64)
    mapped = np.asarray(mapped, dtype=np.float64)
    if original.ndim != 2 or mapped.ndim != 2 or original.shape[0] != mapped.shape[0]:
        raise DegenerateInput("original and mapped must be 2-d with matching row counts")
    n = original.shape[0]
    if n < 2:
        raise DegenerateInput("need at least 2 records to form a pair")
    if d_original not in ORIGINAL_METRICS:
        raise InvalidParams(f"d_original must be one of {ORIGINAL_METRICS}")
    if d_mapped not in MAPPED_METRICS:
        raise InvalidParams(f"d_mapped must be one of {MAPPED_METRICS}")
    for name, values in (("original", original), ("mapped", mapped)):
        if not np.isfinite(values).all():
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise DegenerateInput(f"{name} row {r}, column {c} is {values[r, c]!r}, not finite")
    if d_mapped == "total_variation":
        sums = mapped.sum(axis=1)
        bad = np.flatnonzero((mapped < 0).any(axis=1) | (np.abs(sums - 1.0) > 1e-9))
        if len(bad):
            raise NotAProbabilityVector(f"mapped row {bad[0]} has a negative entry or sums to "
                                        f"{sums[bad[0]]!r}, not a probability vector")

    if sampling == "auto":
        sampling = "exhaustive" if n <= EXHAUSTIVE_LIMIT else "sampled"
    if sampling not in ("exhaustive", "sampled"):
        raise InvalidParams("sampling must be 'auto', 'exhaustive', or 'sampled'")

    flat = i_idx = j_idx = seed_used = None
    total_pairs = n * (n - 1) // 2
    if sampling == "sampled":
        if seed is None:
            raise InvalidParams("sampled mode requires a seed")
        total_pairs, seed_used = sample_count, seed
        flat = CounterRng(seed).integers(n * (n - 1) // 2, sample_count)
        i_idx, j_idx = _pair_index(flat, n)
    d_orig = _distances(original, d_original, weights, i_idx, j_idx)
    d_map = _distances(mapped, d_mapped, weights, i_idx, j_idx)

    both_zero = (d_orig == 0.0) & (d_map == 0.0)
    infinite = (d_orig == 0.0) & (d_map > 0.0)
    finite = ~both_zero & ~infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(finite, d_map / np.where(finite, d_orig, 1.0), 0.0)
    max_ratio = float(ratios[finite].max()) if finite.any() else 0.0
    violating = finite & (ratios > 1.0 + tol)
    violation_count = int(violating.sum()) + int(infinite.sum())

    # infinite ratios first, then the worst finite ones; d_orig and the
    # ratio of an infinite violation are both 0.0
    listed = np.nonzero(infinite)[0][:MAX_LISTED_VIOLATIONS]
    worst = np.nonzero(violating)[0]
    worst = worst[np.argsort(-ratios[worst], kind="stable")]
    listed = np.concatenate([listed, worst[:MAX_LISTED_VIOLATIONS - len(listed)]])
    pairs = zip(*_pair_index(listed if flat is None else flat[listed], n))
    violations = tuple(
        Violation(int(i), int(j), float(d_orig[pos]), float(d_map[pos]), float(ratios[pos]),
                  infinite=bool(infinite[pos]))
        for (i, j), pos in zip(pairs, listed)
    )

    return LipschitzReport(
        max_ratio=max_ratio,
        violations=violations,
        violation_count=violation_count,
        infinite_count=int(infinite.sum()),
        pairs_examined=total_pairs,
        skipped_coincident=int(both_zero.sum()),
        sampling=sampling,
        sample_seed=seed_used,
        tol=tol,
    )


def _column_order(header: list[str], prefix: str) -> list[int]:
    cols = [pos for pos, h in enumerate(header) if h.startswith(prefix)]
    for pos in cols:
        if not header[pos][2:].isdecimal():
            raise ParseError("column name needs an integer suffix", line=1, column=header[pos])
    return sorted(cols, key=lambda pos: int(header[pos][2:]))


def _parse_rows(reader, header: list[str], cols: list[int]) -> np.ndarray:
    """The row-by-row parse: the table, or a ParseError at its first bad cell."""
    next(reader)
    values = []
    for row in reader:
        if not row:
            continue                     # np.loadtxt skips blank lines too
        for c in cols:
            name, line, token = header[c], reader.line_num, row[c] if c < len(row) else None
            if token is None:
                raise ParseError(f"row has {len(row)} fields, header has {len(header)}",
                                 line=line, column=name)
            try:
                values.append(float(token))
            except ValueError:
                msg = "missing value" if token == "" else f"non-numeric token {token!r}"
                raise ParseError(msg, line=line, column=name) from None
            if not math.isfinite(values[-1]):
                raise ParseError(f"non-finite numeric token {token!r}", line=line, column=name)
    return np.array(values).reshape(-1, len(cols))


def load_mapped_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV with header x_0..x_{p-1}, m_0..m_{q-1} into (original, mapped).

    Columns go in the order of their integer suffix (x_10 after x_2); other
    columns are ignored.  A short row, an empty cell, a non-numeric or a
    non-finite token raises ParseError with the CSV line and column name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DegenerateInput("mapped-pairs CSV has no header")
        x_cols, m_cols = _column_order(header, "x_"), _column_order(header, "m_")
        if not x_cols or not m_cols:
            raise DegenerateInput("header must contain x_* and m_* columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # a file without rows
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                   usecols=x_cols + m_cols, ndmin=2)
        except ValueError:
            table = None
        if table is None or not np.isfinite(table).all():
            fh.seek(0)
            table = _parse_rows(csv.reader(fh), header, x_cols + m_cols)
    if len(table) < 2:
        raise DegenerateInput("need at least 2 records to form a pair")
    p = len(x_cols)
    return np.ascontiguousarray(table[:, :p]), np.ascontiguousarray(table[:, p:])
