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
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .distance import gower_matrix_condensed
from .errors import DegenerateInput, InvalidParams, NotAProbabilityVector
from .rng import CounterRng

DEFAULT_TOL = 1e-9
EXHAUSTIVE_LIMIT = 2000        # n(n-1)/2 ~ 2e6 pairs
DEFAULT_SAMPLE_COUNT = 2_000_000
MAX_LISTED_VIOLATIONS = 100

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


def _condensed(matrix: np.ndarray, metric: str, weights) -> np.ndarray:
    if metric == "euclidean":
        return pdist(matrix, "euclidean")
    if metric == "manhattan":
        return pdist(matrix, "cityblock")
    if metric == "total_variation":
        return 0.5 * pdist(matrix, "cityblock")
    if metric == "gower":
        return gower_matrix_condensed(matrix, weights)
    raise InvalidParams(f"unknown metric {metric!r}")


def _pair_distances(matrix, metric, weights, i, j) -> np.ndarray:
    if metric == "gower":
        # normalize against the full matrix, then evaluate the sampled pairs
        x = np.asarray(matrix, dtype=np.float64)
        lo = x.min(axis=0)
        span = x.max(axis=0) - lo
        scaled = np.where(span > 0, (x - lo) / np.where(span > 0, span, 1.0), 0.0)
        w = np.ones(x.shape[1]) if weights is None else np.asarray(weights, dtype=np.float64)
        return (np.abs(scaled[i] - scaled[j]) * w).sum(axis=1) / w.sum()
    diff = np.asarray(matrix)[i] - np.asarray(matrix)[j]
    if metric == "euclidean":
        return np.sqrt((diff ** 2).sum(axis=1))
    if metric == "manhattan":
        return np.abs(diff).sum(axis=1)
    if metric == "total_variation":
        return 0.5 * np.abs(diff).sum(axis=1)
    raise InvalidParams(f"unknown metric {metric!r}")


def _check_probability_rows(matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if (m < 0).any():
        raise NotAProbabilityVector("mapped vectors contain negative entries")
    sums = m.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-9
    if bad.any():
        row = int(np.nonzero(bad)[0][0])
        raise NotAProbabilityVector(f"mapped row {row} sums to {sums[row]!r}, not 1")


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
    if d_mapped == "total_variation":
        _check_probability_rows(mapped)

    if sampling == "auto":
        sampling = "exhaustive" if n <= EXHAUSTIVE_LIMIT else "sampled"
    if sampling not in ("exhaustive", "sampled"):
        raise InvalidParams("sampling must be 'auto', 'exhaustive', or 'sampled'")

    if sampling == "exhaustive":
        d_orig = _condensed(original, d_original, weights)
        d_map = _condensed(mapped, d_mapped, weights)
        total_pairs = n * (n - 1) // 2
        i_idx = j_idx = None
        seed_used = None
    else:
        if seed is None:
            raise InvalidParams("sampled mode requires a seed")
        total_pairs = sample_count
        rng = CounterRng(seed)
        flat = rng.integers(n * (n - 1) // 2, sample_count)
        # invert the condensed index to (i, j), i < j
        i_idx = (
            n - 2
            - np.floor(np.sqrt(-8.0 * flat + 4.0 * n * (n - 1) - 7.0) / 2.0 - 0.5)
        ).astype(np.int64)
        j_idx = (flat + i_idx + 1 - i_idx * (2 * n - i_idx - 1) // 2).astype(np.int64)
        d_orig = _pair_distances(original, d_original, weights, i_idx, j_idx)
        d_map = _pair_distances(mapped, d_mapped, weights, i_idx, j_idx)
        seed_used = seed

    both_zero = (d_orig == 0.0) & (d_map == 0.0)
    infinite = (d_orig == 0.0) & (d_map > 0.0)
    finite = ~both_zero & ~infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(finite, d_map / np.where(finite, d_orig, 1.0), 0.0)
    max_ratio = float(ratios[finite].max()) if finite.any() else 0.0
    violating = finite & (ratios > 1.0 + tol)
    violation_count = int(violating.sum()) + int(infinite.sum())

    def pair_of(flat_pos: int) -> tuple[int, int]:
        if i_idx is not None:
            return int(i_idx[flat_pos]), int(j_idx[flat_pos])
        i = int(n - 2 - np.floor(np.sqrt(-8.0 * flat_pos + 4 * n * (n - 1) - 7) / 2.0 - 0.5))
        j = int(flat_pos + i + 1 - i * (2 * n - i - 1) // 2)
        return i, j

    listed: list[Violation] = []
    for pos in np.nonzero(infinite)[0][:MAX_LISTED_VIOLATIONS]:
        i, j = pair_of(int(pos))
        listed.append(Violation(i, j, 0.0, float(d_map[pos]), 0.0, infinite=True))
    room = MAX_LISTED_VIOLATIONS - len(listed)
    if room > 0 and violating.any():
        finite_pos = np.nonzero(violating)[0]
        worst = finite_pos[np.argsort(-ratios[finite_pos], kind="stable")][:room]
        for pos in worst:
            i, j = pair_of(int(pos))
            listed.append(
                Violation(i, j, float(d_orig[pos]), float(d_map[pos]), float(ratios[pos]))
            )

    return LipschitzReport(
        max_ratio=max_ratio,
        violations=tuple(listed),
        violation_count=violation_count,
        infinite_count=int(infinite.sum()),
        pairs_examined=total_pairs,
        skipped_coincident=int(both_zero.sum()),
        sampling=sampling,
        sample_seed=seed_used,
        tol=tol,
    )


def load_mapped_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV with header x_0..x_{p-1}, m_0..m_{q-1} into (original, mapped)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DegenerateInput("mapped-pairs CSV has no header")
        x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        m_cols = [i for i, h in enumerate(header) if h.startswith("m_")]
        if not x_cols or not m_cols:
            raise DegenerateInput("header must contain x_* and m_* columns")
        x_cols.sort(key=lambda i: int(header[i][2:]))
        m_cols.sort(key=lambda i: int(header[i][2:]))
        orig_rows, map_rows = [], []
        for row in reader:
            orig_rows.append([float(row[i]) for i in x_cols])
            map_rows.append([float(row[i]) for i in m_cols])
    if len(orig_rows) < 2:
        raise DegenerateInput("need at least 2 records to form a pair")
    return np.asarray(orig_rows), np.asarray(map_rows)
