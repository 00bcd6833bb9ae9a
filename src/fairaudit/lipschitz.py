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
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distance import condensed_blocks, gower_matrix_condensed, gower_weights, min_max_scale
from .errors import DegenerateInput, InvalidParams, NotAProbabilityVector, ParseError
from .errors import is_integral, is_real
from .rng import CounterRng

DEFAULT_TOL = 1e-9
EXHAUSTIVE_LIMIT = 2000        # n(n-1)/2 ~ 2e6 pairs
DEFAULT_SAMPLE_COUNT = 2_000_000
MAX_LISTED_VIOLATIONS = 100
_PAIR_BLOCK = 1 << 13          # pairs per block: the gathered (pairs, p) rows stay in L2
_LOAD_ROWS = 8192              # CSV rows per np.loadtxt call of load_mapped_csv

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


def _distances(matrix, metric, weights, side):
    """A function of pair index arrays (i, j): the distances of the pairs
    (i[t], j[t]), bit-identical to their values in `_condensed`: both add
    each pair's column terms left to right.  Pairs gather whole rows of a
    row-major source: the input itself (no copy when C-contiguous) or, for
    gower, one scaled copy where scaling changes a value.  A block's
    (pairs, p) difference is one temporary; `side` names the matrix in errors.
    """
    rows, w = np.ascontiguousarray(matrix), None
    if metric == "gower":
        w = gower_weights(weights, rows.shape[1])
        rows = min_max_scale(rows, names=_column_names(side, rows.shape[1]))

    def distances(i, j) -> np.ndarray:
        a = rows.take(i, axis=0)
        a -= rows.take(j, axis=0)
        (np.square if metric == "euclidean" else np.abs)(a, out=a)
        acc = np.zeros(len(i))
        for t in range(a.shape[1]):
            acc += a[:, t] if w is None or w[t] == 1.0 else w[t] * a[:, t]   # w * x is x at w = 1
        return _last_step(acc, metric, w)

    return distances


def _column_names(side, p):
    """Labels of a side's columns in scaling errors: 'original column 0', ..."""
    return [f"{side} column {c}" for c in range(p)]


def _last_step(acc, metric, w=None):
    """The metric's distances from its summed column terms, in place."""
    if metric == "euclidean":
        return np.sqrt(acc, out=acc)
    if metric == "total_variation":
        acc *= 0.5
    elif metric == "gower":
        acc /= w.sum()
    return acc


def _condensed(matrix, metric, weights, names=None):
    """(start, distances) per block of rows of all pairs in condensed order,
    in a reused buffer.  The blocks depend on n alone, so two sides align.
    `names` label the columns in Gower scaling errors.
    """
    if metric == "gower":
        return gower_matrix_condensed(matrix, weights, names)
    blocks = condensed_blocks(np.ascontiguousarray(matrix.T), squared=metric == "euclidean")
    return ((start, _last_step(acc, metric)) for start, acc in blocks)


def _pair_index(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), i < j, of positions in the row-major condensed pair order."""
    root = np.sqrt(-8.0 * flat + 4.0 * n * (n - 1) - 7.0)
    i = (n - 2 - np.floor(root / 2.0 - 0.5)).astype(np.int64)
    return i, flat + i + 1 - i * (2 * n - i - 1) // 2


def _blocks(original, mapped, metrics, weights, count, seed):
    """(flat, d_orig, d_map) per block.

    Without a seed: all pairs, one `_condensed` block of rows at a time.
    With one: `count` uniform draws, _PAIR_BLOCK at a time, the same as one
    `integers` call (CounterRng draws do not depend on their chunking).
    """
    n = len(original)
    sides = tuple(zip((original, mapped), metrics, ("original", "mapped")))
    if seed is None:
        streams = (_condensed(x, m, weights, _column_names(side, x.shape[1]))
                   for x, m, side in sides)
        for (start, d_orig), (_, d_map) in zip(*streams):
            yield np.arange(start, start + len(d_orig)), d_orig, d_map
        return
    dist_orig, dist_map = (_distances(x, m, weights, side) for x, m, side in sides)
    rng = CounterRng(seed)
    for start in range(0, count, _PAIR_BLOCK):
        flat = rng.integers(n * (n - 1) // 2, min(_PAIR_BLOCK, count - start))
        i, j = _pair_index(flat, n)
        yield flat, dist_orig(i, j), dist_map(i, j)


def _fold(blocks, tol: float, n: int) -> dict:
    """Fold blocks of (flat, d_orig, d_map) into the report's fields.

    Only the listed violations are kept: infinite ones first, then by falling
    ratio, ties in scan order (lexsort is stable, and kept ones come first).
    """
    max_ratio = 0.0
    violation_count = infinite_count = coincident = 0
    top = (np.empty(0, bool), np.empty(0), np.empty(0, np.int64), np.empty(0), np.empty(0))
    for flat, d_orig, d_map in blocks:
        zero = d_orig == 0.0
        both_zero = zero & (d_map == 0.0)
        infinite = zero & (d_map > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = d_map / d_orig
        ratio[both_zero | infinite] = 0.0      # an infinite violation lists ratio 0.0
        max_ratio = np.maximum(max_ratio, ratio.max())
        hit = np.flatnonzero(infinite | (ratio > 1.0 + tol))
        violation_count += len(hit)
        infinite_count += int(np.count_nonzero(infinite))
        coincident += int(np.count_nonzero(both_zero))
        hit = hit[np.lexsort((-ratio[hit], ~infinite[hit]))[:MAX_LISTED_VIOLATIONS]]
        top = tuple(np.concatenate([t, a[hit]])
                    for t, a in zip(top, (infinite, ratio, flat, d_orig, d_map)))
        keep = np.lexsort((-top[1], ~top[0]))[:MAX_LISTED_VIOLATIONS]
        top = tuple(t[keep] for t in top)

    infinite, ratio, flat, d_orig, d_map = top
    violations = tuple(
        Violation(int(i), int(j), float(o), float(m), float(r), infinite=bool(f))
        for i, j, o, m, r, f in zip(*_pair_index(flat, n), d_orig, d_map, ratio, infinite)
    )
    return dict(max_ratio=float(max_ratio), violations=violations,
                violation_count=violation_count, infinite_count=infinite_count,
                skipped_coincident=coincident)


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
    d_mapped / d_original > 1 + tol; `tol` must be a finite number >= 0,
    `sample_count` an integer >= 1 and a given `seed` an integer in
    [0, 2**64) (a bool is none of these), and `weights` are refused unless
    a metric is gower.  A sampled scan gathers rows of the inputs (copied
    only where scaling changes a value or when not C-contiguous) and holds
    O(_PAIR_BLOCK) more; an exhaustive one holds a column copy of each side
    and O(_CONDENSED_BLOCK + n), and never builds all n(n-1)/2 pairs.
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
    if not (is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise InvalidParams(f"tol must be a finite number >= 0, not {tol!r}")
    if not (is_integral(sample_count) and sample_count >= 1):
        raise InvalidParams(f"sample_count must be an integer >= 1, not {sample_count!r}")
    if seed is not None and not (is_integral(seed) and 0 <= seed < 2**64):
        raise InvalidParams(f"seed must be an integer in [0, 2**64), not {seed!r}")
    if weights is not None and "gower" not in (d_original, d_mapped):
        raise InvalidParams("weights apply to the gower metric only")
    for name, values in (("original", original), ("mapped", mapped)):
        if not np.isfinite(values).all():
            r, c = np.argwhere(~np.isfinite(values))[0]
            raise DegenerateInput(f"{name} row {r}, column {c} is {values[r, c]!r}, not finite")
    if d_mapped == "total_variation":     # abs(), unlike np.abs, reuses its temporary operand
        bad = np.flatnonzero((abs(mapped.sum(axis=1) - 1.0) > 1e-9) | (mapped < 0).any(axis=1))
        if len(bad):        # the row sums are not kept: the scan would hold them
            raise NotAProbabilityVector(f"mapped row {bad[0]} has a negative entry or sums to "
                                        f"{mapped[bad[0]].sum()!r}, not a probability vector")

    if sampling == "auto":
        sampling = "exhaustive" if n <= EXHAUSTIVE_LIMIT else "sampled"
    if sampling not in ("exhaustive", "sampled"):
        raise InvalidParams("sampling must be 'auto', 'exhaustive', or 'sampled'")

    total_pairs, seed_used = n * (n - 1) // 2, None
    if sampling == "sampled":
        if seed is None:
            raise InvalidParams("sampled mode requires a seed")
        total_pairs, seed_used = sample_count, seed
    blocks = _blocks(original, mapped, (d_original, d_mapped), weights, sample_count, seed_used)
    return LipschitzReport(
        **_fold(blocks, tol, n),
        pairs_examined=total_pairs,
        sampling=sampling,
        sample_seed=seed_used,
        tol=tol,
    )


def _column_order(header: list[str], prefix: str) -> list[int]:
    by_index: dict[int, int] = {}
    for pos, name in enumerate(header):
        if not name.startswith(prefix):
            continue
        if not name[2:].isdecimal():
            raise ParseError("column name needs an integer suffix", line=1, column=name)
        index = int(name[2:])
        if index in by_index:
            raise ParseError(f"header names {prefix}{index} twice", line=1, column=name)
        by_index[index] = pos
    return [by_index[index] for index in sorted(by_index)]


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
    non-finite token raises ParseError with the CSV line and column name, a
    row the csv module refuses with its line.  The file is read once,
    _LOAD_ROWS rows per np.loadtxt call, straight into the two row-major
    arrays it returns (grown geometrically, trimmed to n); only a malformed
    file is read a second time, row by row, to name its first fault, so a
    pipe is read into memory first.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if not fh.seekable():
            fh = io.StringIO(fh.read(), newline="")
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
        if header is None:
            raise DegenerateInput("mapped-pairs CSV has no header")
        x_cols, m_cols = _column_order(header, "x_"), _column_order(header, "m_")
        if not x_cols or not m_cols:
            raise DegenerateInput("header must contain x_* and m_* columns")
        p, n, chunk = len(x_cols), 0, None
        sides = np.empty((0, p)), np.empty((0, len(m_cols)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # a chunk without rows
                while chunk is None or len(chunk) == _LOAD_ROWS:
                    chunk = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                       usecols=x_cols + m_cols, ndmin=2, max_rows=_LOAD_ROWS)
                    if not np.isfinite(chunk).all():
                        raise ValueError("a non-finite value")    # the row pass names it
                    for side, part in zip(sides, (chunk[:, :p], chunk[:, p:])):
                        if n + len(chunk) > len(side):
                            side.resize((2 * n + _LOAD_ROWS, side.shape[1]), refcheck=False)
                        side[n:n + len(chunk)] = part
                    n += len(chunk)
            for side in sides:
                side.resize((n, side.shape[1]), refcheck=False)
        except ValueError:
            sides = None
        if sides is None:
            fh.seek(0)
            reader = csv.reader(fh)
            try:
                table = _parse_rows(reader, header, x_cols + m_cols)
            except csv.Error as exc:
                raise ParseError(str(exc), line=reader.line_num) from None
            sides = np.ascontiguousarray(table[:, :p]), np.ascontiguousarray(table[:, p:])
    if len(sides[0]) < 2:
        raise DegenerateInput("need at least 2 records to form a pair")
    return sides
