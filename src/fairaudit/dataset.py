"""Tabular dataset loading, validation, and exact stratification.

A dataset is a fixed-length collection of records with one sensitive column,
one observed target, one prediction, optional score, and a mixed list of
categorical / numeric feature columns.  Categorical columns are stored as
integer codes into a sorted category table, so two loads of the same data
always agree on the encoding.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyData,
    MissingColumn,
    NumericConditioning,
    ParseError,
    RoleViolation,
    is_real,
)

ROLES = ("sensitive", "target", "prediction", "feature", "score", "ignore")
KINDS = ("categorical", "numeric")

# roles that are stored as a single well-known column
_UNIQUE_ROLES = ("sensitive", "target", "prediction")

_MAX_KEY_SPAN = 1 << 62   # stratify re-ranks its mixed-radix key past this

# rows per chunk of the one pass over a CSV.  Fewer than the collector's
# first-generation threshold (700), so a chunk's row lists die before a
# collection can promote them; larger chunks set off full collections over
# the whole heap.  Only a chunk that holds a fault is walked row by row.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, role and kind of one CSV column."""

    name: str
    role: str
    kind: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise RoleViolation(f"unknown role {self.role!r} for column {self.name!r}")
        if self.kind not in KINDS:
            raise RoleViolation(f"unknown kind {self.kind!r} for column {self.name!r}")


@dataclass(frozen=True)
class Column:
    """One loaded column: categorical (codes + category table) or numeric.

    The codes or values are frozen on construction.
    """

    name: str
    kind: str
    codes: np.ndarray | None = None        # int64, categorical only
    categories: tuple[str, ...] | None = None
    values: np.ndarray | None = None       # float64, numeric only

    def __post_init__(self):
        field, dtype = (("codes", np.int64) if self.kind == "categorical"
                        else ("values", np.float64))
        data = np.asarray(getattr(self, field), dtype=dtype)
        data.flags.writeable = False
        object.__setattr__(self, field, data)

    @property
    def arity(self) -> int:
        if self.kind != "categorical":
            raise NumericConditioning(f"column {self.name!r} is numeric")
        return len(self.categories)

    def __len__(self) -> int:
        data = self.codes if self.kind == "categorical" else self.values
        return len(data)

    def equals(self, other: "Column") -> bool:
        if (self.name, self.kind, self.categories) != (other.name, other.kind, other.categories):
            return False
        if self.kind == "categorical":
            return np.array_equal(self.codes, other.codes)
        return np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class Provenance:
    source: str
    missing: str
    threshold: float | None
    dropped_rows: int


@dataclass(frozen=True)
class Dataset:
    """Immutable, validated audit dataset."""

    s: Column
    y: Column
    y_hat: Column
    features: tuple[Column, ...]
    score: Column | None
    provenance: Provenance

    @property
    def n(self) -> int:
        return len(self.s)

    def column(self, ref: str) -> Column:
        """Resolve a role name ('sensitive'/'target'/'prediction'/'score') or feature name."""
        if ref == "sensitive":
            return self.s
        if ref == "target":
            return self.y
        if ref == "prediction":
            return self.y_hat
        if ref == "score":
            if self.score is None:
                raise MissingColumn("dataset has no score column")
            return self.score
        for col in self.features:
            if col.name == ref:
                return col
        raise MissingColumn(f"no feature column named {ref!r}")

    def feature_names(self) -> list[str]:
        return [c.name for c in self.features]

    def has_numeric_features(self) -> bool:
        return any(c.kind == "numeric" for c in self.features)

    def equals(self, other: "Dataset") -> bool:
        if self.n != other.n:
            return False
        mine = [self.s, self.y, self.y_hat] + list(self.features)
        theirs = [other.s, other.y, other.y_hat] + list(other.features)
        if len(mine) != len(theirs):
            return False
        if (self.score is None) != (other.score is None):
            return False
        if self.score is not None:
            mine.append(self.score)
            theirs.append(other.score)
        return all(a.equals(b) for a, b in zip(mine, theirs))


def load_schema_config(source) -> tuple[list[ColumnSchema], float | None, str]:
    """Parse a JSON config with keys `columns`, optional `threshold`, `missing`.

    Each entry of `columns` is {name, role, kind}; other keys are ignored.
    Returns (schema list, threshold, missing mode).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    elif isinstance(source, dict):
        cfg = source
    else:
        cfg = json.load(source)
    if not isinstance(cfg, dict):
        raise RoleViolation("config must be a JSON object")
    if not (isinstance(cfg.get("columns"), list) and cfg["columns"]):
        raise RoleViolation("config must declare a non-empty 'columns' list")
    for i, c in enumerate(cfg["columns"]):
        for key in ("name", "role", "kind"):
            if not (isinstance(c, dict) and isinstance(c.get(key), str)):
                raise RoleViolation(f"columns[{i}] needs a string {key!r}")
    schema = [ColumnSchema(c["name"], c["role"], c["kind"]) for c in cfg["columns"]]
    threshold, missing = cfg.get("threshold"), cfg.get("missing", "error")
    _check_load_options(threshold, missing)
    return schema, threshold, missing


def _check_load_options(threshold, missing) -> None:
    if threshold is not None and not (is_real(threshold) and math.isfinite(threshold)):
        raise RoleViolation(f"'threshold' must be a finite number, got {threshold!r}")
    if missing not in ("error", "drop"):
        raise RoleViolation(f"missing mode must be 'error' or 'drop', got {missing!r}")


def _validate_schema(schema: Sequence[ColumnSchema], threshold: float | None) -> None:
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise RoleViolation("duplicate column names in schema")
    for role in _UNIQUE_ROLES:
        holders = [c for c in schema if c.role == role]
        if len(holders) != 1:
            raise RoleViolation(f"exactly one column must have role {role!r}, found {len(holders)}")
    scores = sum(c.role == "score" for c in schema)
    if scores > 1:
        raise RoleViolation(f"at most one column may have role 'score', found {scores}")
    for c in schema:
        if c.role in ("sensitive", "target") and c.kind != "categorical":
            raise RoleViolation(f"{c.role} column {c.name!r} must be categorical")
        if c.role == "prediction" and c.kind == "numeric" and threshold is None:
            raise RoleViolation(
                f"numeric prediction column {c.name!r} needs a threshold to binarize"
            )


def _as_text_stream(source):
    # utf-8-sig drops a leading byte-order mark, which would otherwise become
    # part of the first header name; every source is read with newline="",
    # as the csv module requires, so that bare \r line ends and a \r inside
    # a quoted field load the same from a path, bytes and a stream
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline=""), str(source), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8-sig"), newline=""), "<bytes>", False
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        return io.StringIO(data, newline=""), getattr(source, "name", "<stream>"), False
    raise TypeError(f"unsupported CSV source {type(source)!r}")


class _Encoder:
    """One column, encoded chunk by chunk as its tokens are read.

    A categorical token takes the next code at its first appearance; a numeric
    one is parsed by float, which raises ValueError at a non-numeric token.
    finish() returns (values, None), or (codes, categories) with the category
    table sorted and the codes renumbered by it.
    """

    def __init__(self, kind: str):
        self.table = collections.defaultdict()
        self.table.default_factory = self.table.__len__     # the next code
        self.numeric = kind == "numeric"
        self.dtype = np.float64 if self.numeric else np.int64
        self.parse = float if self.numeric else self.table.__getitem__
        self.chunks = [np.empty(0, self.dtype)]     # so that finish() has one to concatenate

    def extend(self, tokens: Sequence[str]) -> None:
        self.chunks.append(np.fromiter(map(self.parse, tokens), self.dtype, len(tokens)))

    def finish(self) -> tuple[np.ndarray, tuple[str, ...] | None]:
        data, self.chunks = np.concatenate(self.chunks), None
        if self.numeric:
            return data, None
        categories = tuple(sorted(self.table))
        rank = dict(zip(categories, itertools.count()))
        return np.array([rank[c] for c in self.table], dtype=np.int64)[data], categories


def _row_lines(chunk: list[list[str]], start: int, end: int) -> list[int]:
    """The CSV line each non-blank row of a chunk ends on, the chunk read
    after line `start` up to line `end`.  A row takes one line, plus one for
    each line break in its fields (\r\n counts once); a quoted field cut off
    by the end of the file holds its last line's break, so none passes `end`.
    """
    spans = (1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
             for row in chunk)
    return [min(start + n, end) for n, row in zip(itertools.accumulate(spans), chunk) if row]


def _numeric_fault(tokens: Sequence[str], lines: Sequence[int], name: str) -> ParseError | None:
    """The first non-numeric token of a numeric column's chunk, or else its
    first non-finite one, as a ParseError at its line."""
    fault = None
    for token, line in zip(tokens, lines):
        try:
            value = float(token)
        except ValueError:
            return ParseError(f"non-numeric token {token!r}", line=line, column=name)
        if fault is None and not math.isfinite(value):
            fault = ParseError(f"non-finite numeric token {token!r}", line=line, column=name)
    return fault


def _read_columns(reader, width: int, positions: list[int], used: list[ColumnSchema],
                  missing: str) -> tuple[list[tuple[np.ndarray, tuple | None]], int]:
    """The one pass over the data rows: each used column, at its header
    position in `positions`, encoded `_CHUNK_ROWS` rows at a time as they are
    read, and the count of dropped rows.  Only a chunk that holds a row of
    another width, an empty used cell, a csv error or a numeric fault is
    walked row by row; faults are raised in the order load_dataset states.
    """
    encoders = [_Encoder(c.kind) for c in used]
    faults: dict[int, ParseError] = {}      # column -> its numeric fault so far
    dropped = 0
    while True:
        start, chunk, error = reader.line_num, [], None
        try:
            chunk.extend(itertools.islice(reader, _CHUNK_ROWS))    # keeps the rows before an error
        except csv.Error as exc:
            error = exc
        if not (chunk or error):
            break
        end, lines = reader.line_num, None
        rows = [row for row in chunk if row]
        cells = list(zip(*rows)) or [()] * width
        if error or set(map(len, rows)) - {width} or any("" in cells[p] for p in positions):
            lines, keep = _row_lines(chunk, start, end), []
            for row, line in zip(rows, lines):
                if len(row) != width:
                    raise ParseError(f"row has {len(row)} fields, header has {width}", line=line)
                empty = [c.name for c, pos in zip(used, positions) if row[pos] == ""]
                if empty and missing == "error":
                    raise ParseError("missing value", line=line, column=empty[0])
                keep.append(not empty)
            if error:
                raise error
            dropped += keep.count(False)
            rows, lines = (list(itertools.compress(x, keep)) for x in (rows, lines))
            cells = list(zip(*rows)) or [()] * width
        cells = [cells[pos] for pos in positions]
        for j, encoder in enumerate(encoders):
            if encoder is None:
                continue                    # past the column's first non-numeric token
            try:
                encoder.extend(cells[j])
                if not encoder.numeric or j in faults or np.isfinite(encoder.chunks[-1]).all():
                    continue
            except ValueError:
                encoders[j] = None          # that token outranks any non-finite one
            lines = _row_lines(chunk, start, end) if lines is None else lines
            faults[j] = _numeric_fault(cells[j], lines, used[j].name)
        del chunk, rows, cells      # before the next chunk is read
    if faults:
        raise faults[min(faults)]
    return [e.finish() for e in encoders], dropped


def load_dataset(
    source,
    schema: Sequence[ColumnSchema],
    *,
    threshold: float | None = None,
    missing: str = "error",
) -> Dataset:
    """Load and validate a CSV (path, bytes, or file object) against a schema.

    Blank lines are skipped.  Missing cells (empty fields) either raise with
    line/column context (missing='error', the default) or drop the whole row
    (missing='drop'); dropped rows are counted in provenance.  Numeric
    prediction and score columns are binarized as (value >= threshold) when
    a threshold is given.

    The file is read once, a few hundred rows at a time, each used column
    encoded as its rows are read.  Faults are raised in this order: at the
    first row of the wrong width or with an empty used cell (width first); at
    a row the csv module refuses, once the rows before it are checked; then,
    once the whole file is read, the first numeric column in schema order
    with a bad token raises at its first non-numeric one, else its first non-finite.
    """
    _check_load_options(threshold, missing)
    _validate_schema(schema, threshold)
    stream, source_name, close = _as_text_stream(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData("CSV has no header row") from None
        for col in schema:
            if col.name not in header:
                raise MissingColumn(f"column {col.name!r} not in CSV header")
            if header.count(col.name) > 1:
                raise ParseError(f"header names column {col.name!r} {header.count(col.name)} "
                                 "times", line=1)

        used = [c for c in schema if c.role != "ignore"]
        positions = [header.index(c.name) for c in used]
        encoded, dropped = _read_columns(reader, len(header), positions, used, missing)
        if not len(encoded[0][0]):
            raise EmptyData("CSV has no data rows" + (" after drops" if dropped else ""))
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    finally:
        if close:
            stream.close()

    columns: dict[str, Column] = {}
    for c, (data, categories) in zip(used, encoded):
        if categories is None and (c.role == "prediction"
                                   or (c.role == "score" and threshold is not None)):
            data, categories = (data >= threshold).astype(np.int64), ("0", "1")
        columns[c.name] = (Column(c.name, "numeric", values=data) if categories is None
                           else Column(c.name, "categorical", codes=data, categories=categories))

    by_role = {c.role: columns[c.name] for c in used if c.role in _UNIQUE_ROLES}
    score = next((columns[c.name] for c in used if c.role == "score"), None)
    features = tuple(columns[c.name] for c in used if c.role == "feature")

    if by_role["sensitive"].arity < 2:
        raise RoleViolation("sensitive column must have at least 2 categories")

    return Dataset(
        s=by_role["sensitive"],
        y=by_role["target"],
        y_hat=by_role["prediction"],
        features=features,
        score=score,
        provenance=Provenance(source_name, missing, threshold, dropped),
    )


def save_csv(dataset: Dataset, target) -> None:
    """Write the dataset back to CSV; reloading with the same schema round-trips."""
    if isinstance(target, (str, Path)):
        fh = open(target, "w", encoding="utf-8", newline="")
        close = True
    else:
        fh = target
        close = False
    try:
        writer = csv.writer(fh)
        cols = [dataset.s, dataset.y, dataset.y_hat]
        if dataset.score is not None:
            cols.append(dataset.score)
        cols.extend(dataset.features)
        writer.writerow([c.name for c in cols])
        for i in range(dataset.n):
            row = []
            for c in cols:
                if c.kind == "categorical":
                    row.append(c.categories[c.codes[i]])
                else:
                    row.append(repr(float(c.values[i])))
            writer.writerow(row)
    finally:
        if close:
            fh.close()


class Strata(Mapping):
    """Read-only view of a stratification: stratum key -> ascending record indices.

    Strata are numbered in lexicographic key order: labels[i] is record i's
    stratum g, sizes[g] its record count and codes[g] its key as a row of a
    (G, m) int64 array, all three frozen on construction and equal from either
    rank branch of stratify.  Stratum g owns order[bounds[g]:bounds[g + 1]];
    order, bounds and the index slices are computed only on access.
    """

    def __init__(self, labels: np.ndarray, sizes: np.ndarray, codes: np.ndarray):
        for arr in (labels, sizes, codes):
            arr.flags.writeable = False
        self.labels, self.sizes, self.codes = labels, sizes, codes

    @functools.cached_property
    def order(self) -> np.ndarray:
        return np.argsort(self.labels, kind="stable")

    @functools.cached_property
    def bounds(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.sizes)))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return map(tuple, self.codes.tolist())

    @functools.cached_property
    def _index(self) -> dict:
        return {key: g for g, key in enumerate(self)}

    def __getitem__(self, key) -> np.ndarray:
        g = self._index[key]
        return self.order[self.bounds[g]:self.bounds[g + 1]]


def _dense_rank(key: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sizes): each key's rank among the distinct keys in [0, span),
    ascending, and each rank's count.  A span of at most n keys is ranked by
    counting in O(n + span) (Knuth, TAOCP vol. 3, 5.2); a sparser one is sorted.
    """
    if span > len(key):
        _, labels, sizes = np.unique(key, return_inverse=True, return_counts=True)
        return labels, sizes
    counts = np.bincount(key, minlength=span)
    distinct = np.flatnonzero(counts)
    rank = np.empty(span, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return rank[key], counts[distinct]


def stratify(dataset: Dataset, condition_columns: Iterable[str]) -> Strata:
    """Partition record indices by exact value combination of the given columns.

    Keys are tuples of category codes, iterated in lexicographic order; each
    stratum's indices ascend.  An empty condition set yields the single
    stratum () holding all records.  The strata are ranked by counting over
    the mixed-radix key space when it spans at most n keys, by a sort otherwise.
    """
    refs = list(condition_columns)
    cols = [dataset.column(r) for r in refs]
    for r, c in zip(refs, cols):
        if c.kind != "categorical":
            raise NumericConditioning(f"cannot stratify on numeric column {r!r}")
    # lexicographic dense rank: a mixed-radix key per record, re-ranked
    # whenever the next digit could overflow int64, so keys sort like codes
    key = np.zeros(dataset.n, dtype=np.int64)
    span = 1
    for c in cols:
        if span * c.arity > _MAX_KEY_SPAN:
            key, sizes = _dense_rank(key, span)
            span = len(sizes)
        key *= c.arity
        key += c.codes
        span *= c.arity
    labels, sizes = _dense_rank(key, span)
    member = np.empty(len(sizes), dtype=np.int64)
    member[labels] = np.arange(dataset.n)      # any one record of each stratum
    codes = np.empty((len(sizes), len(cols)), dtype=np.int64)
    for j, c in enumerate(cols):
        codes[:, j] = c.codes[member]
    return Strata(labels, sizes, codes)
