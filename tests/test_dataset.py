import csv
import io
import math
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.dataset import (
    Column,
    ColumnSchema,
    Dataset,
    Provenance,
    load_dataset,
    load_schema_config,
    save_csv,
    stratify,
)
from fairaudit.errors import (
    EmptyData,
    FairauditError,
    MissingColumn,
    NumericConditioning,
    ParseError,
    RoleViolation,
)
from fairaudit.scenarios import ScenarioSpec, generate
from fairaudit.tables import stratified_contingency


def _schema(extra=()):
    base = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ]
    return base + list(extra)


def _load(text, schema, **opts):
    return load_dataset(io.BytesIO(text.encode()), schema, **opts)


def test_minimal_load():
    ds = _load(
        "s,y,yhat,x1\na,0,0,u\nb,1,1,v\na,1,0,u\n",
        _schema([ColumnSchema("x1", "feature", "categorical")]),
    )
    assert ds.n == 3
    assert ds.s.categories == ("a", "b")
    assert list(ds.s.codes) == [0, 1, 0]
    assert ds.feature_names() == ["x1"]


def test_missing_column():
    with pytest.raises(MissingColumn):
        _load("s,y,yhat\na,0,0\n", _schema([ColumnSchema("race", "feature", "categorical")]))


def test_duplicate_role_rejected():
    schema = _schema() + [ColumnSchema("s2", "sensitive", "categorical")]
    with pytest.raises(RoleViolation):
        _load("s,y,yhat,s2\na,0,0,a\n", schema)


def test_two_score_columns_rejected():
    schema = _schema([ColumnSchema("p1", "score", "numeric"),
                      ColumnSchema("p2", "score", "numeric")])
    with pytest.raises(RoleViolation, match="at most one column may have role 'score'"):
        _load("s,y,yhat,p1,p2\na,0,0,0.1,0.2\nb,1,1,0.3,0.4\n", schema)


def test_three_category_sensitive_accepted():
    ds = _load("s,y,yhat\na,0,0\nb,1,1\nc,0,1\n", _schema())
    assert ds.s.arity == 3


def test_constant_sensitive_rejected():
    with pytest.raises(RoleViolation):
        _load("s,y,yhat\na,0,0\na,1,1\n", _schema())


def test_parse_error_reports_position():
    schema = _schema([ColumnSchema("age", "feature", "numeric")])
    with pytest.raises(ParseError) as err:
        _load("s,y,yhat,age\na,0,0,12\nb,1,1,oops\n", schema)
    assert err.value.line == 3
    assert err.value.column == "age"


def test_empty_data():
    with pytest.raises(EmptyData):
        _load("s,y,yhat\n", _schema())


def test_missing_value_error_mode():
    with pytest.raises(ParseError) as err:
        _load("s,y,yhat\na,0,0\nb,,1\n", _schema())
    assert err.value.line == 3


def test_missing_value_drop_mode():
    ds = _load("s,y,yhat\na,0,0\nb,,1\nb,1,1\n", _schema(), missing="drop")
    assert ds.n == 2
    assert ds.provenance.dropped_rows == 1


@pytest.mark.parametrize("bad_row, column", [("b,1,1", None), ("b,,1,2", "y"),
                                             ("b,1,1,oops", "age")])
def test_error_line_counts_the_lines_of_a_multi_line_field(bad_row, column):
    # the quoted token on line 2 spans two lines, so the bad row is on line 4
    schema = _schema([ColumnSchema("age", "feature", "numeric"),
                      ColumnSchema("note", "ignore", "categorical")])
    text = f's,y,yhat,age,note\na,0,0,12,"first\nsecond"\n{bad_row},x\n'
    with pytest.raises(ParseError) as err:
        _load(text, schema)
    assert err.value.line == 4
    assert err.value.column == column


def test_numeric_prediction_binarized():
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("score", "prediction", "numeric"),
    ]
    ds = load_dataset(
        io.BytesIO(b"s,y,score\na,0,0.2\nb,1,0.9\na,1,0.5\n"), schema, threshold=0.5
    )
    assert ds.y_hat.kind == "categorical"
    assert list(ds.y_hat.codes) == [0, 1, 1]  # value >= threshold


def test_numeric_prediction_without_threshold_rejected():
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("score", "prediction", "numeric"),
    ]
    with pytest.raises(RoleViolation):
        load_dataset(io.BytesIO(b"s,y,score\na,0,0.2\nb,1,0.9\n"), schema)


def test_roundtrip_identical():
    schema = _schema([
        ColumnSchema("x1", "feature", "categorical"),
        ColumnSchema("x2", "feature", "numeric"),
    ])
    ds = _load(
        "s,y,yhat,x1,x2\na,0,0,u,0.125\nb,1,1,v,7.5\na,1,0,w,-3.25\nb,0,1,u,0.1\n",
        schema,
    )
    buf = io.StringIO()
    save_csv(ds, buf)
    ds2 = load_dataset(io.BytesIO(buf.getvalue().encode()), schema)
    assert ds.equals(ds2)


def test_load_order_stable_under_permutation():
    schema = _schema([ColumnSchema("x1", "feature", "categorical")])
    rows = ["a,0,0,u", "b,1,1,v", "a,1,0,w", "b,0,1,u"]
    ds = _load("s,y,yhat,x1\n" + "\n".join(rows) + "\n", schema)
    perm = [2, 0, 3, 1]
    ds_p = _load("s,y,yhat,x1\n" + "\n".join(rows[i] for i in perm) + "\n", schema)
    assert ds_p.s.categories == ds.s.categories
    assert ds_p.column("x1").categories == ds.column("x1").categories
    assert np.array_equal(ds_p.s.codes, ds.s.codes[perm])
    assert np.array_equal(ds_p.column("x1").codes, ds.column("x1").codes[perm])


def test_stratify_partition():
    schema = _schema([
        ColumnSchema("x1", "feature", "categorical"),
        ColumnSchema("x2", "feature", "categorical"),
    ])
    ds = _load(
        "s,y,yhat,x1,x2\n"
        "a,0,0,u,p\nb,1,1,u,q\na,1,0,v,p\nb,0,1,v,q\na,0,1,u,p\nb,1,0,v,q\n",
        schema,
    )
    strata = stratify(ds, ["x1", "x2"])
    sizes = [len(idx) for idx in strata.values()]
    assert sum(sizes) == ds.n
    seen = np.sort(np.concatenate(list(strata.values())))
    assert np.array_equal(seen, np.arange(ds.n))
    assert list(strata.keys()) == sorted(strata.keys())


def test_stratify_empty_condition_single_stratum():
    ds = _load("s,y,yhat\na,0,0\nb,1,1\n", _schema())
    strata = stratify(ds, [])
    assert list(strata.keys()) == [()]
    assert np.array_equal(strata[()], np.arange(2))


def test_stratify_numeric_column_rejected():
    schema = _schema([ColumnSchema("x1", "feature", "numeric")])
    ds = _load("s,y,yhat,x1\na,0,0,1.5\nb,1,1,2.5\n", schema)
    with pytest.raises(NumericConditioning):
        stratify(ds, ["x1"])


def test_core_types_freeze_their_arrays_on_every_route():
    loaded = _load("s,y,yhat,x1,x2\na,0,0,u,0.5\nb,1,1,v,1.5\na,1,0,u,2.5\n",
                   _schema([ColumnSchema("x1", "feature", "categorical"),
                            ColumnSchema("x2", "feature", "numeric")]))
    planted, _ = generate(ScenarioSpec("planted_unfair_cluster", 50, 1))
    discrete, _ = generate(ScenarioSpec("illegal_proxy", 50, 1))
    columns = [Column("c", "categorical", codes=np.array([0, 1, 0]), categories=("0", "1")),
               Column("v", "numeric", values=[1, 2, 3])]
    for ds in (loaded, planted, discrete):
        columns += [ds.s, ds.y, ds.y_hat, *ds.features]
    strata = stratify(loaded, ["x1"])
    tables = stratified_contingency(loaded, "prediction", "sensitive", ["x1"], min_count=1)
    arrays = [c.codes if c.kind == "categorical" else c.values for c in columns]
    arrays += [strata.labels, strata.sizes, strata.codes,
               tables.keys, tables.weights, tables.table.counts]
    assert not any(a.flags.writeable for a in arrays)
    assert columns[1].values.dtype == np.float64


def test_schema_config_parsing():
    cfg = {
        "columns": [
            {"name": "s", "role": "sensitive", "kind": "categorical"},
            {"name": "y", "role": "target", "kind": "categorical"},
            {"name": "p", "role": "prediction", "kind": "numeric",
             "positive_label": "1"},
        ],
        "threshold": 0.7,
        "missing": "drop",
    }
    schema, threshold, missing = load_schema_config(cfg)
    assert len(schema) == 3
    assert threshold == 0.7
    assert missing == "drop"


@pytest.mark.parametrize("token", ["nan", "NaN", "NAN", "inf", "Inf", "-inf", "-INF",
                                   "+inf", "infinity", "-Infinity"])
def test_non_finite_numeric_token_rejected(token):
    schema = _schema([ColumnSchema("age", "feature", "numeric")])
    with pytest.raises(ParseError) as err:
        _load(f"s,y,yhat,age\na,0,0,12\nb,1,1,{token}\n", schema)
    assert err.value.line == 3
    assert err.value.column == "age"
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
def test_byte_order_mark_is_not_part_of_the_first_header(kind, tmp_path):
    blob = "\ufeffs,y,yhat\na,0,0\nb,1,1\n".encode("utf-8")
    path = tmp_path / "bom.csv"
    path.write_bytes(blob)
    source = {"path": str(path), "bytes": blob, "stream": io.BytesIO(blob)}[kind]
    ds = load_dataset(source, _schema())
    assert ds.n == 2
    assert ds.s.name == "s"
    assert ds.s.categories == ("a", "b")


@pytest.mark.parametrize("text", [
    "s,y,yhat,x1\ra,0,0,u\rb,1,1,v\r",
    "s,y,yhat,x1\r\na,0,0,u\r\nb,1,1,v\r\n",
    "s,y,yhat,x1\na,0,0,u\nb,1,1,v\n",
    's,y,yhat,x1\na,0,0,"u\rw"\nb,1,1,v\n',
], ids=["cr", "crlf", "lf", "quoted-cr"])
def test_path_bytes_and_stream_sources_agree_on_line_ends(text, tmp_path):
    blob = text.encode("utf-8")
    path = tmp_path / "ends.csv"
    path.write_bytes(blob)
    schema = _schema([ColumnSchema("x1", "feature", "categorical")])
    from_path, *others = [load_dataset(source, schema) for source in
                          (str(path), blob, io.BytesIO(blob), io.StringIO(text, newline=""))]
    assert from_path.n == 2
    assert from_path.features[0].categories == (("u\rw", "v") if '"' in text else ("u", "v"))
    for ds in others:
        assert ds.equals(from_path)


def _config(columns=None, **extra):
    columns = columns or [
        {"name": "s", "role": "sensitive", "kind": "categorical"},
        {"name": "y", "role": "target", "kind": "categorical"},
        {"name": "p", "role": "prediction", "kind": "numeric"},
    ]
    return {"columns": columns, **extra}


@pytest.mark.parametrize("key", ["name", "role", "kind"])
def test_schema_config_column_missing_a_field_rejected(key):
    cfg = _config()
    del cfg["columns"][1][key]
    with pytest.raises(RoleViolation) as err:
        load_schema_config(cfg)
    assert "columns[1]" in str(err.value) and repr(key) in str(err.value)


@pytest.mark.parametrize("key,value", [("name", 3), ("role", None), ("kind", ["numeric"])])
def test_schema_config_non_string_column_field_rejected(key, value):
    cfg = _config()
    cfg["columns"][2][key] = value
    with pytest.raises(RoleViolation) as err:
        load_schema_config(cfg)
    assert "columns[2]" in str(err.value) and repr(key) in str(err.value)


@pytest.mark.parametrize("threshold", ["0.5", True, False, float("nan"), float("inf"), [0.5]])
def test_schema_config_threshold_must_be_a_finite_number(threshold):
    with pytest.raises(RoleViolation) as err:
        load_schema_config(_config(threshold=threshold))
    assert "'threshold'" in str(err.value)


def test_schema_config_integer_threshold_accepted():
    assert load_schema_config(_config(threshold=1))[1] == 1


_NUMERIC_PREDICTION = [ColumnSchema("s", "sensitive", "categorical"),
                       ColumnSchema("y", "target", "categorical"),
                       ColumnSchema("p", "prediction", "numeric")]


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), True, np.bool_(False),
                                       "x", "0.5", [0.5]])
def test_load_dataset_threshold_must_be_a_finite_number(threshold):
    with pytest.raises(RoleViolation) as err:
        _load("s,y,p\na,0,0.2\nb,1,0.9\n", _NUMERIC_PREDICTION, threshold=threshold)
    assert "'threshold'" in str(err.value)


@pytest.mark.parametrize("threshold", [1, 0.5, np.float64(0.5), np.int64(1)])
def test_load_dataset_accepts_a_numeric_threshold(threshold):
    ds = _load("s,y,p\na,0,0.2\nb,1,1\n", _NUMERIC_PREDICTION, threshold=threshold)
    assert list(ds.y_hat.codes) == [0, 1]


@pytest.mark.parametrize("missing", ["dorp", "Drop", "", None])
def test_load_dataset_missing_mode_must_be_error_or_drop(missing):
    with pytest.raises(RoleViolation) as err:
        _load("s,y,yhat\na,0,0\nb,1,1\n", _schema(), missing=missing)
    assert "missing mode" in str(err.value)


def test_duplicated_header_name_is_a_parse_error_at_line_1():
    with pytest.raises(ParseError) as err:
        _load("s,y,yhat,s\na,0,0,b\nb,1,1,a\n", _schema())
    assert err.value.line == 1
    assert "'s'" in str(err.value)


def test_duplicated_unreferenced_header_name_is_allowed():
    ds = _load("s,y,yhat,z,z\na,0,0,1,2\nb,1,1,3,4\n", _schema())
    assert ds.n == 2


_CELL = st.text(alphabet=st.sampled_from(list('ab,"\n\r \u00e9\u4e2d\ufeff')),
                min_size=1, max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(_CELL, _CELL, _CELL), min_size=1, max_size=12),
       s_first=st.sampled_from(["\ufeffa", " b ", 'c,"d"']))
def test_csv_round_trip_with_quoting_and_unicode(rows, s_first):
    # s needs two categories; the first row's sensitive cell varies the text
    s = [s_first] + ["x" if i % 2 else "y" for i in range(1, len(rows) + 1)]
    schema = _schema([ColumnSchema("x1", "feature", "categorical")])
    lines = [["s", "y", "yhat", "x1"]] + [[s[i], *row] for i, row in enumerate(rows)]
    buf = io.StringIO()
    csv.writer(buf).writerows(lines + [["y", "0", "0", "0"]])
    ds = load_dataset(io.BytesIO(buf.getvalue().encode("utf-8")), schema)
    out = io.StringIO()
    save_csv(ds, out)
    again = load_dataset(io.BytesIO(out.getvalue().encode("utf-8")), schema)
    assert ds.equals(again)
    for name in ("sensitive", "target", "prediction", "x1"):
        assert again.column(name).categories == ds.column(name).categories
    assert ds.s.categories[ds.s.codes[0]] == s_first
    assert ds.column("x1").categories[ds.column("x1").codes[0]] == rows[0][2]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_once_when_rows_are_dropped(tmp_path):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, daemon=True,
                              args=(b"s,y,yhat\na,0,0\nb,,1\nb,1,1\n",))
    writer.start()
    ds = load_dataset(str(path), _schema(), missing="drop")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert ds.n == 2 and ds.provenance.dropped_rows == 1


def _reference_load(source, schema, threshold=None, missing="error"):
    """A row-by-row loader: the documented semantics of load_dataset, spelled out.

    Rows are read in file order and blank lines are skipped.  A row of the
    wrong width raises at its line; a row with an empty used cell raises or is dropped.  Then each
    used column, in schema order, is encoded; a numeric column raises at its
    first non-numeric token, then at its first non-finite one.
    """
    if isinstance(source, (str, Path)):
        stream, name = open(source, encoding="utf-8-sig", newline=""), str(source)
    elif isinstance(source, bytes):
        stream, name = io.StringIO(source.decode("utf-8-sig")), "<bytes>"
    else:
        stream, name = io.StringIO(source.read().decode("utf-8-sig")), "<stream>"
    with stream:
        reader = csv.reader(stream)
        header = next(reader)
        for c in schema:
            if c.name not in header:
                raise MissingColumn(f"column {c.name!r} not in CSV header")
            if header.count(c.name) > 1:
                raise ParseError(f"header names column {c.name!r} {header.count(c.name)} times",
                                 line=1)
        used = [c for c in schema if c.role != "ignore"]
        tokens = {c.name: [] for c in used}
        lines, dropped = [], 0
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"row has {len(row)} fields, header has {len(header)}",
                                 line=reader.line_num)
            cells = {c.name: row[header.index(c.name)] for c in used}
            blank = next((name for name, cell in cells.items() if cell == ""), None)
            if blank is not None:
                if missing == "drop":
                    dropped += 1
                    continue
                raise ParseError("missing value", line=reader.line_num, column=blank)
            for c in used:
                tokens[c.name].append(cells[c.name])
            lines.append(reader.line_num)
    if not lines:
        raise EmptyData("CSV has no data rows" + (" after drops" if dropped else ""))
    columns = {}
    for c in used:
        toks = tokens[c.name]
        if c.kind == "categorical":
            cats = tuple(sorted(set(toks)))
            columns[c.name] = Column(c.name, "categorical", categories=cats,
                                     codes=[cats.index(t) for t in toks])
            continue
        values = []
        for tok, line in zip(toks, lines):
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"non-numeric token {tok!r}", line=line, column=c.name) from None
        for value, tok, line in zip(values, toks, lines):
            if not math.isfinite(value):
                raise ParseError(f"non-finite numeric token {tok!r}", line=line, column=c.name)
        if c.role == "prediction" or (c.role == "score" and threshold is not None):
            columns[c.name] = Column(c.name, "categorical", categories=("0", "1"),
                                     codes=[int(v >= threshold) for v in values])
        else:
            columns[c.name] = Column(c.name, "numeric", values=values)
    role = {c.role: columns[c.name] for c in used}
    if role["sensitive"].arity < 2:
        raise RoleViolation("sensitive column must have at least 2 categories")
    return Dataset(s=role["sensitive"], y=role["target"], y_hat=role["prediction"],
                   features=tuple(columns[c.name] for c in used if c.role == "feature"),
                   score=role.get("score"),
                   provenance=Provenance(name, missing, threshold, dropped))


def _outcome(load, blob, kind, directory, schema, **opts):
    """load's Dataset, or the type, message, line and column of its error.

    A csv.Error (an unquoted carriage return under the bytes reader) is an
    outcome too: both loaders must raise it at the same point.
    """
    if kind == "path":
        source = os.path.join(directory, "data.csv")
        Path(source).write_bytes(blob)
    else:
        source = blob if kind == "bytes" else io.BytesIO(blob)
    try:
        return load(source, schema, **opts)
    except (FairauditError, csv.Error) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


def _assert_loads_like_the_reference(blob, kind, schema, **opts):
    with tempfile.TemporaryDirectory() as directory:
        got = _outcome(load_dataset, blob, kind, directory, schema, **opts)
        want = _outcome(_reference_load, blob, kind, directory, schema, **opts)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.equals(want)     # every column's name, kind, category table and codes or values
    assert got.provenance == want.provenance


_CLEAN = {
    "categorical": ["a", "b", "c", "a", "b", " a", "a,b", "\u00e9", 'say "hi"'],
    "numeric": ["0", "1", "0.5", "-2.25", "1e3", " 7 ", "0.1", "3", "1_0"],
    "note": ["", "free text", "x,y", '"'],
}
_FAULT_TOKENS = {"blank": "", "word": "x", "nan": "nan", "-inf": "-inf", "two lines": "1\r\n2",
                 "quoted newline": "b\nc", "carriage return": "cr\rinside"}


@st.composite
def _audit_csvs(draw):
    numeric_prediction = draw(st.booleans())
    score = draw(st.sampled_from([None, "numeric", "binarized"]))
    schema = [ColumnSchema("s", "sensitive", "categorical"),
              ColumnSchema("y", "target", "categorical"),
              ColumnSchema("p", "prediction", "numeric" if numeric_prediction else "categorical"),
              ColumnSchema("num", "feature", "numeric"),
              ColumnSchema("cat", "feature", "categorical"),
              ColumnSchema("note", "ignore", "categorical")]
    if score:
        schema.append(ColumnSchema("score", "score", "numeric"))
    threshold = 0.5 if numeric_prediction or score == "binarized" else None
    header = draw(st.permutations([c.name for c in schema]))
    kinds = {c.name: "note" if c.role == "ignore" else c.kind for c in schema}
    kinds["s"] = "sensitive"
    pools = {**_CLEAN, "sensitive": ["a", "b"]}
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pools[kinds[h]]) for h in header))
                         .map(list), min_size=1, max_size=12))
    if draw(st.integers(0, 3)):     # most inputs get both sensitive categories
        for i, row in enumerate(rows):
            row[header.index("s")] = "ab"[i % 2]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(header) - 1))
        fault = draw(st.sampled_from(["short", "long", *_FAULT_TOKENS]))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("z")
        elif j < len(row):
            row[j] = _FAULT_TOKENS[fault]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=ending).writerows([header] + rows)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text[:-len(ending)]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8"), schema, threshold


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_audit_csvs(), kind=st.sampled_from(["path", "bytes", "stream"]),
       missing=st.sampled_from(["error", "drop"]))
def test_load_matches_a_row_by_row_reference(case, kind, missing):
    blob, schema, threshold = case
    _assert_loads_like_the_reference(blob, kind, schema, threshold=threshold, missing=missing)


@pytest.mark.parametrize("fault, missing", [
    (None, "error"), ("blank", "error"), ("blank", "drop"), ("short", "error"),
    ("two lines", "error"), ("word", "error"), ("nan", "error"),
])
@pytest.mark.parametrize("at", [3, 1500])
def test_a_late_fault_in_a_long_file_loads_like_the_reference(fault, missing, at):
    schema = _schema([ColumnSchema("num", "feature", "numeric"),
                      ColumnSchema("cat", "feature", "categorical")])
    rows = [[("a", "b")[i % 2], str(i % 2), str(i % 3 % 2), f"{i / 7!r}", "uvw"[i % 3]]
            for i in range(2000)]
    if fault == "short":
        rows[at].pop()
    elif fault is not None:
        rows[at][3] = _FAULT_TOKENS[fault]
    rows[at + 400][4] = "a,b"    # a quoted comma on one line
    buf = io.StringIO()
    csv.writer(buf).writerows([["s", "y", "yhat", "num", "cat"]] + rows)
    _assert_loads_like_the_reference(buf.getvalue().encode(), "bytes", schema, missing=missing)


@pytest.mark.parametrize("missing", ["error", "drop"])
@pytest.mark.parametrize("text, lines", [
    ("s,y,yhat\na,0,0\nb,1,1\n\n", [2, 3]),                     # trailing blank line
    ("s,y,yhat\r\na,0,0\r\n\r\nb,1,1\r\n", [2, 4]),              # inner blank line
    ("s,y,yhat\n\na,0,0\n\n\nb,1,1\n\n", [3, 6]),                 # several of both
])
def test_blank_lines_are_skipped_and_not_dropped(text, lines, missing):
    _assert_loads_like_the_reference(text.encode(), "bytes", _schema(), missing=missing)
    ds = _load(text, _schema(), missing=missing)
    assert list(ds.s.codes) == [0, 1] and ds.provenance.dropped_rows == 0
    bad = text.replace("b,1,1", "b,1,x")
    numeric = _schema()[:2] + [ColumnSchema("yhat", "prediction", "numeric")]
    with pytest.raises(ParseError) as err:      # a later fault keeps its line
        _load(bad, numeric, threshold=0.5, missing=missing)
    assert err.value.line == lines[1]


def test_a_file_of_blank_lines_has_no_data_rows():
    with pytest.raises(EmptyData, match="no data rows$"):
        _load("s,y,yhat\n\n\n", _schema(), missing="drop")
