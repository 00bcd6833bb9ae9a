import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.dataset import ColumnSchema, load_dataset, load_schema_config, save_csv, stratify
from fairaudit.errors import (
    EmptyData,
    MissingColumn,
    NumericConditioning,
    ParseError,
    RoleViolation,
)


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
    assert schema[2].positive_label == "1"


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
