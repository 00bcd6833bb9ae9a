"""The columnar per_stratum writer against the generic JSON writer.

An exact result's per-stratum rows reach the report as a view over the
measure's columns, and `canonical_json` writes that view in one pass.  The
oracle here is the row-by-row path: each (key, MeasureValue, weight) of
the StratumValues sequence turned into a row dict as the report always
has, then written value by value by the generic writer.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairaudit.report as report_module
from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.measures import StratumValues
from fairaudit.report import AuditConfig, _StratumRows, canonical_json, render, run_audit

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_FLOATS = st.one_of(
    st.integers(-10**6, 10**6).map(float),
    st.sampled_from([0.0, -0.0, 1.0, 1e-300, 1e22, 1e16, 1e17, 0.1, 2.0 ** 53]),
    st.floats(allow_nan=False, allow_infinity=False),
)

_VACUOUS_AUX = {"none": None, "chi2": {"dof": 0, "degenerate": True},
                "ber": {"degenerate": True}, "plain": {}}


def _oracle_rows(strata: StratumValues) -> list:
    rows = []
    for key, mv, weight in strata:
        row = {"key": [int(v) for v in key], "value": mv.value, "weight": weight}
        if "rate_gap" in mv.aux:
            row["rate_gap"] = mv.aux["rate_gap"]
        if mv.aux.get("degenerate"):
            row["degenerate"] = True
        rows.append(row)
    return rows


def _nest(obj, depth: int):
    for i in range(depth):
        obj = [obj] if i % 2 else {"per_stratum": obj}
    return obj


@st.composite
def _strata(draw):
    rows = draw(st.integers(1, 25))
    width = draw(st.integers(1, 4))
    column = st.lists(_FLOATS, min_size=rows, max_size=rows).map(np.array)
    # dense codes take the writer's code table, sparse ones its per-column path;
    # keys come in every integer type that holds them, as stratify narrows them
    top = draw(st.sampled_from([3, 2**16 - 1, 2**62]))
    dtype = draw(st.sampled_from([t for t in (np.uint8, np.uint16, np.uint32, np.int64)
                                  if np.iinfo(t).max >= top]))
    code = st.integers(0, top)
    keys = draw(st.lists(st.lists(code, min_size=width, max_size=width),
                         min_size=rows, max_size=rows))
    aux = {"normalized": draw(column)}
    if draw(st.booleans()):
        aux["rate_gap"] = draw(column)
    vacuous_aux = _VACUOUS_AUX[draw(st.sampled_from(sorted(_VACUOUS_AUX)))]
    vacuous = None
    if vacuous_aux is not None:
        vacuous = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return StratumValues("chi_square", np.array(keys, dtype=dtype), draw(column),
                         draw(column), aux, vacuous, vacuous_aux)


@_SETTINGS
@given(strata=_strata(), depth=st.integers(0, 4), indent=st.sampled_from([0, 1, 2, 4]))
def test_columnar_block_matches_the_generic_writer(strata, depth, indent):
    view = _StratumRows(strata)
    want = _oracle_rows(strata)
    assert list(view) == want
    assert canonical_json(_nest(view, depth), indent) == canonical_json(_nest(want, depth), indent)


@pytest.mark.parametrize("column", ["values", "weights", "rate_gap"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_row_float_raises_on_both_paths(column, bad):
    cols = {name: np.array([0.5, 1.0, 0.25]) for name in ("values", "weights", "rate_gap")}
    cols[column][1] = bad
    strata = StratumValues("mutual_information", np.array([[0], [1], [2]]), cols["values"],
                           cols["weights"], {"rate_gap": cols["rate_gap"]})
    view = _StratumRows(strata)
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"per_stratum": view})
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"per_stratum": _oracle_rows(strata)})


def test_non_finite_value_of_a_vacuous_row_is_not_written():
    strata = StratumValues("chi_square", np.array([[0], [1]]), np.array([float("nan"), 2.0]),
                           np.array([0.5, 0.5]), {"rate_gap": np.array([float("nan"), 0.5])},
                           np.array([True, False]), {"dof": 0, "degenerate": True})
    view = _StratumRows(strata)
    assert canonical_json(view) == canonical_json(_oracle_rows(strata))
    assert list(view)[0] == {"key": [0], "value": 0.0, "weight": 0.5, "degenerate": True}


def test_sparse_narrow_keys_are_written_by_their_own_values():
    # a 300-category feature (uint16 codes) with four strata kept by min_count:
    # keys 296-299 of at most 300 take the per-column path, not the code table
    rows = ["s,y,yhat,x"] + [f"{'ab'[i % 2]},{i % 2},{i // 2 % 2},c{i:03d}" for i in range(296)]
    rows += [f"{'ab'[i % 2]},{i % 2},{i // 2 % 2},c{296 + i // 6:03d}" for i in range(24)]
    schema = [ColumnSchema("s", "sensitive", "categorical"),
              ColumnSchema("y", "target", "categorical"),
              ColumnSchema("yhat", "prediction", "categorical"),
              ColumnSchema("x", "feature", "categorical")]
    ds = load_dataset(io.BytesIO(("\n".join(rows) + "\n").encode()), schema)
    assert ds.column("x").arity == 300 and ds.column("x").codes.dtype == np.uint16
    config = AuditConfig(data="sparse.csv", schema="sparse_schema.json", criteria=["isp"],
                         min_count=5)
    report = run_audit(config, dataset=ds)
    blob = render(report, "json")
    assert blob == canonical_json(report.to_dict()).encode("utf-8")
    rows = json.loads(blob)["results"][0]["per_stratum"]
    assert [row["key"] for row in rows] == [[296], [297], [298], [299]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_plain_int_lists_are_written_as_the_json_module_writes_them(monkeypatch, n):
    # a list of plain ints is joined a run of _ROWS elements at a time
    monkeypatch.setattr(report_module, "_ROWS", 3)
    doc = {"flagged_indices": list(range(n)), "nested": [[5, -1], []], "mixed": [1, True, 2]}
    for indent in (0, 2):
        assert canonical_json(doc, indent) == json.dumps(doc, indent=indent) + "\n"
