"""Exact-mode report bytes pinned against committed fixtures.

The fixtures under tests/data/pinned_report_*.json hold canonical JSON
reports (the run-dependent `timing` block removed) of one small seeded
all-categorical dataset: three-way sensitive attribute and prediction, so
isp's per-stratum tables are 3 x 3 and some strata have empty rows or
columns, plus dropped strata below min_count.  Regenerate them only for an
intended output change:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.report import AuditConfig, canonical_json, render, run_audit
from fairaudit.rng import CounterRng

DATA = Path(__file__).parent / "data"
CRITERIA = ["sp", "eo", "suff", "isp", "ieo", "isuff", "ftu", "situation_testing"]
MEASURES = {"mi": 0.0, "ber": 0.5, "chi2": 0.0}   # measure -> Laplace alpha
P_VALUE_TOL = 1e-10


def _dataset(n=900, seed=20260):
    rng = CounterRng(seed)
    s = rng.categorical([0.5, 0.35, 0.15], n)
    y = rng.integers(2, n)
    x = [rng.integers(arity, n) for arity in (5, 4, 3)]
    # the prediction leans on s in odd feature cells only
    lean = ((x[0] + x[1]) % 2) * (s == 2)
    u = rng.uniforms(n)
    yhat = (u < 0.25 + 0.2 * y + 0.3 * lean).astype(int) + (u < 0.1 * x[2]).astype(int)
    rows = ["s,y,yhat,x0,x1,x2"] + [",".join(str(int(c[r])) for c in (s, y, yhat, *x))
                                    for r in range(n)]
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ] + [ColumnSchema(f"x{i}", "feature", "categorical") for i in range(3)]
    return load_dataset(io.BytesIO(("\n".join(rows) + "\n").encode()), schema)


def _full_report(measure: str):
    config = AuditConfig(data="pinned.csv", schema="pinned_schema.json", criteria=CRITERIA,
                         situation_columns=["x0", "x2"], measure=measure,
                         alpha=MEASURES[measure])
    return run_audit(config, dataset=_dataset())


def _report(measure: str) -> str:
    doc = _full_report(measure).to_dict()
    del doc["timing"]
    return canonical_json(doc)


def _fixture(measure: str) -> Path:
    return DATA / f"pinned_report_{measure}.json"


def test_mi_report_bytes_pinned():
    assert _report("mi") == _fixture("mi").read_text(encoding="utf-8")


def test_ber_report_bytes_pinned():
    assert _report("ber") == _fixture("ber").read_text(encoding="utf-8")


def _split_p_values(node, found):
    """Copy of a parsed report with every p_value pulled out into `found`."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "p_value":
                found.append(value)
            else:
                out[key] = _split_p_values(value, found)
        return out
    if isinstance(node, list):
        return [_split_p_values(v, found) for v in node]
    return node


def test_chi2_report_pinned_up_to_p_value_rounding():
    got_p, want_p = [], []
    got = _split_p_values(json.loads(_report("chi2")), got_p)
    want = _split_p_values(json.loads(_fixture("chi2").read_text(encoding="utf-8")), want_p)
    assert got == want    # statistics, dof, per-stratum rows and verdicts exactly
    assert len(got_p) == len(want_p) > 0
    assert all(abs(g - w) <= P_VALUE_TOL for g, w in zip(got_p, want_p))



@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_render_writes_the_bytes_of_the_plain_document(measure):
    report = _full_report(measure)
    assert render(report, "json") == canonical_json(report.to_dict()).encode("utf-8")
    # ftu shares isp's per-stratum rows, which were formatted once
    entries = {entry["id"]: entry for entry in report.results}
    assert entries["ftu"]["per_stratum"] is entries["isp"]["per_stratum"]
    assert len(entries["isp"]["per_stratum"].rendered) == 1


def test_isp_and_ftu_write_one_cached_piece_list_with_the_pinned_bytes():
    report = _full_report("mi")
    doc = report._document()
    del doc["timing"]
    pinned = _fixture("mi").read_text(encoding="utf-8")
    assert canonical_json(doc) == pinned
    entries = {entry["id"]: entry for entry in report.results}
    (layout, pieces), = entries["isp"]["per_stratum"].rendered.items()
    assert isinstance(pieces, list) and len(pieces) > len(entries["isp"]["per_stratum"])
    assert entries["ftu"]["per_stratum"].json(*layout) is pieces
    assert '"per_stratum": ' + "".join(pieces) + "\n" in pinned


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_markdown_does_not_depend_on_the_row_views(measure):
    report = _full_report(measure)
    plain = replace(report, results=report.to_dict()["results"])
    assert render(report, "markdown") == render(plain, "markdown")


if __name__ == "__main__":
    for m in MEASURES:
        _fixture(m).write_text(_report(m), encoding="utf-8")
