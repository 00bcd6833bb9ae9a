"""Soft-mode report bytes pinned against committed fixtures.

The fixtures under tests/data/pinned_soft_report_*.json hold canonical JSON
reports (the run-dependent `timing` block removed) of one small seeded
mixed-feature dataset: two numeric features on coarse grids, so that
distances tie at the k-th neighbor, and one categorical feature, with
per-column distance weights.  Mixed kinds take the strip neighbor engine
ranked by the distance kernel, so these bytes guard the kernel, the strips'
windows, the kNN tie fallback and the ball queries on that path.  Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_pinned_soft_reports.py
"""

import copy
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.report import AuditConfig, canonical_json, run_audit
from fairaudit.rng import CounterRng

DATA = Path(__file__).parent / "data"
CRITERIA = ["sp", "eo", "suff", "isp", "ieo", "isuff", "ftu"]
WEIGHTS = {"x1": 2.0, "c": 0.25}
NEIGHBORHOODS = {
    "knn": {"k": 40},
    "ball": {"radius": 0.15, "soft_measure": "rate", "epsilon": 0.3},
}


def _dataset(n=500, seed=20261):
    rng = CounterRng(seed)
    x0 = rng.integers(20, n) / 20          # grids: many exact distance ties
    x1 = rng.integers(10, n) / 10
    c = rng.categorical([0.4, 0.3, 0.2, 0.1], n)
    s = rng.bernoulli(0.4, n)
    y = rng.bernoulli(0.5, n)
    # inside the planted cluster the prediction follows s, elsewhere y
    cluster = (x0 < 0.3) & (x1 < 0.4)
    u = rng.uniforms(n)
    yhat = (u < (0.2 + 0.6 * s) * cluster + (0.3 + 0.4 * y) * ~cluster).astype(int)
    rows = ["s,y,yhat,x0,x1,c"] + [
        f"{s[r]},{y[r]},{yhat[r]},{float(x0[r])!r},{float(x1[r])!r},{c[r]}"
        for r in range(n)]
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("x0", "feature", "numeric"),
        ColumnSchema("x1", "feature", "numeric"),
        ColumnSchema("c", "feature", "categorical"),
    ]
    return load_dataset(io.BytesIO(("\n".join(rows) + "\n").encode()), schema)


def _report(mode: str) -> str:
    config = AuditConfig(data="pinned_soft.csv", schema="pinned_soft_schema.json",
                         criteria=CRITERIA, weights=WEIGHTS, **NEIGHBORHOODS[mode])
    doc = run_audit(config, dataset=_dataset()).to_dict()
    del doc["timing"]
    return canonical_json(doc)


def _fixture(mode: str) -> Path:
    return DATA / f"pinned_soft_report_{mode}.json"


@pytest.mark.parametrize("mode", sorted(NEIGHBORHOODS))
def test_soft_report_bytes_pinned(mode):
    assert _report(mode) == _fixture(mode).read_text(encoding="utf-8")


def _with_int64_codes(dataset):
    """The dataset with every categorical column's codes widened to int64,
    bypassing the narrowing a Column applies on construction."""
    def widen(column):
        if column.kind != "categorical":
            return column
        column = copy.copy(column)
        object.__setattr__(column, "codes", column.codes.astype(np.int64))
        return column

    return dataclasses.replace(dataset, s=widen(dataset.s), y=widen(dataset.y),
                               y_hat=widen(dataset.y_hat),
                               features=tuple(map(widen, dataset.features)))


def test_seventy_sensitive_categories_count_as_with_int64_codes():
    # the joint cell (y * |Ŷ| + ŷ) * |S| + s reaches 3 * 70 + 69 = 279, past
    # the uint8 codes of all three columns.  Every record but the last six,
    # which lie far off, has y = ŷ = 1, so its neighborhood holds no
    # dependence; cells that wrapped into y = ŷ = 0 would make one.
    n = 700
    x = CounterRng(20262).uniforms(n) + 10.0 * (np.arange(n) >= n - 6)
    rows = ["s,y,yhat,x"] + [f"s{r % 70:02d},{int(r < n - 6)},{int(r < n - 6)},{float(x[r])!r}"
                             for r in range(n)]
    schema = [ColumnSchema("s", "sensitive", "categorical"),
              ColumnSchema("y", "target", "categorical"),
              ColumnSchema("yhat", "prediction", "categorical"),
              ColumnSchema("x", "feature", "numeric")]
    narrow = load_dataset(io.BytesIO(("\n".join(rows) + "\n").encode()), schema)
    assert narrow.s.arity == 70 and narrow.s.codes.dtype == np.uint8
    config = AuditConfig(data="seventy.csv", schema="seventy_schema.json",
                         criteria=["isp", "ieo", "isuff"], k=60)
    docs = [run_audit(config, dataset=ds).to_dict()
            for ds in (narrow, _with_int64_codes(narrow))]
    for doc in docs:
        del doc["timing"]
    assert canonical_json(docs[0]) == canonical_json(docs[1])
    # isp flags only the six far-off records, whose neighborhoods mix ŷ
    assert docs[0]["results"][0]["flagged_indices"] == list(range(n - 6, n))


if __name__ == "__main__":
    for m in NEIGHBORHOODS:
        _fixture(m).write_text(_report(m), encoding="utf-8")
