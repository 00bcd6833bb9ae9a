"""Soft-mode report bytes pinned against committed fixtures.

The fixtures under tests/data/pinned_soft_report_*.json hold canonical JSON
reports (the run-dependent `timing` block removed) of one small seeded
mixed-feature dataset: two numeric features on coarse grids, so that
distances tie at the k-th neighbor, and one categorical feature, with
per-column distance weights.  Mixed kinds take the scan neighbor engine,
so these bytes guard the distance kernel, the scan's key windows, the kNN
tie fallback and the ball queries on that path.  Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_pinned_soft_reports.py
"""

import io
from pathlib import Path

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


if __name__ == "__main__":
    for m in NEIGHBORHOODS:
        _fixture(m).write_text(_report(m), encoding="utf-8")
