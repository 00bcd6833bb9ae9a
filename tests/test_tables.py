import io

import numpy as np
import pytest

from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.errors import AllStrataDropped, EmptyTable, SameVariable
from fairaudit.tables import (
    ContingencyTable,
    contingency,
    marginal_table,
    normalize,
    stratified_contingency,
)


def _dataset(rows, feature_kinds=("categorical",)):
    names = [f"x{i}" for i in range(len(feature_kinds))]
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ] + [ColumnSchema(n, "feature", k) for n, k in zip(names, feature_kinds)]
    header = "s,y,yhat," + ",".join(names)
    text = header + "\n" + "\n".join(rows) + "\n"
    return load_dataset(io.BytesIO(text.encode()), schema)


def test_contingency_counts():
    ds = _dataset(["0,0,0,u", "1,0,0,u", "0,0,1,u", "1,0,1,u"])
    table = contingency(ds, "prediction", "sensitive")
    assert np.array_equal(table.counts, [[1, 1], [1, 1]])
    assert table.total == 4


def test_contingency_degenerate_mass():
    ds = _dataset(["0,0,0,u"] * 3 + ["1,0,0,u"])  # sensitive needs 2 categories
    table = contingency(ds, "prediction", "sensitive")
    assert np.array_equal(table.counts, [[3, 1]])


def test_contingency_same_variable():
    ds = _dataset(["0,0,0,u", "1,1,1,u"])
    with pytest.raises(SameVariable):
        contingency(ds, "prediction", "prediction")


def test_normalize_plain():
    joint = normalize(ContingencyTable(np.array([[1, 1], [1, 1]])), 0.0)
    assert np.array_equal(joint.probs, np.full((2, 2), 0.25))
    joint = normalize(ContingencyTable(np.array([[3, 1], [1, 3]])), 0.0)
    assert np.array_equal(joint.probs, [[0.375, 0.125], [0.125, 0.375]])


def test_normalize_pure_prior():
    joint = normalize(ContingencyTable(np.zeros((2, 2), dtype=int)), 1.0)
    assert np.array_equal(joint.probs, np.full((2, 2), 0.25))


def test_normalize_empty_rejected():
    with pytest.raises(EmptyTable):
        normalize(ContingencyTable(np.zeros((2, 2), dtype=int)), 0.0)


@pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
def test_normalize_rejects_alpha_outside_finite_non_negative(alpha):
    with pytest.raises(ValueError, match="alpha"):
        normalize(ContingencyTable(np.array([[3, 1], [1, 3]])), alpha)


def test_normalize_times_total_recovers_counts():
    rng = np.random.default_rng(0)
    for _ in range(200):
        counts = rng.integers(0, 50, size=(3, 3))
        if counts.sum() == 0:
            continue
        joint = normalize(ContingencyTable(counts), 0.0)
        recovered = joint.probs * counts.sum()
        assert np.allclose(recovered, counts, rtol=1e-12, atol=0)
        assert np.array_equal(np.rint(recovered).astype(int), counts)


def test_stratified_weights_and_dropped_mass():
    rows = ["0,0,0,u"] * 30 + ["1,0,1,v"] * 70
    ds = _dataset(rows)
    strata = stratified_contingency(ds, "prediction", "sensitive", ["x0"], min_count=10)
    weights = [w for _, _, w in strata.entries]
    assert weights == [0.3, 0.7]
    assert strata.dropped_mass == 0.0


def test_stratified_empty_condition_single_stratum():
    ds = _dataset(["0,0,0,u", "1,0,1,u", "0,0,1,u", "1,0,0,u"])
    strata = stratified_contingency(ds, "prediction", "sensitive", [], min_count=1)
    assert len(strata.entries) == 1
    assert strata.entries[0][2] == 1.0
    assert strata.dropped_mass == 0.0


def test_all_strata_dropped():
    ds = _dataset(["0,0,0,u", "1,0,1,v"])
    with pytest.raises(AllStrataDropped):
        stratified_contingency(ds, "prediction", "sensitive", ["x0"], min_count=5)


def test_marginalization_recovers_unconditioned_table():
    rng = np.random.default_rng(1)
    rows = []
    for _ in range(500):
        s = rng.integers(0, 2)
        y = rng.integers(0, 2)
        yh = rng.integers(0, 3)
        x = "uvw"[rng.integers(0, 3)]
        rows.append(f"{s},{y},{yh},{x}")
    ds = _dataset(rows)
    strata = stratified_contingency(ds, "prediction", "sensitive", ["x0"], min_count=1)
    merged = marginal_table(strata)
    direct = contingency(ds, "prediction", "sensitive")
    assert np.array_equal(merged.counts, direct.counts)


def test_monotone_dropped_mass():
    rng = np.random.default_rng(2)
    rows = [f"{rng.integers(0,2)},0,{rng.integers(0,2)},{'abcdef'[rng.integers(0,6)]}"
            for _ in range(200)]
    ds = _dataset(rows)
    last = -1.0
    for mc in (1, 5, 20, 50, 80):
        try:
            strata = stratified_contingency(ds, "prediction", "sensitive", ["x0"], mc)
            dm = strata.dropped_mass
        except AllStrataDropped:
            dm = 1.0
        assert dm >= last
        last = dm
