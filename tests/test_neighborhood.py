import io

import numpy as np
import pytest

from fairaudit.criteria import evaluate, get_criterion
from fairaudit.dataset import ColumnSchema, load_dataset, stratify
from fairaudit.distance import DistanceSpec, FeatureSpace
from fairaudit.errors import AllIndeterminate, GroupCriterion, InvalidParams, NoFeatures
from fairaudit.measures import mi_nats
from fairaudit.neighborhood import (
    NeighborhoodSpec,
    NeighborIndex,
    build_index,
    check_soft_params,
    soft_evaluate,
)
from fairaudit.report import AuditConfig, run_audit
from fairaudit.rng import CounterRng
from fairaudit.scenarios import ScenarioSpec, generate
from neighbor_oracle import neighbors


def _numeric_dataset(values):
    text = "s,y,yhat,x1\n" + "\n".join(
        f"{i % 2},0,0,{v}" for i, v in enumerate(values)
    ) + "\n"
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("x1", "feature", "numeric"),
    ]
    return load_dataset(io.BytesIO(text.encode()), schema)


def _random_mixed_dataset(seed, n):
    rng = CounterRng(seed)
    f0 = rng.uniforms(n)
    f1 = rng.integers(3, n)
    # force exact ties
    f0[10:20] = f0[0]
    lines = ["s,y,yhat,f0,f1"]
    s = rng.integers(2, n)
    y = rng.integers(2, n)
    yh = rng.integers(2, n)
    for i in range(n):
        lines.append(f"{s[i]},{y[i]},{yh[i]},{float(f0[i])!r},{f1[i]}")
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("f0", "feature", "numeric"),
        ColumnSchema("f1", "feature", "categorical"),
    ]
    return load_dataset(io.BytesIO(("\n".join(lines) + "\n").encode()), schema)


def test_knn_on_line():
    ds = _numeric_dataset([0, 1, 3])
    idx = build_index(ds)
    members, dists = neighbors(idx, 0, k=2)
    assert list(members) == [0, 1]
    assert dists[0] == 0.0 and abs(dists[1] - 1 / 3) < 1e-15


def test_ball_uses_normalized_distance():
    ds = _numeric_dataset([0, 1, 3])
    idx = build_index(ds)
    assert list(neighbors(idx, 0, radius=0.5)) == [0, 1]


def test_no_features_rejected():
    text = "s,y,yhat\n0,0,0\n1,1,1\n"
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ]
    ds = load_dataset(io.BytesIO(text.encode()), schema)
    with pytest.raises(NoFeatures):
        build_index(ds)


def test_distance_metric_properties():
    ds = _random_mixed_dataset(21, 400)
    space = build_index(ds).space
    rng = CounterRng(22)
    a = rng.integers(400, 300)
    b = rng.integers(400, 300)
    d_ab = space.pair_distances(a, b)
    d_ba = space.pair_distances(b, a)
    assert np.array_equal(d_ab, d_ba)           # symmetry, bitwise
    assert np.all(space.pair_distances(a, a) == 0.0)
    assert d_ab.min() >= 0.0 and d_ab.max() <= 1.0


def test_tree_and_strips_agree():
    rng = CounterRng(23)
    n = 1400
    f0 = rng.uniforms(n)
    f1 = rng.uniforms(n)
    f0[50:70] = f0[3]
    f1[50:70] = f1[3]
    lines = ["s,y,yhat,f0,f1"]
    for i in range(n):
        lines.append(f"{i % 2},0,0,{float(f0[i])!r},{float(f1[i])!r}")
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("f0", "feature", "numeric"),
        ColumnSchema("f1", "feature", "numeric"),
    ]
    ds = load_dataset(io.BytesIO(("\n".join(lines) + "\n").encode()), schema)
    tree = NeighborIndex(FeatureSpace(ds), engine="tree")
    strips = NeighborIndex(FeatureSpace(ds), engine="grid")
    for q in (0, 3, 55, 700, n - 1):
        ma, da = neighbors(tree, q, k=15)
        mb, db = neighbors(strips, q, k=15)
        assert np.array_equal(ma, mb) and np.array_equal(da, db)
        assert np.array_equal(neighbors(tree, q, radius=0.06),
                              neighbors(strips, q, radius=0.06))


@pytest.mark.parametrize("params", [
    {"min_neighborhood": 2.5}, {"min_neighborhood": True}, {"min_neighborhood": "3"},
    {"epsilon": "0.05"}, {"epsilon": True}, {"delta": "0.1"}, {"delta": False},
])
def test_soft_parameters_of_the_wrong_type_are_refused(params):
    args = {"measure_kind": "mi", "epsilon": 0.05, "delta": 0.1, "min_neighborhood": 5,
            **params}
    with pytest.raises(InvalidParams, match=next(iter(params))):
        check_soft_params(**args)
    with pytest.raises(InvalidParams):       # before the (absent) data is read
        run_audit(AuditConfig("absent.csv", "absent.json", ["isp"], **params))
    check_soft_params("mi", np.float64(0.05), np.float32(0.1), np.int64(5))


def test_neighborhood_spec_needs_an_integer_k_and_a_numeric_radius():
    for k in (2.5, 3.0, True, np.True_, None, 0):
        with pytest.raises(InvalidParams):
            NeighborhoodSpec("knn", k=k)
    for radius in (True, np.True_, float("nan"), 0.0, -0.1, 1.5, None, "0.5"):
        with pytest.raises(InvalidParams):
            NeighborhoodSpec("ball", radius=radius)
    assert NeighborhoodSpec("knn", k=np.int64(3)) == NeighborhoodSpec("knn", k=3)
    # run_audit refuses them before it reads the data, here absent files
    for params in ({"k": 2.5}, {"k": True}, {"radius": True}):
        with pytest.raises(InvalidParams):
            run_audit(AuditConfig("absent.csv", "absent.json", ["isp"], **params))
    ds, _ = generate(ScenarioSpec("planted_unfair_cluster", 400, 1))
    report = run_audit(AuditConfig("absent.csv", "absent.json", ["isp"], k=np.int64(3),
                                   min_neighborhood=1), dataset=ds)
    want = soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=3),
                         min_neighborhood=1)
    assert report.results[0]["satisfied_fraction"] == want.satisfied_fraction


def test_ball_monotone_in_radius():
    ds = _random_mixed_dataset(24, 300)
    idx = build_index(ds)
    for q in (0, 7, 150):
        sizes = [len(neighbors(idx, q, radius=r)) for r in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == ds.n  # distance is capped at 1


def test_soft_group_criterion_rejected():
    ds, _ = generate(ScenarioSpec("planted_unfair_cluster", 2000, 1))
    with pytest.raises(GroupCriterion):
        soft_evaluate(ds, get_criterion("sp"), NeighborhoodSpec("knn", k=10))


def test_soft_all_indeterminate():
    ds, _ = generate(ScenarioSpec("planted_unfair_cluster", 200, 1))
    with pytest.raises(AllIndeterminate):
        soft_evaluate(
            ds, get_criterion("isp"), NeighborhoodSpec("knn", k=5),
            min_neighborhood=50,
        )


def test_soft_degeneracy_matches_exact_stratification():
    # all-categorical features; a ball radius below any single mismatch
    # makes neighborhoods identical to exact strata
    ds, _ = generate(ScenarioSpec("group_fair_individual_unfair", 3000, 9))
    eps = 0.05
    min_size = 5
    soft = soft_evaluate(
        ds, get_criterion("isp"), NeighborhoodSpec("ball", radius=0.4),
        epsilon=eps, min_neighborhood=min_size,
    )
    exact = evaluate(ds, get_criterion("isp"), min_count=min_size)
    per = {key: mv for key, mv, _ in exact.per_stratum}
    flags = np.zeros(ds.n, dtype=bool)
    values = np.full(ds.n, np.nan)
    for key, idx in stratify(ds, ds.feature_names()).items():
        mv = per.get(key)
        if mv is None:
            continue
        flags[idx] = mv.value > eps
        values[idx] = mv.value
    assert np.array_equal(soft.violated, flags)
    assert np.array_equal(
        np.isnan(soft.local_values), np.isnan(values)
    )
    both = ~np.isnan(values)
    assert np.array_equal(soft.local_values[both], values[both])  # bitwise


def test_soft_degeneracy_with_conditioning_variable():
    ds, _ = generate(ScenarioSpec("direct_discrimination", 4000, 13))
    eps = 0.05
    soft = soft_evaluate(
        ds, get_criterion("ieo"), NeighborhoodSpec("ball", radius=0.4),
        epsilon=eps, min_neighborhood=5,
    )
    exact = evaluate(ds, get_criterion("ieo"), min_count=5)
    # exact strata are keyed (y, x0, x1); a record's soft neighborhood is its
    # (x0, x1) group restricted to members sharing its y
    per = {key: mv for key, mv, _ in exact.per_stratum}
    y = ds.y.codes
    for key, idx in stratify(ds, ["target"] + ds.feature_names()).items():
        mv = per.get(key)
        if mv is None:
            continue
        want_flag = mv.value > eps
        assert all(soft.violated[i] == want_flag for i in idx)


def test_soft_independent_scenario_passes():
    ds, _ = generate(ScenarioSpec("independent", 6000, 3))
    res = soft_evaluate(
        ds, get_criterion("isp"), NeighborhoodSpec("ball", radius=0.4),
        epsilon=0.05, delta=0.1,
    )
    assert res.passed
    assert res.satisfied_fraction > 0.95


def test_soft_independent_knn_with_rate_oracle():
    ds, _ = generate(ScenarioSpec("independent", 8000, 3))
    k = 50
    res = soft_evaluate(
        ds, get_criterion("isp"), NeighborhoodSpec("knn", k=k),
        measure_kind="rate", epsilon=0.2, delta=0.1,
    )
    assert res.passed
    # oracle: recompute the per-neighborhood rate spread directly
    idx = build_index(ds)
    s = ds.s.codes
    yhat = ds.y_hat.codes
    for q in (0, 123, 4567, 7999):
        members, _ = neighbors(idx, q, k=k)
        gaps = []
        for v in np.unique(yhat[members]):
            rates = [
                (yhat[members][s[members] == g] == v).mean()
                for g in np.unique(s[members])
            ]
            gaps.append(max(rates) - min(rates))
        assert abs(res.local_values[q] - max(gaps)) < 1e-12


def test_soft_local_values_match_direct_computation():
    ds, _ = generate(ScenarioSpec("planted_unfair_cluster", 3000, 17))
    k = 40
    res = soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=k))
    idx = build_index(ds)
    s = ds.s.codes
    yhat = ds.y_hat.codes
    for q in (0, 100, 1500, 2999):
        members, _ = neighbors(idx, q, k=k)
        counts = np.zeros((2, 2))
        for m in members:
            counts[yhat[m], s[m]] += 1
        want = float(mi_nats(counts / counts.sum()))
        assert res.neighborhood_sizes[q] == k
        assert abs(res.local_values[q] - want) < 1e-12


def test_soft_rate_measure():
    ds, truth = generate(ScenarioSpec("planted_unfair_cluster", 5000, 19))
    res = soft_evaluate(
        ds, get_criterion("isp"), NeighborhoodSpec("knn", k=50),
        measure_kind="rate", epsilon=0.3,
    )
    planted = np.zeros(ds.n, dtype=bool)
    planted[truth.planted_indices] = True
    assert res.violated[planted].mean() > 0.6
    assert not res.passed


def test_soft_determinism():
    ds, _ = generate(ScenarioSpec("planted_unfair_cluster", 2500, 23))
    a = soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=25))
    b = soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=25))
    assert np.array_equal(a.local_values, b.local_values, equal_nan=True)
    assert np.array_equal(a.violated, b.violated)
    assert a.satisfied_fraction == b.satisfied_fraction


def test_weights_must_name_feature_columns():
    ds = _numeric_dataset([0.1, 0.4, 0.9, 0.3])
    with pytest.raises(InvalidParams, match="x9"):
        FeatureSpace(ds, DistanceSpec({"x9": 5.0}))
    with pytest.raises(InvalidParams, match="x9"):
        build_index(ds, DistanceSpec({"x1": 2.0, "x9": 5.0}))
    assert FeatureSpace(ds, DistanceSpec({"x1": 2.0})).weights.tolist() == [2.0]
