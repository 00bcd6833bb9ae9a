import io

import numpy as np
import pytest

from fairaudit.criteria import (
    check_exact_params,
    evaluate,
    evaluate_ftu,
    get_criterion,
    list_criteria,
    situation_testing_evaluate,
)
from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.errors import ContinuousConditioning, EmptySelection, InvalidParams
from fairaudit.report import AuditConfig, run_audit
from fairaudit.rng import CounterRng
from fairaudit.scenarios import ScenarioSpec, generate

TABLE_1 = [
    ("sp", "Ŷ ⊥ S", "group", "aware"),
    ("eo", "Ŷ ⊥ S | Y", "group", "aware"),
    ("suff", "Y ⊥ S | Ŷ", "group", "aware"),
    ("isp", "Ŷ ⊥ S | X", "individual", "unaware"),
    ("ieo", "Ŷ ⊥ S | Y, X", "individual", "aware"),
    ("isuff", "Y ⊥ S | Ŷ, X", "individual", "aware"),
]


def test_registry_matches_summary_table():
    got = [(c.id, c.condition(), c.unit, c.awareness) for c in list_criteria()]
    assert got == TABLE_1


def test_unit_iff_feature_conditioning_and_awareness():
    for c in list_criteria():
        assert (c.unit == "individual") == ("features" in c.given)
        assert (c.awareness == "unaware") == (c.id == "isp")


def _random_dataset(seed, n=1000, n_features=2, s_arity=2):
    """Categorical dataset with random dependence, via the counter generator."""
    rng = CounterRng(seed)
    cols = {"s": rng.integers(s_arity, n)}
    cols["y"] = rng.integers(2, n)
    cols["yhat"] = (rng.uniforms(n) < (0.2 + 0.3 * cols["s"] % 2 + 0.3 * cols["y"])).astype(int)
    lines = ["s,y,yhat," + ",".join(f"x{i}" for i in range(n_features))]
    feats = [rng.integers(2 + i % 2, n) for i in range(n_features)]
    for r in range(n):
        lines.append(
            f"{cols['s'][r]},{cols['y'][r]},{cols['yhat'][r]},"
            + ",".join(str(int(f[r])) for f in feats)
        )
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ] + [ColumnSchema(f"x{i}", "feature", "categorical") for i in range(n_features)]
    return load_dataset(io.BytesIO(("\n".join(lines) + "\n").encode()), schema)


def test_ftu_is_bit_identical_to_individual_parity():
    for seed in range(50):
        ds = _random_dataset(seed)
        for measure in ("mi", "chi2", "ber"):
            a = evaluate(ds, get_criterion("isp"), measure, min_count=1)
            b = evaluate_ftu(ds, measure, min_count=1)
            assert b.measure.value == a.measure.value  # bitwise
            assert b.passed == a.passed
            assert b.criterion.id == "ftu"


def test_situation_testing_all_features_equals_individual_parity():
    ds = _random_dataset(99)
    a = evaluate(ds, get_criterion("isp"), min_count=1)
    b = situation_testing_evaluate(ds, ds.feature_names(), min_count=1)
    assert b.measure.value == a.measure.value


def test_situation_testing_empty_selection():
    ds = _random_dataset(100)
    with pytest.raises(EmptySelection):
        situation_testing_evaluate(ds, [])


def test_conditioning_on_constant_column_reduces_to_unconditioned():
    # constant target: eo collapses to sp; constant features: isp collapses to sp
    text = "s,y,yhat,x0\n" + "\n".join(
        f"{i % 2},0,{(i // 2) % 2},c" for i in range(40)
    ) + "\n"
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("x0", "feature", "categorical"),
    ]
    ds = load_dataset(io.BytesIO(text.encode()), schema)
    sp = evaluate(ds, get_criterion("sp"))
    eo = evaluate(ds, get_criterion("eo"))
    isp = evaluate(ds, get_criterion("isp"))
    assert abs(eo.measure.value - sp.measure.value) < 1e-12
    assert abs(isp.measure.value - sp.measure.value) < 1e-12


def test_prediction_identical_to_target_gives_zero_cmi():
    rng = CounterRng(123)
    n = 500
    s = rng.integers(2, n)
    y = rng.integers(2, n)
    text = "s,y,yhat\n" + "\n".join(f"{s[i]},{y[i]},{y[i]}" for i in range(n)) + "\n"
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ]
    ds = load_dataset(io.BytesIO(text.encode()), schema)
    for measure in ("mi", "chi2", "ber"):
        res = evaluate(ds, get_criterion("eo"), measure)
        assert res.passed
        if measure == "mi":
            assert res.measure.value == 0.0


def test_relabeling_invariance():
    ds = _random_dataset(7)
    # rename sensitive categories so the sorted encoding reverses
    lines = ["s,y,yhat,x0,x1"]
    smap = {0: "zebra", 1: "ant"}
    for i in range(ds.n):
        lines.append(
            f"{smap[int(ds.s.codes[i])]},{ds.y.categories[ds.y.codes[i]]},"
            f"{ds.y_hat.categories[ds.y_hat.codes[i]]},"
            f"{ds.features[0].categories[ds.features[0].codes[i]]},"
            f"{ds.features[1].categories[ds.features[1].codes[i]]}"
        )
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("x0", "feature", "categorical"),
        ColumnSchema("x1", "feature", "categorical"),
    ]
    ds2 = load_dataset(io.BytesIO(("\n".join(lines) + "\n").encode()), schema)
    for cid in ("sp", "eo", "suff", "isp", "ieo", "isuff"):
        for measure in ("mi", "chi2", "ber"):
            a = evaluate(ds, get_criterion(cid), measure, min_count=1)
            b = evaluate(ds2, get_criterion(cid), measure, min_count=1)
            assert abs(a.measure.value - b.measure.value) < 1e-12, (cid, measure)


def test_monotone_coverage():
    ds = _random_dataset(8, n=300, n_features=2)
    last = -1.0
    for mc in (1, 3, 10, 30):
        res = evaluate(ds, get_criterion("isp"), min_count=mc)
        assert res.dropped_mass >= last
        last = res.dropped_mass


def test_continuous_conditioning_rejected():
    text = "s,y,yhat,x0\n0,0,0,1.5\n1,1,1,2.5\n0,1,0,3.5\n1,0,1,4.5\n"
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
        ColumnSchema("x0", "feature", "numeric"),
    ]
    ds = load_dataset(io.BytesIO(text.encode()), schema)
    with pytest.raises(ContinuousConditioning):
        evaluate(ds, get_criterion("isp"))
    # group criteria are unaffected by numeric features
    evaluate(ds, get_criterion("sp"))


def test_independent_scenario_statistical_parity():
    ds, _ = generate(ScenarioSpec("independent", 100000, 7))
    res = evaluate(ds, get_criterion("sp"), "mi", threshold=0.001)
    assert res.passed
    assert res.measure.value < 0.001


def test_group_fair_individual_unfair_split_verdict():
    ds, truth = generate(ScenarioSpec("group_fair_individual_unfair", 100000, 7))
    sp = evaluate(ds, get_criterion("sp"))
    isp = evaluate(ds, get_criterion("isp"))
    assert sp.passed and not isp.passed
    # oracle: direct conditional rates from the raw columns
    s = ds.s.codes
    yhat = ds.y_hat.codes
    x0 = ds.features[0].codes
    agg_gap = abs(yhat[s == 0].mean() - yhat[s == 1].mean())
    stratum_gaps = [
        abs(yhat[(s == 0) & (x0 == v)].mean() - yhat[(s == 1) & (x0 == v)].mean())
        for v in (0, 1)
    ]
    assert agg_gap < 0.02
    assert max(stratum_gaps) > 0.3


def test_illegal_proxy_situation_testing():
    ds, truth = generate(ScenarioSpec("illegal_proxy", 100000, 7))
    isp = evaluate(ds, get_criterion("isp"))
    st = situation_testing_evaluate(ds, truth.notes["legal_columns"])
    assert isp.passed and not st.passed


@pytest.mark.parametrize("params", [
    {"min_count": 2.5}, {"min_count": True}, {"min_count": 2.0}, {"min_count": "5"},
    {"threshold": "0.01"}, {"threshold": True}, {"alpha": "0"}, {"alpha": True},
])
def test_exact_parameters_of_the_wrong_type_are_refused(params):
    args = {"measure_kind": "mi", "threshold": None, "min_count": 5, "alpha": 0.0, **params}
    with pytest.raises(InvalidParams, match=next(iter(params))):
        check_exact_params(**args)
    config = {"measure" if k == "measure_kind" else k: v for k, v in args.items()}
    with pytest.raises(InvalidParams):       # before the (absent) data is read
        run_audit(AuditConfig("absent.csv", "absent.json", ["sp"], **config))


def test_exact_parameters_take_numpy_numbers():
    assert check_exact_params("mi", np.float64(0.02), np.int64(3), np.float32(0.5)) == 0.02
