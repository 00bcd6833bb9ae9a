"""The batched stratified engine against a per-stratum oracle.

stratified_contingency counts every stratum into one (G, R, C) stack and
the stratified measures score the whole stack at once.  The oracle here
walks the strata of `stratify` one by one, cross-tabulates each, scores it
with the scalar 2-D measures (on the table with its empty rows or columns
deleted, where the measure ignores them) and adds the weighted values in a
Python loop.  Values, keys, weights and totals must agree bit for bit.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.criteria import CriterionSpec, evaluate
from fairaudit.dataset import Column, Dataset, Provenance, stratify
from fairaudit.errors import AllStrataDropped, DegenerateTable
from fairaudit.measures import (
    balanced_error_ratio,
    chi_square,
    conditional_mutual_information,
    mutual_information,
    stratified_balanced_error_ratio,
    stratified_chi_square,
)
from fairaudit.tables import ContingencyTable, normalize, stratified_contingency

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _column(name, codes, arity):
    return Column(name, "categorical", codes=np.asarray(codes, dtype=np.int64),
                  categories=tuple(str(v) for v in range(arity)))


def _dataset(s, s_arity, yhat, yhat_arity, features, y=None):
    """A dataset built from codes directly, so arities may exceed the observed values."""
    n = len(s)
    y = np.zeros(n, dtype=np.int64) if y is None else y
    return Dataset(
        s=_column("s", s, s_arity), y=_column("y", y, int(y.max()) + 1),
        y_hat=_column("yhat", yhat, yhat_arity),
        features=tuple(_column(f"x{i}", codes, arity) for i, (codes, arity) in enumerate(features)),
        score=None, provenance=Provenance("test", "error", None, 0),
    )


def _entropy(marginal):
    m = marginal[marginal > 0.0]
    return float(-(m * np.log(m)).sum())


def _rate_gap(counts):
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=0)
    present = totals > 0
    if int(present.sum()) < 2:
        return 0.0
    rates = counts[:, present] / totals[present]
    return float((rates.max(axis=1) - rates.min(axis=1)).max())


def _oracle(ds, cond, min_count, alpha):
    """Per-stratum rows and loop totals for mi, chi2 and ber."""
    r, c = ds.y_hat.arity, ds.s.arity
    rows = {"mi": [], "chi2": [], "ber": []}
    mi_total = chi_total = ber_total = ber_max = 0.0
    chi_dof = 0
    dropped = 0
    for key, idx in stratify(ds, cond).items():
        if idx.size < min_count:
            dropped += idx.size
            continue
        weight = idx.size / ds.n
        table = np.bincount(ds.y_hat.codes[idx] * c + ds.s.codes[idx],
                            minlength=r * c).reshape(r, c)
        gap = _rate_gap(table)

        joint = normalize(ContingencyTable(table), alpha)
        mv = mutual_information(joint)
        h_row, h_col = _entropy(joint.probs.sum(axis=1)), _entropy(joint.probs.sum(axis=0))
        h_min = min(h_row, h_col)
        normalized = mv.value / h_min if h_min > 0.0 else 0.0
        rows["mi"].append((key, mv.value, weight, False, (normalized, h_row, h_col, gap)))
        mi_total += weight * mv.value

        reduced = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        try:
            mv = chi_square(ContingencyTable(reduced))
        except DegenerateTable:
            rows["chi2"].append((key, 0.0, weight, True, None))
        else:
            rows["chi2"].append((key, mv.value, weight, False, (mv.aux["dof"], gap)))
            chi_total += mv.value
            chi_dof += mv.aux["dof"]

        present = table.sum(axis=0) > 0
        if present.sum() < 2:
            rows["ber"].append((key, 0.0, weight, True, None))
        else:
            mv = balanced_error_ratio(normalize(ContingencyTable(table[:, present]), alpha))
            rows["ber"].append((key, mv.value, weight, False,
                                (mv.aux["max_ber"], mv.aux["normalized"], gap)))
            ber_total += weight * mv.value
            ber_max += weight * mv.aux["max_ber"]
    totals = {"mi": mi_total, "chi2": (chi_total, max(chi_dof, 1)), "ber": (ber_total, ber_max)}
    return rows, totals, dropped / ds.n


def _batched_rows(measure, aux_names):
    out = []
    for key, mv, weight in measure.aux["per_stratum"]:
        degenerate = mv.aux.get("degenerate", False)
        aux = None if degenerate else tuple(mv.aux[name] for name in aux_names)
        out.append((key, mv.value, weight, degenerate, aux))
    return out


def test_batched_stratified_measures_match_per_stratum_oracle():
    seen = {"dropped": 0, "degenerate_chi2": 0, "degenerate_ber": 0, "wide": 0}

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        s_arity=st.sampled_from([2, 3, 9, 12]),
        yhat_arity=st.integers(1, 4),
        cond_arities=st.lists(st.integers(1, 5), min_size=0, max_size=3),
        min_count=st.sampled_from([1, 5, 20]),
        alpha=st.sampled_from([0.0, 0.5, 2.0]),
    )
    def check(seed, n, s_arity, yhat_arity, cond_arities, min_count, alpha):
        rng = np.random.default_rng(seed)
        # skewed cell sizes: large leading strata and a tail below min_count
        features = [(np.minimum(rng.geometric(0.4, n) - 1, a - 1), a) for a in cond_arities]
        s = rng.integers(0, s_arity, n)
        yhat = rng.integers(0, yhat_arity, n)
        if features:
            # some feature cells hold one sensitive group, others one prediction,
            # so strata with a single non-empty column or row abound
            cell = features[0][0]
            s = np.where(cell % 3 == 1, s_arity - 1, s)
            yhat = np.where(cell % 3 == 2, 0, yhat)
        ds = _dataset(s, s_arity, yhat, yhat_arity, features)
        cond = [f"x{i}" for i in range(len(features))]
        want_rows, want_totals, want_dropped = _oracle(ds, cond, min_count, alpha)
        if not want_rows["mi"]:
            with pytest.raises(AllStrataDropped):
                stratified_contingency(ds, "prediction", "sensitive", cond, min_count)
            return
        strata = stratified_contingency(ds, "prediction", "sensitive", cond, min_count)
        assert strata.dropped_mass == want_dropped
        assert [(k, w) for k, _, w in strata.entries] == \
            [(k, w) for k, _, w, _, _ in want_rows["mi"]]

        mi = conditional_mutual_information(strata, alpha)
        assert _batched_rows(mi, ("normalized", "entropy_row", "entropy_col", "rate_gap")) \
            == want_rows["mi"]
        assert mi.value == want_totals["mi"]

        chi = stratified_chi_square(strata)
        assert _batched_rows(chi, ("dof", "rate_gap")) == want_rows["chi2"]
        assert (chi.value, chi.aux["dof"]) == want_totals["chi2"]
        assert abs(chi.aux["p_value"] - scipy.stats.chi2.sf(chi.value, chi.aux["dof"])) <= 1e-12

        ber = stratified_balanced_error_ratio(strata, alpha)
        assert _batched_rows(ber, ("max_ber", "normalized", "rate_gap")) == want_rows["ber"]
        assert (ber.value, ber.aux["max_ber"]) == want_totals["ber"]

        seen["dropped"] += want_dropped > 0
        seen["degenerate_chi2"] += sum(row[3] for row in want_rows["chi2"])
        seen["degenerate_ber"] += sum(row[3] for row in want_rows["ber"])
        seen["wide"] += s_arity >= 9 and yhat_arity >= 2

    check()
    assert all(count > 0 for count in seen.values()), seen


def test_unconditioned_criterion_is_its_single_table():
    rng = np.random.default_rng(3)
    ds = _dataset(rng.integers(0, 3, 500), 3, rng.integers(0, 2, 500), 2,
                  [(rng.integers(0, 4, 500), 4)])
    spec = CriterionSpec("sp", "statistical parity", "prediction", "sensitive",
                         (), "group", "aware")
    table = np.bincount(ds.y_hat.codes * 3 + ds.s.codes, minlength=6).reshape(2, 3)
    mi = evaluate(ds, spec, "mi")
    assert mi.per_stratum is None and mi.dropped_mass == 0.0
    assert mi.measure.value == mutual_information(normalize(ContingencyTable(table))).value
    assert "normalized" in mi.measure.aux
    chi = evaluate(ds, spec, "chi2")
    assert chi.measure.value == chi_square(ContingencyTable(table)).value

    constant = _dataset(rng.integers(0, 3, 50), 3, np.zeros(50, dtype=np.int64), 1, [])
    with pytest.raises(DegenerateTable):
        evaluate(constant, spec, "chi2")


def test_stratified_chi_square_beyond_twenty_thousand_dof():
    # 200 strata of 12 x 12 tables: about 24,000 summed degrees of freedom,
    # where an incomplete-gamma series capped at 500 terms fails near the mean
    rng = np.random.default_rng(11)
    cells, per_cell, arity = 200, 150, 12
    n = cells * per_cell
    ds = _dataset(rng.integers(0, arity, n), arity, rng.integers(0, arity, n), arity,
                  [(np.repeat(np.arange(cells), per_cell), cells)])
    spec = CriterionSpec("isp", "individual statistical parity", "prediction", "sensitive",
                         ("features",), "individual", "unaware")
    result = evaluate(ds, spec, "chi2")
    dof = result.measure.aux["dof"]
    assert dof > 20_000
    want = scipy.stats.chi2.sf(result.measure.value, dof)
    assert math.isclose(result.measure.aux["p_value"], want, rel_tol=1e-10, abs_tol=1e-12)
    assert 0.001 < result.measure.aux["p_value"] < 0.999   # independent data, near the mean
