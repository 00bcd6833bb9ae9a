import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairaudit.errors import DegenerateTable, MissingClass
from fairaudit.measures import (
    balanced_error_ratio,
    chi2_sf,
    chi_square,
    conditional_mutual_information,
    mutual_information,
    rate_gap,
    stratified_balanced_error_ratio,
    stratified_chi_square,
)
from fairaudit.tables import ContingencyTable, StratifiedTables, normalize


# -- independent oracles (kept deliberately naive) ---------------------------------

def mi_oracle(probs):
    """Direct summation over cells with explicit marginals."""
    probs = np.asarray(probs, dtype=float)
    rows = probs.sum(axis=1)
    cols = probs.sum(axis=0)
    total = 0.0
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            p = probs[i, j]
            if p > 0:
                total += p * math.log(p / (rows[i] * cols[j]))
    return total


def chi2_2x2_oracle(counts):
    """Closed form n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)) for 2x2 tables."""
    (a, b), (c, d) = np.asarray(counts, dtype=float)
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    return n * (a * d - b * c) ** 2 / denom


def ber_oracle(probs):
    """Enumerate every deterministic predictor of the column variable."""
    probs = np.asarray(probs, dtype=float)
    r, k = probs.shape
    cond = probs / probs.sum(axis=0)
    best = None
    for assignment in itertools.product(range(k), repeat=r):
        err = 0.0
        for cls in range(k):
            err += sum(cond[row, cls] for row in range(r) if assignment[row] != cls)
        best = err / k if best is None else min(best, err / k)
    return best


def _random_joint(rng, r, c):
    counts = rng.integers(0, 40, size=(r, c)) + (rng.random((r, c)) < 0.7)
    counts = np.asarray(counts, dtype=np.int64)
    # keep every class marginal positive so BER is defined
    for j in range(c):
        if counts[:, j].sum() == 0:
            counts[rng.integers(0, r), j] = 1
    for i in range(r):
        if counts[i, :].sum() == 0:
            counts[i, rng.integers(0, c)] = 1
    return counts


# -- mutual information -----------------------------------------------------------

def test_mi_known_values():
    assert mutual_information(normalize(ContingencyTable([[1, 1], [1, 1]]))).value == 0.0
    mv = mutual_information(normalize(ContingencyTable([[1, 0], [0, 1]])))
    assert abs(mv.value - math.log(2)) < 1e-12
    assert abs(mv.aux["normalized"] - 1.0) < 1e-12
    from fairaudit.tables import JointTable
    mv = mutual_information(JointTable(np.array([[0.4, 0.1], [0.1, 0.4]])))
    assert abs(mv.value - 0.192745) < 1e-5


def test_mi_matches_oracle_on_random_tables():
    rng = np.random.default_rng(10)
    for _ in range(300):
        r, c = rng.integers(2, 5, size=2)
        counts = _random_joint(rng, r, c)
        joint = normalize(ContingencyTable(counts))
        got = mutual_information(joint).value
        want = mi_oracle(joint.probs)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_mi_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        counts = _random_joint(rng, 3, 4)
        a = mutual_information(normalize(ContingencyTable(counts))).value
        b = mutual_information(normalize(ContingencyTable(counts.T))).value
        assert abs(a - b) < 1e-12


# -- conditional mutual information ---------------------------------------------------

def _strata(tables_and_weights, dropped=0.0, min_count=1):
    tables, weights = zip(*tables_and_weights)
    keys = np.arange(len(tables), dtype=np.int64).reshape(-1, 1)
    return StratifiedTables(keys, ContingencyTable(np.stack(tables)),
                            np.array(weights, dtype=np.float64), dropped, min_count)


def test_cmi_single_stratum_equals_mi():
    counts = np.array([[5, 3], [2, 8]])
    strata = _strata([(counts, 1.0)])
    got = conditional_mutual_information(strata).value
    want = mutual_information(normalize(ContingencyTable(counts))).value
    assert abs(got - want) < 1e-12


def test_cmi_weighted_average():
    independent = np.array([[5, 5], [5, 5]])
    diagonal = np.array([[10, 0], [0, 10]])
    strata = _strata([(independent, 0.5), (diagonal, 0.5)])
    got = conditional_mutual_information(strata).value
    assert abs(got - math.log(2) / 2) < 1e-12


def test_cmi_degenerate_strata_are_zero():
    constant_row = np.array([[7, 9], [0, 0]])
    strata = _strata([(constant_row, 1.0)])
    assert conditional_mutual_information(strata).value == 0.0


# -- chi-square -----------------------------------------------------------------------

def test_chi_square_known_values():
    mv = chi_square(ContingencyTable([[25, 25], [25, 25]]))
    assert mv.value == 0.0 and mv.aux["dof"] == 1 and mv.aux["p_value"] == 1.0
    mv = chi_square(ContingencyTable([[30, 10], [10, 30]]))
    assert abs(mv.value - 20.0) < 1e-12
    assert mv.aux["dof"] == 1


def test_chi_square_degenerate():
    with pytest.raises(DegenerateTable):
        chi_square(ContingencyTable([[10, 0], [10, 0]]))


def test_chi_square_against_2x2_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(300):
        counts = _random_joint(rng, 2, 2)
        got = chi_square(ContingencyTable(counts)).value
        want = chi2_2x2_oracle(counts)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_chi_square_against_scipy():
    rng = np.random.default_rng(13)
    for _ in range(200):
        r, c = rng.integers(2, 5, size=2)
        counts = _random_joint(rng, r, c)
        mv = chi_square(ContingencyTable(counts))
        stat, p, dof, _ = scipy.stats.chi2_contingency(counts, correction=False)
        assert abs(mv.value - stat) <= 1e-9 * max(1.0, stat)
        assert mv.aux["dof"] == dof
        assert abs(mv.aux["p_value"] - p) <= 1e-9


def test_chi_square_count_scaling():
    rng = np.random.default_rng(14)
    for _ in range(50):
        counts = _random_joint(rng, 3, 3)
        base = chi_square(ContingencyTable(counts))
        for k in (2, 5, 10):
            scaled = chi_square(ContingencyTable(counts * k))
            assert abs(scaled.value - k * base.value) <= 1e-9 * max(1.0, k * base.value)
            assert scaled.aux["dof"] == base.aux["dof"]


def test_gamma_tail_known_quantiles():
    assert abs(chi2_sf(3.841, 1) - 0.05) < 5e-4
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(0.0, 7) == 1.0
    # spot values against scipy at assorted (stat, dof)
    for stat, dof in [(0.1, 1), (2.706, 1), (6.635, 1), (9.21, 2), (40.0, 25), (1e-6, 4)]:
        assert abs(chi2_sf(stat, dof) - scipy.stats.chi2.sf(stat, dof)) < 1e-10


def test_chi2_tail_at_twenty_thousand_dof():
    # near the mean this tail needs thousands of incomplete-gamma series
    # terms; scipy's chdtrc evaluates it directly
    got = chi2_sf(20000.0, 20000)
    assert abs(got - scipy.stats.chi2.sf(20000.0, 20000)) < 1e-12
    assert 0.4986 < got < 0.4988
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_p_value_monotone_in_statistic():
    for dof in (1, 2, 5, 10):
        stats = np.linspace(0.0, 50.0, 200)
        p = [chi2_sf(s, dof) for s in stats]
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_stratified_chi_square_all_degenerate_is_vacuous_pass():
    constant_row = np.array([[7, 9], [0, 0]])
    strata = _strata([(constant_row, 1.0)])
    mv = stratified_chi_square(strata)
    assert mv.value == 0.0 and mv.aux["p_value"] == 1.0


# -- balanced error ratio ----------------------------------------------------------------

def test_ber_known_values():
    assert balanced_error_ratio(normalize(ContingencyTable([[1, 1], [1, 1]]))).value == 0.5
    assert balanced_error_ratio(normalize(ContingencyTable([[1, 0], [0, 1]]))).value == 0.0
    from fairaudit.tables import JointTable
    mv = balanced_error_ratio(JointTable(np.array([[0.4, 0.1], [0.1, 0.4]])))
    assert abs(mv.value - 0.2) < 1e-12


def test_ber_missing_class():
    from fairaudit.tables import JointTable
    with pytest.raises(MissingClass):
        balanced_error_ratio(JointTable(np.array([[0.5, 0.0], [0.5, 0.0]])))


def test_ber_matches_enumeration_oracle():
    rng = np.random.default_rng(15)
    for _ in range(300):
        r, c = rng.integers(2, 5, size=2)
        counts = _random_joint(rng, r, c)
        joint = normalize(ContingencyTable(counts))
        got = balanced_error_ratio(joint).value
        want = ber_oracle(joint.probs)
        assert abs(got - want) <= 1e-10
        assert 0.0 <= got <= (c - 1) / c + 1e-12


def test_stratified_ber_missing_class_in_stratum_is_reduced():
    one_class = np.array([[4, 0], [6, 0]])   # only one sensitive group present
    balanced = np.array([[5, 5], [5, 5]])
    strata = _strata([(one_class, 0.5), (balanced, 0.5)])
    mv = stratified_balanced_error_ratio(strata)
    # the one-class stratum is vacuous; the balanced stratum is fully independent
    assert abs(mv.aux["normalized"] - 1.0) < 1e-12


# -- cross-measure equivalence on 2x2 ------------------------------------------------------

def test_2x2_independence_agreement():
    rng = np.random.default_rng(16)
    checked_dependent = 0
    for _ in range(1000):
        if rng.random() < 0.5:
            # exact-independence construction: outer product of small margins
            r = rng.integers(1, 10, size=2)
            c = rng.integers(1, 10, size=2)
            counts = np.outer(r, c)
            independent = True
        else:
            counts = _random_joint(rng, 2, 2)
            joint = normalize(ContingencyTable(counts))
            independent = abs(mi_oracle(joint.probs)) < 1e-12
        joint = normalize(ContingencyTable(counts))
        mi = mutual_information(joint).value
        chi = chi_square(ContingencyTable(counts)).value
        ber = balanced_error_ratio(joint).value
        if independent:
            assert mi < 1e-12
            assert chi < 1e-9
            assert abs(ber - 0.5) < 1e-9
        else:
            checked_dependent += 1
            assert mi > 1e-12
            assert chi > 1e-9
            assert ber < 0.5 - 1e-12 or abs(mi) < 1e-10
    assert checked_dependent > 300


# -- rate gap ------------------------------------------------------------------

def _rate_gap_reductions(counts):
    """The rate gap as whole-axis reductions over the (..., R, C) stack."""
    counts = np.asarray(counts, dtype=np.float64)
    group_tot = counts.sum(axis=-2, keepdims=True)            # (..., 1, C)
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = counts / group_tot
    present = group_tot > 0
    hi = np.where(present, rates, -np.inf).max(axis=-1)
    lo = np.where(present, rates, np.inf).min(axis=-1)
    gap = (hi - lo).max(axis=-1)
    return np.where(present.sum(axis=(-2, -1)) >= 2, gap, 0.0)


@st.composite
def _count_stacks(draw):
    """(G, R, C) stacks, R and C in 1..4, of integer or fractional counts,
    with whole groups (columns) emptied at random."""
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        counts = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 9)))
    else:
        counts = draw(hnp.arrays(np.float64, shape, elements=st.floats(
            0.0, 1e3, allow_subnormal=False)))
    empty = draw(hnp.arrays(np.bool_, (shape[0], 1, shape[2])))
    counts[np.broadcast_to(empty, shape)] = 0
    return counts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(counts=_count_stacks())
def test_rate_gap_matches_the_reduction_formula_bit_for_bit(counts):
    want = _rate_gap_reductions(counts)
    got = rate_gap(counts)
    assert got.shape == want.shape == counts.shape[:1]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    one = rate_gap(counts[0]) if len(counts) else None      # a single (R, C) table
    assert one is None or one.view(np.int64) == want[0].view(np.int64)
