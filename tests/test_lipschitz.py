from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import lipschitz
from fairaudit.errors import DegenerateInput, InvalidParams, NotAProbabilityVector, ParseError
from fairaudit.lipschitz import MAPPED_METRICS, _pair_index, audit_map, load_mapped_csv
from fairaudit.rng import CounterRng

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _points(seed, n, p):
    return CounterRng(seed).uniforms(n * p).reshape(n, p)


def test_identity_map_passes():
    x = _points(1, 300, 4)
    rep = audit_map(x, x.copy())
    assert rep.max_ratio == 1.0
    assert rep.violation_count == 0
    assert rep.passed
    assert rep.pairs_examined == 300 * 299 // 2


def test_doubling_map_fails_everywhere():
    x = _points(2, 200, 3)
    rep = audit_map(x, 2.0 * x)
    assert rep.max_ratio == 2.0
    assert rep.violation_count == rep.pairs_examined
    assert all(v.ratio == 2.0 for v in rep.violations)
    assert not rep.passed


def test_constant_map_passes():
    x = _points(3, 100, 2)
    rep = audit_map(x, np.ones((100, 2)))
    assert rep.max_ratio == 0.0
    assert rep.passed


def test_scale_covariance_power_of_two():
    x = _points(4, 150, 3)
    m = 0.7 * x
    base = audit_map(x, m)
    scaled = audit_map(2.0 * x, m)
    assert scaled.max_ratio == base.max_ratio / 2.0


def test_zero_original_distance_with_mapped_gap_is_infinite_violation():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    m = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
    rep = audit_map(x, m)
    assert rep.infinite_count == 1
    assert rep.violations[0].infinite
    assert not rep.passed


def test_coincident_pairs_skipped():
    x = np.array([[1.0], [1.0], [2.0]])
    m = np.array([[3.0], [3.0], [3.5]])
    rep = audit_map(x, m)
    assert rep.skipped_coincident == 1
    assert rep.passed


def test_violations_sorted_descending():
    rng = CounterRng(5)
    x = rng.uniforms(400).reshape(200, 2)
    stretch = 1.0 + rng.uniforms(200)[:, None]
    rep = audit_map(x, x * stretch)
    ratios = [v.ratio for v in rep.violations if not v.infinite]
    assert ratios == sorted(ratios, reverse=True)
    assert rep.max_ratio >= ratios[0]


def test_sampled_never_exceeds_exhaustive():
    x = _points(6, 2500, 2)
    m = 1.3 * x
    full = audit_map(x, m, sampling="exhaustive")
    for seed in (1, 2, 3):
        samp = audit_map(x, m, seed=seed, sample_count=50000)
        assert samp.sampling == "sampled"
        assert samp.max_ratio <= full.max_ratio
        assert samp.pairs_examined == 50000


def test_sampled_requires_seed():
    x = _points(7, 2500, 2)
    with pytest.raises(InvalidParams):
        audit_map(x, x, sampling="sampled")


def test_total_variation_validates_rows():
    x = _points(8, 50, 3)
    bad = np.abs(CounterRng(9).uniforms(150).reshape(50, 3))
    with pytest.raises(NotAProbabilityVector):
        audit_map(x, bad, d_mapped="total_variation")
    good = bad / bad.sum(axis=1, keepdims=True)
    rep = audit_map(x, good, d_mapped="total_variation")
    assert rep.max_ratio > 0.0


def test_manhattan_and_gower_metrics():
    x = _points(10, 120, 3)
    rep = audit_map(x, 0.5 * x, d_original="manhattan", d_mapped="manhattan")
    assert abs(rep.max_ratio - 0.5) < 1e-12
    rep = audit_map(x, x.copy(), d_original="gower", d_mapped="gower")
    assert rep.max_ratio == 1.0


def test_degenerate_input():
    with pytest.raises(DegenerateInput):
        audit_map(np.ones((1, 2)), np.ones((1, 2)))


def test_mapped_csv_loader(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x_0,x_1,m_0\n0.0,1.0,0.5\n2.0,3.0,1.5\n", encoding="utf-8")
    original, mapped = load_mapped_csv(path)
    assert original.shape == (2, 2)
    assert mapped.shape == (2, 1)
    assert mapped[1, 0] == 1.5


def _write(tmp_path, text):
    path = tmp_path / "pairs.csv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("which", ["original", "mapped"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected(which, value):
    x = _points(11, 50, 3)
    m = x / x.sum(axis=1, keepdims=True)
    arrays = {"original": x, "mapped": m}
    arrays[which][7, 1] = value
    for metrics in (("gower", "total_variation"), ("euclidean", "euclidean")):
        with pytest.raises(DegenerateInput, match=f"{which} row 7, column 1"):
            audit_map(arrays["original"], arrays["mapped"], *metrics)


@pytest.mark.parametrize("text, line, column, message", [
    ("x_0,x_1,m_0\n1,2,3\n4,5\n", 3, "m_0", "fields"),
    ("x_0,x_1,m_0\n1,,3\n4,5,6\n", 2, "x_1", "missing value"),
    ("x_0,x_1,m_0\n1,2,3\n4,abc,6\n", 3, "x_1", "non-numeric token 'abc'"),
    ("x_0,x_1,m_0\n1,2,3\n4,5,nan\n", 3, "m_0", "non-finite"),
    ("x_0,x_1,m_0\n1,2,3\n\n4,-inf,6\n", 4, "x_1", "non-finite"),
    ("x_0,x_b,m_0\n1,2,3\n4,5,6\n", 1, "x_b", "integer suffix"),
])
def test_malformed_mapped_csv_names_line_and_column(tmp_path, text, line, column, message):
    with pytest.raises(ParseError, match=message) as info:
        load_mapped_csv(_write(tmp_path, text))
    assert (info.value.line, info.value.column) == (line, column)


def test_mapped_csv_quoting_ignored_columns_and_suffix_order(tmp_path):
    text = ('\ufeffx_10,note,x_2,m_1,m_0\n'        # a byte-order mark must not hide x_10
            '"1.5","a, b",2,0.25,0.75\n'
            '3,zz,"4",1,0\n')
    original, mapped = load_mapped_csv(_write(tmp_path, text))
    assert original.tolist() == [[2.0, 1.5], [4.0, 3.0]]
    assert mapped.tolist() == [[0.75, 0.25], [0.0, 1.0]]
    assert original.flags.c_contiguous and mapped.flags.c_contiguous


def test_mapped_csv_needs_two_rows(tmp_path):
    for text in ("x_0,m_0\n", "x_0,m_0\n1,2\n"):
        with pytest.raises(DegenerateInput):
            load_mapped_csv(_write(tmp_path, text))


def test_lipschitz_cli_reports_parse_errors_with_exit_2(tmp_path, capsys):
    from fairaudit.cli import main

    path = _write(tmp_path, "x_0,x_1,m_0,m_1\n0,1,0,1\n1,0\n")
    assert main(["lipschitz", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "line 3" in err and "'m_0'" in err


@pytest.mark.parametrize("n", [2, 3, 4, 17, 64, 301])
def test_pair_index_inverts_the_condensed_order(n):
    i, j = _pair_index(np.arange(n * (n - 1) // 2), n)
    rows, cols = np.triu_indices(n, 1)
    assert np.array_equal(i, rows) and np.array_equal(j, cols)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    width=st.integers(1, 12),
    metric=st.sampled_from(MAPPED_METRICS),
    block=st.sampled_from([1, 7, 64, lipschitz._PAIR_BLOCK]),
    data=st.data(),
)
def test_sampled_pairs_match_exhaustive_bit_for_bit(seed, n, width, metric, block, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-3, 4, width)
    constant = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    x[:, constant] = rng.standard_normal(width)[constant]
    weights = None
    if metric == "gower" and data.draw(st.booleans()):
        weights = rng.integers(0, 3, width).astype(float)
        weights[rng.integers(width)] = 0.5
    exhaustive = lipschitz._distances(x, metric, weights)
    flat = rng.permutation(n * (n - 1) // 2)
    i, j = _pair_index(flat, n)
    with mock.patch.object(lipschitz, "_PAIR_BLOCK", block):
        sampled = lipschitz._distances(x, metric, weights, i, j)
    assert np.array_equal(sampled.view(np.int64), exhaustive[flat].view(np.int64))
