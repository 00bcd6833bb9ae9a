import csv
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import distance, lipschitz
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


_MALFORMED = [
    ("x_0,x_1,m_0\n1,2,3\n4,5\n", 3, "m_0", "fields"),
    ("x_0,x_1,m_0\n1,,3\n4,5,6\n", 2, "x_1", "missing value"),
    ("x_0,x_1,m_0\n1,2,3\n4,abc,6\n", 3, "x_1", "non-numeric token 'abc'"),
    ("x_0,x_1,m_0\n1,2,3\n4,5,nan\n", 3, "m_0", "non-finite"),
    ("x_0,x_1,m_0\n1,2,3\n\n4,-inf,6\n", 4, "x_1", "non-finite"),
    ("x_0,x_b,m_0\n1,2,3\n4,5,6\n", 1, "x_b", "integer suffix"),
    ("x_0,m_0,x_0\n1,2,3\n4,5,6\n", 1, "x_0", "x_0 twice"),
    ("x_1,x_01,m_0\n1,2,3\n4,5,6\n", 1, "x_01", "x_1 twice"),
]


@pytest.mark.parametrize("text, line, column, message", _MALFORMED)
def test_malformed_mapped_csv_names_line_and_column(tmp_path, text, line, column, message):
    with pytest.raises(ParseError, match=message) as info:
        load_mapped_csv(_write(tmp_path, text))
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text, line, column, message", _MALFORMED)
def test_a_fault_in_the_first_row_of_the_second_chunk_names_its_line(
        tmp_path, text, line, column, message):
    # two good rows go in after the header, and a chunk holds every data row
    # before the fault's, so the fault opens the second np.loadtxt call
    lines = text.split("\n")
    text = "\n".join(lines[:1] + ["7,8,9"] * 2 + lines[1:])
    rows = 2 + sum(1 for row in lines[1:line - 1] if row)
    with mock.patch.object(lipschitz, "_LOAD_ROWS", rows), \
            pytest.raises(ParseError, match=message) as info:
        load_mapped_csv(_write(tmp_path, text))
    assert (info.value.line, info.value.column) == (line + 2 if line > 1 else 1, column)


@pytest.mark.parametrize("text, line, column, message", _MALFORMED)
def test_a_malformed_mapped_csv_through_a_fifo_names_what_its_path_names(
        tmp_path, text, line, column, message):
    with pytest.raises(ParseError, match=message) as from_path:
        load_mapped_csv(_write(tmp_path, text))
    path = tmp_path / "pairs.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    with pytest.raises(ParseError) as from_pipe:
        load_mapped_csv(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (from_pipe.value.line, from_pipe.value.column) == (line, column)
    assert str(from_pipe.value) == str(from_path.value)


def test_a_mapped_field_over_the_csv_limit_is_a_parse_error_at_its_line(tmp_path):
    text = f"x_0,m_0\n1,2\n\n3,{'9' * (csv.field_size_limit() + 1)}\n"
    with pytest.raises(ParseError, match="field larger than field limit") as info:
        load_mapped_csv(_write(tmp_path, text))
    assert info.value.line == 4


_CHUNKED = ('\ufeffx_10,note,x_2,m_1,m_0\n'     # a byte-order mark must not hide x_10
            '"1.5","a, b",2,0.25,0.75\n'
            '\n'
            '3,"two\nlines","4",1,0\n'
            '-0.0,zz,1e-300,0.5,0.5\n'
            '\n\n'
            '0.1,,0.2,0.3,0.7\n'
            '5,q,6,0,1\n'
            '\n')


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_chunked_load_equals_one_whole_file_loadtxt(tmp_path, rows):
    path = _write(tmp_path, _CHUNKED)
    with mock.patch.object(lipschitz, "_LOAD_ROWS", rows):
        original, mapped = load_mapped_csv(path)
    for got, cols in ((original, [2, 0]), (mapped, [4, 3])):
        want = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', skiprows=1,
                          usecols=cols, ndmin=2, encoding="utf-8-sig")
        assert got.shape == want.shape == (5, 2) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_a_mapped_csv_loads_through_a_fifo(tmp_path):
    path = tmp_path / "pairs.fifo"
    os.mkfifo(path)
    text = "x_0,m_0,m_1\n" + "".join(f"{i},{i / 8!r},{1 - i / 8!r}\n" for i in range(7))
    # a daemon: a loader that never opens the pipe leaves it blocked, not the run
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    with mock.patch.object(lipschitz, "_LOAD_ROWS", 2):
        original, mapped = load_mapped_csv(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert original[:, 0].tolist() == list(range(7))
    assert mapped.tolist() == [[i / 8, 1 - i / 8] for i in range(7)]


def test_load_peak_memory_is_bounded_by_the_two_arrays(tmp_path):
    # chunks go straight into the result arrays: no (n, p + q) table and no
    # copies of it; what remains is the arrays' geometric headroom
    x, m = _points(38, 100_000, 4), _points(39, 100_000, 5)
    path = tmp_path / "pairs.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x_{i}" for i in range(4)] + [f"m_{i}" for i in range(5)]) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in np.hstack([x, m]).tolist())
    tracemalloc.start()
    try:
        original, mapped = load_mapped_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(original, x) and np.array_equal(mapped, m)
    assert peak <= 1.6 * (original.nbytes + mapped.nbytes)


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


_BLOCKS = [1, 7, 64, lipschitz._PAIR_BLOCK]


def _row_budget(block):
    """The exhaustive scan's cells per row block matching a pair block of
    _BLOCKS: the same small budgets, and the default for the default."""
    return distance._CONDENSED_BLOCK if block == lipschitz._PAIR_BLOCK else block


def _streamed(x, metric, weights):
    """All pairs' distances in condensed order, joined from the streamed
    row blocks, which must cover the pairs in order without gaps."""
    pieces, pos = [], 0
    for start, d in lipschitz._condensed(x, metric, weights):
        assert start == pos
        pieces.append(d.copy())           # the next block reuses the buffer
        pos += len(d)
    assert pos == len(x) * (len(x) - 1) // 2
    return np.concatenate(pieces)


@_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    width=st.integers(1, 12),
    metric=st.sampled_from(MAPPED_METRICS),
    block=st.sampled_from(_BLOCKS),
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
    distances = lipschitz._distances(x, metric, weights, "original")
    with mock.patch.object(distance, "_CONDENSED_BLOCK", _row_budget(block)):
        exhaustive = _streamed(x, metric, weights)
    flat = rng.permutation(n * (n - 1) // 2)
    i, j = _pair_index(flat, n)
    sampled = np.concatenate([distances(i[s:s + block], j[s:s + block])
                              for s in range(0, len(flat), block)])
    assert np.array_equal(sampled.view(np.int64), exhaustive[flat].view(np.int64))


def _whole_array_audit(original, mapped, d_original, d_mapped, *, weights=None,
                       sampling, sample_count=0, seed=None, tol=lipschitz.DEFAULT_TOL):
    """The whole-array audit: every pair's distances, masks and ratios at
    once, then one stable sort.  The reference the blocked fold must equal.
    Its exhaustive distances come from the pair kernel over all pairs, not
    from the streamed row blocks.
    """
    n = len(original)
    flat, total_pairs = None, n * (n - 1) // 2
    if sampling == "sampled":
        total_pairs = sample_count
        flat = CounterRng(seed).integers(n * (n - 1) // 2, sample_count)
        i_idx, j_idx = _pair_index(flat, n)
    else:
        i_idx, j_idx = np.triu_indices(n, 1)
    d_orig = lipschitz._distances(original, d_original, weights, "original")(i_idx, j_idx)
    d_map = lipschitz._distances(mapped, d_mapped, weights, "mapped")(i_idx, j_idx)

    both_zero = (d_orig == 0.0) & (d_map == 0.0)
    infinite = (d_orig == 0.0) & (d_map > 0.0)
    finite = ~both_zero & ~infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(finite, d_map / np.where(finite, d_orig, 1.0), 0.0)
    max_ratio = float(ratios[finite].max()) if finite.any() else 0.0
    violating = finite & (ratios > 1.0 + tol)

    listed = np.nonzero(infinite)[0][:lipschitz.MAX_LISTED_VIOLATIONS]
    worst = np.nonzero(violating)[0]
    worst = worst[np.argsort(-ratios[worst], kind="stable")]
    listed = np.concatenate([listed, worst[:lipschitz.MAX_LISTED_VIOLATIONS - len(listed)]])
    pairs = zip(*_pair_index(listed if flat is None else flat[listed], n))
    violations = tuple(
        lipschitz.Violation(int(i), int(j), float(d_orig[pos]), float(d_map[pos]),
                            float(ratios[pos]), infinite=bool(infinite[pos]))
        for (i, j), pos in zip(pairs, listed)
    )
    return lipschitz.LipschitzReport(
        max_ratio=max_ratio, violations=violations,
        violation_count=int(violating.sum()) + int(infinite.sum()),
        infinite_count=int(infinite.sum()), pairs_examined=total_pairs,
        skipped_coincident=int(both_zero.sum()), sampling=sampling,
        sample_seed=seed if sampling == "sampled" else None, tol=tol,
    )


def _assert_fold_matches_whole_array(x, m, metrics, sampling, count, seed, block):
    """The fold over blocks of `block` pairs (sampled) or of the matching row
    budget (exhaustive: 1 gives one row per block, 7 and 64 ragged blocks)."""
    kwargs = dict(sampling=sampling, sample_count=count, seed=seed)
    want = _whole_array_audit(x, m, *metrics, **kwargs)
    with mock.patch.object(lipschitz, "_PAIR_BLOCK", block), \
            mock.patch.object(distance, "_CONDENSED_BLOCK", _row_budget(block)):
        got = audit_map(x, m, *metrics, **kwargs)
    assert got == want
    return want


def _stretched_with_copies(n, copies, seed):
    """Integer points stretched 2x, except rows 0..copies-1: one original,
    images 0..copies-1 on a line, so each pair among them is infinite;
    rows copies and copies+1 repeat row 0 on both sides (coincident).
    """
    x = np.floor(16 * _points(seed, n, 2))
    m = 2.0 * x
    x[:copies + 2] = x[0]
    m[:copies] = np.arange(copies)[:, None] * [1.0, 0.0] + 100.0
    m[copies:copies + 2] = m[0]
    return x, m


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("sampling, count", [("exhaustive", 1), ("sampled", 3000)])
@pytest.mark.parametrize("case", ["infinite_and_coincident", "cap_split", "equal_ratios"])
def test_fold_equals_whole_array_on_edge_cases(case, sampling, count, block):
    if case == "equal_ratios":        # every pair violates with ratio 2.0, ties everywhere
        x = _points(31, 60, 3)
        m = 2.0 * x
    else:
        x, m = _stretched_with_copies(60, 6 if case == "cap_split" else 20, 32)
    want = _assert_fold_matches_whole_array(x, m, ("euclidean", "euclidean"), sampling,
                                            count, 5, block)
    listed_infinite = sum(v.infinite for v in want.violations)
    assert want.violation_count > lipschitz.MAX_LISTED_VIOLATIONS
    assert len(want.violations) == lipschitz.MAX_LISTED_VIOLATIONS
    if case == "equal_ratios":
        assert want.infinite_count == 0 and {v.ratio for v in want.violations} == {2.0}
    else:
        assert want.infinite_count > 0 and want.skipped_coincident > 0
    if case == "cap_split":
        assert 0 < listed_infinite < lipschitz.MAX_LISTED_VIOLATIONS
    if case == "infinite_and_coincident":
        assert listed_infinite == lipschitz.MAX_LISTED_VIOLATIONS < want.infinite_count


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    width=st.integers(1, 3),
    levels=st.sampled_from([2, 3, 1000]),
    d_original=st.sampled_from(lipschitz.ORIGINAL_METRICS),
    d_mapped=st.sampled_from(MAPPED_METRICS),
    stretch=st.sampled_from([0.5, 1.0, 2.0]),
    sampled=st.booleans(),
    count=st.integers(1, 600),
    block=st.sampled_from(_BLOCKS),
)
def test_fold_equals_whole_array(seed, n, width, levels, d_original, d_mapped, stretch,
                                 sampled, count, block):
    """Integer-valued points give coincident, infinite and tied pairs."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, (n, width)).astype(float)
    m = stretch * x
    moved = rng.random(n) < 0.2
    m[moved] = rng.integers(0, levels, (moved.sum(), width))
    if d_mapped == "total_variation":
        m = (m + 1.0) / (m + 1.0).sum(axis=1, keepdims=True)
    _assert_fold_matches_whole_array(x, m, (d_original, d_mapped),
                                     "sampled" if sampled else "exhaustive", count, seed, block)


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")}, {"tol": "0.1"},
    {"sample_count": 0}, {"sample_count": -5}, {"sample_count": 2.5},
    {"tol": True}, {"sample_count": True}, {"tol": True, "sample_count": True},
    {"weights": [100.0, 0.0], "d_original": "manhattan", "d_mapped": "manhattan"},
    {"weights": [1.0, 1.0]},
])
def test_bad_parameters_are_rejected(kwargs):
    x = _points(33, 2500, 2)
    with pytest.raises(InvalidParams):
        audit_map(x, 1.5 * x, seed=1, **kwargs)


@pytest.mark.parametrize("seed", [True, False, 1.5, "7", -1, 2**64, 2**70])
@pytest.mark.parametrize("sampling", ["sampled", "exhaustive"])
def test_a_seed_outside_the_64_bit_integers_is_rejected(seed, sampling):
    x = _points(35, 50, 2)
    with pytest.raises(InvalidParams, match="seed must be an integer"):
        audit_map(x, 1.5 * x, seed=seed, sampling=sampling, sample_count=100)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_a_seed_at_the_ends_of_its_range_is_taken(seed):
    x = _points(35, 50, 2)
    rep = audit_map(x, 1.5 * x, seed=seed, sampling="sampled", sample_count=100)
    assert rep.sample_seed == seed and rep.pairs_examined == 100


def test_lipschitz_cli_rejects_a_negative_seed_with_exit_2(tmp_path, capsys):
    from fairaudit.cli import main

    path = _write(tmp_path, "x_0,m_0\n0,0\n1,1.5\n2,3\n")
    assert main(["lipschitz", "--data", str(path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "seed must be an integer" in err


def test_weights_are_taken_when_one_metric_is_gower():
    x = _points(34, 50, 3)
    m = x / x.sum(axis=1, keepdims=True)
    rep = audit_map(x, m, "gower", "total_variation", weights=[1.0, 0.0, 2.0])
    assert rep.pairs_examined == 50 * 49 // 2


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--sample-count", "0", "--seed", "1"]])
def test_lipschitz_cli_rejects_bad_parameters_with_exit_2(tmp_path, capsys, flags):
    from fairaudit.cli import main

    path = _write(tmp_path, "x_0,m_0\n0,0\n1,1.5\n2,3\n")
    assert main(["lipschitz", "--data", str(path), "--output", str(tmp_path / "r.json")]) == 1
    assert main(["lipschitz", "--data", str(path), "--sampling", "sampled", *flags]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and flags[0][2:].replace("-", "_") in err


@pytest.mark.parametrize("metrics, identity", [(("euclidean", "euclidean"), False),
                                               (("gower", "total_variation"), False),
                                               (("gower", "total_variation"), True)])
def test_sampled_audit_memory_is_bounded_by_the_block(metrics, identity):
    """2e6 sampled pairs hold a few blocks at a time, not full-length arrays
    and no column copies: pairs gather whole rows of the inputs themselves."""
    x = _points(34, 100_000, 2)
    if identity:
        x[0], x[1] = 0.0, 1.0                 # each column spans [+0.0, 1.0]: gower scales nothing
    m = 1.1 * x                               # every pair violates: the fold's busiest path
    if metrics[1] == "total_variation":
        m = _points(36, 100_000, 2)
        m /= m.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        rep = audit_map(x, m, *metrics, seed=3, sample_count=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pairs_examined == 2_000_000 and rep.violation_count > 0
    if metrics[0] == "euclidean":
        assert rep.violation_count == 2_000_000
    bound = 16 * 8 * lipschitz._PAIR_BLOCK    # 1 MiB, a sixteenth of one full-length float array
    # beyond the one copy the kernels make: gower's scaled copy of its side,
    # which identity-scaled columns do not need
    assert peak - (x.nbytes if metrics[0] == "gower" and not identity else 0) < bound


def _non_contiguous(a):
    """A Fortran-ordered copy of `a` and a column-sliced view of a wider array."""
    wide = np.zeros((len(a), 2 * a.shape[1]))
    wide[:, 1::2] = a
    return np.asfortranarray(a), wide[:, 1::2]


@pytest.mark.parametrize("sampling", ["exhaustive", "sampled"])
@pytest.mark.parametrize("d_mapped", MAPPED_METRICS)
@pytest.mark.parametrize("d_original", lipschitz.ORIGINAL_METRICS)
def test_non_contiguous_inputs_give_the_reports_of_their_contiguous_copies(
        d_original, d_mapped, sampling):
    x = _points(37, 200, 3)
    m = 1.2 * x[:, [2, 0, 1]]
    x /= 4.0                                  # shrunk, so every metric pair has violations
    if d_mapped == "total_variation":
        m /= m.sum(axis=1, keepdims=True)
    weights = [1.0, 0.5, 2.0] if "gower" in (d_original, d_mapped) else None
    kwargs = dict(weights=weights, sampling=sampling, seed=5, sample_count=20_000)
    want = audit_map(x, m, d_original, d_mapped, **kwargs)
    assert want.violation_count > 0
    for x_view, m_view in zip(_non_contiguous(x), _non_contiguous(m)):
        assert not (x_view.flags.c_contiguous or m_view.flags.c_contiguous)
        assert audit_map(x_view, m_view, d_original, d_mapped, **kwargs) == want


def test_exhaustive_audit_memory_is_bounded_by_the_row_block():
    """12.5e6 exhaustive pairs stream through the fold one row block at a
    time: no array of all pairs (100 MB here) is ever built."""
    n = 5_000
    x = _points(35, n, 2)
    m = 1.1 * x                               # every pair violates
    tracemalloc.start()
    try:
        rep = audit_map(x, m, sampling="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.violation_count == rep.pairs_examined == n * (n - 1) // 2
    condensed = 8 * rep.pairs_examined
    # beyond the kernels' column copies, which are the size of the inputs
    assert peak - x.nbytes - m.nbytes < condensed // 10
