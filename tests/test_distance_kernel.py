"""The in-place distance kernel against its one-line formula, the strips' buffer
reuse, the coordinates' lower bound, and the condensed pair kernel against
scipy's pdist."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import distance, neighborhood
from fairaudit.dataset import Column, Dataset, Provenance
from fairaudit.distance import (
    DistanceSpec,
    FeatureSpace,
    condensed_blocks,
    gower_matrix_condensed,
    min_max_scale,
)
from fairaudit.neighborhood import NeighborhoodSpec, NeighborIndex, cell_counts

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_WEIGHTS = (0.0, 0.02, 0.3, 1.0, 1.0 / 3.0, 2.5)


def _categorical(name, codes):
    codes = np.asarray(codes, dtype=np.int64)
    return Column(name, "categorical", codes=codes,
                  categories=tuple(str(c) for c in range(int(codes.max()) + 1)))


@st.composite
def _spaces(draw):
    """A FeatureSpace over mixed, possibly constant columns, some weighted zero."""
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = []
    for j, kind in enumerate(kinds):
        constant = draw(st.booleans())
        if kind == "numeric":
            values = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
            if draw(st.booleans()):
                values = np.round(values, 1)          # ties
            features.append(Column(f"f{j}", "numeric",
                                   values=np.full(n, values[0]) if constant else values))
        else:
            codes = rng.integers(0, draw(st.integers(1, 4)), n)
            features.append(_categorical(f"f{j}", np.zeros(n) if constant else codes))
    weights = [draw(st.sampled_from(_WEIGHTS)) for _ in kinds]
    if not any(weights):
        weights[draw(st.integers(0, len(kinds) - 1))] = 1.0
    labels = _categorical("s", np.arange(n) % 2)
    dataset = Dataset(labels, labels, labels, tuple(features), None,
                      Provenance("kernel", "error", None, 0))
    space = FeatureSpace(dataset, DistanceSpec({f"f{j}": w for j, w in enumerate(weights)}))
    return dataset, space, rng


def _reference(dataset, space, a, b):
    """The kernel as one formula: weighted column terms added in feature order."""
    acc = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))
    for c, w in zip(dataset.features, space.weights):
        col = min_max_scale(c.values) if c.kind == "numeric" else c.codes
        if w > 0.0:
            acc += w * (np.abs(col[a] - col[b]) if c.kind == "numeric" else col[a] != col[b])
    return acc / space.total_weight


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@_SETTINGS
@given(_spaces(), st.integers(0, 60))
def test_pair_distances_bit_equal_to_the_formula(case, m):
    dataset, space, rng = case
    a, b = rng.integers(0, space.n, (2, m))
    want = _reference(dataset, space, a, b)
    _assert_bits_equal(space.pair_distances(a, b), want)
    out = np.full(m, np.nan)
    assert space.pair_distances(a, b, out=out) is out
    _assert_bits_equal(out, want)


@_SETTINGS
@given(_spaces())
def test_block_distances_bit_equal_to_the_formula_with_one_reused_out(case):
    dataset, space, rng = case
    n = space.n
    buf = np.full((n + 3, n), np.nan)          # garbage that a stale cell would keep
    buf[-1] = -1.0
    # row counts that shrink and grow again, so each block lands on cells
    # an earlier, larger block wrote
    for rows in (n, 1, n + 3, max(n // 2, 1), 2, n + 1):
        q = rng.integers(0, n, rows)
        want = _reference(dataset, space, q[:, None], np.arange(n))
        _assert_bits_equal(space.block_distances(q), want)
        d = space.block_distances(q, out=buf[:rows])
        assert d.base is buf
        _assert_bits_equal(d, want)
        records = rng.permutation(n)[:max(n // 2, 1)]     # a window of the records
        _assert_bits_equal(space.block_distances(q, records=records), want[:, records])


@_SETTINGS
@given(_spaces())
def test_the_coordinates_bound_the_distance_from_below(case):
    dataset, space, rng = case
    coords, exact = space.coordinates()
    kinds = [c.kind for c in dataset.features]
    numeric = [w for kind, w in zip(kinds, space.weights) if kind == "numeric" and w > 0]
    # all positive-weight columns of all-numeric data, else the heaviest one
    # or two numeric columns, or one constant column without any
    assert exact == all(kind == "numeric" for kind in kinds)
    assert coords.shape == (space.n, len(numeric) if exact else min(max(len(numeric), 1), 2))
    if not numeric:
        assert not coords.any()
    a, b = rng.integers(0, space.n, (2, 200))
    l1 = np.abs(coords[a] - coords[b]).sum(axis=1)
    d = space.pair_distances(a, b)
    assert (l1 <= d * (1 + 1e-12) + 1e-15).all()
    if exact:
        assert np.allclose(l1, d, rtol=1e-12, atol=1e-15)


def test_out_of_the_wrong_shape_or_dtype_is_rejected():
    labels = _categorical("s", [0, 1, 0])
    dataset = Dataset(labels, labels, labels, (Column("x", "numeric", values=np.arange(3.0)),),
                      None, Provenance("kernel", "error", None, 0))
    space = FeatureSpace(dataset)
    q = np.array([0, 2])
    for out in (np.empty((3, 3)), np.empty((2, 2)), np.empty((2, 3), dtype=np.float32)):
        with pytest.raises(ValueError):
            space.block_distances(q, out=out)
    with pytest.raises(ValueError):
        space.pair_distances(q, q, out=np.empty(3))


@pytest.mark.parametrize("nspec", [NeighborhoodSpec("knn", k=5),
                                   NeighborhoodSpec("ball", radius=0.03)], ids=["knn", "ball"])
def test_a_strip_count_pass_fills_views_of_one_buffer(monkeypatch, nspec):
    rng = np.random.default_rng(5)
    n = 700                  # several blocks of _block_rows(n) rows each
    x = np.round(rng.normal(size=n), 1)     # ties, so kNN rows take the ball fallback
    dataset = Dataset(_categorical("s", rng.integers(0, 2, n)),
                      _categorical("y", rng.integers(0, 2, n)),
                      _categorical("yhat", rng.integers(0, 2, n)),
                      (Column("x", "numeric", values=x), _categorical("c", rng.integers(0, 3, n))),
                      None, Provenance("strips", "error", None, 0))
    index = NeighborIndex(FeatureSpace(dataset), engine="grid")
    calls = []
    block_distances = FeatureSpace.block_distances

    def recording(self, query_idx, records=None, out=None):
        calls.append((records, out))
        return block_distances(self, query_idx, records=records, out=out)

    monkeypatch.setattr(FeatureSpace, "block_distances", recording)
    ball_queries = []
    ball_block = index._ball_block
    index._ball_block = lambda q, *a: ball_queries.append(len(q)) or ball_block(q, *a)
    cell_counts(index, dataset.s.codes, 2, nspec)
    # every block of the pass, the kNN pass's ball queries for tied rows
    # included, writes into a view of one flat buffer of _block_rows(n) rows
    # of n cells, most of them into a window of the records that the strips
    # hold
    assert len(calls) > 1 and len(ball_queries) > 0
    assert all(out is not None for _, out in calls)
    assert len({id(out.base) for _, out in calls}) == 1
    base = calls[0][1].base
    assert base.shape == (neighborhood._block_rows(n) * n,)
    windowed = [len(records) for records, _ in calls if records is not None]
    assert 2 * len(windowed) > len(calls) and max(windowed) < n


def _joined(blocks):
    """One array of the blocks, each copied before the next overwrites it.

    The blocks must cover the pairs in order, and the caller's ufuncs run
    with numpy's own buffer size between them.
    """
    pieces, pos, size = [], 0, np.getbufsize()
    for start, d in blocks:
        assert start == pos and np.getbufsize() == size
        pieces.append(d.copy())
        pos += len(d)
    return np.concatenate(pieces)


@pytest.mark.parametrize("budget", [1, 7, 64, distance._CONDENSED_BLOCK])
@pytest.mark.parametrize("n", [2, 3, 64, 257])
@pytest.mark.parametrize("values", ["random", "duplicates"])
def test_condensed_blocks_bit_equal_to_pdist(n, values, budget, monkeypatch):
    pdist = pytest.importorskip("scipy.spatial.distance").pdist
    rng = np.random.default_rng(n)
    x = rng.random((n, 5))
    if values == "duplicates":      # few levels and copied rows: many zero and tied terms
        x = np.round(x * 3) / 3
        x[rng.integers(0, n, n // 2)] = x[rng.integers(0, n, n // 2)]
    columns = np.ascontiguousarray(x.T)
    w = np.array([0.3, 1.0, 2.5, 0.0, 1.0 / 3.0])
    monkeypatch.setattr(distance, "_CONDENSED_BLOCK", budget)
    assert np.array_equal(_joined(condensed_blocks(columns, w)), pdist(x, "cityblock", w=w))
    assert np.array_equal(_joined(condensed_blocks(columns)), pdist(x, "cityblock"))
    assert np.array_equal(_joined(condensed_blocks(columns, squared=True)),
                          pdist(x, "sqeuclidean"))
    want = pdist(min_max_scale(x), "cityblock", w=w) / w.sum()
    assert np.array_equal(_joined(gower_matrix_condensed(x, w)), want)


def test_min_max_scale_holds_one_array_of_the_result_size():
    x = np.linspace(-3.0, 5.0, 200_000).reshape(100_000, 2)
    want = (x - x.min(axis=0)) / (x.max(axis=0) - x.min(axis=0))
    tracemalloc.start()
    try:
        got = min_max_scale(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert peak < 1.25 * got.nbytes
