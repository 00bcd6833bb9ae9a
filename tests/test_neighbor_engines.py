"""Bulk kNN selection against a brute-force oracle, and the shared neighbor lists."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import neighborhood
from fairaudit.criteria import get_criterion
from fairaudit.dataset import ColumnSchema, load_dataset
from fairaudit.distance import DistanceSpec
from fairaudit.errors import InvalidParams
from fairaudit.neighborhood import NeighborhoodSpec, build_index, soft_evaluate

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _quantized_dataset(seed, n, levels, numeric, categorical):
    """Coordinates on a grid of `levels` steps plus copied rows, so ties abound."""
    rng = np.random.default_rng(seed)
    feats = [rng.integers(0, levels, n) / levels for _ in range(numeric)]
    feats += [rng.integers(0, 3, n) for _ in range(categorical)]
    src, dst = rng.integers(0, n, (2, n // 8))
    for col in feats:
        col[dst] = col[src]
    s, y, yhat = rng.integers(0, 2, (3, n))
    s[:2] = (0, 1)
    names = [f"f{j}" for j in range(len(feats))]
    lines = [",".join(["s", "y", "yhat"] + names)]
    for i in range(n):
        lines.append(",".join([str(s[i]), str(y[i]), str(yhat[i])]
                              + [repr(float(c[i])) if j < numeric else str(c[i])
                                 for j, c in enumerate(feats)]))
    schema = [
        ColumnSchema("s", "sensitive", "categorical"),
        ColumnSchema("y", "target", "categorical"),
        ColumnSchema("yhat", "prediction", "categorical"),
    ] + [ColumnSchema(name, "feature", "numeric" if j < numeric else "categorical")
         for j, name in enumerate(names)]
    return load_dataset(io.BytesIO(("\n".join(lines) + "\n").encode()), schema)


class _BallCounter:
    """KD-tree proxy counting ball queries, which kNN selection makes only for ties."""

    def __init__(self, tree):
        self.tree = tree
        self.ball_queries = 0

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self.ball_queries += 1
        return self.tree.query_ball_point(*args, **kwargs)


def _oracle(index, k, include_self):
    n = index.n
    d = index.space.block_distances(np.arange(n))
    if not include_self:
        d[np.arange(n), np.arange(n)] = np.inf
    members = np.stack([np.lexsort((np.arange(n), row))[:k] for row in d])
    return members, np.take_along_axis(d, members, axis=1), d


def _boundary_ties(sorted_d, k):
    """Rows whose (k+1)-th nearest distance equals the k-th."""
    if k >= sorted_d.shape[1]:
        return 0
    return int((sorted_d[:, k] == sorted_d[:, k - 1]).sum())


def test_knn_engines_match_brute_force_oracle():
    requeried = []
    scan_ties = []
    scan_fallbacks = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1024, 1100),
        levels=st.sampled_from([3, 8, 40]),
        weights=st.sampled_from([None, {"f0": 0.3, "f1": 2.5}]),
        include_self=st.booleans(),
        data=st.data(),
    )
    def check(seed, n, levels, weights, include_self, data):
        ds = _quantized_dataset(seed, n, levels, numeric=2, categorical=0)
        tree = build_index(ds, DistanceSpec(weights))
        assert tree._tree is not None
        scan = build_index(ds, DistanceSpec(weights))
        scan._tree = None
        k = data.draw(st.integers(1, n if include_self else n - 1), label="k")
        want_m, want_d, d = _oracle(tree, k, include_self)

        tree._tree = _BallCounter(tree._tree)
        fallback_rows = []
        ball_block = scan._ball_block
        scan._ball_block = lambda q, r, s: fallback_rows.append(len(q)) or ball_block(q, r, s)
        queries = np.arange(n)
        for index in (tree, scan):
            members, dists = index._knn_block(queries, k, include_self)
            assert np.array_equal(members, want_m)
            assert np.array_equal(dists, want_d)
        requeried.append(tree._tree.ball_queries)
        scan_ties.append(_boundary_ties(np.sort(d, axis=1), k))
        # every tied scan row, and only those, is settled by the bulk ball query
        assert sum(fallback_rows) == scan_ties[-1]
        scan_fallbacks.append(sum(fallback_rows))

    check()
    assert sum(requeried) > 0     # the tree engine's tie re-query path ran
    assert sum(scan_ties) > 0     # and so did the scan engine's full-row sort
    assert sum(scan_fallbacks) > 0


def test_ball_block_engines_match_brute_force_oracle():
    zero_radius_duplicates = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1024, 1100),
        levels=st.sampled_from([3, 8, 40]),
        categorical=st.sampled_from([0, 1]),
        include_self=st.booleans(),
        data=st.data(),
    )
    def check(seed, n, levels, categorical, include_self, data):
        ds = _quantized_dataset(seed, n, levels, numeric=2, categorical=categorical)
        tree = build_index(ds)
        scan = build_index(ds)
        scan._tree = None
        engines = (tree, scan) if categorical == 0 else (scan,)
        assert (tree._tree is not None) == (categorical == 0)
        queries = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40),
                                     label="queries"))
        radius = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0 / levels, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
            min_size=len(queries), max_size=len(queries)), label="radius"))
        d = scan.space.block_distances(queries)
        want = [np.flatnonzero(row <= r) for row, r in zip(d, radius)]
        if not include_self:
            want = [w[w != q] for w, q in zip(want, queries)]
        for index in engines:
            offsets, members = index._ball_block(queries, radius, include_self)
            assert offsets[0] == 0 and len(offsets) == len(queries) + 1
            for row, w in enumerate(want):
                assert np.array_equal(members[offsets[row]:offsets[row + 1]], w)
            offsets, members = index._ball_block(queries, radius[0], include_self)
            scalar = [np.flatnonzero(row <= radius[0]) for row in d]
            if not include_self:
                scalar = [w[w != q] for w, q in zip(scalar, queries)]
            assert np.array_equal(members, np.concatenate(scalar))
            assert np.array_equal(np.diff(offsets), [len(w) for w in scalar])
        zero_radius_duplicates.append(sum(len(w) > include_self
                                          for w, r in zip(want, radius) if r == 0.0))

    check()
    assert sum(zero_radius_duplicates) > 0   # radius 0 found exact duplicates


def test_mixed_scan_matches_oracle_and_shared_index_matches_fresh():
    ties = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 300),
        levels=st.sampled_from([2, 5, 30]),
        include_self=st.booleans(),
        data=st.data(),
    )
    def check(seed, n, levels, include_self, data):
        ds = _quantized_dataset(seed, n, levels, numeric=1, categorical=2)
        index = build_index(ds)
        assert index._tree is None
        k = data.draw(st.integers(1, n if include_self else n - 1), label="k")
        want_m, want_d, d = _oracle(index, k, include_self)
        members, dists = index._knn_block(np.arange(n), k, include_self)
        assert np.array_equal(members, want_m)
        assert np.array_equal(dists, want_d)
        ties.append(_boundary_ties(np.sort(d, axis=1), k))

        radius = data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="radius")
        for nspec in (NeighborhoodSpec("knn", k=k, include_self=include_self),
                      NeighborhoodSpec("ball", radius=radius)):
            for cid in ("isp", "ieo", "isuff"):
                spec = get_criterion(cid)
                shared = soft_evaluate(ds, spec, nspec, min_neighborhood=1, index=index)
                fresh = soft_evaluate(ds, spec, nspec, min_neighborhood=1)
                assert np.array_equal(shared.neighborhood_sizes, fresh.neighborhood_sizes)
                assert np.array_equal(shared.local_values, fresh.local_values, equal_nan=True)
                assert np.array_equal(shared.violated, fresh.violated)
                assert shared.satisfied_fraction == fresh.satisfied_fraction

    check()
    assert sum(ties) > 0


def test_soft_criteria_share_one_neighbor_query():
    ds = _quantized_dataset(5, 1500, 40, numeric=2, categorical=0)
    index = build_index(ds)
    queried = []
    knn_block = index._knn_block
    index._knn_block = lambda q, k, include_self: queried.append(len(q)) or knn_block(
        q, k, include_self)
    nspec = NeighborhoodSpec("knn", k=30)
    for cid in ("isp", "ieo", "isuff"):
        soft_evaluate(ds, get_criterion(cid), nspec, index=index)
    assert sum(queried) == ds.n
    assert index.neighborhoods(nspec) is index.neighborhoods(nspec)
    offsets, members = index.neighborhoods(nspec)
    assert np.array_equal(members[offsets[7]:offsets[8]], index.knn(7, 30)[0])


def test_knn_k_out_of_range_rejected_before_allocation():
    ds = _quantized_dataset(6, 50, 5, numeric=1, categorical=1)
    with pytest.raises(InvalidParams):
        soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=10**12))


def test_large_ball_audit_streams_instead_of_materializing(monkeypatch):
    n = 2000
    ds = _quantized_dataset(8, n, 30, numeric=1, categorical=2)
    nspec = NeighborhoodSpec("ball", radius=1.0)    # every record is in every ball
    specs = [get_criterion(cid) for cid in ("isp", "ieo")]
    cached = build_index(ds)
    want = [soft_evaluate(ds, spec, nspec, index=cached) for spec in specs]
    assert nspec in cached._hoods                   # n^2 members fit the default budget

    monkeypatch.setattr(neighborhood, "_BALL_MEMO_CELLS", 1 << 14)
    index = build_index(ds)
    tracemalloc.start()
    try:
        got = [soft_evaluate(ds, spec, nspec, index=index) for spec in specs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not index._hoods
    assert peak < n * n * 8 / 4
    for a, b in zip(got, want):
        assert np.array_equal(a.neighborhood_sizes, b.neighborhood_sizes)
        assert np.array_equal(a.local_values, b.local_values, equal_nan=True)
        assert np.array_equal(a.violated, b.violated)
