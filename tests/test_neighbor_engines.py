"""Bulk kNN selection against a brute-force oracle, and the shared neighbor counts."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import neighborhood
from fairaudit.criteria import FTU, CriterionSpec, get_criterion
from fairaudit.dataset import Column, ColumnSchema, Dataset, Provenance, load_dataset
from fairaudit.distance import DistanceSpec
from fairaudit.errors import AllIndeterminate, InvalidParams
from fairaudit.measures import mi_nats, rate_gap
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


def _by_distance_then_index(members, dists):
    """Rows reordered by (distance, record index): the order knn(i) promises.

    Bulk selection keeps an untied row's k nearest in engine order, so rows
    compare against the oracle as sets, made exact by this canonical order.
    """
    order = np.lexsort((members, dists), axis=-1)
    return np.take_along_axis(members, order, axis=1), np.take_along_axis(dists, order, axis=1)


def _check_knn_order(index, rows, k, include_self, want_m, want_d):
    for i in rows:
        members, dists = index.knn(int(i), k, include_self)
        assert np.array_equal(members, want_m[i])
        assert np.array_equal(dists, want_d[i])


def _boundary_ties(sorted_d, k):
    """Rows whose (k+1)-th nearest distance is within the tie margin of the k-th."""
    if k >= sorted_d.shape[1]:
        return 0
    margin = sorted_d[:, k - 1] * (1.0 + neighborhood._TREE_SLACK) + 1e-12
    return int((sorted_d[:, k] <= margin).sum())


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
            members, dists = _by_distance_then_index(*index._knn_block(queries, k, include_self))
            assert np.array_equal(members, want_m)
            assert np.array_equal(dists, want_d)
        requeried.append(tree._tree.ball_queries)
        sorted_d = np.sort(d, axis=1)
        scan_ties.append(_boundary_ties(sorted_d, k))
        # every tied scan row, and only those, is settled by the bulk ball query
        assert sum(fallback_rows) == scan_ties[-1]
        scan_fallbacks.append(sum(fallback_rows))
        tied_rows = np.flatnonzero(sorted_d[:, min(k, n - 1)] == sorted_d[:, k - 1])[:5]
        rows = np.concatenate([tied_rows, data.draw(st.lists(st.integers(0, n - 1), max_size=5),
                                                     label="rows")]).astype(np.int64)
        for index in (tree, scan):
            _check_knn_order(index, rows, k, include_self, want_m, want_d)

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
            offsets, members, dists = index._ball_block(queries, radius, include_self)
            assert offsets[0] == 0 and len(offsets) == len(queries) + 1
            for row, w in enumerate(want):
                assert np.array_equal(members[offsets[row]:offsets[row + 1]], w)
                assert np.array_equal(dists[offsets[row]:offsets[row + 1]], d[row, w])
            offsets, members, _ = index._ball_block(queries, radius[0], include_self)
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
        members, dists = _by_distance_then_index(*index._knn_block(np.arange(n), k, include_self))
        assert np.array_equal(members, want_m)
        assert np.array_equal(dists, want_d)
        _check_knn_order(index, range(n), k, include_self, want_m, want_d)
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
    counts = index.cell_counts(nspec)
    assert counts is index.cell_counts(nspec)
    assert counts.shape == (ds.n, 8)
    joint = (ds.y.codes * ds.y_hat.arity + ds.y_hat.codes) * ds.s.arity + ds.s.codes
    want = np.bincount(joint[index.knn(7, 30)[0]], minlength=8)
    assert np.array_equal(counts[7], want)


def test_knn_k_out_of_range_rejected_before_allocation():
    ds = _quantized_dataset(6, 50, 5, numeric=1, categorical=1)
    with pytest.raises(InvalidParams):
        soft_evaluate(ds, get_criterion("isp"), NeighborhoodSpec("knn", k=10**12))


def test_large_ball_audit_streams_instead_of_materializing():
    n = 2000
    ds = _quantized_dataset(8, n, 30, numeric=1, categorical=2)
    nspec = NeighborhoodSpec("ball", radius=1.0)    # every record is in every ball
    index = build_index(ds)
    queried = []
    ball_block = index._ball_block
    index._ball_block = lambda q, r, s: queried.append(len(q)) or ball_block(q, r, s)
    tracemalloc.start()
    try:
        got = {cid: soft_evaluate(ds, get_criterion(cid), nspec, index=index)
               for cid in ("isp", "ieo", "isuff")}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(queried) == n                        # one count pass for all three criteria
    assert peak < n * n * 8 / 4
    assert np.array_equal(got["isp"].neighborhood_sizes, np.full(n, n))
    own_y = np.bincount(ds.y.codes)[ds.y.codes]
    assert np.array_equal(got["ieo"].neighborhood_sizes, own_y)
    own_yhat = np.bincount(ds.y_hat.codes)[ds.y_hat.codes]
    assert np.array_equal(got["isuff"].neighborhood_sizes, own_yhat)


def _brute_force_neighborhoods(index, nspec):
    """Every record's neighborhood as CSR arrays (offsets, members), from the full matrix."""
    n = index.n
    if nspec.mode == "knn":
        members = _oracle(index, nspec.k, nspec.include_self)[0]
        return np.arange(n + 1) * nspec.k, members.ravel()
    inside = index.space.block_distances(np.arange(n)) <= nspec.radius
    if not nspec.include_self:
        inside[np.arange(n), np.arange(n)] = False
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=offsets[1:])
    return offsets, np.nonzero(inside)[1]


def _member_list_soft_evaluate(ds, spec, offsets, members, measure_kind, epsilon, delta,
                               min_neighborhood):
    """The per-criterion member-list loop that the shared count pass replaced.

    Restricts each record's members to those sharing its conditioning labels,
    counts them per (outcome, sensitive) cell and measures the local table.
    Returns (sizes, values, violated, satisfied_fraction).
    """
    n = ds.n
    left = ds.column(spec.left)
    r_arity, c_arity = left.arity, ds.s.arity
    cells = r_arity * c_arity
    pair_code = left.codes * c_arity + ds.s.codes
    cond_code = None
    for token in (g for g in spec.given if g != "features"):
        col = ds.column(token)
        cond_code = (0 if cond_code is None else cond_code * col.arity) + col.codes
    local = np.repeat(np.arange(n), np.diff(offsets))
    flat = members
    if cond_code is not None:
        keep = cond_code[flat] == cond_code[local]
        local, flat = local[keep], flat[keep]
    counts = np.bincount(local * cells + pair_code[flat], minlength=n * cells)
    counts = counts.reshape(n, r_arity, c_arity).astype(np.float64)
    tot = counts.sum(axis=(1, 2))
    sizes = tot.astype(np.int64)
    ok = tot > 0
    if measure_kind == "mi":
        with np.errstate(invalid="ignore", divide="ignore"):
            probs = counts / tot[:, None, None]
        probs = np.where(ok[:, None, None], probs, 1.0 / cells)
        values = np.where(ok, mi_nats(probs), np.nan)
    else:
        values = np.where(ok, rate_gap(counts), np.nan)
    indeterminate = sizes < min_neighborhood
    values[indeterminate] = np.nan
    determinate = int((~indeterminate).sum())
    if determinate == 0:
        raise AllIndeterminate("every restricted neighborhood is below min_neighborhood")
    violated = np.zeros(n, dtype=bool)
    violated[~indeterminate] = values[~indeterminate] > epsilon
    return sizes, values, violated, (determinate - int(violated.sum())) / determinate


def test_count_pass_matches_member_list_oracle():
    engines = set()

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        large=st.booleans(),
        scan=st.booleans(),
        levels=st.sampled_from([3, 8, 40]),
        categorical=st.sampled_from([0, 1]),
        include_self=st.booleans(),
        measure_kind=st.sampled_from(["mi", "rate"]),
        min_neighborhood=st.sampled_from([1, 10]),
        data=st.data(),
    )
    def check(seed, large, scan, levels, categorical, include_self, measure_kind,
              min_neighborhood, data):
        lo = 1024 if large else 30      # large inputs span several query blocks
        n = data.draw(st.integers(lo, lo + 80), label="n")
        ds = _quantized_dataset(seed, n, levels, numeric=2, categorical=categorical)
        index = build_index(ds)
        if scan:
            index._tree = None
        engines.add("tree" if index._tree is not None else "scan")
        radius = data.draw(st.sampled_from([None, 0.05, 0.3, 1.0]), label="radius")
        if radius is None:
            k = data.draw(st.integers(1, min(n - 1, 60)), label="k")
            nspec = NeighborhoodSpec("knn", k=k, include_self=include_self)
        else:
            nspec = NeighborhoodSpec("ball", radius=radius, include_self=include_self)
        offsets, members = _brute_force_neighborhoods(index, nspec)
        for spec in [get_criterion(cid) for cid in ("isp", "ieo", "isuff")] + [FTU]:
            try:
                want = _member_list_soft_evaluate(ds, spec, offsets, members, measure_kind,
                                                  0.05, 0.05, min_neighborhood)
            except AllIndeterminate:
                with pytest.raises(AllIndeterminate):
                    soft_evaluate(ds, spec, nspec, measure_kind=measure_kind,
                                  min_neighborhood=min_neighborhood, index=index)
                continue
            got = soft_evaluate(ds, spec, nspec, measure_kind=measure_kind,
                                min_neighborhood=min_neighborhood, index=index)
            sizes, values, violated, satisfied = want
            assert np.array_equal(got.neighborhood_sizes, sizes)
            assert np.array_equal(got.local_values, values, equal_nan=True)
            assert np.array_equal(got.violated, violated)
            assert got.satisfied_fraction == satisfied

    check()
    assert engines == {"tree", "scan"}


def test_soft_evaluate_rejects_index_of_another_dataset():
    ds = _quantized_dataset(9, 200, 8, numeric=1, categorical=1)
    nspec = NeighborhoodSpec("knn", k=20)
    isp = get_criterion("isp")
    for other in (_quantized_dataset(10, 200, 8, numeric=1, categorical=1),
                  _quantized_dataset(9, 150, 8, numeric=1, categorical=1)):
        with pytest.raises(InvalidParams):
            soft_evaluate(ds, isp, nspec, index=build_index(other))
    twin = _quantized_dataset(9, 200, 8, numeric=1, categorical=1)   # equal, not the same object
    got = soft_evaluate(ds, isp, nspec, index=build_index(twin))
    want = soft_evaluate(ds, isp, nspec)
    assert np.array_equal(got.local_values, want.local_values, equal_nan=True)


def test_soft_evaluate_rejects_criteria_outside_the_label_cells():
    ds = _quantized_dataset(11, 60, 8, numeric=1, categorical=1)
    spec = CriterionSpec("iself", "self-conditioned parity", "prediction", "sensitive",
                         ("prediction", "features"), "individual", "aware")
    with pytest.raises(InvalidParams):
        soft_evaluate(ds, spec, NeighborhoodSpec("knn", k=5))


def test_soft_evaluate_rejects_index_built_with_other_weights():
    ds = _quantized_dataset(12, 300, 8, numeric=2, categorical=0)
    nspec = NeighborhoodSpec("knn", k=30)
    isp = get_criterion("isp")
    weighted = build_index(ds, DistanceSpec({"f0": 20.0}))
    for dist in (None, DistanceSpec(), DistanceSpec({"f0": 2.0})):
        with pytest.raises(InvalidParams, match="weights"):
            soft_evaluate(ds, isp, nspec, dist, index=weighted)
    with pytest.raises(InvalidParams, match="weights"):
        soft_evaluate(ds, isp, nspec, DistanceSpec({"f0": 20.0}), index=build_index(ds))
    # the same weights, spelled differently, describe the same distance
    for dist in (DistanceSpec({"f0": 20.0}), DistanceSpec({"f0": 20, "f1": 1.0})):
        got = soft_evaluate(ds, isp, nspec, dist, index=weighted)
        want = soft_evaluate(ds, isp, nspec, dist)
        assert np.array_equal(got.local_values, want.local_values, equal_nan=True)


def _tiny_dataset(n):
    """n <= 3 records on two numeric features; records 0 and 1 are duplicates."""
    def categorical(name, codes):
        return Column(name, "categorical", codes=np.array(codes[:n]), categories=("0", "1"))
    features = tuple(Column(name, "numeric", values=np.array(values[:n]))
                     for name, values in (("f0", [0.5, 0.5, 0.2]), ("f1", [1.0, 1.0, 3.0])))
    return Dataset(categorical("s", [0, 1, 0]), categorical("y", [0, 0, 1]),
                   categorical("yhat", [1, 0, 1]), features, None,
                   Provenance("tiny", "error", None, 0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_inputs_match_scan_and_oracle_on_the_tree(n):
    ds = _tiny_dataset(n)
    tree = build_index(ds)
    assert tree._tree is not None          # the tree runs at any n
    scan = build_index(ds)
    scan._tree = None
    queries = np.arange(n)
    d = scan.space.block_distances(queries)
    for include_self in (True, False):
        for k in range(1, n + include_self):
            want_m, want_d, _ = _oracle(tree, k, include_self)
            for index in (tree, scan):
                members, dists = _by_distance_then_index(*index._knn_block(queries, k,
                                                                           include_self))
                assert np.array_equal(members, want_m)
                assert np.array_equal(dists, want_d)
                _check_knn_order(index, queries, k, include_self, want_m, want_d)
        for index in (tree, scan):
            with pytest.raises(InvalidParams):
                index._knn_block(queries, n + include_self, include_self)
        for radius in (0.0, 0.5, 1.0):
            for index in (tree, scan):
                offsets, members, dists = index._ball_block(queries, radius, include_self)
                for q in queries:
                    want = np.flatnonzero(d[q] <= radius)
                    if not include_self:
                        want = want[want != q]
                    assert np.array_equal(members[offsets[q]:offsets[q + 1]], want)
                    assert np.array_equal(dists[offsets[q]:offsets[q + 1]], d[q, want])
