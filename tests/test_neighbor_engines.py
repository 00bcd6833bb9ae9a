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
from fairaudit.distance import DistanceSpec, FeatureSpace, min_max_scale
from fairaudit.errors import AllIndeterminate, InvalidParams
from fairaudit.measures import mi_nats, rate_gap
from fairaudit.neighborhood import (
    NeighborhoodSpec,
    NeighborIndex,
    build_index,
    cell_counts,
    soft_evaluate,
)
from neighbor_oracle import by_distance_then_index, neighbors

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


def _engines(ds, dist=None):
    """Every index of one input: the strips', plus the KD-tree's on all-numeric data."""
    names = ("grid", "tree") if all(c.kind == "numeric" for c in ds.features) else ("grid",)
    return tuple(NeighborIndex(FeatureSpace(ds, dist), engine=name) for name in names)


def _drawn_weights(data, numeric, categorical):
    """Equal weights, uneven ones with light categoricals, or zero on every numeric column."""
    kinds = ["equal", "uneven"] + (["numeric zero"] if numeric and categorical else [])
    kind = data.draw(st.sampled_from(kinds), label="weights")
    numeric_w, categorical_w = {"equal": ((1.0,) * 3, (1.0,) * 2),
                                "uneven": ((0.3, 2.5, 1.0), (0.05, 0.2)),
                                "numeric zero": ((0.0,) * 3, (1.0, 0.5))}[kind]
    weights = numeric_w[:numeric] + categorical_w[:categorical]
    return DistanceSpec({f"f{j}": w for j, w in enumerate(weights)})


def _ball_rows(index):
    """A list that grows by the query count of every `_ball_block` call on `index`."""
    rows = []
    ball_block = index._ball_block
    index._ball_block = lambda q, *a: rows.append(len(q)) or ball_block(q, *a)
    return rows


def _oracle(index, k):
    n = index.n
    d = index.space.block_distances(np.arange(n))
    members = np.stack([np.lexsort((np.arange(n), row))[:k] for row in d])
    return members, np.take_along_axis(d, members, axis=1), d


def _check_knn_order(index, rows, k, want_m, want_d):
    for i in rows:
        members, dists = neighbors(index, int(i), k=k)
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
    kernel_ties = []
    kernel_fallbacks = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1024, 1100),
        levels=st.sampled_from([3, 8, 40]),
        numeric=st.integers(0, 3),
        data=st.data(),
    )
    def check(seed, n, levels, numeric, data):
        categorical = data.draw(st.integers(0 if numeric else 1, 2), label="categorical")
        ds = _quantized_dataset(seed, n, levels, numeric=numeric, categorical=categorical)
        engines = _engines(ds, _drawn_weights(data, numeric, categorical))
        grid = engines[0]
        k = data.draw(st.integers(1, n), label="k")
        want_m, want_d, d = _oracle(grid, k)

        def check_block(index, queries):
            members, dists = by_distance_then_index(*index._knn_block(queries, k))
            assert np.array_equal(members, want_m[queries])
            assert np.array_equal(dists, want_d[queries])

        sorted_d = np.sort(d, axis=1)
        fallback_rows = _ball_rows(grid)
        check_block(grid, np.arange(n))
        if categorical:
            # strips ranked by the kernel: every tied row, and only those, is
            # settled by the bulk ball query
            kernel_ties.append(_boundary_ties(sorted_d, k))
            assert sum(fallback_rows) == kernel_ties[-1]
            kernel_fallbacks.append(sum(fallback_rows))
        check_block(grid, grid.engine.order)      # in the strips' own order
        for tree in engines[1:]:
            tree_rows = _ball_rows(tree)
            check_block(tree, np.arange(n))
            requeried.append(sum(tree_rows))
        tied_rows = np.flatnonzero(sorted_d[:, min(k, n - 1)] == sorted_d[:, k - 1])[:5]
        rows = np.concatenate([tied_rows, data.draw(st.lists(st.integers(0, n - 1), max_size=5),
                                                     label="rows")]).astype(np.int64)
        for index in engines:
            _check_knn_order(index, rows, k, want_m, want_d)

    check()
    assert sum(requeried) > 0     # the tree engine's tie re-query path ran
    assert sum(kernel_ties) > 0   # and so did the kernel-ranked strips' tie fallback
    assert sum(kernel_fallbacks) > 0


def test_ball_block_engines_match_brute_force_oracle():
    zero_radius_duplicates = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1024, 1100),
        levels=st.sampled_from([3, 8, 40]),
        numeric=st.integers(0, 3),
        data=st.data(),
    )
    def check(seed, n, levels, numeric, data):
        categorical = data.draw(st.integers(0 if numeric else 1, 2), label="categorical")
        ds = _quantized_dataset(seed, n, levels, numeric=numeric, categorical=categorical)
        engines = _engines(ds, _drawn_weights(data, numeric, categorical))
        queries = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40),
                                     label="queries"))
        radius = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0 / levels, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
            min_size=len(queries), max_size=len(queries)), label="radius"))
        d = engines[0].space.block_distances(queries)
        want = [np.flatnonzero(row <= r) for row, r in zip(d, radius)]
        for index in engines:
            offsets, members, dists = index._ball_block(queries, radius)
            assert offsets[0] == 0 and len(offsets) == len(queries) + 1
            for row, w in enumerate(want):
                assert np.array_equal(members[offsets[row]:offsets[row + 1]], w)
                assert np.array_equal(dists[offsets[row]:offsets[row + 1]], d[row, w])
            offsets, members, _ = index._ball_block(queries, radius[0])
            scalar = [np.flatnonzero(row <= radius[0]) for row in d]
            assert np.array_equal(members, np.concatenate(scalar))
            assert np.array_equal(np.diff(offsets), [len(w) for w in scalar])
        zero_radius_duplicates.append(sum(len(w) > 1 for w, r in zip(want, radius) if r == 0.0))

    check()
    assert sum(zero_radius_duplicates) > 0   # radius 0 found exact duplicates


def test_mixed_strips_match_oracle_and_shared_index_matches_fresh():
    ties = []

    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 300),
        levels=st.sampled_from([2, 5, 30]),
        data=st.data(),
    )
    def check(seed, n, levels, data):
        ds = _quantized_dataset(seed, n, levels, numeric=1, categorical=2)
        index = NeighborIndex(FeatureSpace(ds), engine="grid")
        k = data.draw(st.integers(1, n), label="k")
        want_m, want_d, d = _oracle(index, k)
        members, dists = by_distance_then_index(*index._knn_block(np.arange(n), k))
        assert np.array_equal(members, want_m)
        assert np.array_equal(dists, want_d)
        _check_knn_order(index, range(n), k, want_m, want_d)
        ties.append(_boundary_ties(np.sort(d, axis=1), k))

        radius = data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="radius")
        for nspec in (NeighborhoodSpec("knn", k=k),
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
    index._knn_block = lambda q, k: queried.append(len(q)) or knn_block(q, k)
    nspec = NeighborhoodSpec("knn", k=30)
    for cid in ("isp", "ieo", "isuff"):
        soft_evaluate(ds, get_criterion(cid), nspec, index=index)
    assert sum(queried) == ds.n
    # the pass is kept read-only on the index, and a later criterion reads it
    counts = index._counts[nspec]
    soft_evaluate(ds, get_criterion("isp"), nspec, index=index)
    assert index._counts[nspec] is counts and sum(queried) == ds.n
    assert not counts.flags.writeable
    assert counts.shape == (ds.n, 8)
    joint = (ds.y.codes * ds.y_hat.arity + ds.y_hat.codes) * ds.s.arity + ds.s.codes
    want = np.bincount(joint[neighbors(index, 7, k=30)[0]], minlength=8)
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
    index._ball_block = lambda q, *a, **kw: queried.append(len(q)) or ball_block(q, *a, **kw)
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
        members = _oracle(index, nspec.k)[0]
        return np.arange(n + 1) * nspec.k, members.ravel()
    inside = index.space.block_distances(np.arange(n)) <= nspec.radius
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
        engine=st.sampled_from(["grid", "tree"]),
        levels=st.sampled_from([3, 8, 40]),
        numeric=st.integers(0, 3),
        measure_kind=st.sampled_from(["mi", "rate"]),
        min_neighborhood=st.sampled_from([1, 10]),
        data=st.data(),
    )
    def check(seed, large, engine, levels, numeric, measure_kind, min_neighborhood, data):
        lo = 1024 if large else 30      # large inputs span several query blocks
        n = data.draw(st.integers(lo, lo + 80), label="n")
        categorical = data.draw(st.integers(0 if numeric else 1, 2), label="categorical")
        ds = _quantized_dataset(seed, n, levels, numeric=numeric, categorical=categorical)
        engine = "grid" if categorical else engine      # the tree needs all-numeric data
        dist = _drawn_weights(data, numeric, categorical)
        index = NeighborIndex(FeatureSpace(ds, dist), engine=engine)
        engines.add((engine, categorical > 0))
        radius = data.draw(st.sampled_from([None, 0.05, 0.3, 1.0]), label="radius")
        if radius is None:
            k = data.draw(st.integers(1, 60) | st.integers(1, n), label="k")
            nspec = NeighborhoodSpec("knn", k=k)
        else:
            nspec = NeighborhoodSpec("ball", radius=radius)
        offsets, members = _brute_force_neighborhoods(index, nspec)
        for spec in [get_criterion(cid) for cid in ("isp", "ieo", "isuff")] + [FTU]:
            try:
                want = _member_list_soft_evaluate(ds, spec, offsets, members, measure_kind,
                                                  0.05, 0.05, min_neighborhood)
            except AllIndeterminate:
                with pytest.raises(AllIndeterminate):
                    soft_evaluate(ds, spec, nspec, dist, measure_kind=measure_kind,
                                  min_neighborhood=min_neighborhood, index=index)
                continue
            got = soft_evaluate(ds, spec, nspec, dist, measure_kind=measure_kind,
                                min_neighborhood=min_neighborhood, index=index)
            sizes, values, violated, satisfied = want
            assert np.array_equal(got.neighborhood_sizes, sizes)
            assert np.array_equal(got.local_values, values, equal_nan=True)
            assert np.array_equal(got.violated, violated)
            assert got.satisfied_fraction == satisfied

    check()
    assert engines == {("grid", False), ("tree", False), ("grid", True)}


@pytest.mark.parametrize("mode", ["knn", "ball"])
@pytest.mark.parametrize("engine", ["grid", "tree"])
def test_cell_counts_of_any_labels_match_member_list_bincounts(engine, mode):
    @_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        large=st.booleans(),
        levels=st.sampled_from([3, 8, 40]),
        numeric=st.integers(1 if engine == "tree" else 0, 3),
        width=st.integers(1, 6),
        data=st.data(),
    )
    def check(seed, large, levels, numeric, width, data):
        lo = 1024 if large else 30      # large inputs span several query blocks
        n = data.draw(st.integers(lo, lo + 80), label="n")
        # the tree needs all-numeric data
        categorical = 0 if engine == "tree" else data.draw(st.integers(0 if numeric else 1, 2),
                                                           label="categorical")
        ds = _quantized_dataset(seed, n, levels, numeric=numeric, categorical=categorical)
        space = FeatureSpace(ds, _drawn_weights(data, numeric, categorical))
        del space.dataset           # the query and count layers never read a dataset
        index = NeighborIndex(space, engine=engine)
        if mode == "knn":
            nspec = NeighborhoodSpec("knn", k=data.draw(st.integers(1, 60) | st.integers(1, n),
                                                        label="k"))
        else:
            nspec = NeighborhoodSpec("ball", radius=data.draw(st.sampled_from([0.05, 0.3, 1.0]),
                                                              label="radius"))
        labels = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="labels")
                                       ).integers(0, width, n)
        offsets, members = _brute_force_neighborhoods(index, nspec)
        got = cell_counts(index, labels, width, nspec)
        assert np.array_equal(got, _counts_from(labels, width, offsets, members))
        if width == 1:
            assert np.array_equal(got[:, 0], np.diff(offsets))
        with pytest.raises(InvalidParams):
            cell_counts(index, labels + width, width, nspec)

    check()


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


def test_the_tree_runs_for_three_numeric_coordinates_and_the_strips_for_the_rest():
    numeric = _quantized_dataset(13, 1224, 40, numeric=2, categorical=0)
    wide = _quantized_dataset(15, 600, 40, numeric=3, categorical=0)
    mixed = _quantized_dataset(14, 300, 8, numeric=2, categorical=1)
    wide_mixed = _quantized_dataset(17, 300, 8, numeric=3, categorical=1)
    categorical = _quantized_dataset(18, 300, 8, numeric=0, categorical=2)
    # (input, weights, coordinate columns, whether their L1 is the distance)
    for ds, dist, dims, exact in (
            (_tiny_dataset(1), None, 2, True),
            (numeric, None, 2, True),
            (wide, DistanceSpec({"f2": 0.0}), 2, True),     # a zero weight drops a column
            (wide, None, 3, True),
            (mixed, None, 2, False),
            (mixed, DistanceSpec({"f1": 0.0}), 1, False),
            (mixed, DistanceSpec({"f0": 0.0, "f1": 0.0}), 1, False),    # one constant column
            (wide_mixed, None, 2, False),
            (categorical, None, 1, False)):
        index = build_index(ds, dist)
        coords, is_exact = index.space.coordinates()
        assert coords.shape == (ds.n, dims) and is_exact == exact
        tree = exact and dims > 2
        assert type(index.engine) is (neighborhood._TreeEngine if tree
                                      else neighborhood._GridEngine)
    # mixed data is indexed on its two heaviest numeric columns, in feature order
    space = build_index(wide_mixed, DistanceSpec({"f0": 0.5, "f2": 2.0})).space
    scaled = [min_max_scale(wide_mixed.features[j].values) * w / 4.5 for j, w in ((1, 1.0),
                                                                                 (2, 2.0))]
    assert np.array_equal(space.coordinates()[0], np.stack(scaled, axis=1))
    assert not space.coordinates()[1]
    for ds, name in ((mixed, "tree"), (wide_mixed, "tree"), (categorical, "tree"),
                     (mixed, "kdtree"), (numeric, "kdtree"), (numeric, "")):
        with pytest.raises(InvalidParams):
            NeighborIndex(FeatureSpace(ds), engine=name)
    for ds in (numeric, wide):
        default = build_index(ds)
        labels, width = _joint_labels(ds)
        for nspec in (NeighborhoodSpec("knn", k=30), NeighborhoodSpec("ball", radius=0.05)):
            for name in ("grid", "tree"):
                index = NeighborIndex(FeatureSpace(ds), engine=name)
                assert np.array_equal(cell_counts(index, labels, width, nspec),
                                      cell_counts(default, labels, width, nspec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_inputs_match_the_oracle_on_the_strips_and_the_tree(n):
    ds = _tiny_dataset(n)
    engines = _engines(ds)       # the grid and the tree run at any n
    queries = np.arange(n)
    d = engines[0].space.block_distances(queries)
    for k in range(1, n + 1):
        want_m, want_d, _ = _oracle(engines[0], k)
        for index in engines:
            members, dists = by_distance_then_index(*index._knn_block(queries, k))
            assert np.array_equal(members, want_m)
            assert np.array_equal(dists, want_d)
            _check_knn_order(index, queries, k, want_m, want_d)
    for index in engines:
        with pytest.raises(InvalidParams):
            index._knn_block(queries, n + 1)
    for radius in (0.0, 0.5, 1.0):
        for index in engines:
            offsets, members, dists = index._ball_block(queries, radius)
            for q in queries:
                want = np.flatnonzero(d[q] <= radius)
                assert np.array_equal(members[offsets[q]:offsets[q + 1]], want)
                assert np.array_equal(dists[offsets[q]:offsets[q + 1]], d[q, want])


@pytest.mark.parametrize("columns", ["one", "zero-span first", "zero-span last", "heavy-tailed"])
def test_grid_matches_the_oracle_on_awkward_coordinates(columns):
    n = 700
    rng = np.random.default_rng(16)
    x = rng.integers(0, 30, n) / 30           # quantized: duplicates and ties abound
    # heavy tails put outliers far out on either coordinate: their balls
    # meet few strips, and a block that holds them retries over their balls
    values = {"one": [x], "zero-span first": [np.full(n, 0.25), x],
              "zero-span last": [x, np.full(n, 0.25)],
              "heavy-tailed": [np.exp(rng.normal(0.0, 2.0, n)) for _ in range(2)]}[columns]

    def categorical(name):
        return Column(name, "categorical", codes=rng.integers(0, 2, n), categories=("0", "1"))
    features = tuple(Column(f"f{j}", "numeric", values=v) for j, v in enumerate(values))
    ds = Dataset(categorical("s"), categorical("y"), categorical("yhat"), features, None,
                 Provenance("grid", "error", None, 0))
    grid = NeighborIndex(FeatureSpace(ds), engine="grid")
    assert grid.space.coordinates()[0].shape[1] == len(values)
    for k in (1, 9, n):
        want_m, want_d, d = _oracle(grid, k)
        for queries in (np.arange(n), grid.engine.order):
            members, dists = by_distance_then_index(*grid._knn_block(queries, k))
            assert np.array_equal(members, want_m[queries])
            assert np.array_equal(dists, want_d[queries])
    for radius in (0.0, 0.002, 1 / 30, 0.2):
        offsets, members, dists = grid._ball_block(np.arange(n), radius)
        for q in range(n):
            want = np.flatnonzero(d[q] <= radius)
            assert np.array_equal(members[offsets[q]:offsets[q + 1]], want)
            assert np.array_equal(dists[offsets[q]:offsets[q + 1]], d[q, want])
    labels, width = _joint_labels(ds)
    for nspec in (NeighborhoodSpec("knn", k=9), NeighborhoodSpec("ball", radius=0.1)):
        assert np.array_equal(cell_counts(grid, labels, width, nspec),
                              _counts_from(labels, width, *_brute_force_neighborhoods(grid, nspec)))


class _KernelRecorder:
    """Records an index's kernel calls: query rows, window width, and whether a
    ball query made them.  A kNN call whose rows all came in the previous one
    is the strips' retry of rows their first window could not settle."""

    def __init__(self, index):
        self.n = index.n
        self.calls = []
        self._in_ball = False
        kernel, ball_block = index.space.block_distances, index._ball_block

        def block_distances(queries, records=None, out=None):
            width = index.n if records is None else len(records)
            self.calls.append((queries.copy(), width, self._in_ball))
            return kernel(queries, records=records, out=out)

        def ball(queries, *args):
            self._in_ball = True
            try:
                return ball_block(queries, *args)
            finally:
                self._in_ball = False

        index.space.block_distances = block_distances
        index._ball_block = ball

    def cells(self):
        return sum(len(q) * width for q, width, _ in self.calls)

    def partial_windows(self):
        return sum(width < self.n for _, width, _ in self.calls)

    def retried_rows(self):
        rows, previous = 0, None
        for q, _, from_ball in self.calls:
            if not from_ball:
                if previous is not None and np.isin(q, previous).all():
                    rows += len(q)
                previous = q
        return rows


def _joint_labels(ds):
    """Every record's joint (Y, Ŷ, S) cell, as soft_evaluate labels them, and the cell count."""
    shape = (ds.y.arity, ds.y_hat.arity, ds.s.arity)
    return (ds.y.codes * shape[1] + ds.y_hat.codes) * shape[2] + ds.s.codes, int(np.prod(shape))


def _counts_from(labels, width, offsets, members):
    """Member-list counts: row i bincounts the labels of record i's members."""
    n = len(offsets) - 1
    owner = np.repeat(np.arange(n), np.diff(offsets))
    return np.bincount(owner * width + labels[members], minlength=n * width).reshape(n, width)


def test_strips_match_brute_force_on_numeric_dominant_mixed_data():
    partial, retried, ties = [], [], []

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(800, 2000),
        levels=st.sampled_from([8, 40, 200]),
        weights=st.sampled_from([{"f2": 0.02}, {"f0": 2.5, "f2": 0.2}]),
        data=st.data(),
    )
    def check(seed, n, levels, weights, data):
        ds = _quantized_dataset(seed, n, levels, numeric=2, categorical=1)
        index = NeighborIndex(FeatureSpace(ds, DistanceSpec(weights)), engine="grid")
        k = data.draw(st.integers(1, 80), label="k")
        want_m, want_d, d = _oracle(index, k)
        recorder = _KernelRecorder(index)
        order = index.engine.order          # the strip order cell_counts walks in
        labels, width = _joint_labels(ds)
        members, dists = by_distance_then_index(*index._knn_block(order, k))
        assert np.array_equal(members, want_m[order])
        assert np.array_equal(dists, want_d[order])
        ties.append(_boundary_ties(np.sort(d, axis=1), k))
        assert np.array_equal(cell_counts(index, labels, width, NeighborhoodSpec("knn", k=k)),
                              _counts_from(labels, width, np.arange(n + 1) * k, want_m.ravel()))

        radius = data.draw(st.sampled_from([1.0 / levels, 0.02, 0.05, 0.3]), label="radius")
        inside = d <= radius
        offsets = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
        ball = NeighborhoodSpec("ball", radius=radius)
        assert np.array_equal(cell_counts(index, labels, width, ball),
                              _counts_from(labels, width, offsets, np.nonzero(inside)[1]))
        # a strip-ordered run of queries, each with its own radius, 0 included
        lo = data.draw(st.integers(0, n - 40), label="lo")
        queries = order[lo:lo + 40]
        radii = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0 / levels, 0.01, 0.05]),
                                            min_size=40, max_size=40), label="radii"))
        offsets, members, dists = index._ball_block(queries, radii)
        for row, (q, r) in enumerate(zip(queries, radii)):
            w = np.flatnonzero(d[q] <= r)
            assert np.array_equal(members[offsets[row]:offsets[row + 1]], w)
            assert np.array_equal(dists[offsets[row]:offsets[row + 1]], d[q, w])
        partial.append(recorder.partial_windows())
        retried.append(recorder.retried_rows())

    check()
    assert sum(partial) > 0       # some blocks scanned a window of the records
    assert sum(retried) > 0       # and some rows needed the retry
    assert sum(ties) > 0          # with rows tied at the k-th neighbor


def _uniform_mixed_dataset(n, arities, seed=4):
    """Two uniform numeric features plus uniform categorical ones of these arities."""
    rng = np.random.default_rng(seed)

    def categorical(name, arity):
        return Column(name, "categorical", codes=rng.integers(0, arity, n),
                      categories=tuple(str(c) for c in range(arity)))
    features = (Column("x0", "numeric", values=rng.random(n)),
                Column("x1", "numeric", values=rng.random(n)),
                *(categorical(f"c{j}", arity) for j, arity in enumerate(arities)))
    return Dataset(categorical("s", 2), categorical("y", 2), categorical("yhat", 2), features,
                   None, Provenance("uniform", "error", None, 0))


@pytest.mark.parametrize("nspec", [NeighborhoodSpec("knn", k=50),
                                   NeighborhoodSpec("ball", radius=0.05)], ids=["knn", "ball"])
def test_strip_work_is_bounded_by_the_full_scan(nspec):
    n = 2000
    cells = {}
    # numeric-dominant (one light categorical, as in the benchmark's mixed
    # workload) and wide (three heavy categoricals)
    for name, ds, dist in (("narrow", _uniform_mixed_dataset(n, (4,)), DistanceSpec({"c0": 0.02})),
                           ("wide", _uniform_mixed_dataset(n, (25, 20, 10)), None)):
        index = build_index(ds, dist)
        recorder = _KernelRecorder(index)
        cell_counts(index, *_joint_labels(ds), nspec)
        cells[name] = recorder.cells()
    assert cells["narrow"] < n * n / 2
    # the numeric columns bound little of the wide distance, so its blocks
    # fall back to the full scan, with at most one block's worth of cells more
    assert cells["wide"] <= n * n + neighborhood._block_rows(n) * n
