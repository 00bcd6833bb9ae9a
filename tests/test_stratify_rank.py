"""`stratify`'s two rank branches against a lexsort oracle.

Strata are ranked by counting when the mixed-radix key spans at most n
keys, and by a sort otherwise; past `_MAX_KEY_SPAN` the partial key is
re-ranked first.  Every branch must give the labels, sizes and codes of
the oracle: the distinct code rows in lexicographic order, as int64 labels
and sizes and codes in the narrowest unsigned type that holds every
condition column's codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import dataset as dataset_module
from fairaudit.dataset import Column, ColumnSchema, Dataset, Provenance, load_dataset, stratify

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _column(name, codes, arity):
    return Column(name, "categorical", codes=np.asarray(codes, dtype=np.int64),
                  categories=tuple(str(v) for v in range(arity)))


def _dataset(features):
    """Features given as (codes, arity); arities may exceed the observed codes."""
    n = len(features[0][0])
    zeros = np.zeros(n, dtype=np.int64)
    return Dataset(
        s=_column("s", zeros, 1), y=_column("y", zeros, 1), y_hat=_column("yhat", zeros, 1),
        features=tuple(_column(f"x{i}", codes, arity)
                       for i, (codes, arity) in enumerate(features)),
        score=None, provenance=Provenance("test", "error", None, 0),
    )


def _width(arity):
    """The narrowest unsigned type whose range holds the codes 0 .. arity - 1."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                if arity <= 1 << (8 * np.dtype(t).itemsize))


def _oracle(ds, names):
    """(labels, sizes, codes) from a lexsort of the code rows."""
    rows = np.zeros((ds.n, len(names)), dtype=np.int64)
    for j, name in enumerate(names):
        rows[:, j] = ds.column(name).codes
    order = np.lexsort(rows.T[::-1]) if names else np.arange(ds.n)
    ranked = rows[order]
    new = np.ones(ds.n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    labels = np.empty(ds.n, dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    top = max((ds.column(name).arity for name in names), default=1)
    return labels, np.bincount(labels), ranked[new].astype(_width(top))


def _assert_equal(strata, want):
    for got, expected in zip((strata.labels, strata.sizes, strata.codes), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@st.composite
def _features(draw):
    """Columns whose key span lands below, at, just above or far above n.

    Each column's codes come from a drawn subset of its categories, so
    some categories are never observed (a binarized prediction may hold one
    of its two codes only).
    """
    n = draw(st.integers(1, 40))
    arities = draw(st.lists(st.integers(1, 6), max_size=3))
    offset = draw(st.sampled_from([None, -1, 0, 1]))
    if offset is not None:
        arities.insert(draw(st.integers(0, len(arities))), max(1, n + offset))
    features = []
    for arity in arities:
        used = draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=4, unique=True))
        codes = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
        features.append((codes, arity))
    return features or [([0] * n, 1)]


@_SETTINGS
@given(features=_features(), empty=st.booleans())
def test_both_rank_branches_match_the_lexsort_oracle(features, empty):
    ds = _dataset(features)
    names = [] if empty else ds.feature_names()
    _assert_equal(stratify(ds, names), _oracle(ds, names))


@_SETTINGS
@given(data=st.data())
def test_counting_and_sorting_rank_the_same_keys_alike(data):
    n = data.draw(st.integers(1, 40))
    span = data.draw(st.integers(1, n))
    key = np.array(data.draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n)),
                   dtype=np.int64)
    counted = dataset_module._dense_rank(key, span)       # span <= n: by counting
    sorted_ = dataset_module._dense_rank(key, n + 1)      # span > n: by a sort
    for a, b in zip(counted, sorted_):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_a_binarized_prediction_holding_one_code_is_one_stratum():
    schema = [ColumnSchema("s", "sensitive", "categorical"),
              ColumnSchema("y", "target", "categorical"),
              ColumnSchema("yhat", "prediction", "numeric")]
    ds = load_dataset(b"s,y,yhat\na,0,0.9\nb,1,0.7\na,1,0.8\n", schema, threshold=0.5)
    assert ds.y_hat.arity == 2
    strata = stratify(ds, ["prediction"])
    _assert_equal(strata, (np.zeros(3, dtype=np.int64), np.array([3], dtype=np.int64),
                           np.array([[1]], dtype=np.uint8)))


def test_keys_past_the_int64_span_are_re_ranked_first(monkeypatch):
    # five columns of arity 1e4 span 1e20 keys: the fifth digit re-ranks the
    # first four (1e16 keys) before it is added
    n, arity = 10_000, 10_000
    rng = np.random.default_rng(7)
    ds = _dataset([(rng.integers(0, arity, n), arity) for _ in range(5)])
    spans = []
    rank = dataset_module._dense_rank

    def spy(key, span):
        spans.append(span)
        return rank(key, span)

    monkeypatch.setattr(dataset_module, "_dense_rank", spy)
    names = ds.feature_names()
    strata = stratify(ds, names)
    _assert_equal(strata, _oracle(ds, names))
    assert strata.codes.dtype == np.uint16
    assert spans[0] == arity ** 4 and len(spans) == 2
    assert arity ** 5 > dataset_module._MAX_KEY_SPAN


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_spans_next_to_n_take_the_branch_their_size_picks(offset, monkeypatch):
    n = 64
    rng = np.random.default_rng(offset + 2)
    ds = _dataset([(rng.integers(0, n + offset, n), n + offset)])
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    strata = stratify(ds, ["x0"])
    monkeypatch.undo()
    assert len(sorts) == (1 if n + offset > n else 0)
    _assert_equal(strata, _oracle(ds, ["x0"]))
