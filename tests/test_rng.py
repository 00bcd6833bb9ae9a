import numpy as np
import pytest

from fairaudit.rng import GAMMA, _MASK, CounterRng, mix64


def test_vectorized_matches_scalar_reference():
    rng = CounterRng(987654321)
    got = rng.u64(64)
    want = [mix64((987654321 + (i + 1) * GAMMA) & _MASK) for i in range(64)]
    assert [int(v) for v in got] == want


def test_stream_independent_of_batching():
    a, b = CounterRng(7), CounterRng(7)
    x = np.concatenate([a.uniforms(1), a.uniforms(10), a.uniforms(100)])
    y = b.uniforms(111)
    assert np.array_equal(x, y)


def test_different_seeds_differ():
    assert not np.array_equal(CounterRng(1).u64(8), CounterRng(2).u64(8))


def test_uniform_range_and_mean():
    u = CounterRng(3).uniforms(100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_bernoulli_per_draw_probabilities():
    rng = CounterRng(4)
    p = np.concatenate([np.zeros(100), np.ones(100), np.full(100000, 0.3)])
    draws = rng.bernoulli(p)
    assert not draws[:100].any()
    assert draws[100:200].all()
    assert abs(draws[200:].mean() - 0.3) < 0.01


def test_categorical_frequencies():
    probs = [0.2, 0.3, 0.5]
    draws = CounterRng(5).categorical(probs, 200000)
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.allclose(freq, probs, atol=0.01)


def test_categorical_matrix_draws_one_per_row():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0]])
    rows = np.tile(probs, (2500, 1))
    draws = CounterRng(9).categorical(rows)
    u = CounterRng(9).uniforms(len(rows))
    want = [np.searchsorted(np.cumsum(p)[:-1], x, side="right") for p, x in zip(rows, u)]
    assert draws.dtype == np.int64 and draws.tolist() == want
    assert (draws[0::4] == 0).all() and (draws[1::4] == 2).all() and (draws[3::4] < 2).all()
    # a matrix of one repeated vector gives the vector's draws
    vector = CounterRng(9).categorical([0.2, 0.3, 0.5], 1000)
    assert np.array_equal(CounterRng(9).categorical(np.tile([0.2, 0.3, 0.5], (1000, 1))), vector)
    with pytest.raises(ValueError):
        CounterRng(9).categorical(rows, 7)
    with pytest.raises(ValueError):
        CounterRng(9).categorical([[0.5, 0.5], [0.5, 0.6]])


def test_integers_unbiased_and_in_range():
    draws = CounterRng(6).integers(7, 100000)
    assert draws.min() >= 0 and draws.max() <= 6
    freq = np.bincount(draws, minlength=7) / len(draws)
    assert np.allclose(freq, 1 / 7, atol=0.01)


@pytest.mark.parametrize("bound", [0, -1, 2**63 + 1, 2**64 - 1, 2**64])
def test_integers_rejects_bounds_outside_int64(bound):
    with pytest.raises(ValueError):
        CounterRng(6).integers(bound, 10)


def test_integers_at_the_largest_bound_stay_in_range():
    draws = CounterRng(6).integers(2**63, 10000)
    assert draws.dtype == np.int64
    assert draws.min() >= 0
    assert (draws >= 2**62).any() and (draws < 2**62).any()


@pytest.mark.parametrize("bound", [3, 1_999_000, 5_000_000_000, 2**62 + 1])
def test_integers_in_chunks_equal_one_call(bound):
    """The blocked Lipschitz sampler draws pairs in chunks and relies on this."""
    whole = CounterRng(8)
    want = whole.integers(bound, 1000)
    chunked = CounterRng(8)
    got = np.concatenate([chunked.integers(bound, size) for size in (1, 7, 64, 300, 628)])
    assert np.array_equal(got, want)
    assert chunked.counter == whole.counter
    if bound == 2**62 + 1:                    # about a quarter of the raw draws are rejected
        assert whole.counter > 1250
