"""Counter-based deterministic random numbers.

The generator is the SplitMix64 output function applied to a counter:

    out(seed, i) = mix64((seed + (i + 1) * GAMMA) mod 2^64)

    mix64(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
               z ^= z >> 27;  z *= 0x94D049BB133111EB
               z ^= z >> 31

with GAMMA = 0x9E3779B97F4A7C15 (the 64-bit golden ratio).  All arithmetic
is modulo 2^64.  Because output i depends only on (seed, i), streams are
bit-identical across platforms, runs, and chunking of the draws, which is
what makes generated fixtures reproducible byte-for-byte.

Floats are built as (out >> 11) * 2^-53, uniform on [0, 1).
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer (reference implementation)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64, matching the scalar path
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Deterministic stream of draws indexed by an advancing counter.

    Two instances with the same seed produce the same stream regardless of
    how the draws are batched.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter

    def u64(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit outputs."""
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        z = np.uint64(self.seed) + idx * np.uint64(GAMMA)
        return _mix64_array(z)

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` float64 uniforms on [0, 1)."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def bernoulli(self, p, count: int | None = None) -> np.ndarray:
        """0/1 draws; `p` may be a scalar or a per-draw array."""
        p = np.asarray(p, dtype=np.float64)
        n = count if count is not None else p.shape[0]
        return (self.uniforms(n) < p).astype(np.int64)

    def categorical(self, probs, count: int) -> np.ndarray:
        """Index draws from a fixed probability vector."""
        probs = np.asarray(probs, dtype=np.float64)
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must be non-negative and sum to 1")
        cum = np.cumsum(probs)
        cum[-1] = 1.0  # guard against cumulative rounding
        return np.searchsorted(cum, self.uniforms(count), side="right").astype(np.int64)

    def integers(self, bound: int, count: int) -> np.ndarray:
        """Unbiased draws from {0, ..., bound-1} via rejection on u64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound   # 2^64 itself when bound divides evenly
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            raw = self.u64(count - filled)
            if limit < (1 << 64):
                raw = raw[raw < np.uint64(limit)]
            accepted = (raw % np.uint64(bound)).astype(np.int64)
            out[filled:filled + accepted.size] = accepted
            filled += accepted.size
        return out
