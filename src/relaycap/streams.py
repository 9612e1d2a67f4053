"""The Gaussian sweep's random streams, computed as columns of trials.

Trial i of a sweep with seed s reads the doubles f(s, i, c), c = 0, 1, ...:
output n = i 2^32 + c + 1 of SplitMix64 (Steele, Lea and Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014) started at the
seed's key, as (z >> 11) 2^-53.  The key is blake2b of the seed's
little-endian bytes (one at least), 8 digest bytes read little-endian, so
every seed size works.  Output n is a pure function of (key, n): z = key +
n gamma mod 2^64, then SplitMix64's finaliser.  So each trial reads its own
2^32-block of one SplitMix64 sequence, which passes BigCrush, and `_Streams`
keeps one base column per block, key + (i 2^32 + 1) gamma, and no state: a
draw is the finaliser on base + c gamma for the counters it reads, one row
per counter and one column per trial.  No numpy.random name is read, since
importing numpy.random costs a process about 6 MB of RSS.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

_M64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_FINALISER = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))
_U11 = np.uint64(11)
_ROUND = 9  # the draw layout: a sampling round's 8 magnitudes, then its power
_BOUNDARY = 2**31  # the counter of a trial's first boundary-direction double


def _key(seed: int) -> int:
    """The seed's SplitMix64 starting point: blake2b of its little-endian
    bytes, 8 digest bytes read little-endian."""
    data = seed.to_bytes(max(1, -(-seed.bit_length() // 8)), "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class _Streams:
    """The streams of trials ``indices`` of a sweep with seed ``seed``: one
    SplitMix64 base entry per trial.  A trial's c-th double is a pure
    function of (seed, index, c), so redraw rounds read the pending
    trials' counters in any grouping."""

    def __init__(self, seed: int, indices: Sequence[int]):
        # key + (i 2^32 + 1) gamma mod 2^64, wrapping in uint64 columns.
        i = np.fromiter(indices, np.uint64, len(indices))
        self.base = i * np.uint64(_GAMMA << 32 & _M64) + np.uint64(_key(seed) + _GAMMA & _M64)

    def draw(self, rows: np.ndarray, start: int, k: int) -> np.ndarray:
        """The doubles at counters ``start`` .. ``start + k - 1`` of the
        trials at positions ``rows``, one row per counter and one column per
        trial."""
        z = (np.arange(start, start + k, dtype=np.uint64) * np.uint64(_GAMMA))[:, None] + self.base.take(rows)
        s1, m1, s2, m2, s3 = _FINALISER
        z ^= z >> s1
        z *= m1
        z ^= z >> s2
        z *= m2
        z ^= z >> s3
        return (z >> _U11) * 2.0**-53
