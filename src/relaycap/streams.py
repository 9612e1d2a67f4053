"""The Gaussian sweep's random streams, computed as columns of trials.

Trial i of a sweep with seed s reads, in order, the doubles that numpy's
default_rng(SeedSequence(entropy=s, spawn_key=(i,))).random() returns.
`_Streams` computes them for a column of trials at once: the pool after
the seed's words is SeedSequence(s).pool, mixed in plain ints by
`_seed_pool`; the index word's mix and generate_state(4, uint64) are one
stacked hashmix call each; PCG64, a 128-bit LCG x -> M x + inc with XSL-RR
output (O'Neill 2014), runs as (high, low) uint64 columns; next_double is
(u >> 11) 2^-53.  The PCG64 arithmetic runs on words prebuilt at import:
each multiplier's low word split into 32-bit halves, and its shift counts
and mask uint64 scalars.  The 64 x 64-bit high word is in chained-carry
form, and a draw lays out one row per step and one column per trial, so
each product's inner loop runs along the trials.  No numpy.random name is
read: a per-trial numpy Generator would cost more than the trial, and
numpy's generators, SeedSequence among them, are the tests' oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_M32 = 0xFFFF_FFFF
_POOL = 4  # SeedSequence's pool size, in 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ROUND = 9  # the draw layout: a sampling round's 8 magnitudes, then its power


# PCG64's shift counts and low-half mask as uint64 scalars, so that no step
# of a stream column converts a Python int.
_LOW = np.uint64(_M32)
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))


def _column(words) -> np.ndarray:
    """Words of up to 64 bits as a uint64 column."""
    return np.array(words, np.uint64)[:, None]


def _words(x: int) -> tuple[int, int, int, int]:
    """``x`` < 2^128 as the words a product by it reads: its high and low
    uint64 words, then the low word's low and high 32-bit halves."""
    low = x & (1 << 64) - 1
    return x >> 64, low, low & _M32, low >> 32


def _jump_table(steps: int):
    """(M^k, M^(k-1) + ... + M + 1) mod 2^128 for k = 1 .. ``steps``, each as
    its `_words` in uint64 columns: k LCG steps take x to M^k x + (sum) inc."""
    a, s, rows = 1, 0, []
    for _ in range(steps):
        a, s = a * _PCG_MULT % 2**128, (s * _PCG_MULT + 1) % 2**128
        rows.append((*_words(a), *_words(s)))
    columns = [_column(c) for c in zip(*rows)]
    return columns[:4], columns[4:]


_JUMPS = _jump_table(_ROUND)
_MULT = tuple(map(np.uint64, _words(_PCG_MULT)))


def _hash_consts(const: int, mult: int, first: int, k: int) -> list[int]:
    """The running hash constants const mult^j mod 2^32 for j in [first,
    first + k): hashmix call j starts from the j-th."""
    return [const * pow(mult, j, _M32 + 1) & _M32 for j in range(first, first + k)]


def _hashmix(value, consts, mult: int):
    """SeedSequence's hashmix of 32-bit words, plain ints or uint64 rows,
    each hashed with its running constant in ``consts`` (see
    `_hash_consts`)."""
    value = (value ^ consts) * (consts * mult & _M32) & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, plain ints or uint64 columns."""
    out = (_MIX_L * x - _MIX_R * y) & _M32
    return out ^ out >> 16


# The pool's first 4 + 12 hashmix calls: one per pool word, then one per
# ordered pair of distinct pool words.
_POOL_CONSTS = _hash_consts(_INIT_A, _MULT_A, 0, _POOL * _POOL)
# generate_state(4, uint64) hashes the pool's words in turn, twice over, with
# a hashmix of its own whose constants are the same for every stream.
_STATE_ROWS = [k % _POOL for k in range(2 * _POOL)]
_STATE_CONSTS = _column(_hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL))


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence(seed).pool in plain ints, and the number of hashmix calls
    that built it.  The seed's 32-bit words, low first and zero-padded to the
    pool, are hashed in; every pool word is mixed into every other; then
    each word past the pool is mixed into every pool word, 4 calls a word."""
    words = [seed >> 32 * k & _M32 for k in range(max(_POOL, -(-seed.bit_length() // 32)))]
    consts = iter(_POOL_CONSTS)
    pool = [_hashmix(w, next(consts), _MULT_A) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts), _MULT_A))
    for k, word in enumerate(words[_POOL:], _POOL):
        consts = _hash_consts(_INIT_A, _MULT_A, _POOL * k, _POOL)
        pool = [_mix(p, _hashmix(word, c, _MULT_A)) for p, c in zip(pool, consts)]
    return pool, _POOL * len(words)


def _mul_hi(a, b0, b1):
    """The high 64 bits of each 64 x 64-bit product a b, from 32-bit halves,
    with the halves b0 and b1 of b given: each partial sum carries into the
    next, and none overflows."""
    a0, a1 = a & _LOW, a >> _U32
    t = a1 * b0 + (a0 * b0 >> _U32)
    u = a0 * b1 + (t & _LOW)
    return a1 * b1 + (t >> _U32) + (u >> _U32)


def _mul128(x, c):
    """x c mod 2^128, for a (high, low) uint64 pair x and c as its `_words`."""
    c_hi, c_lo, c0, c1 = c
    return _mul_hi(x[1], c0, c1) + x[0] * c_lo + x[1] * c_hi, x[1] * c_lo


def _add128(x, y):
    """x + y mod 2^128, for (high, low) uint64 pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]), low


def _next_double(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as numpy's next_double."""
    x, rot = hi ^ lo, hi >> _U58
    out = x >> rot | x << ((_U64 - rot) & _U63)
    return (out >> _U11) * 2.0**-53


def _uniform(lo: float, hi: float, d):
    """numpy's Generator.uniform(lo, hi) of the double ``d``."""
    return lo + (hi - lo) * d


class _Streams:
    """The streams of trials ``indices`` of a sweep with seed ``seed``: one
    PCG64 state entry and one column of jump offsets per trial.  A trial's
    k-th double is a pure function of (seed, index, k): `draw` advances only
    the trials it draws for, so redraw rounds run the pending trials in
    lockstep."""

    def __init__(self, seed: int, indices: Sequence[int]):
        # SeedSequence(entropy=seed, spawn_key=(i,)) builds SeedSequence(seed)'s
        # pool first, once per block, then mixes in the index word as one more
        # word past the pool, one column entry per trial.
        pool, calls = _seed_pool(seed)
        i = np.fromiter(indices, np.uint64, len(indices))
        consts = _column(_hash_consts(_INIT_A, _MULT_A, calls, _POOL))
        pool = _mix(_column(pool), _hashmix(i, consts, _MULT_A))
        half = _hashmix(pool[_STATE_ROWS], _STATE_CONSTS, _MULT_B)
        w0, w1, w2, w3 = half[0::2] | half[1::2] << _U32
        # PCG64's set-seq seeding: inc = 2 (w2, w3) + 1, then two steps around
        # adding the initial state (w0, w1).
        inc = (w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1)
        self.state = _add128(_mul128(_add128(inc, (w0, w1)), _MULT), inc)
        # inc (M^(k-1) + ... + M + 1) for k = 1 .. _ROUND, one column per
        # trial: a jump of k steps is then one product and this sum.
        self.offsets = _mul128(inc, _JUMPS[1])

    def draw(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The next ``k`` <= `_ROUND` doubles of the trials at positions
        ``rows``, one row per step and one column per trial, computed as one
        jump per double."""
        state = (self.state[0].take(rows), self.state[1].take(rows))
        jump = [w[:k] for w in _JUMPS[0]]
        hi, lo = _add128(_mul128(state, jump), (self.offsets[0][:k].take(rows, 1), self.offsets[1][:k].take(rows, 1)))
        self.state[0][rows], self.state[1][rows] = hi[-1], lo[-1]
        return _next_double(hi, lo)
