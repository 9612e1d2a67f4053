"""Two-pair Gaussian relay network: the network, its constraint families,
the cut-set and restricted regions, ordering normalisation and case
classification.

Rates are bits/sec/Hz, logs are base 2 throughout.  Gaussian codewords are
rate-limited by C(x) = log2(1 + x); lattice streams by (log2 x)+, the two
forms the decoding analysis distinguishes.

Rates and magnitudes are indexed by session in the order (A1, B1, A2, B2)
(session A1 carries A1's message to B1): see `GaussNetwork.uplink` and
`GaussNetwork.downlink`.  One table, `_FAMILIES`, gives each of the eight
constraint families its sessions and its uplink and downlink back-off; the
cut-set and restricted bounds here, both hops' rate preconditions in `hops`
and the sweep sampler in `gaussian` read it, and normalisation swaps and
clamps session 4-tuples.

Columns.  The pipeline keeps one float64 array per quantity with one column
per trial: a session 4-tuple is a (4, n) array, the eight family terms an
(8, n) array, a power a length-n column, and a single network a batch of
one, (k, 1).  Each entry is the float the one-network formula gives, bit
for bit: +, -, *, / and comparisons run in numpy, which rounds them as
Python does, in each formula's own association order; Python's max(a, b)
and min(a, b) are `_max` and `_min`, which keep its pick on ties, NaN and
signed zero (a plain np.min or np.max only where every input is finite and
never -0.0 by validation); and every log and every `**` is Python's own
call, entry by entry through `_each` (`_capacity`, `_lattice_cap` and
`_pow2` too), since numpy's differ from libm's in the last bit.  A map
costs a numpy call or two however many entries it has, so each stage makes
as few as it can: a hop's decoding checks map each cap function once per
hop (`chains._chain_checks`).  A value two formulas share exactly is
computed once: C(max(a, b) P) is whichever of C(a P) and C(b P) max
picks; the single-family terms of both bounds are one formula; and the
normalised network's `_hop_terms` are gathered from the input's, since
each normalised session takes the float of one input session
(`_normalize`).  The region checks run this batch code on a batch of one.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LN2 = math.log(2.0)

TOL = 1e-9  # absolute slack tolerance on all rate and power comparisons


class InfeasibleRatesError(ValueError):
    """A rate precondition fails; carries the name of the first failed inequality."""

    def __init__(self, inequality: str, detail: str = ""):
        self.inequality = inequality
        super().__init__(f"infeasible rates: {inequality}" + (f" ({detail})" if detail else ""))


def _real(v, name: str) -> float:
    """``v`` as a float, refusing a bool, a string or any other non-real."""
    if not (isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool))):
        raise ValueError(f"{name}: not a real number: {v!r}")
    return float(v)


def _positive(v, name: str) -> float:
    """``v`` as a float, refusing a non-real and anything not positive and
    finite."""
    x = _real(v, name)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return x


@dataclass(frozen=True)
class GaussNetwork:
    """Channel magnitudes |h| of the two-pair network and the common power
    constraint P (noise variance 1).  Phases never enter any formula."""

    h_ar: tuple[float, float]
    h_br: tuple[float, float]
    h_ra: tuple[float, float]
    h_rb: tuple[float, float]
    power: float

    def __post_init__(self) -> None:
        for name in ("h_ar", "h_br", "h_ra", "h_rb"):
            raw = getattr(self, name)
            try:
                vals = tuple(_positive(v, name) for v in raw)
            except TypeError as exc:  # a scalar or another non-iterable
                raise ValueError(f"{name}: not a real number pair: {raw!r}") from exc
            if len(vals) != 2:
                raise ValueError(f"{name} needs one magnitude per pair")
            object.__setattr__(self, name, vals)
        p = _positive(self.power, "power")
        object.__setattr__(self, "power", p)
        # No square in this module, (x + y) ** 2 P included, exceeds
        # (2 max|h|)^2 P, so none overflows when this one is finite.
        top = max(self.h_ar + self.h_br + self.h_ra + self.h_rb)
        if not math.isfinite(4.0 * top * top * p):
            raise ValueError(f"(2 max|h|)^2 P overflows a float: max|h| = {top:.4g}, P = {p:.4g}")

    @property
    def uplink(self) -> tuple[float, float, float, float]:
        """Each session's uplink magnitude: (|h_A1R|, |h_B1R|, |h_A2R|, |h_B2R|)."""
        return (self.h_ar[0], self.h_br[0], self.h_ar[1], self.h_br[1])

    @property
    def downlink(self) -> tuple[float, float, float, float]:
        """The relay's magnitude to each session's destination:
        (|h_RB1|, |h_RA1|, |h_RB2|, |h_RA2|)."""
        return (self.h_rb[0], self.h_ra[0], self.h_rb[1], self.h_ra[1])

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The network as a batch of one: uplink and downlink session
        arrays, (4, 1), and the power column."""
        return _one(self.uplink), _one(self.downlink), np.array([self.power])


RateQuad = tuple[float, float, float, float]  # (R_A1, R_B1, R_A2, R_B2)

_SESSIONS = ("A1", "B1", "A2", "B2")
_CASES = ("I", "II", "III")

# The constraint families: name, the sessions whose rates it sums, and the
# bits its uplink and downlink rate preconditions subtract from the
# restricted term of that hop.
_FAMILIES = (
    ("R_A1", (0,), 2.0, 2.0),
    ("R_B1", (1,), 1.0, 2.0),
    ("R_A2", (2,), 2.0, 2.0),
    ("R_B2", (3,), 1.0, 2.0),
    ("R_A1+R_A2", (0, 2), 4.0, 3.0),
    ("R_B1+R_B2", (1, 3), 4.0, 3.0),
    ("R_A1+R_B2", (0, 3), 4.0, 3.0),
    ("R_B1+R_A2", (1, 2), 4.0, 3.0),
)


# --- Columns (see the module docstring) ---------------------------------------

# Python's float arithmetic overflows to inf without a warning.
_quiet = np.errstate(over="ignore", invalid="ignore")

# The pair families' two sessions, in `_FAMILIES` order: the single
# families come first, one per session in session order.
_PAIR_S, _PAIR_T = map(np.array, zip(*(sessions for _, sessions, _, _ in _FAMILIES[4:])))
_PAIR_SWAP = [2, 3, 0, 1]  # a session 4-tuple with pair 1 and pair 2 exchanged
_SIDE_SWAP = np.array([[1], [0], [3], [2]])  # the sessions with each pair's sides exchanged
_SAME = np.arange(4)[:, None]
_STACK = np.arange(3)[:, None, None]  # `_normalize`'s stacked (uplink, downlink, rates), indexed directly
# Each family's first and last session (a single family's one session), and
# `_FAMILY_OF[s, t]`, the family of sessions s and t either way round (-1
# for two sessions of one pair, which no family sums).
_FIRST, _LAST = map(np.array, zip(*((sessions[0], sessions[-1]) for _, sessions, _, _ in _FAMILIES)))
_FAMILY_OF = np.full((4, 4), -1)
_FAMILY_OF[_FIRST, _LAST] = _FAMILY_OF[_LAST, _FIRST] = range(len(_FAMILIES))
# Each family's sum at the 2-bit base point (2, 2, 2, 2).
_BASE_SUMS = np.array([[2.0 * len(sessions)] for _, sessions, _, _ in _FAMILIES])


def _one(values) -> np.ndarray:
    """A batch of one: one row per value, one column."""
    return np.array(values, dtype=float)[:, None]


def _max(a, b):
    """Python's max(a, b) per entry: ``b`` only where it is larger."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Python's min(a, b) per entry: ``b`` only where it is smaller."""
    return np.where(b < a, b, a)


def _each(fn, x: np.ndarray, *args) -> np.ndarray:
    """The Python call ``fn(entry, *args)`` on each entry."""
    return np.fromiter(map(fn, x.ravel().tolist(), *map(itertools.repeat, args)), float, x.size).reshape(x.shape)


def _capacity(x: np.ndarray) -> np.ndarray:
    """C(x) = log2(1 + x) per entry, the Gaussian codeword rate limit;
    raises at the first negative entry in row-major order."""
    if (x < 0).any():
        raise ValueError(f"capacity argument must be non-negative, got {x[x < 0][0].item()}")
    return _each(math.log1p, x) / _LN2


def _lattice_cap(x: np.ndarray) -> np.ndarray:
    """(log2 x)+ per entry, the lattice decoding rate limit at effective SNR
    x: log2 of 1 wherever x <= 1 is 0.0, and np.maximum keeps a NaN."""
    return _each(math.log2, np.maximum(x, 1.0))


def _pow2(r: np.ndarray) -> np.ndarray:
    """``2.0 ** r`` per entry, and inf from r = 1024 up, where Python's
    overflows and raises: every such rate fails its hop's rate
    preconditions before a walk reads its power."""
    big = r >= 1024.0
    return np.where(big, math.inf, _each(functools.partial(pow, 2.0), np.where(big, 0.0, r)))


def _divide(a, b):
    """``a / b``, raising as Python's float division does where ``b`` is 0."""
    if (b == 0).any():
        raise ZeroDivisionError("float division by zero")
    return a / b


def _row(columns, i: int) -> tuple:
    """One trial's entries as Python floats."""
    return tuple(c[i].item() for c in columns)


def _session_sums(rates: np.ndarray) -> np.ndarray:
    """Each family's rate sum, as Python's sum() adds it (from 0, so that a
    rate of -0.0 sums to 0.0)."""
    single = 0.0 + rates
    return np.concatenate([single, single[_PAIR_S] + rates[_PAIR_T]])


def _hop_terms(up, down, p) -> np.ndarray:
    """Each family's restricted uplink and downlink term, (2, 8, n): a
    single session's C(|h|^2 P) on either hop; a pair's C((|h_s|^2 +
    |h_t|^2) P) on the uplink and C(max(|h_s|^2, |h_t|^2) P) on the
    downlink.  The restricted region is their minimum, and each hop's rate
    preconditions are its terms less their back-off."""
    up2, down2 = up * up, down * down
    caps = _capacity(np.concatenate([up2 * p, down2 * p, (up2[_PAIR_S] + up2[_PAIR_T]) * p]))
    single_down = caps[4:8]
    # C(max(a, b) P) is C(a P) or C(b P), whichever max picks.
    pair_down = np.where(down2[_PAIR_T] > down2[_PAIR_S], single_down[_PAIR_T], single_down[_PAIR_S])
    return np.array([np.concatenate([caps[:4], caps[8:]]), np.concatenate([single_down, pair_down])])


def _cutset_terms(up, down, p, restricted: np.ndarray) -> np.ndarray:
    """Each family's cut-set term, (8, n), from its ``restricted`` terms:
    the single families share them, and a pair's adds amplitudes on the
    uplink and powers on the downlink, the minimum of the two hops."""
    sum2, down2 = _each(pow, up[_PAIR_S] + up[_PAIR_T], 2.0), down * down  # pow(x, 2.0) is x ** 2
    caps = _capacity(np.concatenate([sum2 * p, (down2[_PAIR_S] + down2[_PAIR_T]) * p]))
    return np.concatenate([restricted[:4], _min(caps[:4], caps[4:])])


def _rate_quad(rates: Sequence[float]) -> RateQuad:
    """The four session rates as floats: real numbers, finite, and none
    below -TOL."""
    r = tuple(_real(x, "rates") for x in rates)
    if len(r) != 4:
        raise ValueError(f"expected 4 rate components, got {len(r)}")
    if not all(-TOL <= x < math.inf for x in r):
        raise ValueError(f"rates must be finite and non-negative, got {r}")
    return r


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class RegionVerdict:
    inside: bool
    checks: tuple[ConstraintCheck, ...]

    def __bool__(self) -> bool:
        return self.inside

    def violated(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if c.slack < -TOL)

    def binding(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if abs(c.slack) <= 1e-6)


def _outside(terms: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which trials' rates leave the region of ``terms``, and each family's
    slack."""
    slacks = terms - _session_sums(rates)
    return ~(slacks >= -TOL).all(axis=0), slacks


def _violated_names(slacks: list, i: int) -> list[str]:
    return [name for (name, _, _, _), s in zip(_FAMILIES, slacks) if s[i] < -TOL]


@_quiet
def _region_verdict(net: GaussNetwork, rates: Sequence[float], restricted: bool) -> RegionVerdict:
    r = _rate_quad(rates)
    up, down, p = net._columns()
    terms, sums = _min(*_hop_terms(up, down, p)), _session_sums(_one(r))
    if not restricted:
        terms = _cutset_terms(up, down, p, terms)
    checks = tuple(
        ConstraintCheck(name, lhs.item(), rhs.item())
        for (name, _, _, _), lhs, rhs in zip(_FAMILIES, sums, terms)
    )
    return RegionVerdict(all(c.slack >= -TOL for c in checks), checks)


def gauss_cutset(net: GaussNetwork, rates: Sequence[float]) -> RegionVerdict:
    """Membership in the cut-set outer bound."""
    return _region_verdict(net, rates, restricted=False)


def gauss_restricted_cutset(net: GaussNetwork, rates: Sequence[float]) -> RegionVerdict:
    """Membership in the restricted cut-set bound, the outer bound shaped
    like the achievable scheme's rate expressions."""
    return _region_verdict(net, rates, restricted=True)


def _bound_gaps(general: np.ndarray, restricted: np.ndarray) -> np.ndarray:
    """Per-family difference (general RHS - restricted RHS), a row per
    `_FAMILIES` row; raises on the first trial with one outside [0, 1]."""
    gaps = general - restricted
    outside = (gaps < -TOL) | (gaps > 1.0 + TOL)
    bad = outside.any(axis=0)
    if bad.any():
        i = bad.argmax()
        found = {name: g[i].item() for (name, _, _, _), g, o in zip(_FAMILIES, gaps, outside) if o[i]}
        raise AssertionError(f"gap outside [0, 1]: {found}")
    return gaps


@_quiet
def restricted_bound_gaps(net: GaussNetwork) -> dict[str, float]:
    """Per-family difference (general RHS - restricted RHS).

    Every difference provably lies in [0, 1]: the single-rate families are
    identical, and each sum term loses at most the one bit of
    C(2x) <= C(x) + 1.
    """
    up, down, p = net._columns()
    terms = _min(*_hop_terms(up, down, p))
    gaps = _bound_gaps(_cutset_terms(up, down, p, terms), terms)
    return {name: g.item() for (name, _, _, _), g in zip(_FAMILIES, gaps)}


# --- Ordering normalization -------------------------------------------------


@dataclass(frozen=True)
class NormalizedProblem:
    """Network and rates after relabeling and channel weakening.

    Within each pair the higher-rate direction is the A side; gains are
    clamped down where needed so the A side is the stronger uplink and the
    weaker downlink receiver hears at least as well through B (a weakened
    channel can only shrink the region, and the clamped tuple provably
    stays inside); pairs are labeled so pair 1 has the stronger A uplink.
    """

    net: GaussNetwork
    rates: RateQuad
    side_swapped: tuple[bool, bool]
    pairs_swapped: bool
    clamped: tuple[str, ...]


def _normalize(up, down, rates, hop_terms):
    """`reduce_orderings` on columns, given the input's `_hop_terms`: the
    normalised session arrays and rates, each pair's side swap, the clamps
    (name and where applied), the pair swap and the normalised network's
    `_hop_terms`, gathered from the input's."""
    outside, slacks = _outside(_min(*hop_terms), rates)
    if outside.any():
        names = ", ".join(_violated_names(slacks, outside.argmax()))
        raise InfeasibleRatesError(f"rates outside the restricted cut-set region ({names})")

    # Each normalised session takes the float of one input session, its
    # source, in each of (uplink, downlink, rates): a side swap exchanges a
    # pair's two sessions, a clamp lowers the B session's uplink or downlink
    # (|h_BiR|, |h_RAi|) to the A session's, and a pair swap exchanges the
    # two pairs.
    q, n = np.array([up, down, rates]), np.arange(rates.shape[1])
    side_swapped = rates[1::2] > rates[0::2]  # one row per pair
    src = np.array([np.where(side_swapped.repeat(2, axis=0), _SIDE_SWAP, _SAME)] * 3)
    mags = q[_STACK[:2], src[:2], n]
    clamp = mags[:, 1::2] > mags[:, 0::2]  # (hop, pair, trial)
    src[:2, 1::2] = np.where(clamp, src[:2, 0::2], src[:2, 1::2])
    pairs_swapped = mags[0, 2] > mags[0, 0]
    src = _swap_pairs(src, pairs_swapped)
    up, down, r = q[_STACK, src, n]
    # So each family's normalised term on a hop is the input's term of its
    # sessions' sources there, bit for bit: the same floats enter, a pair
    # family's two sources lie one in each pair (a pair family too), and a
    # pair term reads its two sessions either way round: a + b == b + a in
    # IEEE, and C(max(a, b) P) picks the term of the larger square (on a tie
    # the two terms are one float).
    hop_terms = hop_terms[_STACK[:2], _FAMILY_OF[src[:2, _FIRST], src[:2, _LAST]], n]

    outside, slacks = _outside(_min(*hop_terms), r)
    if outside.any():
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({_violated_names(slacks, outside.argmax())})"
        )
    clamps = list(zip(("h_br[0]", "h_ra[0]", "h_br[1]", "h_ra[1]"), clamp.swapaxes(0, 1).reshape(4, -1)))
    return up, down, r, side_swapped, clamps, pairs_swapped, hop_terms


def _normalized_problem(net: GaussNetwork, normalized) -> NormalizedProblem:
    """The `NormalizedProblem` of ``net`` from `_normalize`'s columns for
    it as a batch of one."""
    up, down, r, side, clamps, pairs, _ = normalized
    up, down = _row(up, 0), _row(down, 0)
    return NormalizedProblem(
        GaussNetwork((up[0], up[2]), (up[1], up[3]), (down[1], down[3]), (down[0], down[2]), net.power),
        _row(r, 0),
        tuple(bool(s[0]) for s in side),
        bool(pairs[0]),
        tuple(name for name, clamp in clamps if clamp[0]),
    )


@_quiet
def reduce_orderings(net: GaussNetwork, rates: Sequence[float]) -> NormalizedProblem:
    up, down, p = net._columns()
    return _normalized_problem(net, _normalize(up, down, _one(_rate_quad(rates)), _hop_terms(up, down, p)))


def _swap_pairs(q: np.ndarray, swapped) -> np.ndarray:
    """Session arrays (session axis second to last) with pair 1 and pair 2
    exchanged where ``swapped``."""
    return np.where(swapped, q[..., _PAIR_SWAP, :], q)


def _case_codes(magnitudes: np.ndarray, direction: str) -> np.ndarray:
    """Each trial's case on one hop, as an index into `_CASES`.

    ``magnitudes`` is the hop's (4, n) role-ordered session array (strong1,
    weak1, strong2, weak2): `GaussNetwork.uplink` or `.downlink` as
    columns.  Requires the normalized ordering strong_i >= weak_i and
    strong1 >= strong2, and names ``direction`` where a trial breaks it.
    Ties resolve to the lowest-numbered case.
    """
    s1, w1, s2, w2 = magnitudes
    unordered = (w1 > s1 + TOL) | (w2 > s2 + TOL) | (s2 > s1 + TOL)
    if unordered.any():
        raise ValueError(f"{direction} magnitudes {_row(magnitudes, unordered.argmax())} are not in normalized order")
    return np.where(w1 >= s2, 0, np.where(w1 >= w2, 1, 2))
