"""Two-pair Gaussian relay network: cut-set regions, power allocations and
the constant-gap achievability check.

Rates are bits/sec/Hz, logs are base 2 throughout.  Gaussian codewords are
rate-limited by C(x) = log2(1 + x); lattice streams by (log2 x)+, the two
forms the decoding analysis distinguishes.  Lattice codewords themselves
are never constructed -- streams are represented by their rate and their
received power only.

The achievable scheme superposes, at the higher-rate user of each pair, a
Gaussian codeword and a lattice codeword whose receive power matches the
partner's lattice codeword, so the relay can decode the lattice sum.
Sorting the users by receive strength leaves three uplink and three
downlink configurations.  Each configuration's successive-cancellation
chain is written once, in `_UPLINK_CHAINS` or `_DOWNLINK_CHAINS`, as
stages of a stream and the receivers that decode it (the uplink's one
receiver is the relay, at SNR 1).  One walker, `_walk`, spends bottom-up
exactly the power each stream's rate requires given the interference still
standing under it, and one checker, `_chain_checks`, walks the same stages.

Rates and magnitudes are indexed by session in the order (A1, B1, A2, B2)
(session A1 carries A1's message to B1): see `GaussNetwork.uplink` and
`GaussNetwork.downlink`.  One table, `_FAMILIES`, gives each of the eight
constraint families its sessions and its uplink and downlink back-off; the
cut-set and restricted bounds, both hops' rate preconditions and the sweep
sampler read it, and normalisation swaps and clamps session 4-tuples.

Every computation runs on columns, one entry per trial (see "Columns"
below).  One masked cascade, `_verify_columns`, normalises, then allocates
and checks each hop, each trial leaving at its first failing stage:
`sweep_blocks` runs it on each block of sampled trials and
`verify_constant_gap` on a batch of one, whose report it builds from the
cascade's columns.  The region checks, allocators and rate checks also
run the batch code on a batch of one.

The sweep's randomness is columns too (see "Sweep streams" below): trial
i's k-th double is a pure function of (seed, i, k), numpy's k-th draw of
default_rng(SeedSequence(entropy=seed, spawn_key=(i,))) computed without
building that generator or importing numpy.random: SeedSequence(seed)'s
pool is mixed in plain ints once per block, and the index word and
generate_state are two stacked hashmix calls over a column of trials.  A
sampling round takes 9 doubles per pending trial, a boundary direction 4,
and redraws advance only the rejected trials' streams.  `sweep_blocks`
yields a sweep block by block, so a caller that keeps only what it needs of
each block runs in memory flat in the trial count; `monte_carlo_gap` joins
the blocks into one report.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .detnet import _integer

_LN2 = math.log(2.0)

TOL = 1e-9  # absolute slack tolerance on all rate and power comparisons

MIN_PROVEN_SNR = 2.5  # every |h|^2 P must clear this for the splits to be proven valid

# Sweep sampling: every link SNR of a sampled network clears MIN_LINK_SNR,
# and boundary rates retreat BOUNDARY_NUDGE bits into the region.
MIN_LINK_SNR = max(4.0, MIN_PROVEN_SNR)
BOUNDARY_NUDGE = 1e-6
# Draws per sampled network before a trial is refused; at the default ranges
# no trial of 10^5 (seed 0) needed more than 10.
MAX_SAMPLE_DRAWS = 1000
# Trials per block of the sweep's batch pipeline.  `sweep_blocks` yields each
# block's columns once the block is done, and `cli.cmd_sweep` spools its CSV
# rows then, so the block size, not the trial count, bounds a sweep's memory,
# and trades it against per-block overhead: `relaycap sweep --seed 0 --out f`
# peaked at 37.5 MB RSS at 10^4 trials and 38.2 MB at 10^6 (x86, Python 3.11).
SWEEP_BLOCK = 1024


class InfeasibleRatesError(ValueError):
    """A rate precondition fails; carries the name of the first failed inequality."""

    def __init__(self, inequality: str, detail: str = ""):
        self.inequality = inequality
        super().__init__(f"infeasible rates: {inequality}" + (f" ({detail})" if detail else ""))


class LowPowerError(ValueError):
    """A receive SNR sits below the proven validity threshold of the construction."""


class AllocationInvalidError(RuntimeError):
    """A computed power split exceeds a power budget.

    The validity chains only guarantee the splits near-universally; see the
    package notes on sum-rate corner cases.
    """


def awgn_capacity(x: float) -> float:
    """C(x) = log2(1 + x), the Gaussian codeword rate limit."""
    if x < 0:
        raise ValueError(f"capacity argument must be non-negative, got {x}")
    return math.log1p(x) / _LN2


def lattice_rate_cap(x: float) -> float:
    """(log2 x)+, the lattice decoding rate limit at effective SNR x."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)


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


# --- Columns -------------------------------------------------------------------
# The pipeline keeps one float64 array per quantity with one column per
# trial: a session 4-tuple is a (4, n) array, the eight family terms an
# (8, n) array, a power a length-n column, and a single network a batch of
# one, (k, 1).  Each entry is the float the one-network formula gives, bit
# for bit: +, -, *, / and comparisons run in numpy, which rounds them as
# Python does, in each formula's own association order; Python's max(a, b)
# and min(a, b) are `_max` and `_min`, which keep its pick on ties, NaN and
# signed zero (a plain np.min or np.max only where every input is finite and
# never -0.0 by validation); and every log and every `**` is Python's own
# call, entry by entry through `_each` (`_capacity` and `_lattice_cap` too),
# since numpy's differ from libm's in the last bit.  A value two formulas
# share exactly is computed once: C(max(a, b) P) is whichever of C(a P) and
# C(b P) max picks, and the single-family terms of both bounds are one formula.

# Python's float arithmetic overflows to inf without a warning.
_quiet = np.errstate(over="ignore", invalid="ignore")

# The pair families' two sessions, in `_FAMILIES` order: the single
# families come first, one per session in session order.
_PAIR_S, _PAIR_T = map(np.array, zip(*(sessions for _, sessions, _, _ in _FAMILIES[4:])))
_PAIR_SWAP = [2, 3, 0, 1]  # a session 4-tuple with pair 1 and pair 2 exchanged
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


def _fold(pick, columns):
    """Python's max() or min() of several columns, per entry, in order."""
    out = columns[0]
    for c in columns[1:]:
        out = pick(out, c)
    return out


def _each(fn, x: np.ndarray) -> np.ndarray:
    """The Python call ``fn`` on each entry."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _capacity(x: np.ndarray) -> np.ndarray:
    """`awgn_capacity` per entry; raises as it does at the first negative one."""
    if (x < 0).any():
        awgn_capacity(x[x < 0][0].item())
    return _each(math.log1p, x) / _LN2


def _lattice_cap(x: np.ndarray) -> np.ndarray:
    """`lattice_rate_cap` per entry."""
    return _each(lattice_rate_cap, x)


def _divide(a, b):
    """``a / b``, raising as Python's float division does where ``b`` is 0."""
    if np.any(b == 0):
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


def _hop_terms(up, down, p) -> tuple[np.ndarray, np.ndarray]:
    """Each family's restricted uplink and downlink term, (8, n) each: a
    single session's C(|h|^2 P) on either hop; a pair's C((|h_s|^2 +
    |h_t|^2) P) on the uplink and C(max(|h_s|^2, |h_t|^2) P) on the
    downlink.  The restricted region is their minimum, and each hop's rate
    preconditions are its terms less their back-off."""
    up2, down2 = up * up, down * down
    caps = _capacity(np.concatenate([up2 * p, down2 * p, (up2[_PAIR_S] + up2[_PAIR_T]) * p]))
    single_down = caps[4:8]
    # C(max(a, b) P) is C(a P) or C(b P), whichever max picks.
    pair_down = np.where(down2[_PAIR_T] > down2[_PAIR_S], single_down[_PAIR_T], single_down[_PAIR_S])
    return np.concatenate([caps[:4], caps[8:]]), np.concatenate([single_down, pair_down])


def _restricted_terms(up, down, p) -> np.ndarray:
    """Each family's restricted term, (8, n): the minimum of its two `_hop_terms`."""
    return _min(*_hop_terms(up, down, p))


def _cutset_terms(up, down, p, restricted: np.ndarray) -> np.ndarray:
    """Each family's cut-set term, (8, n), from its ``restricted`` terms:
    the single families share them, and a pair's adds amplitudes on the
    uplink and powers on the downlink, the minimum of the two hops."""
    sum2, down2 = _each(lambda x: x ** 2, up[_PAIR_S] + up[_PAIR_T]), down * down
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
    terms, sums = _restricted_terms(up, down, p), _session_sums(_one(r))
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
    terms = _restricted_terms(up, down, p)
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


def _normalize(up, down, p, rates, terms):
    """`reduce_orderings` on columns, given the input's restricted family
    ``terms``: the normalised session arrays and rates, each pair's side
    swap, the clamps (name and where applied), the pair swap and the
    normalised network's `_hop_terms`."""
    outside, slacks = _outside(terms, rates)
    if outside.any():
        names = ", ".join(_violated_names(slacks, outside.argmax()))
        raise InfeasibleRatesError(f"rates outside the restricted cut-set region ({names})")

    # The session arrays stacked as (uplink, downlink, rates): a side swap
    # exchanges a pair's two sessions, a clamp lowers the B session's uplink
    # or downlink (|h_BiR|, |h_RAi|) to the A session's, and a pair swap
    # exchanges the two pairs.
    q = np.stack([up, down, rates])
    side_swapped = rates[1::2] > rates[0::2]  # one row per pair
    q = np.where(np.repeat(side_swapped, 2, axis=0), q[:, [1, 0, 3, 2]], q)
    clamp = q[:2, 1::2] > q[:2, 0::2]  # (hop, pair, trial)
    q[:2, 1::2] = np.where(clamp, q[:2, 0::2], q[:2, 1::2])
    pairs_swapped = q[0, 2] > q[0, 0]
    up, down, r = _swap_pairs(q, pairs_swapped)

    hop_terms = _hop_terms(up, down, p)
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
    return _normalized_problem(net, _normalize(up, down, p, _one(_rate_quad(rates)), _restricted_terms(up, down, p)))


def _swap_pairs(q: np.ndarray, swapped) -> np.ndarray:
    """Session arrays (session axis second to last) with pair 1 and pair 2
    exchanged where ``swapped``."""
    return np.where(swapped, q[..., _PAIR_SWAP, :], q)


def classify_case(magnitudes: Sequence, direction: str):
    """Configuration tag for one hop.

    ``magnitudes`` is the role-ordered quadruple (strong1, weak1, strong2,
    weak2), a hop's session 4-tuple: `GaussNetwork.uplink` or `.downlink`,
    as numbers or as a (4, n) array (then one tag per column).  Requires the
    normalized ordering strong_i >= weak_i and strong1 >= strong2.  Ties
    resolve to the lowest-numbered case.
    """
    if direction not in ("uplink", "downlink"):
        raise ValueError(f"direction must be 'uplink' or 'downlink', got {direction!r}")
    s1, w1, s2, w2 = magnitudes
    unordered = (w1 > s1 + TOL) | (w2 > s2 + TOL) | (s2 > s1 + TOL)
    if np.any(unordered):
        shown = tuple(magnitudes) if np.ndim(s1) == 0 else _row(magnitudes, unordered.argmax())
        raise ValueError(f"{direction} magnitudes {shown} are not in normalized order")
    case = np.where(w1 >= s2, "I", np.where(w1 >= w2, "II", "III"))
    return case if case.ndim else str(case)


# --- Both hops ---------------------------------------------------------------


@dataclass
class _Splits:
    """One hop's power splits for a batch: each trial's case, the alpha
    rows and rate rows of `UplinkAllocation` or `DownlinkAllocation` in
    field order, and the downlink's pair swap."""

    case: np.ndarray
    alpha: np.ndarray
    rates: np.ndarray
    swapped: np.ndarray | None = None

    def take(self, rows) -> "_Splits":
        swapped = None if self.swapped is None else self.swapped[rows]
        return _Splits(self.case[rows], self.alpha[:, rows], self.rates[:, rows], swapped)


def _precondition_errors(direction: str, terms, r) -> dict[int, InfeasibleRatesError]:
    """Each refused trial's first failed rate precondition of the hop, as the
    `InfeasibleRatesError` naming it, by the trial's position in the batch.
    A precondition is the hop's restricted family term, from ``terms`` (the
    hop's `_hop_terms`), less its back-off."""
    rows = _PRECONDITIONS[direction]
    lhs, rhs = _session_sums(r)[_PRE_ORDER], terms[_PRE_ORDER] - _BACKOFFS[direction]
    failed = lhs > rhs + TOL
    errors = {}
    for i in np.flatnonzero(failed.any(axis=0)).tolist():
        k = failed[:, i].argmax()
        errors[i] = InfeasibleRatesError(rows[k][0], f"lhs={lhs[k, i].item():.6g}, rhs={rhs[k, i].item():.6g}")
    return errors


def _allocate(direction: str, mags, p, r, terms):
    """Walk each trial's cancellation chain for the hop.  A trial is refused
    before any split at the SNR floor, then at the hop's first failed rate
    precondition (from ``terms``, the hop's `_hop_terms`), and after it
    where the split overspends.  Returns the splits of the trials that get
    one, their positions in the batch, SNRs and budget excess, and the
    refused trials' errors."""
    unsorted = (r[1::2] > r[0::2] + TOL).any(axis=0)
    if unsorted.any():
        raise ValueError(f"rates {_row(r, unsorted.argmax())} not normalized: each pair needs r_A >= r_B")
    snr = mags * mags * p
    floor = snr.min(axis=0)  # finite and positive, as the network is
    errors = _precondition_errors(direction, terms, r)
    for i in np.flatnonzero(floor < MIN_PROVEN_SNR - TOL).tolist():
        errors[i] = LowPowerError(f"{direction} |h|^2 P floor {floor[i].item():.4g} below {MIN_PROVEN_SNR}")
    rows = np.delete(np.arange(len(p)), list(errors))
    hop = _HOPS[direction]
    splits = hop.walk(mags[:, rows], snr[:, rows], r[:, rows])
    excess = hop.excess(splits.alpha)
    over = excess > TOL
    for i in np.flatnonzero(over).tolist():
        errors[rows[i].item()] = AllocationInvalidError(hop.overspend(splits, i, excess[i].item()))
    kept = np.flatnonzero(~over)
    rows = rows[kept]
    return splits.take(kept), rows, snr[:, rows], excess[kept], errors


def _by_case(case: np.ndarray):
    """Each case present, with the positions of its trials."""
    for c in _CASES:
        mask = case == c
        if mask.any():
            yield c, np.flatnonzero(mask)


def _walk(chains, case, need, g) -> np.ndarray:
    """Each stream's power for each trial's case, walking its chain in
    ``chains`` from the bottom: a stream needs ``need`` (1 + g q) / g at a
    receiver of SNR row g under interference q, and its worst receiver binds."""
    power = np.zeros(need.shape)
    for c, rows in _by_case(case):
        n, gc, pc = need[:, rows], g[:, rows], [np.zeros(len(rows))] * len(need)
        for stream, receivers in chains[c]:
            if len(receivers) == 1:  # the closed form's association, bit for bit
                ((k, under),) = receivers
                pc[stream] = n[stream] * (1.0 + gc[k] * under(pc)) / gc[k]
            else:
                pc[stream] = n[stream] * _fold(_max, [(1.0 + gc[k] * under(pc)) / gc[k] for k, under in receivers])
        power[:, rows] = pc
    return power


def _chain_checks(chains, checks, case, power, g, rates):
    """Each trial's decoding checks, ``checks[case]``, per case present:
    its trials' positions and (name, lhs, rhs) columns.  A check sums its
    streams' rates and powers p, and takes the least cap(g p / (1 + g q))
    over the receivers of its first stream's stage, as min() picks it."""
    for c, rows in _by_case(case):
        pc, gc, rc = power[:, rows], g[:, rows], rates[:, rows]
        receivers = dict(chains[c])
        out = []
        for name, streams, cap in checks[c]:
            p = _fold(np.add, [pc[s] for s in streams])
            caps = [cap(_divide(gc[k] * p, 1.0 + gc[k] * under(pc))) for k, under in receivers[streams[0]]]
            out.append((name, _fold(np.add, [rc[s] for s in streams]), _fold(_min, caps)))
        yield rows, out


# --- Uplink ------------------------------------------------------------------


@dataclass(frozen=True)
class UplinkAllocation:
    case: str
    alpha_a1: tuple[float, float]  # Gaussian and lattice fraction at A1
    alpha_a2: tuple[float, float]
    alpha_b1: float  # lattice fraction at B1
    alpha_b2: float
    gaussian_rates: tuple[float, float]  # r_Ai - r_Bi
    lattice_rates: tuple[float, float]  # r_Bi

    def budget_excess(self) -> float:
        """How far any power budget is exceeded (<= 0 when valid)."""
        return float(_uplink_excess(_one((*self.alpha_a1, *self.alpha_a2, self.alpha_b1, self.alpha_b2)))[0])


def _uplink_excess(alpha) -> np.ndarray:
    a1g, a1l, a2g, a2l, b1, b2 = alpha
    worst = _fold(_max, [a1g + a1l - 1.0, a2g + a2l - 1.0, b1 - 1.0, b2 - 1.0])
    return _max(worst, -_fold(_min, alpha))


_PRE_ORDER = [0, 1, 2, 3, 4, 6, 5, 7]  # the families in precondition checking order


def _precondition_rows(direction: str) -> tuple[tuple[str, tuple[int, ...], float], ...]:
    """(name, sessions, back-off) of each rate precondition of one hop, in
    checking order: the paper's, which puts A1+B2 before B1+B2.

    A session's uplink is |h_A1R| for session A1; its downlink is the
    relay's link to its destination, the partner `s ^ 1`: |h_RB1|.
    """
    rows = []
    for k in _PRE_ORDER:
        _, sessions, up_backoff, down_backoff = _FAMILIES[k]
        if direction == "uplink":
            powers = [f"|h_{_SESSIONS[s]}R|^2" for s in sessions]
            snr, backoff = f"({'+'.join(powers)}) P", up_backoff
        else:
            powers = [f"|h_R{_SESSIONS[s ^ 1]}|^2" for s in sessions]
            snr, backoff = f"max({','.join(powers)}) P", down_backoff
        if len(sessions) == 1:
            snr = f"{powers[0]} P"
        lhs = " + ".join(f"r_{_SESSIONS[s]}" for s in sessions)
        rows.append((f"{lhs} <= C({snr}) - {backoff:g}", sessions, backoff))
    return tuple(rows)


_PRECONDITIONS = {direction: _precondition_rows(direction) for direction in ("uplink", "downlink")}
_BACKOFFS = {direction: np.array([[backoff] for _, _, backoff in rows]) for direction, rows in _PRECONDITIONS.items()}


# The uplink cancellation chains, bottom stage first; the relay decodes
# from the top.  It is the one receiver, `_RELAY`, at SNR 1, so the powers
# are the received ones, alpha * |h|^2 P: G1 and G2 of the Gaussian
# codewords, T and W of each lattice codeword of pairs 1 and 2 (a lattice
# sum arrives at twice that).  Cases II and III end in the same MAC: both
# Gaussian codewords decoded jointly, two stages under one interference.
_G1, _T, _G2, _W = range(4)
_RELAY = 0
# The MAC's stages: x_A2's codeword, then x_A1's, at the relay under both lattice sums.
_MAC_RECEIVERS = ((_RELAY, lambda q: 2.0 * q[_T] + 2.0 * q[_W]),)
_MAC = ((_G2, _MAC_RECEIVERS), (_G1, _MAC_RECEIVERS))
_UPLINK_CHAINS = {
    "I": (
        (_W, ((_RELAY, lambda q: 0.0),)),
        (_G2, ((_RELAY, lambda q: 2.0 * q[_W]),)),
        (_T, ((_RELAY, lambda q: q[_G2] + 2.0 * q[_W]),)),
        (_G1, ((_RELAY, lambda q: 2.0 * q[_T] + q[_G2] + 2.0 * q[_W]),)),
    ),
    "II": ((_W, ((_RELAY, lambda q: 0.0),)), (_T, ((_RELAY, lambda q: 2.0 * q[_W]),)), *_MAC),
    # pair 2's lattice sum is decoded before pair 1's
    "III": ((_T, ((_RELAY, lambda q: 0.0),)), (_W, ((_RELAY, lambda q: 2.0 * q[_T]),)), *_MAC),
}
# Each case's uplink checks, in decoding order: the MAC's sum after its two single-user checks.
_LATTICE1 = ("decode pair-1 lattice sum", (_T,), _lattice_cap)
_LATTICE2 = ("decode pair-2 lattice sum", (_W,), _lattice_cap)
_MAC_CHECKS = (
    ("decode x_A1 gaussian (MAC)", (_G1,), _capacity),
    ("decode x_A2 gaussian (MAC)", (_G2,), _capacity),
    ("gaussian MAC sum", (_G1, _G2), _capacity),
)
_UPLINK_CHECKS = {
    "I": (
        ("decode x_A1 gaussian", (_G1,), _capacity),
        _LATTICE1,
        ("decode x_A2 gaussian", (_G2,), _capacity),
        _LATTICE2,
    ),
    "II": (*_MAC_CHECKS, _LATTICE1, _LATTICE2),
    "III": (*_MAC_CHECKS, _LATTICE2, _LATTICE1),
}


def _walk_uplink(mags, snr, r) -> _Splits:
    """The uplink power splits of each trial's case, walking its chain in
    `_UPLINK_CHAINS` from the bottom."""
    case = classify_case(mags, "uplink")
    powers = _each(functools.partial(pow, 2.0), r)
    u, s, v, w = powers

    # Power over noise: 2^rate - 1 for a Gaussian codeword, 2^rate for a lattice one.  In a MAC, x_A1's
    # single-user and sum-rate constraints each demand a power; the larger binds.
    need = powers.copy()
    need[0::2] = powers[0::2] / powers[1::2] - 1.0
    need[_G1] = np.where(case == "I", need[_G1], _max(need[_G1], (u * v) / (s * w) - v / w))
    q = _walk(_UPLINK_CHAINS, case, need, np.ones((1, len(case))))
    # G1 / x1, T / x1, G2 / x3, W / x3, T / x2, W / x4
    alpha = q[[_G1, _T, _G2, _W, _T, _W]] / snr[[0, 0, 2, 2, 1, 3]]
    return _Splits(case, alpha, np.concatenate([r[0::2] - r[1::2], r[1::2]]))


def _uplink_allocation(splits: _Splits, i: int) -> UplinkAllocation:
    a1g, a1l, a2g, a2l, b1, b2 = _row(splits.alpha, i)
    rg1, rg2, rl1, rl2 = _row(splits.rates, i)
    return UplinkAllocation(str(splits.case[i]), (a1g, a1l), (a2g, a2l), b1, b2, (rg1, rg2), (rl1, rl2))


def _uplink_overspend(splits: _Splits, i: int, excess: float) -> str:
    alloc = _uplink_allocation(splits, i)
    return (
        f"uplink case {alloc.case} power budget exceeded by {excess:.3g} "
        f"(alphas A1={alloc.alpha_a1}, A2={alloc.alpha_a2}, "
        f"B1={alloc.alpha_b1:.6g}, B2={alloc.alpha_b2:.6g})"
    )


@_quiet
def uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    """Power splits letting the relay decode both Gaussian codewords and
    both lattice sums at the component rates implied by ``r``.

    Walks the case's chain in `_UPLINK_CHAINS` from the bottom: each stream
    gets exactly the receive power that makes its decoding inequality an
    equality given the streams still undecoded beneath it.  Lattice partners
    then mirror powers through the alignment rule so each pair's lattice
    codewords arrive level.
    """
    up, down, p = net._columns()
    splits, *_, errors = _allocate("uplink", up, p, _one(_rate_quad(r)), _hop_terms(up, down, p)[0])
    if errors:  # a batch of one's refusal
        raise errors[0]
    return _uplink_allocation(splits, 0)


def _uplink_checks(snr, splits: _Splits):
    """`_chain_checks` of each trial's case in `_UPLINK_CHECKS`, at the
    relay.  ``snr`` are the hop's |h|^2 P."""
    q = splits.alpha[[0, 4, 2, 5]] * snr  # received powers of G1, T, G2, W
    ones = np.ones((1, len(splits.case)))
    return _chain_checks(_UPLINK_CHAINS, _UPLINK_CHECKS, splits.case, q, ones, splits.rates[[0, 2, 1, 3]])


def _single_checks(groups) -> tuple[ConstraintCheck, ...]:
    """The checks of a batch of one."""
    ((_, checks),) = groups
    return tuple(ConstraintCheck(name, lhs.item(), rhs.item()) for name, lhs, rhs in checks)


@_quiet
def uplink_rate_check(net: GaussNetwork, alloc: UplinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every decoding inequality of the allocation's case, in
    decoding order: the case's chain from the top."""
    up, _, p = net._columns()
    splits = _Splits(
        np.array([alloc.case]),
        _one((*alloc.alpha_a1, *alloc.alpha_a2, alloc.alpha_b1, alloc.alpha_b2)),
        _one((*alloc.gaussian_rates, *alloc.lattice_rates)),
    )
    expected = classify_case(up, "uplink")
    if expected[0] != splits.case[0]:
        raise ValueError(f"allocation is for case {splits.case[0]}, network classifies as {expected[0]}")
    return _single_checks(_uplink_checks(up * up * p, splits))


# --- Downlink ----------------------------------------------------------------


@dataclass(frozen=True)
class DownlinkAllocation:
    """Relay power split over the four broadcast streams, indexed as in
    `_DOWNLINK_CHAINS`: 0 = pair 1's solo stream, 1 = pair 1's shared
    stream, 2 and 3 = pair 2's.  Pair 1 is the pair with the stronger
    shared-stream receiver; when ``pairs_swapped`` is set, that is the
    input's pair 2.
    """

    case: str
    alpha_r: tuple[float, float, float, float]
    stream_rates: tuple[float, float, float, float]
    pairs_swapped: bool

    def budget_excess(self) -> float:
        return float(_downlink_excess(_one(self.alpha_r))[0])


def _downlink_excess(alpha) -> np.ndarray:
    return _max(sum(alpha) - 1.0, -_fold(_min, alpha))


# The downlink cancellation chains, bottom stage first, over the relay
# power fractions p of the streams.  A stage is a stream and each receiver
# that decodes it: the position of its SNR in (b1, a1, b2, a2), that is
# |h_RB1|^2 P, |h_RA1|^2 P, ..., and the interference fraction still
# standing there.  Pair 1's A node already knows stream 0, and pair 2's A
# node reconstructs its own solo stream 2.
_SOLO1, _SHARED1, _SOLO2, _SHARED2 = range(4)
_B1, _A1, _B2, _A2 = range(4)
_DOWNLINK_CHAINS = {
    "I": (
        (_SOLO1, ((_B1, lambda p: 0.0),)),
        (_SHARED1, ((_B1, lambda p: p[0]), (_A1, lambda p: 0.0))),
        (_SOLO2, ((_B2, lambda p: p[0] + p[1]),)),
        (_SHARED2, ((_B2, lambda p: p[0] + p[1] + p[2]), (_A2, lambda p: p[0] + p[1]))),
    ),
    "II": (
        (_SOLO1, ((_B1, lambda p: 0.0),)),
        (_SOLO2, ((_B2, lambda p: p[0]),)),
        (_SHARED1, ((_A1, lambda p: p[2]), (_B2, lambda p: p[0] + p[2]))),
        (_SHARED2, ((_B2, lambda p: p[0] + p[1] + p[2]), (_A1, lambda p: p[1] + p[2]),
                    (_A2, lambda p: p[0] + p[1]))),
    ),
    "III": (
        (_SOLO1, ((_B1, lambda p: 0.0),)),
        (_SOLO2, ((_B2, lambda p: p[0]),)),
        (_SHARED2, ((_A2, lambda p: p[0]), (_B2, lambda p: p[0] + p[2]))),
        (_SHARED1, ((_B2, lambda p: p[0] + p[2] + p[3]), (_A1, lambda p: p[2] + p[3]),
                    (_A2, lambda p: p[0] + p[3]))),
    ),
}
# Each case's downlink checks: each stream's rate against its worst receiver, shared streams first.
_DOWNLINK_CHECKS = dict.fromkeys(_CASES, (
    ("pair-1 shared stream", (_SHARED1,), _capacity),
    ("pair-2 shared stream", (_SHARED2,), _capacity),
    ("pair-1 solo stream", (_SOLO1,), _capacity),
    ("pair-2 solo stream", (_SOLO2,), _capacity),
))


def _walk_downlink(mags, snr, r) -> _Splits:
    """The relay's power split of each trial's case, walking its chain in
    `_DOWNLINK_CHAINS` from the bottom.  The chains take pair 1 to be the
    pair with the stronger shared-stream receiver."""
    swapped = mags[2] > mags[0]
    r, mags, snr = _swap_pairs(np.stack([r, mags, snr]), swapped)
    case = classify_case(mags, "downlink")

    powers = _each(functools.partial(pow, 2.0), r)
    need = powers - 1.0
    need[0::2] = powers[0::2] / powers[1::2] - 1.0
    rates = r.copy()
    rates[0::2] = r[0::2] - r[1::2]
    return _Splits(case, _walk(_DOWNLINK_CHAINS, case, need, snr), rates, swapped)


def _downlink_allocation(splits: _Splits, i: int) -> DownlinkAllocation:
    return DownlinkAllocation(
        str(splits.case[i]), _row(splits.alpha, i), _row(splits.rates, i), bool(splits.swapped[i])
    )


def _downlink_overspend(splits: _Splits, i: int, excess: float) -> str:
    alloc = _downlink_allocation(splits, i)
    return f"downlink case {alloc.case} relay budget exceeded by {excess:.3g} (alphas {alloc.alpha_r})"


@_quiet
def downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    """Relay power split delivering the four streams at their rates.

    Walks the case's chain in `_DOWNLINK_CHAINS` from the bottom: a stream
    of rate rho needs alpha >= (2^rho - 1) (1 + g q) / g at each receiver
    of SNR g under interference fraction q.  The chains take pair 1 to be
    the pair with the stronger shared-stream receiver (the B side, after
    normalization); when the input has them the other way round the pairs
    are relabeled internally, which the pair-symmetric rate preconditions
    permit.
    """
    up, down, p = net._columns()
    splits, *_, errors = _allocate("downlink", down, p, _one(_rate_quad(r)), _hop_terms(up, down, p)[1])
    if errors:  # a batch of one's refusal
        raise errors[0]
    return _downlink_allocation(splits, 0)


def _downlink_checks(snr, splits: _Splits):
    """`_chain_checks` of each trial's case in `_DOWNLINK_CHECKS`, with the
    pairs as its chain takes them.  ``snr`` are the hop's |h|^2 P."""
    snr = _swap_pairs(snr, splits.swapped)
    return _chain_checks(_DOWNLINK_CHAINS, _DOWNLINK_CHECKS, splits.case, splits.alpha, snr, splits.rates)


@_quiet
def downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every broadcast decoding inequality of the allocation's
    case: each stream's rate against its worst receiver in the case's chain."""
    _, down, p = net._columns()
    splits = _Splits(
        np.array([alloc.case]), _one(alloc.alpha_r), _one(alloc.stream_rates), np.array([alloc.pairs_swapped])
    )
    if np.any(classify_case(_swap_pairs(down, splits.swapped), "downlink") != splits.case):
        raise ValueError("allocation case does not match the network ordering")
    return _single_checks(_downlink_checks(down * down * p, splits))


class _Hop(NamedTuple):
    walk: Callable  # (magnitudes, SNRs, rates) -> _Splits
    excess: Callable  # alpha rows -> budget excess
    overspend: Callable  # (splits, trial, excess) -> AllocationInvalidError text
    checks: Callable  # (SNRs, splits) -> per case: trials, (name, lhs, rhs)
    allocation: Callable  # (splits, trial) -> UplinkAllocation or DownlinkAllocation


_HOPS = {
    "uplink": _Hop(_walk_uplink, _uplink_excess, _uplink_overspend, _uplink_checks, _uplink_allocation),
    "downlink": _Hop(_walk_downlink, _downlink_excess, _downlink_overspend, _downlink_checks, _downlink_allocation),
}


# --- End-to-end verification -------------------------------------------------


@dataclass(frozen=True)
class AchievabilityReport:
    """Everything the constant-gap pipeline computed for one (net, R) pair."""

    net: GaussNetwork
    target: RateQuad
    backed_off: RateQuad
    normalized: NormalizedProblem
    uplink: UplinkAllocation | None
    uplink_checks: tuple[ConstraintCheck, ...]
    downlink: DownlinkAllocation | None
    downlink_checks: tuple[ConstraintCheck, ...]
    stage: str  # "ok" or the first failing stage
    detail: str
    max_alpha_excess: float  # largest budget excess over the allocations made, 0.0 at least
    min_check_slack: float  # worst decoding-inequality slack across both hops, inf with none

    @property
    def achievable(self) -> bool:
        return self.stage == "ok"


def _require_hypothesis(target, up, down, p) -> None:
    """Raise for the first trial outside the constant-gap hypothesis:
    a component below 2, or a link SNR below the proven threshold."""
    below = (target < 2.0 - TOL).any(axis=0)
    if below.any():
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {_row(target, below.argmax())}"
        )
    h = np.concatenate([up, down])
    floor = (h * h * p).min(axis=0)  # finite and positive, as the network is
    weak = floor < MIN_PROVEN_SNR - TOL
    if weak.any():
        raise LowPowerError(
            f"|h|^2 P floor {floor[weak.argmax()].item():.4g} below the proven threshold {MIN_PROVEN_SNR}"
        )


def _back_off(rates: np.ndarray) -> np.ndarray:
    """Each rate less 2 bits, floored at 0."""
    return _max(0.0, rates - 2.0)


@_quiet
def verify_constant_gap(net: GaussNetwork, rates: Sequence[float]) -> AchievabilityReport:
    """Check that R minus 2 bits per user is achievable by the lattice +
    superposition scheme whenever R sits in the restricted cut-set region
    with every component at least 2.

    Raises on inputs outside the hypothesis (components below 2, rates
    outside the region, SNRs below the proven side conditions); returns a
    report whose ``stage`` pinpoints any internal failure otherwise.  The
    report is `_verify_columns` on a batch of one.
    """
    target = _rate_quad(rates)
    up, down, p = net._columns()
    terms = _restricted_terms(up, down, p)
    stage, excess, slack, detail, normalized, hops = _verify_columns(up, down, p, _one(target), terms)
    reached = {
        hop: (_HOPS[hop].allocation(splits, 0), _single_checks(groups))
        for hop, (rows, splits, groups) in hops.items()
        if rows.size
    }
    (uplink, uplink_checks), (downlink, downlink_checks) = (reached.get(hop, (None, ())) for hop in _HOPS)
    return AchievabilityReport(
        net=net,
        target=target,
        backed_off=_row(_back_off(_one(target)), 0),
        normalized=_normalized_problem(net, normalized),
        uplink=uplink,
        uplink_checks=uplink_checks,
        downlink=downlink,
        downlink_checks=downlink_checks,
        stage=stage[0],
        detail=detail[0],
        max_alpha_excess=excess[0].item(),
        min_check_slack=slack[0].item(),
    )


def _verify_columns(up, down, p, target, terms):
    """`verify_constant_gap` on session arrays, given their restricted
    family ``terms``: the one constant-gap cascade.  The hops run masked,
    and a trial leaves at its first failing stage, so a hop no trial
    reaches is skipped.  Returns each trial's stage, largest budget excess,
    smallest check slack and detail, as its report gives them;
    `_normalize`'s columns; and per hop reached, the trials that got a
    split, their `_Splits` and their check groups.  Raises where
    `verify_constant_gap` raises, for some trial."""
    n = len(p)
    _require_hypothesis(target, up, down, p)
    normalized = _normalize(up, down, p, target, terms)
    up, down, quad = normalized[:3]
    up_terms, down_terms = normalized[-1]
    r = _back_off(quad)

    stage, detail = np.full(n, "ok", dtype=object), [""] * n
    excess, slack = np.zeros(n), np.full(n, math.inf)
    hops = {}
    rows = np.arange(n)  # the trials still at stage "ok"
    for hop, mags, hop_terms in (("uplink", up, up_terms), ("downlink", down, down_terms)):
        if not rows.size:
            break
        # Past _normalize a precondition fails only by rounding, yet _allocate checks them all: uplink_allocate and
        # downlink_allocate need it, the cascade's ulp test spies on it, and a skip here would be a second code path.
        splits, kept, snr, spent, errors = _allocate(hop, mags[:, rows], p[rows], r[:, rows], hop_terms[:, rows])
        for i, e in errors.items():
            stage[rows[i]], detail[rows[i]] = f"{hop}-allocation", str(e)
        rows = rows[kept]
        excess[rows] = _max(excess[rows], spent)

        bad = np.zeros(len(rows), dtype=bool)
        groups = list(_HOPS[hop].checks(snr, splits))
        for at, checks in groups:
            trials = rows[at]
            slacks = np.array([rhs - lhs for _, lhs, rhs in checks])
            # min() over both hops' checks, in order: every trial that
            # reaches the downlink checks holds its uplink checks' minimum.
            held = [slack[trials]] if hops else []
            slack[trials] = _fold(_min, [*held, *slacks])
            failed = slacks < -TOL
            bad[at] = failed.any(axis=0)
            for j in np.flatnonzero(bad[at]).tolist():
                detail[trials[j]] = ", ".join(name for (name, _, _), f in zip(checks, failed) if f[j])
        stage[rows[bad]] = f"{hop}-rate-check"
        hops[hop] = (rows, splits, groups)
        rows = rows[~bad]
    return stage, excess, slack, detail, normalized, hops


# --- Sweep streams -------------------------------------------------------------
# Trial i of a sweep with seed s reads, in order, the doubles that numpy's
# default_rng(SeedSequence(entropy=s, spawn_key=(i,))).random() returns.
# `_Streams` computes them for a column of trials at once: the pool after
# the seed's words is SeedSequence(s).pool, mixed in plain ints by
# `_seed_pool`; the index word's mix and generate_state(4, uint64) are one
# stacked hashmix call each; PCG64, a 128-bit LCG x -> M x + inc with XSL-RR
# output (O'Neill 2014), runs as (high, low) uint64 columns; next_double is
# (u >> 11) 2^-53.  No numpy.random name is read: a per-trial numpy Generator
# would cost more than the trial, and numpy's generators, SeedSequence among
# them, are the tests' oracle.

_M32 = 0xFFFF_FFFF
_POOL = 4  # SeedSequence's pool size, in 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ROUND = 9  # the draw layout: a sampling round's 8 magnitudes, then its power


def _u128(x: int) -> tuple[np.uint64, np.uint64]:
    """``x`` < 2^128 as (high, low) uint64 words."""
    return np.uint64(x >> 64), np.uint64(x & (1 << 64) - 1)


def _jump_table(steps: int):
    """(M^k, M^(k-1) + ... + M + 1) mod 2^128 for k = 1 .. ``steps``, as
    (high, low) uint64 arrays: k LCG steps take x to M^k x + (sum) inc."""
    a, s, rows = 1, 0, []
    for _ in range(steps):
        a, s = a * _PCG_MULT % 2**128, (s * _PCG_MULT + 1) % 2**128
        rows.append((*_u128(a), *_u128(s)))
    a_hi, a_lo, s_hi, s_lo = (np.array(c, dtype=np.uint64) for c in zip(*rows))
    return (a_hi, a_lo), (s_hi, s_lo)


_JUMPS = _jump_table(_ROUND)


def _hash_consts(const: int, mult: int, first: int, k: int) -> list[int]:
    """The running hash constants const mult^j mod 2^32 for j in [first,
    first + k): hashmix call j starts from the j-th."""
    return [const * pow(mult, j, _M32 + 1) & _M32 for j in range(first, first + k)]


def _column(words) -> np.ndarray:
    """32-bit words as a uint64 column."""
    return np.array(words, np.uint64)[:, None]


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


def _mul_hi(a, b):
    """The high 64 bits of each 64 x 64-bit product a b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    carry = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (carry >> 32)


def _mul128(x, c):
    """x c mod 2^128, for (high, low) uint64 pairs."""
    return _mul_hi(x[1], c[1]) + x[0] * c[1] + x[1] * c[0], x[1] * c[1]


def _add128(x, y):
    """x + y mod 2^128, for (high, low) uint64 pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < x[1]), low


def _next_double(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as numpy's next_double."""
    x, rot = hi ^ lo, hi >> 58
    out = x >> rot | x << ((64 - rot) & 63)
    return (out >> 11) * 2.0**-53


def _uniform(lo: float, hi: float, d):
    """numpy's Generator.uniform(lo, hi) of the double ``d``."""
    return lo + (hi - lo) * d


class _Streams:
    """The streams of trials ``indices`` of a sweep with seed ``seed``, one
    PCG64 state column entry per trial.  A trial's k-th double is a pure
    function of (seed, index, k): `draw` advances only the trials it draws
    for, so redraw rounds run the pending trials in lockstep."""

    def __init__(self, seed: int, indices: Sequence[int]):
        # SeedSequence(entropy=seed, spawn_key=(i,)) builds SeedSequence(seed)'s
        # pool first, once per block, then mixes in the index word as one more
        # word past the pool, one column entry per trial.
        pool, calls = _seed_pool(seed)
        i = np.fromiter(indices, np.uint64, len(indices))
        consts = _column(_hash_consts(_INIT_A, _MULT_A, calls, _POOL))
        pool = _mix(_column(pool), _hashmix(i, consts, _MULT_A))
        half = _hashmix(pool[_STATE_ROWS], _STATE_CONSTS, _MULT_B)
        w0, w1, w2, w3 = half[0::2] | half[1::2] << 32
        # PCG64's set-seq seeding: inc = 2 (w2, w3) + 1, then two steps around
        # adding the initial state (w0, w1).
        inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
        self.state = _add128(_mul128(_add128(inc, (w0, w1)), _u128(_PCG_MULT)), inc)
        # inc (M^(k-1) + ... + M + 1) for k = 1 .. _ROUND, one row per trial:
        # a jump of k steps is then one product and this sum.
        self.offsets = _mul128((inc[0][:, None], inc[1][:, None]), _JUMPS[1])

    def draw(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The next ``k`` <= `_ROUND` doubles of the trials at positions
        ``rows``, one row each, computed as one jump per double."""
        a_hi, a_lo = _JUMPS[0]
        state = (self.state[0][rows, None], self.state[1][rows, None])
        hi, lo = _add128(_mul128(state, (a_hi[:k], a_lo[:k])), (self.offsets[0][rows, :k], self.offsets[1][rows, :k]))
        self.state[0][rows], self.state[1][rows] = hi[:, -1], lo[:, -1]
        return _next_double(hi, lo)


# --- Monte Carlo sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """A sweep: ``trials`` trials drawn from seed ``seed``, with magnitudes
    log-uniform on [h_min, h_max] and power log-uniform on [p_min, p_max].

    ``trials`` and ``seed`` are non-negative integers (bools refused).  A
    seed of any size is taken, as numpy's SeedSequence takes it, but at most
    2^32 trials, since a trial's index is one 32-bit spawn-key word.  The
    range bounds are positive finite reals."""

    trials: int
    seed: int = 0
    h_min: float = 1.0
    h_max: float = 100.0
    p_min: float = 1.0
    p_max: float = 100.0

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            v = getattr(self, name)
            if not _integer(v) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.trials > 2**32:
            raise ValueError(f"trials must be at most 2**32 (one spawn-key word per trial), got {self.trials}")
        for name in ("h_min", "h_max", "p_min", "p_max"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if not (self.h_min <= self.h_max and self.p_min <= self.p_max):
            raise ValueError("magnitude and power ranges must be non-empty")
        # Every family term grows with each magnitude and the power, so when
        # the strongest network in range fails the sampler, every draw does.
        h = (self.h_max, self.h_max)
        if not _sampler_accepts(GaussNetwork(h, h, h, h, self.p_max)):
            raise ValueError(
                "ranges cannot satisfy the side conditions: even with every |h| = "
                f"{self.h_max:.4g} and P = {self.p_max:.4g} a network misses the SNR "
                f"floor {MIN_LINK_SNR} or cannot hold the rates (2, 2, 2, 2)"
            )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    net: GaussNetwork
    rates: RateQuad
    achievable: bool
    stage: str
    max_alpha_excess: float
    min_check_slack: float  # worst decoding-inequality slack across both hops
    bound_gap: float


# A sweep's trials as columns, one tuple per quantity in trial order: each
# drawn network's eight magnitudes and power (named as the sweep CSV's
# columns), its boundary rates, and the `TrialRecord` fields.
SweepColumns = namedtuple(
    "SweepColumns",
    "trial h_a1r h_b1r h_a2r h_b2r h_ra1 h_rb1 h_ra2 h_rb2 power r_a1 r_b1 r_a2 r_b2 "
    "stage max_alpha_excess min_check_slack bound_gap",
)


@dataclass(frozen=True)
class GapReport:
    config: SweepConfig
    columns: SweepColumns

    @functools.cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        """One `TrialRecord` per trial, with a validated `GaussNetwork`;
        built on first access."""
        return tuple(
            TrialRecord(i, GaussNetwork((a1, a2), (b1, b2), (ra1, ra2), (rb1, rb2), p), tuple(q), s == "ok", s, e, m, g)
            for i, a1, b1, a2, b2, ra1, rb1, ra2, rb2, p, *q, s, e, m, g in zip(*self.columns)
        )

    @property
    def pass_rate(self) -> float:
        stage = self.columns.stage
        return stage.count("ok") / len(stage) if stage else 1.0

    @property
    def max_alpha_excess(self) -> float:
        return max(self.columns.max_alpha_excess, default=0.0)

    @property
    def max_bound_gap(self) -> float:
        return max(self.columns.bound_gap, default=0.0)


def _accepts(up, down, p) -> tuple[np.ndarray, np.ndarray]:
    """Which networks the sampler keeps: every link clears the SNR floor
    and the 2-bit base point (2, 2, 2, 2) lies in the restricted region,
    compared exactly.  Also gives the restricted family terms."""
    h, terms = np.concatenate([up, down]), _restricted_terms(up, down, p)
    floor = (h * h * p).min(axis=0)  # finite and positive: every draw passed the network's checks
    return (floor >= MIN_LINK_SNR) & (terms >= _BASE_SUMS).all(axis=0), terms


@_quiet
def _sampler_accepts(net: GaussNetwork) -> bool:
    return bool(_accepts(*net._columns())[0][0])


def _sessions(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink session arrays of drawn magnitudes, whose rows
    are h_ar, h_br, h_ra, h_rb, pair by pair."""
    return h[[0, 2, 1, 3]], h[[6, 4, 7, 5]]


def _sample_networks(cfg: SweepConfig, streams: _Streams, indices: Sequence[int]):
    """Log-uniform magnitudes and power, each trial redrawn until `_accepts`
    keeps its network, at most `MAX_SAMPLE_DRAWS` times.  A round takes
    `_ROUND` doubles from each pending trial's stream (`np.exp` of 8
    magnitude uniforms, then of a power uniform) and tests the round at once;
    the next round redraws the rejected trials.  Returns the magnitudes (one
    row per link, one column per trial), the powers and the restricted
    family terms of the kept networks."""
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    n = len(indices)
    h, p, terms = np.empty((8, n)), np.empty(n), np.empty((8, n))
    rows = np.arange(n)
    for _ in range(MAX_SAMPLE_DRAWS):
        d = streams.draw(rows, _ROUND)
        hp = np.exp(_uniform(lo_h, hi_h, d[:, :8])).T
        pp = np.exp(_uniform(lo_p, hi_p, d[:, 8]))
        h[:, rows], p[rows] = hp, pp
        # A draw GaussNetwork might refuse (a square near overflow, or an
        # exp that underflowed) is built as one, so it raises as it would.
        top = 2.0 * hp.max(axis=0)
        for j in np.flatnonzero(~((hp > 0).all(axis=0) & (pp > 0) & (top * top * pp < 1e300))).tolist():
            h_j = hp[:, j].tolist()
            GaussNetwork(h_j[0:2], h_j[2:4], h_j[4:6], h_j[6:8], pp[j].item())
        ok, t = _accepts(*_sessions(hp), pp)
        terms[:, rows] = t
        rows = rows[~ok]
        if not rows.size:
            return h, p, terms
    error = ValueError(
        f"trial {indices[rows[0]]}: none of {MAX_SAMPLE_DRAWS} sampled networks met the SNR "
        "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
    )
    error.trial = indices[rows[0]]  # the lowest trial still drawing, for `_sweep_block`
    raise error


def _boundary_rates(streams: _Streams, terms: np.ndarray) -> np.ndarray:
    """Per trial, a point of the restricted-region boundary at least 2 in
    every component: walk from (2,2,2,2) along a random non-negative
    direction, 4 doubles of the trial's stream redrawn while none exceeds
    1e-9, to the nearest constraint, then retreat `BOUNDARY_NUDGE` bits."""
    n = terms.shape[1]
    d, rows = np.empty((n, 4)), np.arange(n)
    while rows.size:
        d[rows] = streams.draw(rows, 4)
        rows = rows[d[rows].max(axis=1) <= 1e-9]
    # No room is NaN or -0.0: every term holds the base point, so the
    # smallest room is np.min's.
    d = d.T
    steps = _session_sums(d)
    rooms = (terms - _BASE_SUMS) / np.where(steps > 0, steps, 1.0)
    t_star = np.where(steps > 0, rooms, math.inf).min(axis=0)
    t = _max(0.0, t_star - BOUNDARY_NUDGE / d.max(axis=0))
    return 2.0 + t * d


@_quiet
def _trial_block(cfg: SweepConfig, indices: Sequence[int]) -> SweepColumns:
    """The trials ``indices`` of the sweep, as one batch."""
    streams = _Streams(cfg.seed, indices)
    h, p, terms = _sample_networks(cfg, streams, indices)
    rates = _boundary_rates(streams, terms)
    up, down = _sessions(h)
    stage, excess, slack, *_ = _verify_columns(up, down, p, rates, terms)
    # Both bounds share the single-family terms, so their gaps are 0.0.
    gaps = _bound_gaps(_cutset_terms(up, down, p, terms), terms)
    gap = _fold(_max, [0.0, *gaps])
    # h's rows are h_ar, h_br, h_ra, h_rb pair by pair; the columns take the CSV's order.
    columns = (*h[[0, 2, 1, 3, 4, 6, 5, 7]], p, *rates, stage, excess, slack, gap)
    return SweepColumns(tuple(indices), *(tuple(c.tolist()) for c in columns))


def _sweep_block(cfg: SweepConfig, indices: Sequence[int]) -> SweepColumns:
    """`_trial_block`, raising what the lowest-index trial that raises
    raises alone.  A trial's draws do not depend on its block, so when the
    sampler runs out of draws, its error names the lowest trial still
    drawing and is what that trial raises alone: only the trials below it
    are rerun, as one block, and recursively if that block raises.  Any
    other error reruns the block as batches of one, in order."""
    try:
        return _trial_block(cfg, indices)
    except Exception as exc:  # noqa: BLE001 -- re-raised below unless a lower trial raises first
        error = exc
    trial = getattr(error, "trial", None)
    if trial is None:
        for i in indices:
            _trial_block(cfg, (i,))
    elif below := [i for i in indices if i < trial]:
        _sweep_block(cfg, below)
    raise error


def run_trial(cfg: SweepConfig, index: int) -> TrialRecord:
    """One deterministic trial, a batch of one; its stream depends only on
    (seed, index), so trials run in any order or split yield identical
    records.  ``index`` is one spawn-key word: an integer in [0, 2^32)."""
    if not _integer(index) or not 0 <= index <= _M32:
        raise ValueError(f"trial index must be an integer in [0, 2**32), got {index!r}")
    return GapReport(cfg, _trial_block(cfg, (int(index),))).records[0]


def sweep_blocks(cfg: SweepConfig) -> Iterator[SweepColumns]:
    """Sample (network, boundary rate tuple) pairs and verify the 2-bit
    back-off end to end, yielding each block of `SWEEP_BLOCK` trials' columns
    as soon as it is done; deterministic for a fixed seed.  A sweep that
    fails raises once the first failing block is reached, after yielding
    every block before it."""
    for start in range(0, cfg.trials, SWEEP_BLOCK):
        yield _sweep_block(cfg, range(start, min(start + SWEEP_BLOCK, cfg.trials)))


def monte_carlo_gap(cfg: SweepConfig) -> GapReport:
    """`sweep_blocks`, joined into one report."""
    columns = [[] for _ in SweepColumns._fields]
    for block in sweep_blocks(cfg):
        for column, values in zip(columns, block):
            column += values
    return GapReport(cfg, SweepColumns._make(map(tuple, columns)))
