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
chain is written once, in `_UPLINK_CHAINS` or `_DOWNLINK_CHAINS`: the
power allocators walk it bottom-up, spending exactly the power each
stream's rate requires given the interference still standing under it,
and the decoding-rate checks walk the same stages.

Rates and magnitudes are indexed by session in the order (A1, B1, A2, B2)
(session A1 carries A1's message to B1): see `GaussNetwork.uplink` and
`GaussNetwork.downlink`.  One table, `_FAMILIES`, gives each of the eight
constraint families its sessions and its uplink and downlink back-off; the
cut-set and restricted bounds, both hops' rate preconditions and the sweep
sampler read it, and normalisation swaps and clamps session 4-tuples.

Every computation runs on columns, one entry per trial (see "Columns"
below).  One masked cascade, `_verify_columns`, normalises, then allocates
and checks each hop, each trial leaving at its first failing stage:
`monte_carlo_gap` runs it on a block of sampled trials and
`verify_constant_gap` on a batch of one, whose report it builds from the
cascade's columns.  The region checks, allocators and rate checks also
run the batch code on a batch of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
# Trials per block of the sweep's batch pipeline, so that memory stays flat
# over a long sweep; after its first draw, a block redraws at most
# REDRAW_WINDOW of its rejected trials at a time, the lowest first, so that
# a range that runs out of draws fails after at most that many trials' draws.
SWEEP_BLOCK = 1024
REDRAW_WINDOW = 64


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
        # (2 max|h|)^2 P; `**` raises OverflowError where `*` gives inf.
        top = 2.0 * max(self.h_ar + self.h_br + self.h_ra + self.h_rb)
        try:
            finite = math.isfinite(top ** 2 * p)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"(2 max|h|)^2 P overflows a float: max|h| = {top / 2:.4g}, P = {p:.4g}")

    def snrs(self) -> tuple[float, ...]:
        """All eight |h|^2 P products."""
        p = self.power
        return tuple(
            h * h * p for h in (*self.h_ar, *self.h_br, *self.h_ra, *self.h_rb)
        )

    @property
    def uplink(self) -> tuple[float, float, float, float]:
        """Each session's uplink magnitude: (|h_A1R|, |h_B1R|, |h_A2R|, |h_B2R|)."""
        return (self.h_ar[0], self.h_br[0], self.h_ar[1], self.h_br[1])

    @property
    def downlink(self) -> tuple[float, float, float, float]:
        """The relay's magnitude to each session's destination:
        (|h_RB1|, |h_RA1|, |h_RB2|, |h_RA2|)."""
        return (self.h_rb[0], self.h_ra[0], self.h_rb[1], self.h_ra[1])

    @classmethod
    def _drawn(cls, h_ar, h_br, h_ra, h_rb, power) -> GaussNetwork:
        """The network of one sweep draw, whose float pairs and power the
        sweep has already checked as columns."""
        net = object.__new__(cls)
        vars(net).update(h_ar=h_ar, h_br=h_br, h_ra=h_ra, h_rb=h_rb, power=power)
        return net

    def _columns(self) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """The network as a batch of one: uplink and downlink session
        columns and the power column."""
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
# The pipeline keeps one float64 array per quantity, one entry per trial,
# and a session 4-tuple as a list of four such columns; a single network is
# a batch of one.  Each entry is the float the one-network formula gives,
# bit for bit: +, -, *, / and comparisons run in numpy, which rounds them
# as Python does, in each formula's own association order; Python's
# max(a, b) and min(a, b) are `_max` and `_min`, which keep its pick on
# ties; and every log and every `**` is Python's own call, entry by entry
# (`_capacity`, `_lattice_cap`, `_pow`), since numpy's differ from libm's
# in the last bit.

# Python's float arithmetic overflows to inf without a warning.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _one(values) -> list[np.ndarray]:
    """A batch of one: a one-entry column per value."""
    return [np.array([v], dtype=float) for v in values]


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


def _pow(base, exponent):
    """``base ** exponent`` through Python's float pow, per entry of a column."""
    if isinstance(base, np.ndarray):
        return np.fromiter(map(pow, base.tolist(), repeat(exponent)), float, len(base))
    if isinstance(exponent, np.ndarray):
        return np.fromiter(map(pow, repeat(base), exponent.tolist()), float, len(exponent))
    return base ** exponent


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


def _take(columns, rows) -> list[np.ndarray]:
    return [c[rows] for c in columns]


def _row(columns, i: int) -> tuple:
    """One trial's entries as Python floats."""
    return tuple(c[i].item() for c in columns)


def _raise_first(errors: list) -> None:
    """Raise the error of a batch of one, if it has one."""
    if errors[0] is not None:
        raise errors[0]


def _snrs(magnitudes, power) -> tuple:
    """|h|^2 P of each magnitude of a session 4-tuple (numbers or columns)."""
    return tuple(_pow(h, 2) * power for h in magnitudes)


def _session_sums(rates) -> list:
    """Each family's rate sum, as Python's sum() adds it (from 0)."""
    return [sum(map(rates.__getitem__, sessions)) for _, sessions, _, _ in _FAMILIES]


def _family_terms(up, down, p, restricted: bool) -> list[np.ndarray]:
    """RHS of each constraint family: min(uplink term, downlink term).

    A single session's terms are C(|h|^2 P) on both hops.  A pair adds
    amplitudes on the uplink and powers on the downlink in the cut-set
    bound; the restricted bound adds powers on the uplink and takes the
    larger power on the downlink.
    """
    up2, down2 = [h * h for h in up], [h * h for h in down]
    snrs = []
    for _, sessions, _, _ in _FAMILIES:
        s, t = sessions[0], sessions[-1]  # s == t for a single session
        if s == t:
            snrs += (up2[s] * p, down2[s] * p)
        elif restricted:
            snrs += ((up2[s] + up2[t]) * p, _max(down2[s], down2[t]) * p)
        else:
            snrs += (_pow(up[s] + up[t], 2) * p, (down2[s] + down2[t]) * p)
    caps = _capacity(np.array(snrs))
    return list(_min(caps[0::2], caps[1::2]))


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

    def binding(self, tol: float = 1e-6) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if abs(c.slack) <= tol)


def _outside(terms: list, rates: list) -> tuple[np.ndarray, list]:
    """Which trials' rates leave the region of ``terms``, and each family's
    slack."""
    slacks = [rhs - lhs for rhs, lhs in zip(terms, _session_sums(rates))]
    return ~np.all([s >= -TOL for s in slacks], axis=0), slacks


def _violated_names(slacks: list, i: int) -> list[str]:
    return [name for (name, _, _, _), s in zip(_FAMILIES, slacks) if s[i] < -TOL]


@_quiet
def _region_verdict(net: GaussNetwork, rates: Sequence[float], restricted: bool) -> RegionVerdict:
    r = _rate_quad(rates)
    up, down, p = net._columns()
    terms, sums = _family_terms(up, down, p, restricted), _session_sums(_one(r))
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


def _bound_gaps(general: list, restricted: list) -> list[np.ndarray]:
    """Per-family difference (general RHS - restricted RHS); raises on the
    first trial with a difference outside [0, 1]."""
    gaps = [g - r for g, r in zip(general, restricted)]
    bad = np.any([(g < -TOL) | (g > 1.0 + TOL) for g in gaps], axis=0)
    if bad.any():
        i = bad.argmax()
        found = {
            name: g[i].item() for (name, _, _, _), g in zip(_FAMILIES, gaps) if g[i] < -TOL or g[i] > 1.0 + TOL
        }
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
    gaps = _bound_gaps(_family_terms(up, down, p, False), _family_terms(up, down, p, True))
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


def _normalize(up, down, p, rates, terms=None):
    """`reduce_orderings` on columns: the normalised session columns and
    rates, each pair's side swap, the clamps (name and where applied) and
    the pair swap.  ``terms`` are the input's restricted family terms when
    already at hand."""
    if terms is None:
        terms = _family_terms(up, down, p, True)
    outside, slacks = _outside(terms, rates)
    if outside.any():
        names = ", ".join(_violated_names(slacks, outside.argmax()))
        raise InfeasibleRatesError(f"rates outside the restricted cut-set region ({names})")

    # Session 4-tuples: a side swap exchanges a pair's two sessions, a clamp
    # lowers the B session's uplink or downlink (|h_BiR|, |h_RAi|) to the A
    # session's, and a pair swap exchanges the two pairs.
    up, down, r = list(up), list(down), list(rates)
    side_swapped = []
    for a in (0, 2):
        swap = r[a + 1] > r[a]
        side_swapped.append(swap)
        for q in (up, down, r):
            q[a], q[a + 1] = np.where(swap, q[a + 1], q[a]), np.where(swap, q[a], q[a + 1])

    clamps = []
    for i, a in enumerate((0, 2)):
        for q, name in ((up, f"h_br[{i}]"), (down, f"h_ra[{i}]")):
            clamp = q[a + 1] > q[a]
            clamps.append((name, clamp))
            q[a + 1] = np.where(clamp, q[a], q[a + 1])

    pairs_swapped = up[2] > up[0]
    up, down, r = (_swap_pairs(q, pairs_swapped) for q in (up, down, r))

    outside, slacks = _outside(_family_terms(up, down, p, True), r)
    if outside.any():
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({_violated_names(slacks, outside.argmax())})"
        )
    return up, down, r, side_swapped, clamps, pairs_swapped


def _normalized_problem(net: GaussNetwork, normalized) -> NormalizedProblem:
    """The `NormalizedProblem` of ``net`` from `_normalize`'s columns for
    it as a batch of one."""
    up, down, r, side, clamps, pairs = normalized
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
    return _normalized_problem(net, _normalize(*net._columns(), _one(_rate_quad(rates))))


def _swap_pairs(q: Sequence, swapped) -> list:
    """A session 4-tuple of columns with pair 1 and pair 2 exchanged where
    ``swapped``."""
    return [np.where(swapped, q[k ^ 2], q[k]) for k in range(4)]


def classify_case(magnitudes: Sequence, direction: str):
    """Configuration tag for one hop.

    ``magnitudes`` is the role-ordered quadruple (strong1, weak1, strong2,
    weak2), a hop's session 4-tuple: `GaussNetwork.uplink` or `.downlink`,
    as numbers or as columns (then one tag per entry).  Requires the
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
    """One hop's power splits for a batch, as columns: each trial's case,
    the alpha columns and rate columns of `UplinkAllocation` or
    `DownlinkAllocation` in field order, and the downlink's pair swap."""

    case: np.ndarray
    alpha: list
    rates: list
    swapped: np.ndarray | None = None

    def take(self, rows) -> "_Splits":
        swapped = None if self.swapped is None else self.swapped[rows]
        return _Splits(self.case[rows], _take(self.alpha, rows), _take(self.rates, rows), swapped)


def _precondition_errors(direction: str, snr, r) -> list:
    """Each trial's first failed rate precondition of the hop, as the
    `InfeasibleRatesError` naming it, or None.  A pair's uplink term adds
    the two sessions' SNRs, its downlink term takes the larger one."""
    rows = _PRECONDITIONS[direction]
    combine = sum if direction == "uplink" else lambda powers: _fold(_max, powers)
    lhs = np.array([sum(map(r.__getitem__, sessions)) for _, sessions, _ in rows])
    rhs = _capacity(np.array([combine([snr[s] for s in sessions]) for _, sessions, _ in rows]))
    rhs -= np.array([backoff for _, _, backoff in rows])[:, None]
    failed = lhs > rhs + TOL
    errors = [None] * len(r[0])
    for i in np.flatnonzero(failed.any(axis=0)).tolist():
        k = failed[:, i].argmax()
        errors[i] = InfeasibleRatesError(rows[k][0], f"lhs={lhs[k, i].item():.6g}, rhs={rhs[k, i].item():.6g}")
    return errors


def _allocation_inputs(direction: str, mags, p, r):
    """The hop's session SNRs, and each trial's refusal before any split:
    the SNR floor, then the hop's first failed rate precondition."""
    unsorted = (r[1] > r[0] + TOL) | (r[3] > r[2] + TOL)
    if unsorted.any():
        raise ValueError(f"rates {_row(r, unsorted.argmax())} not normalized: each pair needs r_A >= r_B")
    snr = _snrs(mags, p)
    floor = _fold(_min, snr)
    errors = _precondition_errors(direction, snr, r)
    for i in np.flatnonzero(floor < MIN_PROVEN_SNR - TOL).tolist():
        errors[i] = LowPowerError(f"{direction} |h|^2 P floor {floor[i].item():.4g} below {MIN_PROVEN_SNR}")
    return snr, errors


def _allocate(direction: str, mags, p, r):
    """Walk each trial's cancellation chain for the hop.  Returns the splits
    of the trials that get one, their positions in the batch and budget
    excess, and each trial's refusal: None, or the error the allocator
    raises for it."""
    snr, errors = _allocation_inputs(direction, mags, p, r)
    rows = np.flatnonzero([e is None for e in errors])
    hop = _HOPS[direction]
    splits = hop.walk(_take(mags, rows), _take(snr, rows), _take(r, rows))
    excess = hop.excess(splits.alpha)
    over = excess > TOL
    for i in np.flatnonzero(over).tolist():
        errors[rows[i]] = AllocationInvalidError(hop.overspend(splits, i, excess[i].item()))
    kept = np.flatnonzero(~over)
    return splits.take(kept), rows[kept], excess[kept], errors


def _by_case(case: np.ndarray):
    """Each case present, with the positions of its trials."""
    for c in _CASES:
        mask = case == c
        if mask.any():
            yield c, np.flatnonzero(mask)


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


def _precondition_rows(direction: str) -> tuple[tuple[str, tuple[int, ...], float], ...]:
    """(name, sessions, back-off) of each rate precondition of one hop, in
    checking order: the paper's, which puts A1+B2 before B1+B2.

    A session's uplink is |h_A1R| for session A1; its downlink is the
    relay's link to its destination, the partner `s ^ 1`: |h_RB1|.
    """
    rows = []
    for k in (0, 1, 2, 3, 4, 6, 5, 7):
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


# The uplink cancellation chains, bottom stage first; the relay decodes
# from the top.  A stage is a stream and the noise plus interference still
# undecoded beneath it, from the received powers alpha * |h|^2 P: G1 and G2
# of the Gaussian codewords, T and W of each lattice codeword of pairs 1
# and 2 (a lattice sum arrives at twice that).  Cases II and III end in one
# MAC stage that decodes both Gaussian codewords jointly.
_G1, _T, _G2, _W = range(4)
_UPLINK_CHAINS = {
    "I": (
        (_W, lambda G1, T, G2, W: 1.0),
        (_G2, lambda G1, T, G2, W: 2.0 * W + 1.0),
        (_T, lambda G1, T, G2, W: G2 + 2.0 * W + 1.0),
        (_G1, lambda G1, T, G2, W: 2.0 * T + G2 + 2.0 * W + 1.0),
    ),
    "II": (
        (_W, lambda G1, T, G2, W: 1.0),
        (_T, lambda G1, T, G2, W: 2.0 * W + 1.0),
        ("MAC", lambda G1, T, G2, W: 2.0 * T + 2.0 * W + 1.0),
    ),
    "III": (  # pair 2's lattice sum is decoded before pair 1's
        (_T, lambda G1, T, G2, W: 1.0),
        (_W, lambda G1, T, G2, W: 2.0 * T + 1.0),
        ("MAC", lambda G1, T, G2, W: 2.0 * T + 2.0 * W + 1.0),
    ),
}
# Each uplink stream's decoding check and its rate limit.
_UPLINK_STREAMS = (
    ("decode x_A1 gaussian", _capacity),
    ("decode pair-1 lattice sum", _lattice_cap),
    ("decode x_A2 gaussian", _capacity),
    ("decode pair-2 lattice sum", _lattice_cap),
)


def _walk_uplink(mags, snr, r) -> _Splits:
    """The uplink power splits of each trial's case, walking its chain in
    `_UPLINK_CHAINS` from the bottom."""
    x1, x2, x3, x4 = snr
    case = classify_case(mags, "uplink")
    u, s, v, w = [_pow(2.0, x) for x in r]

    # Power over noise: 2^rate - 1 for a Gaussian codeword, 2^rate for a lattice one.
    need = (u / s - 1.0, s, v / w - 1.0, w)
    q = [np.zeros(len(case)) for _ in range(4)]
    for c, rows in _by_case(case):
        n, qc = _take(need, rows), [np.zeros(len(rows))] * 4
        for stream, noise in _UPLINK_CHAINS[c]:
            den = noise(*qc)
            if stream == "MAC":
                # x_A1's single-user and sum-rate constraints each demand a power; the larger binds.
                qc[_G2] = n[_G2] * den
                sum_rate = (u[rows] * v[rows]) / (s[rows] * w[rows]) - v[rows] / w[rows]
                qc[_G1] = _max(n[_G1], sum_rate) * den
            else:
                qc[stream] = n[stream] * den
        for k in range(4):
            q[k][rows] = qc[k]
    G1, T, G2, W = q
    alpha = [G1 / x1, T / x1, G2 / x3, W / x3, T / x2, W / x4]
    return _Splits(case, alpha, [r[0] - r[1], r[2] - r[3], r[1], r[3]])


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
    up, _, p = net._columns()
    splits, _, _, errors = _allocate("uplink", up, p, _one(_rate_quad(r)))
    _raise_first(errors)
    return _uplink_allocation(splits, 0)


def _uplink_checks(mags, p, splits: _Splits):
    """Every decoding inequality of each trial's case, in decoding order
    (the case's chain from the top): per case present, its trials'
    positions and (name, lhs, rhs) columns."""
    expected = classify_case(mags, "uplink")
    wrong = expected != splits.case
    if wrong.any():
        i = wrong.argmax()
        raise ValueError(f"allocation is for case {splits.case[i]}, network classifies as {expected[i]}")
    x1, x2, x3, x4 = _snrs(mags, p)
    a1g, _, a2g, _, b1, b2 = splits.alpha
    q = (a1g * x1, b1 * x2, a2g * x3, b2 * x4)
    rg1, rg2, rl1, rl2 = splits.rates

    for c, rows in _by_case(splits.case):
        qc, rates = _take(q, rows), _take((rg1, rl1, rg2, rl2), rows)
        checks = []
        for stream, noise in reversed(_UPLINK_CHAINS[c]):
            den = noise(*qc)
            if stream == "MAC":
                checks += (
                    ("decode x_A1 gaussian (MAC)", rates[_G1], _capacity(_divide(qc[_G1], den))),
                    ("decode x_A2 gaussian (MAC)", rates[_G2], _capacity(_divide(qc[_G2], den))),
                    ("gaussian MAC sum", rates[_G1] + rates[_G2], _capacity(_divide(qc[_G1] + qc[_G2], den))),
                )
            else:
                name, cap = _UPLINK_STREAMS[stream]
                checks.append((name, rates[stream], cap(_divide(qc[stream], den))))
        yield rows, checks


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
    return _single_checks(_uplink_checks(up, p, splits))


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
# Each downlink stream's check name, and the order the checks come in.
_DOWNLINK_STREAMS = ("pair-1 solo stream", "pair-1 shared stream", "pair-2 solo stream", "pair-2 shared stream")
_DOWNLINK_CHECK_ORDER = (_SHARED1, _SHARED2, _SOLO1, _SOLO2)


def _walk_downlink(mags, snr, r) -> _Splits:
    """The relay's power split of each trial's case, walking its chain in
    `_DOWNLINK_CHAINS` from the bottom.  The chains take pair 1 to be the
    pair with the stronger shared-stream receiver."""
    swapped = mags[2] > mags[0]
    r, mags, snr = (_swap_pairs(q, swapped) for q in (r, mags, snr))
    case = classify_case(mags, "downlink")

    u, s, v, w = [_pow(2.0, x) for x in r]
    need = (u / s - 1.0, s - 1.0, v / w - 1.0, w - 1.0)
    alpha = [np.zeros(len(case)) for _ in range(4)]
    for c, rows in _by_case(case):
        n, g, pc = _take(need, rows), _take(snr, rows), [np.zeros(len(rows))] * 4
        for stream, receivers in _DOWNLINK_CHAINS[c]:
            if len(receivers) == 1:  # the closed form's association, bit for bit
                ((k, under),) = receivers
                pc[stream] = n[stream] * (1.0 + g[k] * under(pc)) / g[k]
            else:
                pc[stream] = n[stream] * _fold(_max, [(1.0 + g[k] * under(pc)) / g[k] for k, under in receivers])
        for k in range(4):
            alpha[k][rows] = pc[k]
    return _Splits(case, alpha, [r[0] - r[1], r[1], r[2] - r[3], r[3]], swapped)


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
    _, down, p = net._columns()
    splits, _, _, errors = _allocate("downlink", down, p, _one(_rate_quad(r)))
    _raise_first(errors)
    return _downlink_allocation(splits, 0)


def _downlink_checks(mags, p, splits: _Splits):
    """Every broadcast decoding inequality of each trial's case: each
    stream's rate against its worst receiver in the case's chain.  Per case
    present, its trials' positions and (name, lhs, rhs) columns."""
    mags, snr = (_swap_pairs(q, splits.swapped) for q in (mags, _snrs(mags, p)))
    if np.any(classify_case(mags, "downlink") != splits.case):
        raise ValueError("allocation case does not match the network ordering")

    for c, rows in _by_case(splits.case):
        pc, g, rates = _take(splits.alpha, rows), _take(snr, rows), _take(splits.rates, rows)
        receivers = dict(_DOWNLINK_CHAINS[c])
        checks = []
        for stream in _DOWNLINK_CHECK_ORDER:
            rhs = None  # the smallest capacity over the receivers, as min() picks it
            for k, under in receivers[stream]:
                cap = _capacity(_divide(g[k] * pc[stream], 1.0 + g[k] * under(pc)))
                rhs = cap if rhs is None else _min(rhs, cap)
            checks.append((_DOWNLINK_STREAMS[stream], rates[stream], rhs))
        yield rows, checks


@_quiet
def downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every broadcast decoding inequality of the allocation's
    case: each stream's rate against its worst receiver in the case's chain."""
    _, down, p = net._columns()
    splits = _Splits(
        np.array([alloc.case]), _one(alloc.alpha_r), _one(alloc.stream_rates), np.array([alloc.pairs_swapped])
    )
    return _single_checks(_downlink_checks(down, p, splits))


class _Hop(NamedTuple):
    walk: Callable  # (magnitudes, SNRs, rates) -> _Splits
    excess: Callable  # alpha columns -> budget excess
    overspend: Callable  # (splits, trial, excess) -> AllocationInvalidError text
    checks: Callable  # (magnitudes, power, splits) -> per case: trials, (name, lhs, rhs)
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

    @property
    def achievable(self) -> bool:
        return self.stage == "ok"

    def max_alpha_excess(self) -> float:
        allocs = (self.uplink, self.downlink)
        return max([0.0] + [a.budget_excess() for a in allocs if a is not None])

    def min_check_slack(self) -> float:
        slacks = [c.slack for c in self.uplink_checks + self.downlink_checks]
        return min(slacks) if slacks else math.inf


def _require_hypothesis(target, up, down, p) -> None:
    """Raise for the first trial outside the constant-gap hypothesis:
    a component below 2, or a link SNR below the proven threshold."""
    below = np.any([x < 2.0 - TOL for x in target], axis=0)
    if below.any():
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {_row(target, below.argmax())}"
        )
    floor = _fold(_min, [h * h * p for h in (*up, *down)])
    weak = floor < MIN_PROVEN_SNR - TOL
    if weak.any():
        raise LowPowerError(
            f"|h|^2 P floor {floor[weak.argmax()].item():.4g} below the proven threshold {MIN_PROVEN_SNR}"
        )


def _back_off(rates) -> list[np.ndarray]:
    """Each rate less 2 bits, floored at 0."""
    return [_max(0.0, x - 2.0) for x in rates]


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
    stage, _, _, detail, normalized, hops = _verify_columns(*net._columns(), _one(target))
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
    )


def _verify_columns(up, down, p, target, terms=None):
    """`verify_constant_gap` on columns, the one constant-gap cascade: the
    hops run masked, and a trial leaves at its first failing stage, so a hop
    no trial reaches is skipped.  Returns each trial's stage, largest budget
    excess, smallest check slack and detail, as its report gives them;
    `_normalize`'s columns; and per hop reached, the trials that got a
    split, their `_Splits` and their check groups.  ``terms`` are the
    restricted family terms when already at hand.  Raises where
    `verify_constant_gap` raises, for some trial."""
    n = len(p)
    _require_hypothesis(target, up, down, p)
    normalized = _normalize(up, down, p, target, terms)
    up, down, quad = normalized[:3]
    r = _back_off(quad)

    stage, detail = np.full(n, "ok", dtype=object), [""] * n
    excess, slack, seen = np.zeros(n), np.full(n, math.inf), np.zeros(n, dtype=bool)
    hops = {}
    rows = np.arange(n)  # the trials still at stage "ok"
    for hop, mags in (("uplink", up), ("downlink", down)):
        if not rows.size:
            break
        mags = _take(mags, rows)
        splits, kept, spent, errors = _allocate(hop, mags, p[rows], _take(r, rows))
        for i, e in enumerate(errors):
            if e is not None:
                stage[rows[i]], detail[rows[i]] = f"{hop}-allocation", str(e)
        rows, mags = rows[kept], _take(mags, kept)
        excess[rows] = _max(excess[rows], spent)

        bad = np.zeros(len(rows), dtype=bool)
        groups = list(_HOPS[hop].checks(mags, p[rows], splits))
        for at, checks in groups:
            trials, failed = rows[at], []
            for _, lhs, rhs in checks:  # min() over the checks, in order
                s = rhs - lhs
                first = ~seen[trials]
                slack[trials] = np.where(first | (s < slack[trials]), s, slack[trials])
                seen[trials] = True
                failed.append(s < -TOL)
            bad[at] = np.any(failed, axis=0)
            for j in np.flatnonzero(bad[at]).tolist():
                detail[trials[j]] = ", ".join(name for (name, _, _), f in zip(checks, failed) if f[j])
        stage[rows[bad]] = f"{hop}-rate-check"
        hops[hop] = (rows, splits, groups)
        rows = rows[~bad]
    return stage, excess, slack, detail, normalized, hops


# --- Monte Carlo sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    trials: int
    seed: int = 0
    h_min: float = 1.0
    h_max: float = 100.0
    p_min: float = 1.0
    p_max: float = 100.0

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if not (0 < self.h_min <= self.h_max and 0 < self.p_min <= self.p_max):
            raise ValueError("magnitude and power ranges must be non-empty and positive")
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


@dataclass(frozen=True)
class GapReport:
    config: SweepConfig
    records: tuple[TrialRecord, ...]

    @property
    def pass_rate(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.achievable for r in self.records) / len(self.records)

    @property
    def max_alpha_excess(self) -> float:
        return max((r.max_alpha_excess for r in self.records), default=0.0)

    @property
    def max_bound_gap(self) -> float:
        return max((r.bound_gap for r in self.records), default=0.0)


def _accepts(up, down, p) -> tuple[np.ndarray, list[np.ndarray]]:
    """Which networks the sampler keeps: every link clears the SNR floor
    and the 2-bit base point (2, 2, 2, 2) lies in the restricted region,
    compared exactly.  Also gives the restricted family terms."""
    floor = _fold(_min, [h * h * p for h in (*up, *down)])
    terms = _family_terms(up, down, p, True)
    base = [rhs >= 2.0 * len(sessions) for (_, sessions, _, _), rhs in zip(_FAMILIES, terms)]
    return (floor >= MIN_LINK_SNR) & np.all(base, axis=0), terms


@_quiet
def _sampler_accepts(net: GaussNetwork) -> bool:
    return bool(_accepts(*net._columns())[0][0])


def _sessions(h: np.ndarray) -> tuple[list, list]:
    """Uplink and downlink session columns of drawn magnitudes, whose rows
    are h_ar, h_br, h_ra, h_rb, pair by pair."""
    return [h[0], h[2], h[1], h[3]], [h[6], h[4], h[7], h[5]]


def _sample_networks(cfg: SweepConfig, rngs: list, indices: Sequence[int]):
    """Log-uniform magnitudes and power, each trial redrawn from its own
    generator until `_accepts` keeps its network, at most
    `MAX_SAMPLE_DRAWS` times.  A round draws once for every trial in it and
    tests the round at once: all trials, then up to `REDRAW_WINDOW` of the
    lowest pending.  Returns the magnitudes (one row per link, one column
    per trial), the powers and the restricted family terms of the kept
    networks."""
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    n = len(rngs)
    h, p, terms = np.empty((8, n)), np.empty(n), np.empty((8, n))
    drawn = np.zeros(n, dtype=int)
    pending, window = np.arange(n), n
    while pending.size:
        rows, pending = pending[:window], pending[window:]
        drawing = [rngs[j] for j in rows.tolist()]
        hp = np.array([np.exp(rng.uniform(lo_h, hi_h, size=8)) for rng in drawing]).T
        pp = np.array([np.exp(rng.uniform(lo_p, hi_p)) for rng in drawing])
        h[:, rows], p[rows] = hp, pp
        drawn[rows] += 1
        # A draw GaussNetwork might refuse (a square near overflow, or an
        # exp that underflowed) is built as one, so it raises as it would.
        top = 2.0 * hp.max(axis=0)
        for j in np.flatnonzero(~((hp > 0).all(axis=0) & (pp > 0) & (top * top * pp < 1e300))).tolist():
            h_j = hp[:, j].tolist()
            GaussNetwork(h_j[0:2], h_j[2:4], h_j[4:6], h_j[6:8], pp[j].item())
        ok, t = _accepts(*_sessions(hp), pp)
        terms[:, rows] = t
        rejected = rows[~ok]
        spent = rejected[drawn[rejected] == MAX_SAMPLE_DRAWS]
        if spent.size:
            raise ValueError(
                f"trial {indices[spent[0]]}: none of {MAX_SAMPLE_DRAWS} sampled networks met the SNR "
                "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
            )
        pending, window = np.concatenate([rejected, pending]), REDRAW_WINDOW
    return h, p, list(terms)


def _boundary_rates(rngs: list, terms: list) -> tuple[list, np.ndarray]:
    """Per trial, a point of the restricted-region boundary at least 2 in
    every component: walk from (2,2,2,2) along a random non-negative
    direction from the trial's generator to the nearest constraint, then
    retreat `BOUNDARY_NUDGE` bits.  Also tells which trials' walks left the
    base point: their `TrialRecord.rates` hold numpy floats, the others'
    plain floats."""
    directions = []
    for rng in rngs:
        while True:
            d = rng.random(4)
            if max(d.tolist()) > 1e-9:
                break
        directions.append(d)
    d = np.array(directions).T
    t_star = np.full(len(rngs), math.inf)
    for (_, sessions, _, _), rhs in zip(_FAMILIES, terms):
        step = sum(map(d.__getitem__, sessions))
        room = (rhs - 2.0 * len(sessions)) / np.where(step > 0, step, 1.0)
        t_star = np.where((step > 0) & (room < t_star), room, t_star)
    t = t_star - BOUNDARY_NUDGE / d.max(axis=0)
    walked = t > 0.0
    return [2.0 + np.where(walked, t, 0.0) * x for x in d], walked


@_quiet
def _trial_block(cfg: SweepConfig, indices: Sequence[int]) -> list[TrialRecord]:
    """The trials ``indices`` of the sweep, as one batch."""
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))) for i in indices]
    h, p, terms = _sample_networks(cfg, rngs, indices)
    rates, walked = _boundary_rates(rngs, terms)
    up, down = _sessions(h)
    stage, excess, slack, *_ = _verify_columns(up, down, p, rates, terms)
    gap = _fold(_max, _bound_gaps(_family_terms(up, down, p, False), terms))

    h = h.tolist()
    nets = map(GaussNetwork._drawn, *(zip(h[k], h[k + 1]) for k in range(0, 8, 2)), p.tolist())
    return [
        TrialRecord(i, net, q if w else tuple(map(float, q)), s == "ok", s, e, m, g)
        for i, net, q, w, s, e, m, g in zip(
            indices, nets, zip(*rates), walked.tolist(), stage.tolist(), excess.tolist(), slack.tolist(), gap.tolist()
        )
    ]


def _sweep_block(cfg: SweepConfig, indices: Sequence[int]) -> list[TrialRecord]:
    """`_trial_block`, raising what the lowest-index trial that raises
    raises alone: a failing block is rerun as batches of one, in order."""
    try:
        return _trial_block(cfg, indices)
    except Exception as exc:  # noqa: BLE001 -- re-raised below unless a single trial raises first
        error = exc
    for i in indices:
        _trial_block(cfg, (i,))
    raise error


def run_trial(cfg: SweepConfig, index: int) -> TrialRecord:
    """One deterministic trial, a batch of one; the sub-seed depends only on
    (seed, index), so trials run in any order or split yield identical
    records."""
    return _trial_block(cfg, (index,))[0]


def monte_carlo_gap(cfg: SweepConfig) -> GapReport:
    """Sample (network, boundary rate tuple) pairs and verify the 2-bit
    back-off end to end, in blocks of `SWEEP_BLOCK` trials; deterministic
    for a fixed seed."""
    records = []
    for start in range(0, cfg.trials, SWEEP_BLOCK):
        records += _sweep_block(cfg, range(start, min(start + SWEEP_BLOCK, cfg.trials)))
    return GapReport(config=cfg, records=tuple(records))
