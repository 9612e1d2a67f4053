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
downlink configurations; power splits for each come from walking the
successive-cancellation chain bottom-up and spending exactly the power
each stream's rate requires given the interference still standing under
it.

Rates and magnitudes are indexed by session in the order (A1, B1, A2, B2)
(session A1 carries A1's message to B1): see `GaussNetwork.uplink` and
`GaussNetwork.downlink`.  One table, `_FAMILIES`, gives each of the eight
constraint families its sessions and its uplink and downlink back-off; the
cut-set and restricted bounds, both hops' rate preconditions and the sweep
sampler read it, and normalisation swaps and clamps session 4-tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 2:
                raise ValueError(f"{name} needs one magnitude per pair")
            if any(v <= 0 or not math.isfinite(v) for v in vals):
                raise ValueError(f"{name} must be positive finite magnitudes, got {vals}")
            object.__setattr__(self, name, vals)
        p = float(self.power)
        if p <= 0 or not math.isfinite(p):
            raise ValueError(f"power must be positive, got {self.power}")
        object.__setattr__(self, "power", p)

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

    # Family RHS in `_FAMILIES` order, once per network: the sampler, the
    # boundary walk, normalisation and the gap report share them.
    @cached_property
    def _cutset_terms(self) -> tuple[float, ...]:
        return _family_terms(self, restricted=False)

    @cached_property
    def _restricted_terms(self) -> tuple[float, ...]:
        return _family_terms(self, restricted=True)


RateQuad = tuple[float, float, float, float]  # (R_A1, R_B1, R_A2, R_B2)

_SESSIONS = ("A1", "B1", "A2", "B2")

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


def _family_terms(net: GaussNetwork, restricted: bool) -> tuple[float, ...]:
    """RHS of each constraint family: min(uplink term, downlink term).

    A single session's terms are C(|h|^2 P) on both hops.  A pair adds
    amplitudes on the uplink and powers on the downlink in the cut-set
    bound; the restricted bound adds powers on the uplink and takes the
    larger power on the downlink.
    """
    up, down, p = net.uplink, net.downlink, net.power
    up2, down2 = [h * h for h in up], [h * h for h in down]
    terms = []
    for _, sessions, _, _ in _FAMILIES:
        s, t = sessions[0], sessions[-1]  # s == t for a single session
        if s == t:
            snrs = (up2[s] * p, down2[s] * p)
        elif restricted:
            snrs = ((up2[s] + up2[t]) * p, max(down2[s], down2[t]) * p)
        else:
            snrs = ((up[s] + up[t]) ** 2 * p, (down2[s] + down2[t]) * p)
        terms.append(min(awgn_capacity(snrs[0]), awgn_capacity(snrs[1])))
    return tuple(terms)


def _rate_quad(rates: Sequence[float]) -> RateQuad:
    """The four session rates as floats: finite, and none below -TOL."""
    r = tuple(float(x) for x in rates)
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


def _region_verdict(net: GaussNetwork, rates: Sequence[float], restricted: bool) -> RegionVerdict:
    r = _rate_quad(rates)
    terms = net._restricted_terms if restricted else net._cutset_terms
    checks = tuple(
        ConstraintCheck(name, sum(r[s] for s in sessions), rhs)
        for (name, sessions, _, _), rhs in zip(_FAMILIES, terms)
    )
    return RegionVerdict(all(c.slack >= -TOL for c in checks), checks)


def gauss_cutset(net: GaussNetwork, rates: Sequence[float]) -> RegionVerdict:
    """Membership in the cut-set outer bound."""
    return _region_verdict(net, rates, restricted=False)


def gauss_restricted_cutset(net: GaussNetwork, rates: Sequence[float]) -> RegionVerdict:
    """Membership in the restricted cut-set bound, the outer bound shaped
    like the achievable scheme's rate expressions."""
    return _region_verdict(net, rates, restricted=True)


def restricted_bound_gaps(net: GaussNetwork) -> dict[str, float]:
    """Per-family difference (general RHS - restricted RHS).

    Every difference provably lies in [0, 1]: the single-rate families are
    identical, and each sum term loses at most the one bit of
    C(2x) <= C(x) + 1.
    """
    gaps = {
        name: gen - res
        for (name, _, _, _), gen, res in zip(_FAMILIES, net._cutset_terms, net._restricted_terms)
    }
    bad = {n: g for n, g in gaps.items() if g < -TOL or g > 1.0 + TOL}
    if bad:
        raise AssertionError(f"gap outside [0, 1]: {bad}")
    return gaps


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


def reduce_orderings(net: GaussNetwork, rates: Sequence[float]) -> NormalizedProblem:
    verdict = gauss_restricted_cutset(net, rates)
    if not verdict:
        names = ", ".join(c.name for c in verdict.violated())
        raise InfeasibleRatesError(f"rates outside the restricted cut-set region ({names})")

    # Session 4-tuples: a side swap exchanges a pair's two sessions, a clamp
    # lowers the B session's uplink or downlink (|h_BiR|, |h_RAi|) to the A
    # session's, and a pair swap exchanges the two pairs.
    up, down = list(net.uplink), list(net.downlink)
    r = list(float(x) for x in rates)

    side_swapped = []
    for a in (0, 2):
        swap = r[a + 1] > r[a]
        side_swapped.append(swap)
        if swap:
            for q in (up, down, r):
                q[a], q[a + 1] = q[a + 1], q[a]

    clamped = []
    for i, a in enumerate((0, 2)):
        if up[a + 1] > up[a]:
            up[a + 1] = up[a]
            clamped.append(f"h_br[{i}]")
        if down[a + 1] > down[a]:
            down[a + 1] = down[a]
            clamped.append(f"h_ra[{i}]")

    pairs_swapped = up[2] > up[0]
    up, down, quad = (_swap_pairs(q, pairs_swapped) for q in (up, down, r))

    out = GaussNetwork(
        (up[0], up[2]), (up[1], up[3]), (down[1], down[3]), (down[0], down[2]), net.power
    )
    post = gauss_restricted_cutset(out, quad)
    if not post:
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({[c.name for c in post.violated()]})"
        )
    return NormalizedProblem(out, quad, tuple(side_swapped), pairs_swapped, tuple(clamped))


def _swap_pairs(q: Sequence, swapped: bool) -> tuple:
    """A session 4-tuple with pair 1 and pair 2 exchanged when ``swapped``."""
    return (q[2], q[3], q[0], q[1]) if swapped else tuple(q)


def classify_case(magnitudes: Sequence[float], direction: str) -> str:
    """Configuration tag for one hop.

    ``magnitudes`` is the role-ordered quadruple (strong1, weak1, strong2,
    weak2), a hop's session 4-tuple: `GaussNetwork.uplink` or `.downlink`.
    Requires the normalized ordering strong_i >= weak_i and strong1 >=
    strong2.  Ties resolve to the lowest-numbered case.
    """
    if direction not in ("uplink", "downlink"):
        raise ValueError(f"direction must be 'uplink' or 'downlink', got {direction!r}")
    s1, w1, s2, w2 = magnitudes
    if w1 > s1 + TOL or w2 > s2 + TOL or s2 > s1 + TOL:
        raise ValueError(
            f"{direction} magnitudes {tuple(magnitudes)} are not in normalized order"
        )
    if w1 >= s2:
        return "I"
    if w1 >= w2:
        return "II"
    return "III"


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
        worst = max(
            self.alpha_a1[0] + self.alpha_a1[1] - 1.0,
            self.alpha_a2[0] + self.alpha_a2[1] - 1.0,
            self.alpha_b1 - 1.0,
            self.alpha_b2 - 1.0,
        )
        lowest = min(*self.alpha_a1, *self.alpha_a2, self.alpha_b1, self.alpha_b2)
        return max(worst, -lowest)


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


def _snrs(magnitudes: Sequence[float], power: float) -> tuple[float, ...]:
    """|h|^2 P of each magnitude of a session 4-tuple."""
    return tuple(h ** 2 * power for h in magnitudes)


def _check_preconditions(direction: str, snr: Sequence[float], r: RateQuad) -> None:
    """Raise `InfeasibleRatesError` naming the hop's first failed rate
    precondition.  A pair's uplink term adds the two sessions' SNRs, its
    downlink term takes the larger one."""
    combine = sum if direction == "uplink" else max
    for name, sessions, backoff in _PRECONDITIONS[direction]:
        lhs = sum(r[s] for s in sessions)
        rhs = awgn_capacity(combine(snr[s] for s in sessions)) - backoff
        if lhs > rhs + TOL:
            raise InfeasibleRatesError(name, f"lhs={lhs:.6g}, rhs={rhs:.6g}")


def _allocation_inputs(direction: str, net: GaussNetwork, rates: Sequence[float]):
    """Validated, pair-normalised rates and the hop's session SNRs, once the
    SNR floor and every rate precondition of the hop hold."""
    r = _rate_quad(rates)
    if r[1] > r[0] + TOL or r[3] > r[2] + TOL:
        raise ValueError(f"rates {r} not normalized: each pair needs r_A >= r_B")
    snr = _snrs(net.uplink if direction == "uplink" else net.downlink, net.power)
    if min(snr) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(f"{direction} |h|^2 P floor {min(snr):.4g} below {MIN_PROVEN_SNR}")
    _check_preconditions(direction, snr, r)
    return r, snr


def uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    """Power splits letting the relay decode both Gaussian codewords and
    both lattice sums at the component rates implied by ``r``.

    Walks the successive-cancellation chain of the classified case from the
    bottom: each stream gets exactly the receive power that makes its
    decoding inequality an equality given the streams still undecoded
    beneath it.  Lattice partners then mirror powers through the alignment
    rule so each pair's lattice codewords arrive level.
    """
    r, (x1, x2, x3, x4) = _allocation_inputs("uplink", net, r)
    case = classify_case(net.uplink, "uplink")
    u, s = 2.0 ** r[0], 2.0 ** r[1]
    v, w = 2.0 ** r[2], 2.0 ** r[3]

    # Received power products alpha * |h|^2 P: W and T are the per-codeword
    # lattice powers of pairs 2 and 1, G2 and G1 the Gaussian powers.
    if case == "I":
        W = w
        G2 = (v / w - 1.0) * (2.0 * W + 1.0)
        T = s * (G2 + 2.0 * W + 1.0)
        G1 = (u / s - 1.0) * (2.0 * T + G2 + 2.0 * W + 1.0)
    else:
        if case == "II":
            W = w
            T = s * (2.0 * W + 1.0)
        else:  # III: lattice sum of pair 2 is decoded before pair 1's
            T = s
            W = w * (2.0 * T + 1.0)
        den = 2.0 * T + 2.0 * W + 1.0
        G2 = (v / w - 1.0) * den
        # Both users' Gaussians are decoded as a MAC: the single-user and the
        # sum-rate constraints each demand a power; take the binding one.
        G1 = max(u / s - 1.0, (u * v) / (s * w) - v / w) * den

    alloc = UplinkAllocation(
        case=case,
        alpha_a1=(G1 / x1, T / x1),
        alpha_a2=(G2 / x3, W / x3),
        alpha_b1=T / x2,
        alpha_b2=W / x4,
        gaussian_rates=(r[0] - r[1], r[2] - r[3]),
        lattice_rates=(r[1], r[3]),
    )
    excess = alloc.budget_excess()
    if excess > TOL:
        raise AllocationInvalidError(
            f"uplink case {case} power budget exceeded by {excess:.3g} "
            f"(alphas A1={alloc.alpha_a1}, A2={alloc.alpha_a2}, "
            f"B1={alloc.alpha_b1:.6g}, B2={alloc.alpha_b2:.6g})"
        )
    return alloc


def uplink_rate_check(net: GaussNetwork, alloc: UplinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every decoding inequality of the allocation's case."""
    expected = classify_case(net.uplink, "uplink")
    if expected != alloc.case:
        raise ValueError(f"allocation is for case {alloc.case}, network classifies as {expected}")
    x1, x2, x3, x4 = _snrs(net.uplink, net.power)
    G1 = alloc.alpha_a1[0] * x1
    T = alloc.alpha_b1 * x2
    G2 = alloc.alpha_a2[0] * x3
    W = alloc.alpha_b2 * x4
    rg1, rg2 = alloc.gaussian_rates
    rl1, rl2 = alloc.lattice_rates
    C = awgn_capacity

    if alloc.case == "I":
        checks = (
            ConstraintCheck("decode x_A1 gaussian", rg1, C(G1 / (2 * T + G2 + 2 * W + 1.0))),
            ConstraintCheck("decode pair-1 lattice sum", rl1, lattice_rate_cap(T / (G2 + 2 * W + 1.0))),
            ConstraintCheck("decode x_A2 gaussian", rg2, C(G2 / (2 * W + 1.0))),
            ConstraintCheck("decode pair-2 lattice sum", rl2, lattice_rate_cap(W)),
        )
    else:
        den = 2 * T + 2 * W + 1.0
        mac = (
            ConstraintCheck("decode x_A1 gaussian (MAC)", rg1, C(G1 / den)),
            ConstraintCheck("decode x_A2 gaussian (MAC)", rg2, C(G2 / den)),
            ConstraintCheck("gaussian MAC sum", rg1 + rg2, C((G1 + G2) / den)),
        )
        if alloc.case == "II":
            checks = mac + (
                ConstraintCheck("decode pair-1 lattice sum", rl1, lattice_rate_cap(T / (2 * W + 1.0))),
                ConstraintCheck("decode pair-2 lattice sum", rl2, lattice_rate_cap(W)),
            )
        else:
            checks = mac + (
                ConstraintCheck("decode pair-2 lattice sum", rl2, lattice_rate_cap(W / (2 * T + 1.0))),
                ConstraintCheck("decode pair-1 lattice sum", rl1, lattice_rate_cap(T)),
            )
    return checks


# --- Downlink ----------------------------------------------------------------


@dataclass(frozen=True)
class DownlinkAllocation:
    """Relay power split over the four broadcast streams.

    Streams follow the case-normalized pair order: 1 = strong pair's solo
    stream, 2 = strong pair's shared stream, 3/4 = other pair.  When
    ``pairs_swapped`` is set, "strong pair" is the input's pair 2.
    """

    case: str
    alpha_r: tuple[float, float, float, float]
    stream_rates: tuple[float, float, float, float]
    pairs_swapped: bool

    def budget_excess(self) -> float:
        return max(sum(self.alpha_r) - 1.0, -min(self.alpha_r))


def downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    """Relay power split delivering the four streams at their rates.

    The case analysis assumes the pair with the stronger shared-stream
    receiver (the B side, after normalization) is pair 1; when the input
    has them the other way round the pairs are relabeled internally, which
    the pair-symmetric rate preconditions permit.
    """
    r, snr = _allocation_inputs("downlink", net, r)
    swapped = net.h_rb[1] > net.h_rb[0]
    r, mags, (b1, a1, b2, a2) = (_swap_pairs(q, swapped) for q in (r, net.downlink, snr))
    case = classify_case(mags, "downlink")

    u, s = 2.0 ** r[0], 2.0 ** r[1]
    v, w = 2.0 ** r[2], 2.0 ** r[3]

    # Minimal power for a stream of rate rho decoded at SNR g under
    # interference power fraction q: alpha >= (2^rho - 1) (1 + g q) / g,
    # maximized over every receiver that must decode the stream.
    p1 = (u / s - 1.0) / b1
    if case == "I":
        p2 = (s - 1.0) * max((1.0 + b1 * p1) / b1, 1.0 / a1)
        p3 = (v / w - 1.0) * (1.0 + b2 * (p1 + p2)) / b2
        p4 = (w - 1.0) * max(
            (1.0 + b2 * (p1 + p2 + p3)) / b2,
            (1.0 + a2 * (p1 + p2)) / a2,
        )
    elif case == "II":
        p3 = (v / w - 1.0) * (1.0 + b2 * p1) / b2
        p2 = (s - 1.0) * max((1.0 + a1 * p3) / a1, (1.0 + b2 * (p1 + p3)) / b2)
        p4 = (w - 1.0) * max(
            (1.0 + b2 * (p1 + p2 + p3)) / b2,
            (1.0 + a1 * (p2 + p3)) / a1,
            (1.0 + a2 * (p1 + p2)) / a2,
        )
    else:
        p3 = (v / w - 1.0) * (1.0 + b2 * p1) / b2
        p4 = (w - 1.0) * max((1.0 + a2 * p1) / a2, (1.0 + b2 * (p1 + p3)) / b2)
        p2 = (s - 1.0) * max(
            (1.0 + b2 * (p1 + p3 + p4)) / b2,
            (1.0 + a1 * (p3 + p4)) / a1,
            (1.0 + a2 * (p1 + p4)) / a2,
        )

    alloc = DownlinkAllocation(
        case=case,
        alpha_r=(p1, p2, p3, p4),
        stream_rates=(r[0] - r[1], r[1], r[2] - r[3], r[3]),
        pairs_swapped=swapped,
    )
    excess = alloc.budget_excess()
    if excess > TOL:
        raise AllocationInvalidError(
            f"downlink case {case} relay budget exceeded by {excess:.3g} (alphas {alloc.alpha_r})"
        )
    return alloc


def downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every broadcast decoding inequality of the allocation's case.

    Self-interference facts are baked into the interference sets: the
    strong pair's A node already knows stream 1, and the other pair's A
    node reconstructs its own solo stream 3.
    """
    mags, (b1, a1, b2, a2) = (
        _swap_pairs(q, alloc.pairs_swapped) for q in (net.downlink, _snrs(net.downlink, net.power))
    )
    if classify_case(mags, "downlink") != alloc.case:
        raise ValueError("allocation case does not match the network ordering")

    p1, p2, p3, p4 = alloc.alpha_r
    g1, shared1, g2, shared2 = alloc.stream_rates
    C = awgn_capacity

    if alloc.case == "I":
        checks = (
            ConstraintCheck(
                "pair-1 shared stream", shared1,
                min(C(b1 * p2 / (1 + b1 * p1)), C(a1 * p2)),
            ),
            ConstraintCheck(
                "pair-2 shared stream", shared2,
                min(
                    C(b2 * p4 / (1 + b2 * (p1 + p2 + p3))),
                    C(a2 * p4 / (1 + a2 * (p1 + p2))),
                ),
            ),
            ConstraintCheck("pair-1 solo stream", g1, C(b1 * p1)),
            ConstraintCheck("pair-2 solo stream", g2, C(b2 * p3 / (1 + b2 * (p1 + p2)))),
        )
    elif alloc.case == "II":
        checks = (
            ConstraintCheck(
                "pair-1 shared stream", shared1,
                min(C(a1 * p2 / (1 + a1 * p3)), C(b2 * p2 / (1 + b2 * (p1 + p3)))),
            ),
            ConstraintCheck(
                "pair-2 shared stream", shared2,
                min(
                    C(b2 * p4 / (1 + b2 * (p1 + p2 + p3))),
                    C(a1 * p4 / (1 + a1 * (p2 + p3))),
                    C(a2 * p4 / (1 + a2 * (p1 + p2))),
                ),
            ),
            ConstraintCheck("pair-1 solo stream", g1, C(b1 * p1)),
            ConstraintCheck("pair-2 solo stream", g2, C(b2 * p3 / (1 + b2 * p1))),
        )
    else:
        checks = (
            ConstraintCheck(
                "pair-1 shared stream", shared1,
                min(
                    C(b2 * p2 / (1 + b2 * (p1 + p3 + p4))),
                    C(a1 * p2 / (1 + a1 * (p3 + p4))),
                    C(a2 * p2 / (1 + a2 * (p1 + p4))),
                ),
            ),
            ConstraintCheck(
                "pair-2 shared stream", shared2,
                min(C(a2 * p4 / (1 + a2 * p1)), C(b2 * p4 / (1 + b2 * (p1 + p3)))),
            ),
            ConstraintCheck("pair-1 solo stream", g1, C(b1 * p1)),
            ConstraintCheck("pair-2 solo stream", g2, C(b2 * p3 / (1 + b2 * p1))),
        )
    return checks


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


def verify_constant_gap(net: GaussNetwork, rates: Sequence[float]) -> AchievabilityReport:
    """Check that R minus 2 bits per user is achievable by the lattice +
    superposition scheme whenever R sits in the restricted cut-set region
    with every component at least 2.

    Raises on inputs outside the hypothesis (components below 2, rates
    outside the region, SNRs below the proven side conditions); returns a
    report whose ``stage`` pinpoints any internal failure otherwise.
    """
    target = _rate_quad(rates)
    if any(x < 2.0 - TOL for x in target):
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {target}"
        )
    snrs = net.snrs()
    if min(snrs) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(
            f"|h|^2 P floor {min(snrs):.4g} below the proven threshold {MIN_PROVEN_SNR}"
        )
    normalized = reduce_orderings(net, target)  # raises InfeasibleRatesError when outside

    r = tuple(max(0.0, x - 2.0) for x in normalized.rates)
    hops = {"uplink": (None, ()), "downlink": (None, ())}
    stage, detail = "ok", ""
    for hop in hops:
        # Looked up at call time, so wrappers installed on the module see
        # every call.
        allocate, rate_check = globals()[f"{hop}_allocate"], globals()[f"{hop}_rate_check"]
        try:
            alloc = allocate(normalized.net, r)
            checks = rate_check(normalized.net, alloc)
        except (InfeasibleRatesError, LowPowerError, AllocationInvalidError) as exc:
            stage, detail = f"{hop}-allocation", str(exc)
            break
        hops[hop] = (alloc, checks)
        bad = [c.name for c in checks if c.slack < -TOL]
        if bad:
            stage, detail = f"{hop}-rate-check", ", ".join(bad)
            break

    (uplink, uplink_checks), (downlink, downlink_checks) = hops.values()
    return AchievabilityReport(
        net=net,
        target=target,
        backed_off=tuple(max(0.0, x - 2.0) for x in target),
        normalized=normalized,
        uplink=uplink,
        uplink_checks=uplink_checks,
        downlink=downlink,
        downlink_checks=downlink_checks,
        stage=stage,
        detail=detail,
    )


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


def _sampler_accepts(net: GaussNetwork) -> bool:
    """Every link clears the SNR floor and the 2-bit base point (2, 2, 2, 2)
    lies in the restricted region, compared exactly."""
    return min(net.snrs()) >= MIN_LINK_SNR and all(
        rhs >= 2.0 * len(sessions)
        for (_, sessions, _, _), rhs in zip(_FAMILIES, net._restricted_terms)
    )


def _sample_network(rng: np.random.Generator, cfg: SweepConfig, trial: int) -> GaussNetwork:
    """Log-uniform magnitudes and power, redrawn until `_sampler_accepts`
    the network, at most `MAX_SAMPLE_DRAWS` times."""
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    for _ in range(MAX_SAMPLE_DRAWS):
        h = np.exp(rng.uniform(lo_h, hi_h, size=8))
        p = float(np.exp(rng.uniform(lo_p, hi_p)))
        net = GaussNetwork(h[0:2], h[2:4], h[4:6], h[6:8], p)
        if _sampler_accepts(net):
            return net
    raise ValueError(
        f"trial {trial}: none of {MAX_SAMPLE_DRAWS} sampled networks met the SNR "
        "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
    )


def _sample_boundary_rates(rng: np.random.Generator, net: GaussNetwork) -> RateQuad:
    """A point of the restricted-region boundary at least 2 in every
    component: walk from (2,2,2,2) along a random non-negative direction to
    the nearest constraint, then retreat `BOUNDARY_NUDGE` bits."""
    while True:
        d = rng.random(4)
        if d.max() > 1e-9:
            break
    t_star = math.inf
    for (_, sessions, _, _), rhs in zip(_FAMILIES, net._restricted_terms):
        step = sum(d[s] for s in sessions)
        if step > 0:
            room = rhs - 2.0 * len(sessions)
            t_star = min(t_star, room / step)
    t = max(0.0, t_star - BOUNDARY_NUDGE / float(d.max()))
    return tuple(2.0 + t * float(x) for x in d)


def run_trial(cfg: SweepConfig, index: int) -> TrialRecord:
    """One deterministic trial; the sub-seed depends only on (seed, index),
    so trials run in any order or split yield identical records."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    net = _sample_network(rng, cfg, index)
    rates = _sample_boundary_rates(rng, net)
    report = verify_constant_gap(net, rates)
    gaps = restricted_bound_gaps(net)
    return TrialRecord(
        trial=index,
        net=net,
        rates=rates,
        achievable=report.achievable,
        stage=report.stage,
        max_alpha_excess=report.max_alpha_excess(),
        min_check_slack=report.min_check_slack(),
        bound_gap=max(gaps.values()),
    )


def monte_carlo_gap(cfg: SweepConfig) -> GapReport:
    """Sample (network, boundary rate tuple) pairs and verify the 2-bit
    back-off end to end; deterministic for a fixed seed."""
    records = tuple(run_trial(cfg, i) for i in range(cfg.trials))
    return GapReport(config=cfg, records=records)
