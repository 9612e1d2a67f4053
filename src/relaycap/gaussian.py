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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LN2 = math.log(2.0)

TOL = 1e-9  # absolute slack tolerance on all rate and power comparisons

MIN_PROVEN_SNR = 2.5  # every |h|^2 P must clear this for the splits to be proven valid

# Sweep sampling: every link SNR of a sampled network clears MIN_LINK_SNR,
# and boundary rates retreat BOUNDARY_NUDGE bits into the region.
MIN_LINK_SNR = max(4.0, MIN_PROVEN_SNR)
BOUNDARY_NUDGE = 1e-6


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


RateQuad = tuple[float, float, float, float]  # (R_A1, R_B1, R_A2, R_B2)

# Constraint-family coefficient rows over (R_A1, R_B1, R_A2, R_B2).
_FAMILY_COEFS = {
    "R_A1": (1, 0, 0, 0),
    "R_B1": (0, 1, 0, 0),
    "R_A2": (0, 0, 1, 0),
    "R_B2": (0, 0, 0, 1),
    "R_A1+R_A2": (1, 0, 1, 0),
    "R_B1+R_B2": (0, 1, 0, 1),
    "R_A1+R_B2": (1, 0, 0, 1),
    "R_B1+R_A2": (0, 1, 1, 0),
}


def _family_rhs(net: GaussNetwork, restricted: bool) -> dict[str, float]:
    """RHS of each constraint family: min(uplink term, downlink term).

    The general sum families use amplitude sums on the uplink and power
    sums on the downlink; the restricted families replace those with power
    sums and maxima respectively.
    """
    (a1, a2), (b1, b2) = net.h_ar, net.h_br
    (ra1, ra2), (rb1, rb2) = net.h_ra, net.h_rb
    p = net.power
    C = awgn_capacity

    def up(x: float, y: float) -> float:
        if restricted:
            return C((x * x + y * y) * p)
        return C((x + y) ** 2 * p)

    def down(x: float, y: float) -> float:
        if restricted:
            return C(max(x * x, y * y) * p)
        return C((x * x + y * y) * p)

    return {
        "R_A1": min(C(a1 * a1 * p), C(rb1 * rb1 * p)),
        "R_B1": min(C(b1 * b1 * p), C(ra1 * ra1 * p)),
        "R_A2": min(C(a2 * a2 * p), C(rb2 * rb2 * p)),
        "R_B2": min(C(b2 * b2 * p), C(ra2 * ra2 * p)),
        "R_A1+R_A2": min(up(a1, a2), down(rb1, rb2)),
        "R_B1+R_B2": min(up(b1, b2), down(ra1, ra2)),
        "R_A1+R_B2": min(up(a1, b2), down(rb1, ra2)),
        "R_B1+R_A2": min(up(b1, a2), down(ra1, rb2)),
    }


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
    if len(rates) != 4:
        raise ValueError(f"expected 4 rate components, got {len(rates)}")
    if any(r < -TOL for r in rates):
        raise ValueError(f"rates must be non-negative, got {tuple(rates)}")
    rhs = _family_rhs(net, restricted)
    checks = []
    for name, coefs in _FAMILY_COEFS.items():
        lhs = sum(c * r for c, r in zip(coefs, rates))
        checks.append(ConstraintCheck(name, lhs, rhs[name]))
    checks_t = tuple(checks)
    return RegionVerdict(all(c.slack >= -TOL for c in checks_t), checks_t)


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
    gen = _family_rhs(net, restricted=False)
    res = _family_rhs(net, restricted=True)
    gaps = {name: gen[name] - res[name] for name in _FAMILY_COEFS}
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

    h_ar, h_br = list(net.h_ar), list(net.h_br)
    h_ra, h_rb = list(net.h_ra), list(net.h_rb)
    r = list(float(x) for x in rates)

    side_swapped = []
    for i in range(2):
        swap = r[2 * i + 1] > r[2 * i]
        side_swapped.append(swap)
        if swap:
            h_ar[i], h_br[i] = h_br[i], h_ar[i]
            h_ra[i], h_rb[i] = h_rb[i], h_ra[i]
            r[2 * i], r[2 * i + 1] = r[2 * i + 1], r[2 * i]

    clamped = []
    for i in range(2):
        if h_br[i] > h_ar[i]:
            h_br[i] = h_ar[i]
            clamped.append(f"h_br[{i}]")
        if h_ra[i] > h_rb[i]:
            h_ra[i] = h_rb[i]
            clamped.append(f"h_ra[{i}]")

    pairs_swapped = h_ar[1] > h_ar[0]
    if pairs_swapped:
        for arr in (h_ar, h_br, h_ra, h_rb):
            arr.reverse()
        r = [r[2], r[3], r[0], r[1]]

    out = GaussNetwork(tuple(h_ar), tuple(h_br), tuple(h_ra), tuple(h_rb), net.power)
    quad = (r[0], r[1], r[2], r[3])
    post = gauss_restricted_cutset(out, quad)
    if not post:
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({[c.name for c in post.violated()]})"
        )
    return NormalizedProblem(out, quad, tuple(side_swapped), pairs_swapped, tuple(clamped))


def classify_case(magnitudes: Sequence[float], direction: str) -> str:
    """Configuration tag for one hop.

    ``magnitudes`` is the role-ordered quadruple (strong1, weak1, strong2,
    weak2): for the uplink (|h_A1R|, |h_B1R|, |h_A2R|, |h_B2R|), for the
    downlink (|h_RB1|, |h_RA1|, |h_RB2|, |h_RA2|).  Requires the
    normalized ordering strong_i >= weak_i and strong1 >= strong2.  Ties
    resolve to the lowest-numbered case.
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


_UPLINK_RATE_PRECONDITIONS = (
    ("r_A1 <= C(|h_A1R|^2 P) - 2", (0,), ("x1",), 2.0),
    ("r_B1 <= C(|h_B1R|^2 P) - 1", (1,), ("x2",), 1.0),
    ("r_A2 <= C(|h_A2R|^2 P) - 2", (2,), ("x3",), 2.0),
    ("r_B2 <= C(|h_B2R|^2 P) - 1", (3,), ("x4",), 1.0),
    ("r_A1 + r_A2 <= C((|h_A1R|^2+|h_A2R|^2) P) - 4", (0, 2), ("x1", "x3"), 4.0),
    ("r_A1 + r_B2 <= C((|h_A1R|^2+|h_B2R|^2) P) - 4", (0, 3), ("x1", "x4"), 4.0),
    ("r_B1 + r_B2 <= C((|h_B1R|^2+|h_B2R|^2) P) - 4", (1, 3), ("x2", "x4"), 4.0),
    ("r_B1 + r_A2 <= C((|h_B1R|^2+|h_A2R|^2) P) - 4", (1, 2), ("x2", "x3"), 4.0),
)


def _uplink_snrs(net: GaussNetwork) -> dict[str, float]:
    p = net.power
    return {
        "x1": net.h_ar[0] ** 2 * p,
        "x2": net.h_br[0] ** 2 * p,
        "x3": net.h_ar[1] ** 2 * p,
        "x4": net.h_br[1] ** 2 * p,
    }


def _check_uplink_preconditions(net: GaussNetwork, r: RateQuad) -> None:
    snr = _uplink_snrs(net)
    for name, idx, keys, slack in _UPLINK_RATE_PRECONDITIONS:
        lhs = sum(r[i] for i in idx)
        rhs = awgn_capacity(sum(snr[k] for k in keys)) - slack
        if lhs > rhs + TOL:
            raise InfeasibleRatesError(name, f"lhs={lhs:.6g}, rhs={rhs:.6g}")


def _require_normalized_rates(r: RateQuad) -> None:
    if r[1] > r[0] + TOL or r[3] > r[2] + TOL:
        raise ValueError(f"rates {r} not normalized: each pair needs r_A >= r_B")
    if any(x < -TOL for x in r):
        raise ValueError(f"rates must be non-negative, got {r}")


def uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    """Power splits letting the relay decode both Gaussian codewords and
    both lattice sums at the component rates implied by ``r``.

    Walks the successive-cancellation chain of the classified case from the
    bottom: each stream gets exactly the receive power that makes its
    decoding inequality an equality given the streams still undecoded
    beneath it.  Lattice partners then mirror powers through the alignment
    rule so each pair's lattice codewords arrive level.
    """
    r = tuple(float(x) for x in r)
    _require_normalized_rates(r)
    snr = _uplink_snrs(net)
    if min(snr.values()) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(
            f"uplink |h|^2 P floor {min(snr.values()):.4g} below {MIN_PROVEN_SNR}"
        )
    _check_uplink_preconditions(net, r)

    case = classify_case((net.h_ar[0], net.h_br[0], net.h_ar[1], net.h_br[1]), "uplink")
    x1, x2, x3, x4 = snr["x1"], snr["x2"], snr["x3"], snr["x4"]
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
    expected = classify_case((net.h_ar[0], net.h_br[0], net.h_ar[1], net.h_br[1]), "uplink")
    if expected != alloc.case:
        raise ValueError(f"allocation is for case {alloc.case}, network classifies as {expected}")
    snr = _uplink_snrs(net)
    G1 = alloc.alpha_a1[0] * snr["x1"]
    T = alloc.alpha_b1 * snr["x2"]
    G2 = alloc.alpha_a2[0] * snr["x3"]
    W = alloc.alpha_b2 * snr["x4"]
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


_DOWNLINK_RATE_PRECONDITIONS = (
    ("r_A1 <= C(|h_RB1|^2 P) - 2", (0,), ("rb1",), 2.0),
    ("r_B1 <= C(|h_RA1|^2 P) - 2", (1,), ("ra1",), 2.0),
    ("r_A2 <= C(|h_RB2|^2 P) - 2", (2,), ("rb2",), 2.0),
    ("r_B2 <= C(|h_RA2|^2 P) - 2", (3,), ("ra2",), 2.0),
    ("r_A1 + r_A2 <= C(max(|h_RB1|^2,|h_RB2|^2) P) - 3", (0, 2), ("rb1", "rb2"), 3.0),
    ("r_A1 + r_B2 <= C(max(|h_RB1|^2,|h_RA2|^2) P) - 3", (0, 3), ("rb1", "ra2"), 3.0),
    ("r_B1 + r_B2 <= C(max(|h_RA1|^2,|h_RA2|^2) P) - 3", (1, 3), ("ra1", "ra2"), 3.0),
    ("r_B1 + r_A2 <= C(max(|h_RA1|^2,|h_RB2|^2) P) - 3", (1, 2), ("ra1", "rb2"), 3.0),
)


def _downlink_snrs(net: GaussNetwork) -> dict[str, float]:
    p = net.power
    return {
        "ra1": net.h_ra[0] ** 2 * p,
        "rb1": net.h_rb[0] ** 2 * p,
        "ra2": net.h_ra[1] ** 2 * p,
        "rb2": net.h_rb[1] ** 2 * p,
    }


def _check_downlink_preconditions(net: GaussNetwork, r: RateQuad) -> None:
    snr = _downlink_snrs(net)
    for name, idx, keys, slack in _DOWNLINK_RATE_PRECONDITIONS:
        lhs = sum(r[i] for i in idx)
        rhs = awgn_capacity(max(snr[k] for k in keys)) - slack
        if lhs > rhs + TOL:
            raise InfeasibleRatesError(name, f"lhs={lhs:.6g}, rhs={rhs:.6g}")


def downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    """Relay power split delivering the four streams at their rates.

    The case analysis assumes the pair with the stronger shared-stream
    receiver (the B side, after normalization) is pair 1; when the input
    has them the other way round the pairs are relabeled internally, which
    the pair-symmetric rate preconditions permit.
    """
    r = tuple(float(x) for x in r)
    _require_normalized_rates(r)
    snr = _downlink_snrs(net)
    if min(snr.values()) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(
            f"downlink |h|^2 P floor {min(snr.values()):.4g} below {MIN_PROVEN_SNR}"
        )
    _check_downlink_preconditions(net, r)

    swapped = net.h_rb[1] > net.h_rb[0]
    if swapped:
        b1, a1, b2, a2 = snr["rb2"], snr["ra2"], snr["rb1"], snr["ra1"]
        r = (r[2], r[3], r[0], r[1])
        mags = (net.h_rb[1], net.h_ra[1], net.h_rb[0], net.h_ra[0])
    else:
        b1, a1, b2, a2 = snr["rb1"], snr["ra1"], snr["rb2"], snr["ra2"]
        mags = (net.h_rb[0], net.h_ra[0], net.h_rb[1], net.h_ra[1])
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
    snr = _downlink_snrs(net)
    if alloc.pairs_swapped:
        b1, a1, b2, a2 = snr["rb2"], snr["ra2"], snr["rb1"], snr["ra1"]
        mags = (net.h_rb[1], net.h_ra[1], net.h_rb[0], net.h_ra[0])
    else:
        b1, a1, b2, a2 = snr["rb1"], snr["ra1"], snr["rb2"], snr["ra2"]
        mags = (net.h_rb[0], net.h_ra[0], net.h_rb[1], net.h_ra[1])
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
        vals = [0.0]
        if self.uplink is not None:
            vals.append(self.uplink.budget_excess())
        if self.downlink is not None:
            vals.append(self.downlink.budget_excess())
        return max(vals)

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
    target = tuple(float(x) for x in rates)
    if len(target) != 4:
        raise ValueError(f"expected 4 rate components, got {len(target)}")
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
    uplink = None
    uplink_checks: tuple[ConstraintCheck, ...] = ()
    downlink = None
    downlink_checks: tuple[ConstraintCheck, ...] = ()
    stage, detail = "ok", ""

    try:
        uplink = uplink_allocate(normalized.net, r)
        uplink_checks = uplink_rate_check(normalized.net, uplink)
        if any(c.slack < -TOL for c in uplink_checks):
            bad = [c.name for c in uplink_checks if c.slack < -TOL]
            stage, detail = "uplink-rate-check", ", ".join(bad)
    except (InfeasibleRatesError, LowPowerError, AllocationInvalidError) as exc:
        stage, detail = "uplink-allocation", str(exc)

    if stage == "ok":
        try:
            downlink = downlink_allocate(normalized.net, r)
            downlink_checks = downlink_rate_check(normalized.net, downlink)
            if any(c.slack < -TOL for c in downlink_checks):
                bad = [c.name for c in downlink_checks if c.slack < -TOL]
                stage, detail = "downlink-rate-check", ", ".join(bad)
        except (InfeasibleRatesError, LowPowerError, AllocationInvalidError) as exc:
            stage, detail = "downlink-allocation", str(exc)

    return AchievabilityReport(
        net=net,
        target=(target[0], target[1], target[2], target[3]),
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
        if self.h_max**2 * self.p_max < MIN_LINK_SNR:
            raise ValueError(
                "ranges cannot satisfy the side conditions: "
                f"max |h|^2 P = {self.h_max ** 2 * self.p_max:.4g}"
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


_BASE = (2.0, 2.0, 2.0, 2.0)


def _sample_network(rng: np.random.Generator, cfg: SweepConfig) -> GaussNetwork:
    """Log-uniform magnitudes and power, redrawn until every link clears the
    SNR floor and the 2-bit base point fits in the restricted region."""
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    while True:
        h = np.exp(rng.uniform(lo_h, hi_h, size=8))
        p = float(np.exp(rng.uniform(lo_p, hi_p)))
        net = GaussNetwork(
            (float(h[0]), float(h[1])),
            (float(h[2]), float(h[3])),
            (float(h[4]), float(h[5])),
            (float(h[6]), float(h[7])),
            p,
        )
        if min(net.snrs()) < MIN_LINK_SNR:
            continue
        rhs = _family_rhs(net, restricted=True)
        base_ok = all(
            rhs[name] >= sum(c * b for c, b in zip(coefs, _BASE))
            for name, coefs in _FAMILY_COEFS.items()
        )
        if base_ok:
            return net


def _sample_boundary_rates(rng: np.random.Generator, net: GaussNetwork) -> RateQuad:
    """A point of the restricted-region boundary at least 2 in every
    component: walk from (2,2,2,2) along a random non-negative direction to
    the nearest constraint, then retreat `BOUNDARY_NUDGE` bits."""
    rhs = _family_rhs(net, restricted=True)
    while True:
        d = rng.random(4)
        if d.max() > 1e-9:
            break
    t_star = math.inf
    for name, coefs in _FAMILY_COEFS.items():
        step = sum(c * x for c, x in zip(coefs, d))
        if step > 0:
            room = rhs[name] - sum(c * b for c, b in zip(coefs, _BASE))
            t_star = min(t_star, room / step)
    t = max(0.0, t_star - BOUNDARY_NUDGE / float(d.max()))
    return tuple(2.0 + t * float(x) for x in d)


def run_trial(cfg: SweepConfig, index: int) -> TrialRecord:
    """One deterministic trial; the sub-seed depends only on (seed, index),
    so trials run in any order or split yield identical records."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    net = _sample_network(rng, cfg)
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
