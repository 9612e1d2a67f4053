"""The Gaussian side one trial at a time, as the test reference.

One reference per computation, written out from the formulas on Python
floats: the two rate limits C(x) and (log2 x)+ (`awgn_capacity`,
`lattice_rate_cap`), the eight constraint families (`FAMILY_COEFS`,
`family_rhs`), both hops' rate preconditions (`PRECONDITIONS`), each hop's
power allocation and rate check case by case, each node's power budget,
the constant-gap cascade with its largest budget excess and smallest check
slack, and the sweep's sampler and boundary walk on numpy's own per-trial
generators.  The differential tests in `test_gaussian.py` require
`relaycap.gaussian` to reproduce every value here bit for bit, and every
exception with its text.

Nothing here reads `relaycap.gaussian`'s tables, private helpers or
functions, only its classes, exceptions and constants: a wrong table entry
or formula there then shows up as a difference, not as agreement with
itself.  `test_reference_reads_no_private_names` and
`test_reference_imports_no_function` keep it that way.
"""

import math
from typing import Sequence

import numpy as np

from relaycap.gaussian import (
    BOUNDARY_NUDGE,
    MAX_SAMPLE_DRAWS,
    MIN_LINK_SNR,
    MIN_PROVEN_SNR,
    TOL,
    AchievabilityReport,
    AllocationInvalidError,
    ConstraintCheck,
    DownlinkAllocation,
    GaussNetwork,
    InfeasibleRatesError,
    LowPowerError,
    NormalizedProblem,
    RateQuad,
    RegionVerdict,
    SweepConfig,
    UplinkAllocation,
)

# --- the rate limits -------------------------------------------------------


def awgn_capacity(x: float) -> float:
    """C(x) = log2(1 + x), the Gaussian codeword rate limit."""
    if x < 0:
        raise ValueError(f"capacity argument must be non-negative, got {x}")
    return math.log1p(x) / math.log(2.0)


def lattice_rate_cap(x: float) -> float:
    """(log2 x)+, the lattice decoding rate limit at effective SNR x."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)


# --- the constraint families -------------------------------------------------

# Each family's coefficient on the session rates (R_A1, R_B1, R_A2, R_B2).
FAMILY_COEFS = {
    "R_A1": (1, 0, 0, 0),
    "R_B1": (0, 1, 0, 0),
    "R_A2": (0, 0, 1, 0),
    "R_B2": (0, 0, 0, 1),
    "R_A1+R_A2": (1, 0, 1, 0),
    "R_B1+R_B2": (0, 1, 0, 1),
    "R_A1+R_B2": (1, 0, 0, 1),
    "R_B1+R_A2": (0, 1, 1, 0),
}
BASE_POINT = (2.0, 2.0, 2.0, 2.0)  # the 2-bit back-off every sweep rate clears


def family_sum(coefs: Sequence[int], values: Sequence[float]) -> float:
    """A family's sum of per-session values, added from 0 as sum() does."""
    return sum(c * x for c, x in zip(coefs, values))


def family_rhs(net: GaussNetwork, restricted: bool) -> dict[str, float]:
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


# --- the rate preconditions --------------------------------------------------

# Per hop, in checking order: each inequality's name, the sessions it sums
# and the bits it backs off.  A precondition is the hop's restricted family
# term less the back-off: a pair's uplink term adds the two sessions' |h|^2,
# its downlink term takes the larger one, as `family_rhs` does.
PRECONDITIONS = {
    "uplink": (
        ("r_A1 <= C(|h_A1R|^2 P) - 2", (0,), 2.0),
        ("r_B1 <= C(|h_B1R|^2 P) - 1", (1,), 1.0),
        ("r_A2 <= C(|h_A2R|^2 P) - 2", (2,), 2.0),
        ("r_B2 <= C(|h_B2R|^2 P) - 1", (3,), 1.0),
        ("r_A1 + r_A2 <= C((|h_A1R|^2+|h_A2R|^2) P) - 4", (0, 2), 4.0),
        ("r_A1 + r_B2 <= C((|h_A1R|^2+|h_B2R|^2) P) - 4", (0, 3), 4.0),
        ("r_B1 + r_B2 <= C((|h_B1R|^2+|h_B2R|^2) P) - 4", (1, 3), 4.0),
        ("r_B1 + r_A2 <= C((|h_B1R|^2+|h_A2R|^2) P) - 4", (1, 2), 4.0),
    ),
    "downlink": (
        ("r_A1 <= C(|h_RB1|^2 P) - 2", (0,), 2.0),
        ("r_B1 <= C(|h_RA1|^2 P) - 2", (1,), 2.0),
        ("r_A2 <= C(|h_RB2|^2 P) - 2", (2,), 2.0),
        ("r_B2 <= C(|h_RA2|^2 P) - 2", (3,), 2.0),
        ("r_A1 + r_A2 <= C(max(|h_RB1|^2,|h_RB2|^2) P) - 3", (0, 2), 3.0),
        ("r_A1 + r_B2 <= C(max(|h_RB1|^2,|h_RA2|^2) P) - 3", (0, 3), 3.0),
        ("r_B1 + r_B2 <= C(max(|h_RA1|^2,|h_RA2|^2) P) - 3", (1, 3), 3.0),
        ("r_B1 + r_A2 <= C(max(|h_RA1|^2,|h_RB2|^2) P) - 3", (1, 2), 3.0),
    ),
}


def reference_snrs(magnitudes: Sequence[float], power: float) -> tuple[float, ...]:
    """|h|^2 P of each magnitude of a session 4-tuple."""
    return tuple(h * h * power for h in magnitudes)


def reference_link_snrs(net: GaussNetwork) -> tuple[float, ...]:
    """|h|^2 P of all eight links: the uplink's four, then the downlink's."""
    return reference_snrs(net.uplink, net.power) + reference_snrs(net.downlink, net.power)


def reference_precondition_rhs(net: GaussNetwork, direction: str) -> list[tuple[str, tuple[int, ...], float]]:
    """Each precondition of the hop, in checking order: its name, sessions
    and right-hand side."""
    mags, p = (net.uplink if direction == "uplink" else net.downlink), net.power

    def term(sessions: tuple[int, ...]) -> float:
        if len(sessions) == 1:
            x = mags[sessions[0]]
            return awgn_capacity(x * x * p)
        x, y = (mags[k] for k in sessions)
        if direction == "uplink":
            return awgn_capacity((x * x + y * y) * p)
        return awgn_capacity(max(x * x, y * y) * p)

    return [(name, sessions, term(sessions) - backoff) for name, sessions, backoff in PRECONDITIONS[direction]]


def reference_require_preconditions(direction: str, net: GaussNetwork, r: RateQuad) -> None:
    """Raise `InfeasibleRatesError` for the hop's first failed precondition."""
    for name, sessions, rhs in reference_precondition_rhs(net, direction):
        lhs = sum(r[i] for i in sessions)
        if lhs > rhs + TOL:
            raise InfeasibleRatesError(name, f"lhs={lhs:.6g}, rhs={rhs:.6g}")


# --- regions and normalisation -----------------------------------------------


def reference_rate_quad(rates: Sequence[float]) -> RateQuad:
    """The four session rates as floats: finite, and none below -TOL."""
    r = tuple(float(x) for x in rates)
    if len(r) != 4:
        raise ValueError(f"expected 4 rate components, got {len(r)}")
    if not all(-TOL <= x < math.inf for x in r):
        raise ValueError(f"rates must be finite and non-negative, got {r}")
    return r


def reference_region_verdict(net: GaussNetwork, rates: Sequence[float], restricted: bool) -> RegionVerdict:
    r = reference_rate_quad(rates)
    rhs = family_rhs(net, restricted)
    checks = tuple(ConstraintCheck(name, family_sum(coefs, r), rhs[name]) for name, coefs in FAMILY_COEFS.items())
    return RegionVerdict(all(c.slack >= -TOL for c in checks), checks)


def reference_restricted_bound_gaps(net: GaussNetwork) -> dict[str, float]:
    general, restricted = family_rhs(net, False), family_rhs(net, True)
    gaps = {name: general[name] - restricted[name] for name in FAMILY_COEFS}
    bad = {n: g for n, g in gaps.items() if g < -TOL or g > 1.0 + TOL}
    if bad:
        raise AssertionError(f"gap outside [0, 1]: {bad}")
    return gaps


def reference_swap_pairs(q: Sequence, swapped: bool) -> tuple:
    """A session 4-tuple with pair 1 and pair 2 exchanged when ``swapped``."""
    return (q[2], q[3], q[0], q[1]) if swapped else tuple(q)


def reference_reduce_orderings(net: GaussNetwork, rates: Sequence[float]) -> NormalizedProblem:
    verdict = reference_region_verdict(net, rates, restricted=True)
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
    up, down, quad = (reference_swap_pairs(q, pairs_swapped) for q in (up, down, r))

    out = GaussNetwork(
        (up[0], up[2]), (up[1], up[3]), (down[1], down[3]), (down[0], down[2]), net.power
    )
    post = reference_region_verdict(out, quad, restricted=True)
    if not post:
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({[c.name for c in post.violated()]})"
        )
    return NormalizedProblem(out, quad, tuple(side_swapped), pairs_swapped, tuple(clamped))


def reference_classify_case(magnitudes: Sequence[float], direction: str) -> str:
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


# --- the two hops, case by case ----------------------------------------------


def reference_allocation_inputs(direction: str, net: GaussNetwork, rates: Sequence[float]):
    """The checked rates and the hop's |h|^2 P, once the rates are pair-
    normalised, the SNR floor holds and every precondition of the hop holds."""
    r = reference_rate_quad(rates)
    if r[1] > r[0] + TOL or r[3] > r[2] + TOL:
        raise ValueError(f"rates {r} not normalized: each pair needs r_A >= r_B")
    snr = reference_snrs(net.uplink if direction == "uplink" else net.downlink, net.power)
    if min(snr) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(f"{direction} |h|^2 P floor {min(snr):.4g} below {MIN_PROVEN_SNR}")
    reference_require_preconditions(direction, net, r)
    return r, snr


def reference_budget_excess(alloc: UplinkAllocation | DownlinkAllocation) -> float:
    """How far any node's power budget is exceeded (<= 0 when valid): each
    node's fractions sum to at most 1 -- A_i's Gaussian and lattice
    fractions, B_i's lattice fraction, the relay's four stream fractions --
    and every fraction is at least 0."""
    if isinstance(alloc, UplinkAllocation):
        nodes = (alloc.alpha_a1, alloc.alpha_a2, (alloc.alpha_b1,), (alloc.alpha_b2,))
    else:
        nodes = (alloc.alpha_r,)
    return max(max(sum(fractions) - 1.0 for fractions in nodes), -min(a for fractions in nodes for a in fractions))


def reference_uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    """Power splits letting the relay decode both Gaussian codewords and
    both lattice sums at the component rates implied by ``r``.

    Walks the successive-cancellation chain of the classified case from the
    bottom: each stream gets exactly the receive power that makes its
    decoding inequality an equality given the streams still undecoded
    beneath it.  Lattice partners then mirror powers through the alignment
    rule so each pair's lattice codewords arrive level.
    """
    r, (x1, x2, x3, x4) = reference_allocation_inputs("uplink", net, r)
    case = reference_classify_case(net.uplink, "uplink")
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
    excess = reference_budget_excess(alloc)
    if excess > TOL:
        raise AllocationInvalidError(
            f"uplink case {case} power budget exceeded by {excess:.3g} "
            f"(alphas A1={alloc.alpha_a1}, A2={alloc.alpha_a2}, "
            f"B1={alloc.alpha_b1:.6g}, B2={alloc.alpha_b2:.6g})"
        )
    return alloc


def reference_uplink_rate_check(net: GaussNetwork, alloc: UplinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every decoding inequality of the allocation's case."""
    expected = reference_classify_case(net.uplink, "uplink")
    if expected != alloc.case:
        raise ValueError(f"allocation is for case {alloc.case}, network classifies as {expected}")
    x1, x2, x3, x4 = reference_snrs(net.uplink, net.power)
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


def reference_downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    """Relay power split delivering the four streams at their rates.

    The case analysis assumes the pair with the stronger shared-stream
    receiver (the B side, after normalization) is pair 1; when the input
    has them the other way round the pairs are relabeled internally, which
    the pair-symmetric rate preconditions permit.
    """
    r, snr = reference_allocation_inputs("downlink", net, r)
    swapped = net.h_rb[1] > net.h_rb[0]
    r, mags, (b1, a1, b2, a2) = (reference_swap_pairs(q, swapped) for q in (r, net.downlink, snr))
    case = reference_classify_case(mags, "downlink")

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
    excess = reference_budget_excess(alloc)
    if excess > TOL:
        raise AllocationInvalidError(
            f"downlink case {case} relay budget exceeded by {excess:.3g} (alphas {alloc.alpha_r})"
        )
    return alloc


def reference_downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every broadcast decoding inequality of the allocation's case.

    Self-interference facts are baked into the interference sets: the
    strong pair's A node already knows stream 1, and the other pair's A
    node reconstructs its own solo stream 3.
    """
    mags, (b1, a1, b2, a2) = (
        reference_swap_pairs(q, alloc.pairs_swapped) for q in (net.downlink, reference_snrs(net.downlink, net.power))
    )
    if reference_classify_case(mags, "downlink") != alloc.case:
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


# --- the constant-gap cascade ------------------------------------------------


def reference_verify_constant_gap(net: GaussNetwork, rates: Sequence[float]) -> AchievabilityReport:
    target = reference_rate_quad(rates)
    if any(x < 2.0 - TOL for x in target):
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {target}"
        )
    snrs = reference_link_snrs(net)
    if min(snrs) < MIN_PROVEN_SNR - TOL:
        raise LowPowerError(
            f"|h|^2 P floor {min(snrs):.4g} below the proven threshold {MIN_PROVEN_SNR}"
        )
    normalized = reference_reduce_orderings(net, target)  # raises InfeasibleRatesError when outside

    r = tuple(max(0.0, x - 2.0) for x in normalized.rates)
    hops = {"uplink": (None, ()), "downlink": (None, ())}
    stage, detail = "ok", ""
    for hop, allocate, rate_check in (
        ("uplink", reference_uplink_allocate, reference_uplink_rate_check),
        ("downlink", reference_downlink_allocate, reference_downlink_rate_check),
    ):
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
        # The largest budget excess over the allocations, 0 at least; the
        # smallest slack over both hops' rate checks, inf with none.
        max_alpha_excess=max([0.0] + [reference_budget_excess(a) for a in (uplink, downlink) if a is not None]),
        min_check_slack=min((c.slack for c in uplink_checks + downlink_checks), default=math.inf),
    )


# --- the sweep ---------------------------------------------------------------


def reference_sampler_accepts(net: GaussNetwork) -> bool:
    """Every link clears the SNR floor and the base point lies in the
    restricted region, compared exactly."""
    rhs = family_rhs(net, True)
    return min(reference_link_snrs(net)) >= MIN_LINK_SNR and all(
        rhs[name] >= family_sum(coefs, BASE_POINT) for name, coefs in FAMILY_COEFS.items()
    )


def reference_sample_network(rng: np.random.Generator, cfg: SweepConfig, trial: int) -> GaussNetwork:
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    for _ in range(MAX_SAMPLE_DRAWS):
        h = np.exp(rng.uniform(lo_h, hi_h, size=8)).tolist()
        p = float(np.exp(rng.uniform(lo_p, hi_p)))
        net = GaussNetwork(h[0:2], h[2:4], h[4:6], h[6:8], p)
        if reference_sampler_accepts(net):
            return net
    raise ValueError(
        f"trial {trial}: none of {MAX_SAMPLE_DRAWS} sampled networks met the SNR "
        "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
    )


def reference_sample_boundary_rates(rng: np.random.Generator, net: GaussNetwork) -> RateQuad:
    """Draw a non-negative direction d until some entry exceeds 1e-9, walk
    from the base point along it to the nearest restricted family, and
    retreat `BOUNDARY_NUDGE` bits."""
    while True:
        d = rng.random(4)
        if d.max() > 1e-9:
            break
    t_star = math.inf
    rhs = family_rhs(net, True)
    for name, coefs in FAMILY_COEFS.items():
        step = family_sum(coefs, d)
        if step > 0:
            room = rhs[name] - family_sum(coefs, BASE_POINT)
            t_star = min(t_star, room / step)
    t = max(0.0, t_star - BOUNDARY_NUDGE / float(d.max()))
    return tuple(2.0 + t * float(x) for x in d)


def reference_run_trial(cfg: SweepConfig, index: int) -> tuple:
    """Trial ``index`` of the sweep as one row, in `SweepColumns` field order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    net = reference_sample_network(rng, cfg, index)
    rates = reference_sample_boundary_rates(rng, net)
    report = reference_verify_constant_gap(net, rates)
    gaps = reference_restricted_bound_gaps(net)
    return (
        index, net.h_ar[0], net.h_br[0], net.h_ar[1], net.h_br[1], net.h_ra[0], net.h_rb[0], net.h_ra[1], net.h_rb[1],
        net.power, *rates, report.stage, report.max_alpha_excess, report.min_check_slack, max(gaps.values()),
    )
