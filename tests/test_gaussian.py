import math
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relaycap import (
    AllocationInvalidError,
    GaussNetwork,
    InfeasibleRatesError,
    LowPowerError,
    SweepConfig,
    awgn_capacity,
    restricted_bound_gaps,
    classify_case,
    downlink_allocate,
    downlink_rate_check,
    gauss_cutset,
    gauss_restricted_cutset,
    lattice_rate_cap,
    monte_carlo_gap,
    reduce_orderings,
    uplink_allocate,
    uplink_rate_check,
    verify_constant_gap,
)
from relaycap import gaussian
from relaycap.gaussian import (
    MIN_LINK_SNR,
    TOL,
    AchievabilityReport,
    ConstraintCheck,
    DownlinkAllocation,
    NormalizedProblem,
    RateQuad,
    RegionVerdict,
    TrialRecord,
    UplinkAllocation,
    run_trial,
)


# --- reference: the constraint families as written out family by family ------
# Kept verbatim from before the session-ordered family table; the
# differential test below requires the table to reproduce every verdict,
# check, precondition and first failing name exactly.

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



def snr_net(x: float) -> GaussNetwork:
    """Network with |h|^2 P = x on every link."""
    h = math.sqrt(x)
    return GaussNetwork((h, h), (h, h), (h, h), (h, h), 1.0)


def random_feasible_rates(rng, net):
    """A rate quad inside both hop polytopes, pair-normalized (r_A >= r_B)."""
    C = awgn_capacity
    up, dn = _uplink_snrs(net), _downlink_snrs(net)
    caps = [
        min(C(up["x1"]) - 2, C(dn["rb1"]) - 2),
        min(C(up["x2"]) - 1, C(dn["ra1"]) - 2),
        min(C(up["x3"]) - 2, C(dn["rb2"]) - 2),
        min(C(up["x4"]) - 1, C(dn["ra2"]) - 2),
    ]
    if min(caps) < 0:
        return None
    for _ in range(60):
        r_a1 = rng.uniform(0, caps[0])
        r_b1 = rng.uniform(0, min(caps[1], r_a1))
        r_a2 = rng.uniform(0, caps[2])
        r_b2 = rng.uniform(0, min(caps[3], r_a2))
        r = (r_a1, r_b1, r_a2, r_b2)
        ok = (
            r[0] + r[2] <= C(up["x1"] + up["x3"]) - 4
            and r[0] + r[3] <= C(up["x1"] + up["x4"]) - 4
            and r[1] + r[3] <= C(up["x2"] + up["x4"]) - 4
            and r[1] + r[2] <= C(up["x2"] + up["x3"]) - 4
            and r[0] + r[2] <= C(max(dn["rb1"], dn["rb2"])) - 3
            and r[0] + r[3] <= C(max(dn["rb1"], dn["ra2"])) - 3
            and r[1] + r[3] <= C(max(dn["ra1"], dn["ra2"])) - 3
            and r[1] + r[2] <= C(max(dn["ra1"], dn["rb2"])) - 3
        )
        if ok:
            return r
    return None


def random_normalized_net(rng, h_lo=1.0, h_hi=100.0, p_hi=100.0, floor=4.0):
    while True:
        h = np.exp(rng.uniform(np.log(h_lo), np.log(h_hi), size=8))
        p = float(np.exp(rng.uniform(0.0, np.log(p_hi))))
        if (h**2 * p).min() < floor:
            continue
        ups = sorted(
            [(max(h[0], h[2]), min(h[0], h[2])), (max(h[1], h[3]), min(h[1], h[3]))],
            key=lambda t: -t[0],
        )
        downs = [(max(h[4], h[6]), min(h[4], h[6])), (max(h[5], h[7]), min(h[5], h[7]))]
        return GaussNetwork(
            (ups[0][0], ups[1][0]),
            (ups[0][1], ups[1][1]),
            (downs[0][1], downs[1][1]),
            (downs[0][0], downs[1][0]),
            p,
        )


# --- network validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("16", (2, 2), (2, 2), (2, 2), 1.0),  # once read as the magnitudes (1.0, 6.0)
        ((2, 2), (2, 2), (2, 2), (2, 2), True),  # once read as power 1.0
        ((2, 2), (True, 2.0), (2, 2), (2, 2), 1.0),
        ((2, 2), (2, 2), ("2", "2"), (2, 2), 1.0),
        ((2, 2), (2, 2), (2, 2), (2, np.bool_(True)), 1.0),
        ((2, 2), (2, 2), (2, 2), (2, 2), "1"),
        (16.0, (2, 2), (2, 2), (2, 2), 1.0),
        ((2, 2), (2, 2), (2, 2), 3, 1.0),
    ],
)
def test_network_rejects_strings_and_booleans(args):
    with pytest.raises(ValueError, match="not a real number"):
        GaussNetwork(*args)


def test_network_accepts_ints_and_numpy_floats():
    net = GaussNetwork((np.float64(2.5), 3), (np.float32(2.0), np.int64(2)), (2, 2), (2, 2), np.float64(4.0))
    assert net == GaussNetwork((2.5, 3.0), (2.0, 2.0), (2.0, 2.0), (2.0, 2.0), 4.0)
    assert all(type(v) is float for v in (*net.h_ar, *net.h_br, net.power))


@pytest.mark.parametrize(
    "h,power",
    [(1e160, 1.0), (7e153, 1.0), (1e150, 1e10), (1.0, 1e308), (1e308, 1e-300)],
)
def test_network_refuses_magnitudes_whose_squares_overflow(h, power):
    # `x ** 2` raises OverflowError where `x * x` gives inf, so a network
    # whose (2 max|h|)^2 P is not a finite float is refused up front.
    with pytest.raises(ValueError, match="overflows"):
        GaussNetwork((h, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), power)


def test_network_squares_finite_below_the_overflow_bound():
    h = 6e153  # (2h)^2 = 1.44e308, just under the largest float
    net = GaussNetwork((h, h), (h, h), (h, h), (h, h), 1.0)
    for verdict in (gauss_cutset(net, (0, 0, 0, 0)), gauss_restricted_cutset(net, (0, 0, 0, 0))):
        assert verdict.inside and all(math.isfinite(c.rhs) for c in verdict.checks)
    assert all(math.isfinite(g) for g in restricted_bound_gaps(net).values())
    assert all(math.isfinite(x) for x in (*net.snrs(), *gaussian._snrs(net.uplink, net.power)))


# --- rate functions ---------------------------------------------------------


def test_capacity_values():
    assert awgn_capacity(0) == 0.0
    assert awgn_capacity(1) == 1.0
    assert abs(awgn_capacity(15) - 4.0) < 1e-12


def test_capacity_domain():
    with pytest.raises(ValueError):
        awgn_capacity(-0.5)


def test_lattice_cap_clamps():
    assert lattice_rate_cap(0.0) == 0.0
    assert lattice_rate_cap(0.5) == 0.0
    assert lattice_rate_cap(8.0) == 3.0


# --- regions ------------------------------------------------------------------


def test_cutset_symmetric_sum_violation():
    net = snr_net(15.0)
    res = gauss_cutset(net, (4, 4, 4, 4))
    assert not res.inside
    assert "R_A1+R_A2" in {c.name for c in res.violated()}


def test_cutset_origin_and_single_user():
    net = snr_net(15.0)
    assert gauss_cutset(net, (0, 0, 0, 0)).inside
    wide = GaussNetwork(
        (math.sqrt(15.0), 2.0), (2.0, 2.0), (1000.0, 1000.0), (1000.0, 1000.0), 1.0
    )
    res = gauss_cutset(wide, (awgn_capacity(15.0), 0, 0, 0))
    assert res.inside
    assert "R_A1" in {c.name for c in res.binding()}


def test_restricted_symmetric_boundary_point():
    net = snr_net(15.0)
    res = gauss_restricted_cutset(net, (2, 2, 2, 2))
    assert res.inside
    assert "R_A1+R_A2" in {c.name for c in res.binding()}
    assert not gauss_restricted_cutset(net, (2.01, 2, 2, 2)).inside


def test_restricted_subset_of_general():
    rng = np.random.default_rng(11)
    for _ in range(300):
        net = random_normalized_net(rng)
        rates = tuple(rng.uniform(0, 6, size=4))
        if gauss_restricted_cutset(net, rates).inside:
            assert gauss_cutset(net, rates).inside


# --- the family table against the reference -----------------------------------------------


def _first_failure(check, *args):
    try:
        check(*args)
    except InfeasibleRatesError as exc:
        return str(exc)
    return None


_magnitudes = st.floats(0.3, 300.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_magnitudes, min_size=8, max_size=8),
    st.floats(0.05, 200.0),
    st.lists(st.floats(0.0, 12.0), min_size=4, max_size=4),
)
# Magnitudes where C(h ** 2 P) and C(h * h * P) differ in the last bit:
# each formula must keep the form it had.
@example(
    [1.4399460194402325, 3.063971698296596, 6.065673579434813, 10.138766721090509,
     4.333145849111602, 5.70823331580167, 10.53795950503214, 2.461094633695714],
    2.651734888387265,
    [1.0, 0.5, 1.0, 0.5],
)
# Every downlink pair term a hair under C(15) = 4: the sampler's base check
# is an exact >=, so this network is refused.
@example([3.872983346194507] * 8, 1.0, [2.0, 2.0, 2.0, 2.0])
def test_family_table_matches_reference(h, power, rates):
    net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:]), power)
    for restricted, verdict in ((False, gauss_cutset), (True, gauss_restricted_cutset)):
        rhs = _family_rhs(net, restricted)
        expected = tuple(
            ConstraintCheck(name, sum(c * r for c, r in zip(coefs, rates)), rhs[name])
            for name, coefs in _FAMILY_COEFS.items()
        )
        got = verdict(net, rates)
        assert got.checks == expected
        assert got.inside == all(c.slack >= -TOL for c in expected)
    gen, res = _family_rhs(net, False), _family_rhs(net, True)
    assert restricted_bound_gaps(net) == {n: gen[n] - res[n] for n in _FAMILY_COEFS}
    # Rate preconditions of both hops: same pass/fail, same first failing
    # inequality, same lhs and rhs in its message.
    r = tuple(rates)
    for direction, magnitudes, reference_snr, keys, reference in (
        ("uplink", net.uplink, _uplink_snrs(net), ("x1", "x2", "x3", "x4"), _check_uplink_preconditions),
        ("downlink", net.downlink, _downlink_snrs(net), ("rb1", "ra1", "rb2", "ra2"),
         _check_downlink_preconditions),
    ):
        snr = gaussian._snrs(magnitudes, net.power)
        assert snr == tuple(reference_snr[k] for k in keys)  # session order, h ** 2 * P
        error = gaussian._precondition_errors(direction, gaussian._one(snr), gaussian._one(r))[0]
        got = None if error is None else str(error)
        assert got == _first_failure(reference, net, r)
    # The sweep sampler's acceptance: SNR floor, then the exact 2-bit base check.
    base_ok = all(
        res[name] >= sum(c * b for c, b in zip(coefs, (2.0, 2.0, 2.0, 2.0)))
        for name, coefs in _FAMILY_COEFS.items()
    )
    assert gaussian._sampler_accepts(net) == (min(net.snrs()) >= MIN_LINK_SNR and base_ok)


def test_hop_loop_stops_at_first_failing_hop(monkeypatch):
    # The cascade reads each hop's functions from its `_HOPS` row: a forced
    # uplink check failure ends the run before the downlink is walked, and
    # a batch with no trial left skips the hop altogether.
    calls = []
    failing = ConstraintCheck("forced", 1.0, 0.0)

    def forced_checks(mags, p, splits):
        calls.append("up")
        return [(np.arange(len(p)), [("forced", np.ones(len(p)), np.zeros(len(p)))])]

    def recording_walk(mags, snr, r):
        calls.append("down")
        return downlink.walk(mags, snr, r)

    uplink, downlink = gaussian._HOPS["uplink"], gaussian._HOPS["downlink"]
    monkeypatch.setitem(gaussian._HOPS, "uplink", uplink._replace(checks=forced_checks))
    monkeypatch.setitem(gaussian._HOPS, "downlink", downlink._replace(walk=recording_walk))
    report = verify_constant_gap(snr_net(255.0), (4.0, 4.0, 4.0, 4.0))
    assert calls == ["up"]
    assert report.stage == "uplink-rate-check" and report.detail == "forced"
    assert report.uplink is not None and report.uplink_checks == (failing,)
    assert report.downlink is None and report.downlink_checks == ()


def test_precondition_names_match_reference():
    for direction, reference in (
        ("uplink", _UPLINK_RATE_PRECONDITIONS),
        ("downlink", _DOWNLINK_RATE_PRECONDITIONS),
    ):
        assert [row[0] for row in gaussian._PRECONDITIONS[direction]] == [row[0] for row in reference]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [gauss_cutset, gauss_restricted_cutset, uplink_allocate, downlink_allocate, verify_constant_gap],
    ids=lambda f: f.__name__,
)
def test_non_finite_rates_rejected(call, bad):
    # Every comparison with NaN is false, so a NaN rate once passed the
    # region and allocation checks and came back as NaN alphas.
    rest = 2.0 if call is verify_constant_gap else 0.0
    with pytest.raises(ValueError, match="finite") as err:
        call(snr_net(255.0), (bad, rest, rest, rest))
    assert err.type is ValueError  # not a verdict such as InfeasibleRatesError


@pytest.mark.parametrize("bad", [True, "1.5", b"1", None, 1j, np.bool_(True)], ids=repr)
@pytest.mark.parametrize(
    "call",
    [gauss_cutset, gauss_restricted_cutset, uplink_allocate, downlink_allocate, verify_constant_gap],
    ids=lambda f: f.__name__,
)
def test_non_real_rates_rejected(call, bad):
    # float() once read True as 1.0 and "1.5" or b"1" as numbers, as the
    # network's magnitudes and the deterministic rates never do.
    rest = 2.0 if call is verify_constant_gap else 0.0
    with pytest.raises(ValueError, match="not a real number") as err:
        call(snr_net(255.0), (bad, rest, rest, rest))
    assert err.type is ValueError


# --- the cancellation-chain tables against the reference ------------------------------
# The four hop functions as written out case by case before the chain
# tables, kept verbatim; the differential test below requires the tables to
# reproduce every allocation, check and error message bit for bit.


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
    excess = alloc.budget_excess()
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
    excess = alloc.budget_excess()
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

def _normalized_net(h, power):
    """The network of eight magnitudes in hop-normalised order: within each
    uplink pair the A side is stronger and pair 1 holds the stronger A
    uplink; within each downlink pair |h_RB| >= |h_RA|, pairs left as drawn."""
    up = sorted([sorted(h[0:2], reverse=True), sorted(h[2:4], reverse=True)], reverse=True)
    down = [sorted(h[4:6]), sorted(h[6:8])]
    return GaussNetwork(
        (up[0][0], up[1][0]), (up[0][1], up[1][1]), (down[0][0], down[1][0]), (down[0][1], down[1][1]),
        power,
    )


@st.composite
def _hop_inputs(draw):
    """A normalised network, pair-normalised rates inside both hops' single-
    session preconditions and scaled onto (or inside) their pair-sum ones,
    and one received power of each allocation to tamper with before its
    rate check: (stream, factor)."""
    net = _normalized_net(draw(st.lists(st.floats(0.5, 100.0), min_size=8, max_size=8)),
                          draw(st.floats(1.0, 100.0)))
    f = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    C = awgn_capacity
    up, dn = gaussian._snrs(net.uplink, net.power), gaussian._snrs(net.downlink, net.power)
    caps = [max(0.0, min(C(up[k]) - (1.0 if k % 2 else 2.0), C(dn[k]) - 2.0)) for k in range(4)]
    r = [f[0] * caps[0], 0.0, f[2] * caps[2], 0.0]
    r[1], r[3] = f[1] * min(caps[1], r[0]), f[3] * min(caps[3], r[2])
    scale = 1.0
    for i, j in ((0, 2), (0, 3), (1, 3), (1, 2)):
        if r[i] + r[j] > 0:
            rhs = min(C(up[i] + up[j]) - 4.0, C(max(dn[i], dn[j])) - 3.0)
            scale = min(scale, max(0.0, rhs) / (r[i] + r[j]))
    scale *= draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    tamper = (draw(st.integers(0, 3)), draw(st.one_of(st.just(1.0), st.floats(-1.0, 2.0))))
    return net, tuple(x * scale for x in r), tamper


def _outcome(call, *args):
    """What a call gives: its value and repr, or its exception type and message."""
    try:
        value = call(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception itself is compared
        return type(exc), str(exc)
    return value, repr(value)


def _tampered(alloc, stream, factor):
    """``alloc`` with one received power (uplink G1, T, G2, W; downlink
    alpha_r[stream]) scaled by ``factor``."""
    if isinstance(alloc, DownlinkAllocation):
        p = list(alloc.alpha_r)
        p[stream] *= factor
        return replace(alloc, alpha_r=tuple(p))
    if stream in (0, 2):
        field = "alpha_a1" if stream == 0 else "alpha_a2"
        gauss, lattice = getattr(alloc, field)
        return replace(alloc, **{field: (gauss * factor, lattice)})
    field = "alpha_b1" if stream == 1 else "alpha_b2"
    return replace(alloc, **{field: getattr(alloc, field) * factor})


_CORNER_H = 1000.0 ** 0.5  # |h|^2 P = 1000 on every uplink


@settings(max_examples=500, deadline=None)
@given(_hop_inputs())
# Uplink cases I, II and III; their downlinks are cases III, III and I.
@example((_normalized_net([3.66, 2.69, 19.0, 40.75, 84.59, 2.0, 9.21, 61.58], 7.01),
          (6.617076885160013, 0.5400246143493648, 2.9015082007705986, 2.7274177087243627), (0, 1.0)))
@example((_normalized_net([1.33, 19.17, 50.73, 15.34, 3.31, 47.84, 10.45, 10.51], 32.07),
          (3.5444610640181753, 3.0482365150556303, 5.7427046630047665, 3.148903732228089), (1, 0.5)))
@example((_normalized_net([6.95, 21.38, 8.16, 14.89, 47.79, 28.38, 5.37, 7.88], 5.44),
          (2.6913643161398033, 0.9688911538103292, 2.753832891707814, 1.2392248012685163), (3, 0.5)))
# Downlink case II (uplink case II).
@example((_normalized_net([41.74, 4.83, 12.23, 2.47, 98.24, 3.07, 3.26, 1.4], 3.28),
          (5.694740011180409, 1.527461617640283, 0.6367827437387086, 0.29956033133152465), (2, 0.5)))
# The downlink's internal pair swap, with an uplink MAC stage where the
# sum-rate power binds.
@example((_normalized_net([10.56, 79.6, 1.94, 78.94, 4.2, 7.03, 45.23, 6.58], 12.57),
          (1.6018821744370337, 1.281505739549627, 7.969742567809114, 2.1133337105374883), (0, 0.5)))
# An uplink MAC stage where the single-user power binds: r_A1 = r_B1 and
# (u v) / (s w) - v / w rounds below u / s - 1 = 0.
@example((_normalized_net([16.4, 27.65, 65.03, 22.25, 3.07, 4.29, 44.52, 78.02], 14.73),
          (1.7046267876125263, 1.7046267876125263, 5.1566529509201855, 3.867489713190139), (0, 2.0)))
# The power-budget corner of `test_uplink_power_budget_corner_detected`.
@example((GaussNetwork((_CORNER_H, _CORNER_H), (_CORNER_H, _CORNER_H), (1000.0, 1000.0), (1000.0, 1000.0), 1.0),
          (awgn_capacity(2 * 1000.0) - 4 - 0.011, 0.01, 0.011, 0.01), (0, 1.0)))
# Interference summed in another order changes the last bit here: uplink
# case I's top stage, and downlink case II's pair-2 shared stream at B2.
@example((_normalized_net([9.89, 71.46, 3.9, 1.2, 52.1, 57.25, 0.65, 1.43], 18.73),
          (10.985510956437869, 6.002404459109603, 0.6263337217555398, 0.07516004661066478), (0, 1.0)))
@example((_normalized_net([8.61, 40.32, 1.84, 17.79, 76.61, 36.11, 20.56, 47.08], 4.72),
          (3.6621964973984475, 0.036621964973984476, 5.500213758738611, 2.4753826570967807), (0, 1.0)))
# Negative powers: the first capacity argument below zero raises, in
# check order.
@example((_normalized_net([3.66, 2.69, 19.0, 40.75, 84.59, 2.0, 9.21, 61.58], 7.01),
          (6.617076885160013, 0.5400246143493648, 2.9015082007705986, 2.7274177087243627), (3, -1.0)))
def test_chain_tables_match_reference(inputs):
    net, rates, (stream, factor) = inputs
    for allocate, rate_check, reference_allocate, reference_check in (
        (uplink_allocate, uplink_rate_check, reference_uplink_allocate, reference_uplink_rate_check),
        (downlink_allocate, downlink_rate_check, reference_downlink_allocate, reference_downlink_rate_check),
    ):
        got = _outcome(allocate, net, rates)
        assert got == _outcome(reference_allocate, net, rates)
        alloc = got[0]
        if isinstance(alloc, (UplinkAllocation, DownlinkAllocation)):
            for a in (alloc, _tampered(alloc, stream, factor)):
                assert _outcome(rate_check, net, a) == _outcome(reference_check, net, a)


# --- outer-vs-restricted gaps ----------------------------------------------------------------


def test_gap_zero_on_single_rate_families():
    gaps = restricted_bound_gaps(snr_net(20.0))
    for name in ("R_A1", "R_B1", "R_A2", "R_B2"):
        assert gaps[name] == 0.0


def test_gap_approaches_one_bit_at_high_snr():
    gaps = restricted_bound_gaps(snr_net(1e6))
    assert 1 - 1e-5 <= gaps["R_A1+R_A2"] <= 1.0


def test_gap_bounded_over_random_networks():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        h = np.exp(rng.uniform(0, np.log(100.0), size=8))
        p = float(np.exp(rng.uniform(0, np.log(100.0))))
        net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:8]), p)
        worst = max(worst, max(restricted_bound_gaps(net).values()))
    assert worst <= 1 + 1e-9


# --- normalization -----------------------------------------------------------------


def test_reduce_orderings_identity_when_sorted():
    net = GaussNetwork((10.0, 5.0), (8.0, 4.0), (3.0, 2.0), (6.0, 7.0), 2.0)
    norm = reduce_orderings(net, (3.0, 2.0, 2.0, 1.0))
    assert norm.net == net
    assert norm.rates == (3.0, 2.0, 2.0, 1.0)
    assert not any(norm.side_swapped) and not norm.pairs_swapped and not norm.clamped


def test_reduce_orderings_clamps_strong_partner():
    # B1's uplink is twice A1's but A1 carries the larger rate: weaken B1.
    net = GaussNetwork((5.0, 4.0), (10.0, 3.0), (4.0, 3.0), (6.0, 5.0), 2.0)
    norm = reduce_orderings(net, (2.0, 1.0, 1.5, 1.0))
    assert norm.net.h_br[0] == norm.net.h_ar[0] == 5.0
    assert "h_br[0]" in norm.clamped
    assert gauss_restricted_cutset(norm.net, norm.rates).inside


def test_reduce_orderings_swaps_sides_and_pairs():
    net = GaussNetwork((4.0, 9.0), (5.0, 8.0), (6.0, 3.0), (7.0, 4.0), 2.0)
    norm = reduce_orderings(net, (1.0, 2.0, 2.5, 1.5))
    # pair 1's larger rate is the B direction, so sides swap there; pair 2
    # then carries the stronger uplink and becomes pair 1.
    assert norm.side_swapped == (True, False)
    assert norm.pairs_swapped
    assert norm.rates == (2.5, 1.5, 2.0, 1.0)
    assert norm.net.h_ar[0] >= norm.net.h_ar[1]


def test_reduce_orderings_requires_membership():
    with pytest.raises(InfeasibleRatesError):
        reduce_orderings(snr_net(15.0), (9.0, 0.0, 0.0, 0.0))


# --- case classification --------------------------------------------------------------


def test_classify_uplink_cases():
    assert classify_case((10, 5, 3, 1), "uplink") == "I"
    assert classify_case((10, 4, 5, 3), "uplink") == "II"
    assert classify_case((10, 2, 5, 3), "uplink") == "III"


def test_classify_tie_goes_to_lowest_case():
    assert classify_case((5, 5, 5, 5), "uplink") == "I"
    assert classify_case((5, 3, 3, 3), "downlink") == "I"


def test_classify_rejects_unordered():
    with pytest.raises(ValueError):
        classify_case((5, 6, 3, 1), "uplink")
    with pytest.raises(ValueError):
        classify_case((5, 4, 6, 1), "downlink")


# --- uplink allocation ------------------------------------------------------------------


def test_uplink_alpha_b2_closed_form():
    # lattice power of the weakest user: 2^{r_B2} / (|h_B2R|^2 P)
    net = GaussNetwork((20.0, 6.0), (8.0, 4.0), (20.0, 20.0), (30.0, 25.0), 1.0)
    alloc = uplink_allocate(net, (2.0, 1.0, 1.5, 1.0))
    assert alloc.case == "I"
    assert abs(alloc.alpha_b2 - 0.125) < 1e-12


def test_uplink_alignment_rule():
    net = GaussNetwork((20.0, 6.0), (8.0, 4.0), (20.0, 20.0), (30.0, 25.0), 1.0)
    alloc = uplink_allocate(net, (2.0, 1.0, 1.5, 1.0))
    assert math.isclose(alloc.alpha_a1[1] * 20.0**2, alloc.alpha_b1 * 8.0**2, rel_tol=1e-12)
    assert math.isclose(alloc.alpha_a2[1] * 6.0**2, alloc.alpha_b2 * 4.0**2, rel_tol=1e-12)


def test_uplink_zero_rates_allocation_valid():
    net = snr_net(16.0)
    alloc = uplink_allocate(net, (0.0, 0.0, 0.0, 0.0))
    assert alloc.budget_excess() <= 0
    assert all(c.slack >= -1e-9 for c in uplink_rate_check(net, alloc))


def test_uplink_rejects_infeasible_rates_by_name():
    net = snr_net(16.0)
    with pytest.raises(InfeasibleRatesError) as err:
        uplink_allocate(net, (4.0, 0.0, 0.0, 0.0))
    assert "r_A1" in err.value.inequality


def test_uplink_low_power_guard():
    with pytest.raises(LowPowerError):
        uplink_allocate(snr_net(2.0), (0.0, 0.0, 0.0, 0.0))


def test_uplink_allocation_montecarlo():
    rng = np.random.default_rng(100)
    checked = 0
    while checked < 10_000:
        net = random_normalized_net(rng)
        r = random_feasible_rates(rng, net)
        if r is None:
            continue
        alloc = uplink_allocate(net, r)
        assert alloc.budget_excess() <= 1e-9
        checks = uplink_rate_check(net, alloc)
        assert all(c.slack >= -1e-9 for c in checks), [c for c in checks if c.slack < -1e-9]
        checked += 1


def test_uplink_tampered_alpha_fails_check():
    net = GaussNetwork((20.0, 6.0), (8.0, 4.0), (20.0, 20.0), (30.0, 25.0), 1.0)
    alloc = uplink_allocate(net, (2.0, 1.0, 1.5, 1.0))
    from dataclasses import replace

    halved = replace(alloc, alpha_b1=alloc.alpha_b1 / 2)
    bad = [c for c in uplink_rate_check(net, halved) if c.slack < -1e-9]
    assert any("pair-1 lattice" in c.name for c in bad)


def test_uplink_power_budget_corner_detected():
    # With near-equal uplink gains, tiny lattice rates and the pair-sum
    # constraint binding, the minimum-power cancellation chain needs
    # slightly more than one node's budget even though every rate
    # precondition holds; the allocator must refuse rather than emit an
    # invalid split, and the pipeline must surface the stage.
    x = 1000.0
    h = math.sqrt(x)
    net = GaussNetwork((h, h), (h, h), (1000.0, 1000.0), (1000.0, 1000.0), 1.0)
    eps = 0.01
    r_a1 = awgn_capacity(2 * x) - 4 - (eps + 0.001)
    r = (r_a1, eps, eps + 0.001, eps)
    with pytest.raises(AllocationInvalidError):
        uplink_allocate(net, r)
    report = verify_constant_gap(net, tuple(x + 2 for x in r))
    assert not report.achievable
    assert report.stage == "uplink-allocation"


# --- downlink allocation -------------------------------------------------------------------


def test_downlink_alpha_r1_closed_form():
    # solo stream of the strong pair: (2^{r_A1 - r_B1} - 1) / (|h_RB1|^2 P)
    net = GaussNetwork(
        (30.0, 25.0), (20.0, 20.0), (4.0, 4.0), (math.sqrt(20.0), math.sqrt(18.0)), 1.0
    )
    alloc = downlink_allocate(net, (1.2, 0.2, 0.1, 0.05))
    assert not alloc.pairs_swapped
    assert abs(alloc.alpha_r[0] - 0.05) < 1e-12


def test_downlink_no_solo_streams_when_rates_match():
    net = snr_net(64.0)
    alloc = downlink_allocate(net, (1.0, 1.0, 0.5, 0.5))
    assert alloc.alpha_r[0] == 0.0 and alloc.alpha_r[2] == 0.0


def test_downlink_allocation_montecarlo():
    rng = np.random.default_rng(200)
    checked = 0
    while checked < 10_000:
        net = random_normalized_net(rng)
        r = random_feasible_rates(rng, net)
        if r is None:
            continue
        alloc = downlink_allocate(net, r)
        assert alloc.budget_excess() <= 1e-9
        checks = downlink_rate_check(net, alloc)
        assert all(c.slack >= -1e-9 for c in checks), [c for c in checks if c.slack < -1e-9]
        checked += 1


def test_downlink_tampered_alpha_fails_check():
    net = GaussNetwork(
        (30.0, 25.0), (20.0, 20.0), (4.0, 4.0), (math.sqrt(20.0), math.sqrt(18.0)), 1.0
    )
    alloc = downlink_allocate(net, (1.2, 0.2, 0.1, 0.05))
    from dataclasses import replace

    p = list(alloc.alpha_r)
    p[3] /= 2
    halved = replace(alloc, alpha_r=tuple(p))
    bad = [c for c in downlink_rate_check(net, halved) if c.slack < -1e-9]
    assert any("pair-2 shared" in c.name for c in bad)


def test_downlink_internal_pair_swap():
    # pair 2 has the stronger shared-stream receiver, so the case analysis
    # relabels internally; the returned split must still be valid.
    net = GaussNetwork((30.0, 40.0), (20.0, 25.0), (5.0, 9.0), (6.0, 10.0), 1.0)
    alloc = downlink_allocate(net, (1.0, 0.5, 1.2, 0.6))
    assert alloc.pairs_swapped
    assert alloc.budget_excess() <= 1e-9
    assert all(c.slack >= -1e-9 for c in downlink_rate_check(net, alloc))


def test_downlink_zero_rates():
    net = snr_net(16.0)
    alloc = downlink_allocate(net, (0.0, 0.0, 0.0, 0.0))
    assert alloc.alpha_r == (0.0, 0.0, 0.0, 0.0)
    assert all(c.slack >= 0 for c in downlink_rate_check(net, alloc))


# --- end-to-end ------------------------------------------------------------------------------


def test_constant_gap_symmetric_network():
    report = verify_constant_gap(snr_net(255.0), (4.0, 4.0, 4.0, 4.0))
    assert report.achievable
    assert report.uplink.case == "I" and report.downlink.case == "I"
    assert abs(report.uplink.alpha_b1 - 36.0 / 255.0) < 1e-12
    assert report.max_alpha_excess() <= 1e-9
    assert report.min_check_slack() >= -1e-9


def test_constant_gap_hypothesis_needs_two_bits():
    with pytest.raises(InfeasibleRatesError):
        verify_constant_gap(snr_net(255.0), (1.9, 4.0, 4.0, 4.0))


def test_constant_gap_rejects_outside_region():
    with pytest.raises(InfeasibleRatesError):
        verify_constant_gap(snr_net(255.0), (9.0, 2.0, 2.0, 2.0))


def test_constant_gap_low_power():
    with pytest.raises(LowPowerError):
        verify_constant_gap(snr_net(2.0), (2.0, 2.0, 2.0, 2.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_constant_gap_label_invariance(seed):
    rng = np.random.default_rng(seed)
    net = random_normalized_net(rng, floor=8.0)
    rhs_ok = gauss_restricted_cutset(net, (2.2, 2.1, 2.2, 2.1)).inside
    if not rhs_ok:
        return
    rates = (2.2, 2.1, 2.2, 2.1)
    base = verify_constant_gap(net, rates)
    swapped_pairs = GaussNetwork(
        net.h_ar[::-1], net.h_br[::-1], net.h_ra[::-1], net.h_rb[::-1], net.power
    )
    assert verify_constant_gap(swapped_pairs, (2.2, 2.1, 2.2, 2.1)).achievable == base.achievable
    swapped_sides = GaussNetwork(net.h_br, net.h_ar, net.h_rb, net.h_ra, net.power)
    assert verify_constant_gap(swapped_sides, (2.1, 2.2, 2.1, 2.2)).achievable == base.achievable


# --- Monte Carlo sweep ------------------------------------------------------------------------


def test_sweep_empty():
    report = monte_carlo_gap(SweepConfig(trials=0, seed=1))
    assert report.pass_rate == 1.0
    assert report.records == ()


def test_sweep_deterministic_and_worker_invariant():
    cfg = SweepConfig(trials=64, seed=13)
    a = monte_carlo_gap(cfg)
    b = monte_carlo_gap(cfg)
    assert a == b
    # Trials depend only on (seed, index): any split or order of the indices,
    # here one by one from the last, gives the same records.
    backwards = [run_trial(cfg, i) for i in reversed(range(cfg.trials))]
    assert a.records == tuple(reversed(backwards))


def test_sweep_rates_sit_on_boundary():
    cfg = SweepConfig(trials=32, seed=21)
    report = monte_carlo_gap(cfg)
    for rec in report.records:
        assert min(rec.rates) >= 2.0
        verdict = gauss_restricted_cutset(rec.net, rec.rates)
        assert verdict.inside
        # the sampler retreats 1e-6 bits from the nearest constraint
        assert min(c.slack for c in verdict.checks) < 1e-4


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(trials=-1, seed=0)
    with pytest.raises(ValueError):
        SweepConfig(trials=1, seed=0, h_min=1.0, h_max=1.0, p_min=1.0, p_max=1.0)


# --- reference: the scalar sweep path before the batch pipeline -------------------------------
# Kept verbatim from before the sweep ran as one batch pipeline, one trial
# at a time, with only the names prefixed and the calls pointed at these
# copies.  The family and chain tables are data and are read from the
# module; `test_chain_tables_match_reference` checks the chain tables.


def reference_family_terms(net: GaussNetwork, restricted: bool) -> tuple[float, ...]:
    """RHS of each constraint family: min(uplink term, downlink term).

    A single session's terms are C(|h|^2 P) on both hops.  A pair adds
    amplitudes on the uplink and powers on the downlink in the cut-set
    bound; the restricted bound adds powers on the uplink and takes the
    larger power on the downlink.
    """
    up, down, p = net.uplink, net.downlink, net.power
    up2, down2 = [h * h for h in up], [h * h for h in down]
    terms = []
    for _, sessions, _, _ in gaussian._FAMILIES:
        s, t = sessions[0], sessions[-1]  # s == t for a single session
        if s == t:
            snrs = (up2[s] * p, down2[s] * p)
        elif restricted:
            snrs = ((up2[s] + up2[t]) * p, max(down2[s], down2[t]) * p)
        else:
            snrs = ((up[s] + up[t]) ** 2 * p, (down2[s] + down2[t]) * p)
        terms.append(min(awgn_capacity(snrs[0]), awgn_capacity(snrs[1])))
    return tuple(terms)


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
    terms = reference_family_terms(net, restricted)
    checks = tuple(
        ConstraintCheck(name, sum(map(r.__getitem__, sessions)), rhs)
        for (name, sessions, _, _), rhs in zip(gaussian._FAMILIES, terms)
    )
    return RegionVerdict(all(c.slack >= -TOL for c in checks), checks)


def reference_gauss_restricted_cutset(net: GaussNetwork, rates: Sequence[float]) -> RegionVerdict:
    return reference_region_verdict(net, rates, restricted=True)


def reference_restricted_bound_gaps(net: GaussNetwork) -> dict[str, float]:
    gaps = {
        name: gen - res
        for (name, _, _, _), gen, res in zip(
            gaussian._FAMILIES, reference_family_terms(net, False), reference_family_terms(net, True)
        )
    }
    bad = {n: g for n, g in gaps.items() if g < -TOL or g > 1.0 + TOL}
    if bad:
        raise AssertionError(f"gap outside [0, 1]: {bad}")
    return gaps


def reference_reduce_orderings(net: GaussNetwork, rates: Sequence[float]) -> NormalizedProblem:
    verdict = reference_gauss_restricted_cutset(net, rates)
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
    post = reference_gauss_restricted_cutset(out, quad)
    if not post:
        raise AssertionError(
            "channel weakening pushed the rates out of the region; the reduction "
            f"argument excludes this ({[c.name for c in post.violated()]})"
        )
    return NormalizedProblem(out, quad, tuple(side_swapped), pairs_swapped, tuple(clamped))


def reference_swap_pairs(q: Sequence, swapped: bool) -> tuple:
    """A session 4-tuple with pair 1 and pair 2 exchanged when ``swapped``."""
    return (q[2], q[3], q[0], q[1]) if swapped else tuple(q)


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


def reference_snrs(magnitudes: Sequence[float], power: float) -> tuple[float, ...]:
    """|h|^2 P of each magnitude of a session 4-tuple."""
    return tuple(h ** 2 * power for h in magnitudes)


def reference_check_preconditions(direction: str, snr: Sequence[float], r: RateQuad) -> None:
    combine = sum if direction == "uplink" else max
    for name, sessions, backoff in gaussian._PRECONDITIONS[direction]:
        lhs = sum(map(r.__getitem__, sessions))
        rhs = awgn_capacity(combine(map(snr.__getitem__, sessions))) - backoff
        if lhs > rhs + TOL:
            raise InfeasibleRatesError(name, f"lhs={lhs:.6g}, rhs={rhs:.6g}")


def reference_allocation_inputs(direction: str, net: GaussNetwork, rates: Sequence[float]):
    r = reference_rate_quad(rates)
    if r[1] > r[0] + TOL or r[3] > r[2] + TOL:
        raise ValueError(f"rates {r} not normalized: each pair needs r_A >= r_B")
    snr = reference_snrs(net.uplink if direction == "uplink" else net.downlink, net.power)
    if min(snr) < gaussian.MIN_PROVEN_SNR - TOL:
        raise LowPowerError(f"{direction} |h|^2 P floor {min(snr):.4g} below {gaussian.MIN_PROVEN_SNR}")
    reference_check_preconditions(direction, snr, r)
    return r, snr


_G1, _T, _G2, _W = range(4)
_REFERENCE_UPLINK_STREAMS = (
    ("decode x_A1 gaussian", awgn_capacity),
    ("decode pair-1 lattice sum", lattice_rate_cap),
    ("decode x_A2 gaussian", awgn_capacity),
    ("decode pair-2 lattice sum", lattice_rate_cap),
)


def reference_chain_uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    r, (x1, x2, x3, x4) = reference_allocation_inputs("uplink", net, r)
    case = reference_classify_case(net.uplink, "uplink")
    u, s, v, w = [2.0 ** x for x in r]

    # Power over noise: 2^rate - 1 for a Gaussian codeword, 2^rate for a lattice one.
    need = (u / s - 1.0, s, v / w - 1.0, w)
    q = [0.0, 0.0, 0.0, 0.0]
    for stream, noise in gaussian._UPLINK_CHAINS[case]:
        den = noise(*q)
        if stream == "MAC":
            # x_A1's single-user and sum-rate constraints each demand a power; the larger binds.
            q[_G2] = need[_G2] * den
            q[_G1] = max(need[_G1], (u * v) / (s * w) - v / w) * den
        else:
            q[stream] = need[stream] * den
    G1, T, G2, W = q

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


def reference_chain_uplink_rate_check(net: GaussNetwork, alloc: UplinkAllocation) -> tuple[ConstraintCheck, ...]:
    expected = reference_classify_case(net.uplink, "uplink")
    if expected != alloc.case:
        raise ValueError(f"allocation is for case {alloc.case}, network classifies as {expected}")
    x1, x2, x3, x4 = reference_snrs(net.uplink, net.power)
    q = (alloc.alpha_a1[0] * x1, alloc.alpha_b1 * x2, alloc.alpha_a2[0] * x3, alloc.alpha_b2 * x4)
    (rg1, rg2), (rl1, rl2) = alloc.gaussian_rates, alloc.lattice_rates
    rates, C = (rg1, rl1, rg2, rl2), awgn_capacity

    checks = []
    for stream, noise in reversed(gaussian._UPLINK_CHAINS[alloc.case]):
        den = noise(*q)
        if stream == "MAC":
            checks += (
                ConstraintCheck("decode x_A1 gaussian (MAC)", rg1, C(q[_G1] / den)),
                ConstraintCheck("decode x_A2 gaussian (MAC)", rg2, C(q[_G2] / den)),
                ConstraintCheck("gaussian MAC sum", rg1 + rg2, C((q[_G1] + q[_G2]) / den)),
            )
        else:
            name, cap = _REFERENCE_UPLINK_STREAMS[stream]
            checks.append(ConstraintCheck(name, rates[stream], cap(q[stream] / den)))
    return tuple(checks)


_REFERENCE_DOWNLINK_STREAMS = (
    "pair-1 solo stream", "pair-1 shared stream", "pair-2 solo stream", "pair-2 shared stream"
)
_REFERENCE_DOWNLINK_CHECK_ORDER = (1, 3, 0, 2)


def reference_chain_downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    r, snr = reference_allocation_inputs("downlink", net, r)
    swapped = net.h_rb[1] > net.h_rb[0]
    r, mags, snr = (reference_swap_pairs(q, swapped) for q in (r, net.downlink, snr))
    case = reference_classify_case(mags, "downlink")

    u, s, v, w = [2.0 ** x for x in r]
    need = (u / s - 1.0, s - 1.0, v / w - 1.0, w - 1.0)
    p = [0.0, 0.0, 0.0, 0.0]
    for stream, receivers in gaussian._DOWNLINK_CHAINS[case]:
        if len(receivers) == 1:  # the closed form's association, bit for bit
            ((k, under),) = receivers
            p[stream] = need[stream] * (1.0 + snr[k] * under(p)) / snr[k]
        else:
            p[stream] = need[stream] * max([(1.0 + snr[k] * under(p)) / snr[k] for k, under in receivers])

    alloc = DownlinkAllocation(
        case=case,
        alpha_r=tuple(p),
        stream_rates=(r[0] - r[1], r[1], r[2] - r[3], r[3]),
        pairs_swapped=swapped,
    )
    excess = alloc.budget_excess()
    if excess > TOL:
        raise AllocationInvalidError(
            f"downlink case {case} relay budget exceeded by {excess:.3g} (alphas {alloc.alpha_r})"
        )
    return alloc


def reference_chain_downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    mags, snr = (
        reference_swap_pairs(q, alloc.pairs_swapped)
        for q in (net.downlink, reference_snrs(net.downlink, net.power))
    )
    if reference_classify_case(mags, "downlink") != alloc.case:
        raise ValueError("allocation case does not match the network ordering")

    p, receivers = alloc.alpha_r, dict(gaussian._DOWNLINK_CHAINS[alloc.case])
    checks = []
    for stream in _REFERENCE_DOWNLINK_CHECK_ORDER:
        rhs = None  # the smallest capacity over the receivers, as min() picks it
        for k, under in receivers[stream]:
            cap = awgn_capacity(snr[k] * p[stream] / (1.0 + snr[k] * under(p)))
            if rhs is None or cap < rhs:
                rhs = cap
        checks.append(ConstraintCheck(_REFERENCE_DOWNLINK_STREAMS[stream], alloc.stream_rates[stream], rhs))
    return tuple(checks)


_REFERENCE_HOPS = {
    "uplink": (reference_chain_uplink_allocate, reference_chain_uplink_rate_check),
    "downlink": (reference_chain_downlink_allocate, reference_chain_downlink_rate_check),
}


def reference_verify_constant_gap(net: GaussNetwork, rates: Sequence[float]) -> AchievabilityReport:
    target = reference_rate_quad(rates)
    if any(x < 2.0 - TOL for x in target):
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {target}"
        )
    snrs = net.snrs()
    if min(snrs) < gaussian.MIN_PROVEN_SNR - TOL:
        raise LowPowerError(
            f"|h|^2 P floor {min(snrs):.4g} below the proven threshold {gaussian.MIN_PROVEN_SNR}"
        )
    normalized = reference_reduce_orderings(net, target)  # raises InfeasibleRatesError when outside

    r = tuple(max(0.0, x - 2.0) for x in normalized.rates)
    hops = {"uplink": (None, ()), "downlink": (None, ())}
    stage, detail = "ok", ""
    for hop in hops:
        allocate, rate_check = _REFERENCE_HOPS[hop]
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


def reference_sampler_accepts(net: GaussNetwork) -> bool:
    return min(net.snrs()) >= MIN_LINK_SNR and all(
        rhs >= 2.0 * len(sessions)
        for (_, sessions, _, _), rhs in zip(gaussian._FAMILIES, reference_family_terms(net, True))
    )


def reference_sample_network(rng: np.random.Generator, cfg: SweepConfig, trial: int) -> GaussNetwork:
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    for _ in range(gaussian.MAX_SAMPLE_DRAWS):
        h = np.exp(rng.uniform(lo_h, hi_h, size=8)).tolist()
        p = float(np.exp(rng.uniform(lo_p, hi_p)))
        net = GaussNetwork(h[0:2], h[2:4], h[4:6], h[6:8], p)
        if reference_sampler_accepts(net):
            return net
    raise ValueError(
        f"trial {trial}: none of {gaussian.MAX_SAMPLE_DRAWS} sampled networks met the SNR "
        "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
    )


def reference_sample_boundary_rates(rng: np.random.Generator, net: GaussNetwork) -> RateQuad:
    while True:
        d = rng.random(4)
        if d.max() > 1e-9:
            break
    t_star = math.inf
    for (_, sessions, _, _), rhs in zip(gaussian._FAMILIES, reference_family_terms(net, True)):
        step = sum(map(d.__getitem__, sessions))
        if step > 0:
            room = rhs - 2.0 * len(sessions)
            t_star = min(t_star, room / step)
    t = max(0.0, t_star - gaussian.BOUNDARY_NUDGE / float(d.max()))
    return tuple(2.0 + t * float(x) for x in d)


def reference_run_trial(cfg: SweepConfig, index: int) -> TrialRecord:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    net = reference_sample_network(rng, cfg, index)
    rates = reference_sample_boundary_rates(rng, net)
    report = reference_verify_constant_gap(net, rates)
    gaps = reference_restricted_bound_gaps(net)
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


# --- the batch pipeline against the reference ----------------------------------------------


def _sweep_outcome(records_of, cfg):
    """A sweep's records and their repr, or its exception type and message."""
    try:
        records = records_of(cfg)
    except Exception as exc:  # noqa: BLE001 -- the exception itself is compared
        return type(exc), str(exc)
    return records, repr(records)


def _reference_records(cfg):
    return tuple(reference_run_trial(cfg, i) for i in range(cfg.trials))


@st.composite
def _sweep_configs(draw):
    """A seed, up to 64 trials, and the default ranges or narrow ones where
    networks are redrawn many times, up to running out of draws."""
    trials, seed = draw(st.integers(0, 64)), draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return SweepConfig(trials, seed)
    h_min, p_min = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0))
    h_max, p_max = h_min * draw(st.floats(1.5, 8.0)), p_min * draw(st.floats(1.0, 10.0))
    try:
        return SweepConfig(trials, seed, h_min, h_max, p_min, p_max)
    except ValueError:  # the strongest network in range cannot hold (2, 2, 2, 2)
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_sweep_configs())
@example(SweepConfig(64, 13))
@example(SweepConfig(64, 99))
# Up to 447 draws for one network.
@example(SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0))
# Trial 0 runs out of draws; then trial 23 does, after 0 to 22 were sampled.
@example(SweepConfig(20, 0, 1.0, 4.0, 1.0, 1.0))
@example(SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0))
def test_sweep_matches_reference(cfg):
    # Records equal and print the same (a rate is a numpy float unless the
    # boundary walk stopped at the base point), or the same exception.
    assert _sweep_outcome(lambda c: monte_carlo_gap(c).records, cfg) == _sweep_outcome(_reference_records, cfg)


@pytest.mark.parametrize(
    "cfg",
    [SweepConfig(23, 3), SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0), SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0)],
    ids=["default", "many-redraws", "trial-23-out-of-draws"],
)
def test_sweep_blocks_match_reference(monkeypatch, cfg):
    # Blocks of 5 trials redrawing 2 at a time: block edges, redraw rounds
    # and a failing block rerun trial by trial give the same records, or the
    # same exception for the same trial.
    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", 5)
    monkeypatch.setattr(gaussian, "REDRAW_WINDOW", 2)
    assert _sweep_outcome(lambda c: monte_carlo_gap(c).records, cfg) == _sweep_outcome(_reference_records, cfg)


def _trial_columns(trials):
    """Session columns, power column and rate columns of explicit trials."""
    nets, rates = zip(*trials)
    up = [np.array([net.uplink[k] for net in nets]) for k in range(4)]
    down = [np.array([net.downlink[k] for net in nets]) for k in range(4)]
    return up, down, np.array([net.power for net in nets]), [np.array([r[k] for r in rates]) for k in range(4)]


def _pipeline_verdicts(trials):
    """Each trial's (stage, max_alpha_excess, min_check_slack, detail) from the batch pipeline."""
    stage, excess, slack, detail, *_ = gaussian._verify_columns(*_trial_columns(trials))
    return list(zip(stage.tolist(), excess.tolist(), slack.tolist(), detail))


def _reference_verdict(net, rates):
    report = reference_verify_constant_gap(net, rates)
    return report.stage, report.max_alpha_excess(), report.min_check_slack(), report.detail


_CORNER_TRIAL = (
    GaussNetwork((_CORNER_H, _CORNER_H), (_CORNER_H, _CORNER_H), (1000.0, 1000.0), (1000.0, 1000.0), 1.0),
    tuple(x + 2 for x in (awgn_capacity(2 * 1000.0) - 4 - 0.011, 0.01, 0.011, 0.01)),
)


@st.composite
def _explicit_trials(draw):
    """Networks with rates walked from (2, 2, 2, 2) towards the restricted
    boundary, and at times past it."""
    trials = []
    for _ in range(draw(st.integers(1, 12))):
        h = draw(st.lists(st.floats(1.0, 100.0), min_size=8, max_size=8))
        net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:]), draw(st.floats(1.0, 100.0)))
        d = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4))
        room = [
            (rhs - 2.0 * len(sessions)) / sum(d[s] for s in sessions)
            for (_, sessions, _, _), rhs in zip(gaussian._FAMILIES, reference_family_terms(net, True))
            if sum(d[s] for s in sessions) > 0
        ]
        t = max(0.0, min(room, default=0.0)) * draw(st.one_of(st.just(1.0 - 1e-7), st.floats(0.0, 1.1)))
        trials.append((net, tuple(2.0 + t * x for x in d)))
    return trials


@settings(max_examples=200, deadline=None)
@given(_explicit_trials())
@example([_CORNER_TRIAL])
@example([(snr_net(255.0), (4.0, 4.0, 4.0, 4.0)), _CORNER_TRIAL, (snr_net(255.0), (4.0, 4.0, 4.0, 4.0))])
# A trial outside the hypothesis after one inside it.
@example([(snr_net(255.0), (4.0, 4.0, 4.0, 4.0)), (snr_net(2.0), (2.0, 2.0, 2.0, 2.0))])
def test_verify_columns_match_reference(trials):
    # The masked cascade gives each trial the stage, budget excess, check
    # slack and detail its reference report gives, bit for bit; where a
    # reference trial raises, the batch raises, and the first such trial
    # alone raises the same exception.
    expected = [_outcome(_reference_verdict, net, rates) for net, rates in trials]
    raised = [i for i, (kind, _) in enumerate(expected) if isinstance(kind, type)]
    if not raised:
        got = _pipeline_verdicts(trials)
        assert (got, repr(got)) == ([value for value, _ in expected], repr([value for value, _ in expected]))
    else:
        with pytest.raises(Exception):
            _pipeline_verdicts(trials)
        first = trials[raised[0]]
        assert _outcome(lambda *trial: _pipeline_verdicts([trial])[0], *first) == expected[raised[0]]


def test_verify_columns_cover_every_case():
    # One block of sweep trials plus the 2-bit corner: every uplink and
    # downlink case and the uplink-allocation stage, with its failure text,
    # all matching the reference.
    cfg = SweepConfig(trials=300, seed=5)
    trials = [(rec.net, rec.rates) for rec in map(lambda i: reference_run_trial(cfg, i), range(cfg.trials))]
    trials.insert(150, _CORNER_TRIAL)
    reports = [reference_verify_constant_gap(net, rates) for net, rates in trials]
    assert _pipeline_verdicts(trials) == [
        (r.stage, r.max_alpha_excess(), r.min_check_slack(), r.detail) for r in reports
    ]
    cases = {(hop, getattr(r, hop).case) for r in reports for hop in ("uplink", "downlink") if getattr(r, hop)}
    assert cases == {(hop, case) for hop in ("uplink", "downlink") for case in ("I", "II", "III")}
    assert {r.stage for r in reports} == {"ok", "uplink-allocation"}
