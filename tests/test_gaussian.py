import ast
import math
import pickle
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gauss_reference
from gauss_reference import (
    BASE_POINT,
    FAMILY_COEFS,
    PRECONDITIONS,
    family_rhs,
    family_sum,
    reference_downlink_allocate,
    reference_downlink_rate_check,
    reference_precondition_rhs,
    reference_require_preconditions,
    reference_run_trial,
    reference_sample_boundary_rates,
    reference_sampler_accepts,
    reference_snrs,
    reference_uplink_allocate,
    reference_uplink_rate_check,
    reference_verify_constant_gap,
)
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
    ConstraintCheck,
    DownlinkAllocation,
    UplinkAllocation,
    run_trial,
)


def snr_net(x: float) -> GaussNetwork:
    """Network with |h|^2 P = x on every link."""
    h = math.sqrt(x)
    return GaussNetwork((h, h), (h, h), (h, h), (h, h), 1.0)


def random_feasible_rates(rng, net):
    """A rate quad inside both hop polytopes, pair-normalized (r_A >= r_B):
    each rate under both hops' single-session preconditions, and every
    pair-sum precondition held exactly."""
    up, down = (reference_precondition_rhs(net, direction) for direction in ("uplink", "downlink"))
    caps = [min(u[2], d[2]) for u, d in zip(up[:4], down[:4])]
    if min(caps) < 0:
        return None
    pairs = [(sessions, rhs) for _, sessions, rhs in up[4:] + down[4:]]
    for _ in range(60):
        r_a1 = rng.uniform(0, caps[0])
        r_b1 = rng.uniform(0, min(caps[1], r_a1))
        r_a2 = rng.uniform(0, caps[2])
        r_b2 = rng.uniform(0, min(caps[3], r_a2))
        r = (r_a1, r_b1, r_a2, r_b2)
        if all(sum(r[i] for i in sessions) <= rhs for sessions, rhs in pairs):
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
        rhs = family_rhs(net, restricted)
        expected = tuple(
            ConstraintCheck(name, family_sum(coefs, rates), rhs[name]) for name, coefs in FAMILY_COEFS.items()
        )
        got = verdict(net, rates)
        assert got.checks == expected
        assert got.inside == all(c.slack >= -TOL for c in expected)
    gen, res = family_rhs(net, False), family_rhs(net, True)
    assert restricted_bound_gaps(net) == {n: gen[n] - res[n] for n in FAMILY_COEFS}
    # Rate preconditions of both hops: same pass/fail, same first failing
    # inequality, same lhs and rhs in its message.
    r = tuple(rates)
    for direction, magnitudes in (("uplink", net.uplink), ("downlink", net.downlink)):
        snr = gaussian._snrs(magnitudes, net.power)
        assert snr == reference_snrs(magnitudes, net.power)  # session order, h ** 2 * P
        error = gaussian._precondition_errors(direction, gaussian._one(snr), gaussian._one(r)).get(0)
        got = None if error is None else str(error)
        assert got == _first_failure(reference_require_preconditions, direction, net, r)
    # The sweep sampler's acceptance: SNR floor, then the exact 2-bit base check.
    base_ok = all(res[name] >= family_sum(coefs, BASE_POINT) for name, coefs in FAMILY_COEFS.items())
    assert gaussian._sampler_accepts(net) == (min(net.snrs()) >= MIN_LINK_SNR and base_ok)


def test_hop_loop_stops_at_first_failing_hop(monkeypatch):
    # The cascade reads each hop's functions from its `_HOPS` row: a forced
    # uplink check failure ends the run before the downlink is walked, and
    # a batch with no trial left skips the hop altogether.
    calls = []
    failing = ConstraintCheck("forced", 1.0, 0.0)

    def forced_checks(mags, snr, splits):
        calls.append("up")
        n = snr.shape[1]
        return [(np.arange(n), [("forced", np.ones(n), np.zeros(n))])]

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
    for direction, reference in PRECONDITIONS.items():
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
# The reference writes each hop's allocation and rate check out case by case;
# the differential test below requires the chain tables to reproduce every
# allocation, check and error message bit for bit.


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
    up, dn = reference_snrs(net.uplink, net.power), reference_snrs(net.downlink, net.power)
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
# The network and target rates of `test_uplink_power_budget_corner_detected`.
_CORNER_TRIAL = (
    GaussNetwork((_CORNER_H, _CORNER_H), (_CORNER_H, _CORNER_H), (1000.0, 1000.0), (1000.0, 1000.0), 1.0),
    tuple(x + 2 for x in (awgn_capacity(2 * 1000.0) - 4 - 0.011, 0.01, 0.011, 0.01)),
)


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


def _allocation_montecarlo(seed, direction, allocate, rate_check):
    """10^4 random normalised networks with feasible rates: each split keeps
    its budget and passes every decoding check of its case, to 1e-9.  The
    first 200 run through the public allocator and rate check, and all of
    them as one batch through the column functions."""
    rng = np.random.default_rng(seed)
    trials = []
    while len(trials) < 10_000:
        net = random_normalized_net(rng)
        r = random_feasible_rates(rng, net)
        if r is not None:
            trials.append((net, r))
    for net, r in trials[:200]:
        alloc = allocate(net, r)
        assert alloc.budget_excess() <= 1e-9
        checks = rate_check(net, alloc)
        assert all(c.slack >= -1e-9 for c in checks), [c for c in checks if c.slack < -1e-9]

    up, down, p, r = (np.asarray(q) for q in _trial_columns(trials))
    mags = up if direction == "uplink" else down
    splits, kept, snr, excess, errors = gaussian._allocate(direction, mags, p, r)
    assert not errors and kept.tolist() == list(range(len(trials)))
    assert (excess <= 1e-9).all(), np.flatnonzero(excess > 1e-9)
    for rows, checks in gaussian._HOPS[direction].checks(mags, snr, splits):
        for name, lhs, rhs in checks:
            assert (rhs - lhs >= -1e-9).all(), (name, rows[rhs - lhs < -1e-9])


def test_uplink_allocation_montecarlo():
    _allocation_montecarlo(100, "uplink", uplink_allocate, uplink_rate_check)


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

    # The same corner in all three uplink cases, wherever a backed-off B
    # rate sits at or near 0 and R_A1 + R_A2 binds: the instance above, a
    # case-I network with unequal gains, and two trials of the default
    # sampler (gauss-sweep seeds 72 and 80).  Each fails at the split the
    # pipeline computes for the normalised, backed-off rates.
    unequal = GaussNetwork(
        (87.4819037860923, 92.50096010997423), (167.85080142877254, 378.03280596786306),
        (190.54601133459386, 74.65578649469327), (173.3412390723331, 259.136978527644), 1.0,
    )
    corners = [(*_CORNER_TRIAL, "I"), (unequal, (7.413382952223102, 2.0, 6.571257162093544, 2.0), "I")]
    for cfg, index, case in ((SweepConfig(150, 2162487093), 146, "II"), (SweepConfig(150, 1552185256), 138, "III")):
        rec = run_trial(cfg, index)
        corners.append((rec.net, rec.rates, case))
    for net, target, case in corners:
        report = verify_constant_gap(net, target)
        assert report.stage == "uplink-allocation", (net, target, report.stage)
        assert f"uplink case {case} power budget exceeded" in report.detail, (net, target, report.detail)
        backed_off = tuple(max(0.0, x - 2.0) for x in report.normalized.rates)
        with pytest.raises(AllocationInvalidError, match=f"^uplink case {case} power budget exceeded"):
            uplink_allocate(report.normalized.net, backed_off)


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
    _allocation_montecarlo(200, "downlink", downlink_allocate, downlink_rate_check)


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
    # A report of columns stays a value: hashable, picklable, and its
    # records are built once.
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert a.records is a.records


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


@pytest.mark.parametrize(
    "fields,name",
    [
        (dict(trials=True), "trials"),
        (dict(trials=1, seed=True), "seed"),
        (dict(trials=2.0), "trials"),
        (dict(trials=1, seed=1.5), "seed"),
        (dict(trials=1, seed="3"), "seed"),
        (dict(trials=1, seed=-1), "seed"),
        (dict(trials=2**32 + 1), "trials"),
        (dict(trials=1, h_min=0.0), "h_min"),
        (dict(trials=1, h_max=math.inf), "h_max"),
        (dict(trials=1, p_min=math.nan), "p_min"),
        (dict(trials=1, p_max="100"), "p_max"),
        (dict(trials=1, h_min=True), "h_min"),
    ],
)
def test_sweep_config_refuses_bad_fields(fields, name):
    with pytest.raises(ValueError, match=name):
        SweepConfig(**fields)


def test_sweep_config_takes_every_seed_numpy_takes():
    assert SweepConfig(trials=2**32, seed=2**200 + 1).trials == 2**32
    cfg = SweepConfig(trials=np.int64(3), seed=np.uint64(2**64 - 1))
    assert (type(cfg.trials), type(cfg.seed), cfg.seed) == (int, int, 2**64 - 1)
    with pytest.raises(ValueError, match="trial index"):
        run_trial(cfg, 2**32)


# --- the sweep streams against numpy's generators ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 1, 2**128, 2**200 + 7]), st.integers(0, 2**256)),
    indices=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)), min_size=1, max_size=5),
    rounds=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 31)), min_size=1, max_size=8),
    lo=st.floats(-50.0, 50.0).filter(bool),
    hi=st.floats(-50.0, 150.0),
)
@example(seed=0, indices=[0, 2**32 - 1], rounds=[(9, 31), (4, 1), (9, 2)], lo=math.log(2), hi=math.log(3))
@example(seed=2**32 - 1, indices=[2**32 - 1, 0, 5], rounds=[(1, 31)] * 40, lo=math.log(2), hi=math.log(3))
@example(seed=2**32, indices=[7], rounds=[(9, 1)] * 4 + [(4, 1)], lo=-3.0, hi=3.0)
@example(seed=2**64 + 1, indices=[0, 1], rounds=[(9, 3), (9, 2), (9, 1)], lo=1e-3, hi=math.log(100))
@example(seed=2**128 + 3, indices=[2**32 - 1, 0], rounds=[(5, 3), (9, 1)], lo=math.log(2), hi=math.log(3))
def test_sweep_streams_match_numpy(seed, indices, rounds, lo, hi):
    # Each trial's column draws are the doubles of its numpy generator, bit
    # for bit, and lo + (hi - lo) d its uniform(lo, hi) draws: in rounds of 1
    # to 9 draws, the first for every trial and each later one for a subset
    # (a mask over the trials), at most 40 draws in all.
    assume(hi >= lo)
    streams = gaussian._Streams(seed, indices)
    oracles = [
        [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,))) for _ in range(2)]
        for i in indices
    ]
    total = 0
    for n, (k, mask) in enumerate(rounds):
        total += k
        if total > 40:
            break
        rows = [j for j in range(len(indices)) if n == 0 or mask >> j & 1] or list(range(len(indices)))
        got = streams.draw(np.array(rows), k)
        for row, j in zip(got, rows):
            doubles, uniform = oracles[j]
            assert np.array_equal(row.view(np.uint64), doubles.random(k).view(np.uint64))
            assert np.array_equal(gaussian._uniform(lo, hi, row).view(np.uint64), uniform.uniform(lo, hi, k).view(np.uint64))


def test_exp_of_stacked_draws_matches_per_trial_calls():
    # The sampler calls np.exp once on a (rows x 8) block of magnitude
    # uniforms and once on a column of power uniforms, where the one-trial
    # sweep called it on each trial's 8 and on each power alone: no row count
    # from 1 to 2048 may change a bit (say, through a SIMD tail).
    rng = np.random.default_rng(17)
    for lo, hi in ((0.0, math.log(100.0)), (-700.0, 700.0)):
        draws = rng.uniform(lo, hi, size=(2048, 9))
        mags, powers = draws[:, :8].copy(), draws[:, 8].copy()
        per_row = np.array([np.exp(r) for r in mags]).view(np.uint64)
        per_power = np.array([np.exp(x) for x in powers]).view(np.uint64)
        for n in range(1, 2049):
            assert np.array_equal(np.exp(mags[:n]).view(np.uint64), per_row[:n])
            assert np.array_equal(np.exp(powers[:n]).view(np.uint64), per_power[:n])


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


def _reference_float_records(cfg):
    """The reference records with each rate passed through float(): the
    reference keeps numpy floats where the boundary walk left the base point."""
    return tuple(replace(rec, rates=tuple(map(float, rec.rates))) for rec in _reference_records(cfg))


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
# Seeds past one 32-bit word, and past the four-word pool.
@example(SweepConfig(8, 2**64 + 1))
@example(SweepConfig(8, 2**130 + 5))
def test_sweep_matches_reference(cfg):
    # Records equal and print the same (every rate a plain float, bit for bit
    # the reference's), or the same exception.
    assert _sweep_outcome(lambda c: monte_carlo_gap(c).records, cfg) == _sweep_outcome(_reference_float_records, cfg)


@pytest.mark.parametrize(
    "cfg",
    [SweepConfig(23, 3), SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0), SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0)],
    ids=["default", "many-redraws", "trial-23-out-of-draws"],
)
def test_sweep_blocks_match_reference(monkeypatch, cfg):
    # Blocks of 5 trials: block edges, redraw rounds and a failing block
    # rerun trial by trial give the same records, or the same exception for
    # the same trial.
    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", 5)
    assert _sweep_outcome(lambda c: monte_carlo_gap(c).records, cfg) == _sweep_outcome(_reference_float_records, cfg)


# Trial 23 runs out of draws; trials 0 to 22 are all sampled before it does.
_OUT_OF_DRAWS = SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0)


def test_sweep_out_of_draws_reruns_only_the_trials_below(monkeypatch):
    # The sampler's error names the lowest trial still drawing, which is what
    # that trial raises alone, so only trials 0 to 22 are rerun, as one block.
    blocks = []
    trial_block = gaussian._trial_block

    def recorded(cfg, indices):
        blocks.append(list(indices))
        return trial_block(cfg, indices)

    monkeypatch.setattr(gaussian, "_trial_block", recorded)
    with pytest.raises(ValueError, match="^trial 23: none of 1000 sampled networks"):
        monte_carlo_gap(_OUT_OF_DRAWS)
    assert blocks == [list(range(40)), list(range(23))]


def test_sweep_lower_trial_failing_later_wins_over_out_of_draws(monkeypatch):
    # Trial 5 is sampled and then fails at a later stage, while trial 23 runs
    # out of draws: trial 5 is the lowest trial that raises alone, so its
    # error is the sweep's.
    sample_networks = gaussian._sample_networks

    def failing_after_sampling(cfg, streams, indices):
        sampled = sample_networks(cfg, streams, indices)
        if 5 in indices:
            raise ValueError("trial 5: failed after sampling")
        return sampled

    monkeypatch.setattr(gaussian, "_sample_networks", failing_after_sampling)
    with pytest.raises(ValueError, match="^trial 5: failed after sampling$"):
        monte_carlo_gap(_OUT_OF_DRAWS)


def _trial_columns(trials):
    """Session columns, power column and rate columns of explicit trials."""
    nets, rates = zip(*trials)
    up = [np.array([net.uplink[k] for net in nets]) for k in range(4)]
    down = [np.array([net.downlink[k] for net in nets]) for k in range(4)]
    return up, down, np.array([net.power for net in nets]), [np.array([r[k] for r in rates]) for k in range(4)]


def _pipeline_verdicts(trials):
    """Each trial's (stage, max_alpha_excess, min_check_slack, detail,
    uplink allocation, downlink allocation) from the batch pipeline; a hop
    the trial got no split from gives None."""
    stage, excess, slack, detail, _, hops = gaussian._verify_columns(*_trial_columns(trials))
    allocations = {hop: [None] * len(trials) for hop in ("uplink", "downlink")}
    for hop, (rows, splits, _) in hops.items():
        for j, i in enumerate(rows.tolist()):
            allocations[hop][i] = gaussian._HOPS[hop].allocation(splits, j)
    return list(zip(stage.tolist(), excess.tolist(), slack.tolist(), detail, *allocations.values()))


def _report_verdict(report):
    return (
        report.stage, report.max_alpha_excess(), report.min_check_slack(), report.detail, report.uplink, report.downlink
    )


def _reference_verdict(net, rates):
    return _report_verdict(reference_verify_constant_gap(net, rates))


@st.composite
def _explicit_trials(draw):
    """Networks with rates walked from (2, 2, 2, 2) towards the restricted
    boundary, and at times past it."""
    trials = []
    for _ in range(draw(st.integers(1, 12))):
        h = draw(st.lists(st.floats(1.0, 100.0), min_size=8, max_size=8))
        net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:]), draw(st.floats(1.0, 100.0)))
        d = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4))
        rhs = family_rhs(net, True)
        room = [
            (rhs[name] - family_sum(coefs, BASE_POINT)) / family_sum(coefs, d)
            for name, coefs in FAMILY_COEFS.items()
            if family_sum(coefs, d) > 0
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
    # slack, detail and both hops' splits its reference report gives, bit
    # for bit; where a reference trial raises, the batch raises, and the
    # first such trial alone raises the same exception.
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
    assert _pipeline_verdicts(trials) == [_report_verdict(r) for r in reports]
    cases = {(hop, getattr(r, hop).case) for r in reports for hop in ("uplink", "downlink") if getattr(r, hop)}
    assert cases == {(hop, case) for hop in ("uplink", "downlink") for case in ("I", "II", "III")}
    assert {r.stage for r in reports} == {"ok", "uplink-allocation"}


# --- the stacked arrays against entry-by-entry scalar references ------------------------------

_NEAR_GUARD = 6e153  # (2h)^2 P = 1.44e308 at P = 1, just under the network's overflow guard


_rate_entries = st.one_of(
    st.just(-0.0), st.just(0.0), st.floats(-TOL, 0.0, exclude_max=True), st.floats(0.0, 12.0)
)
# Doubles as the streams give them: multiples of 2^-53 in [0, 1).
_directions = st.lists(st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53), min_size=4, max_size=4)


@st.composite
def _stacked_trials(draw):
    """Networks, each with a rate quad and a boundary direction: downlink
    magnitudes that tie, magnitudes just under the overflow guard, rates of
    -0.0 or in [-TOL, 0), and rates within an ulp of a precondition's
    boundary."""
    trials = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            h, power = [_NEAR_GUARD * draw(st.floats(0.5, 1.0)) for _ in range(8)], 1.0
        else:
            h, power = draw(st.lists(_magnitudes, min_size=8, max_size=8)), draw(st.floats(0.05, 200.0))
        h[4:] = [h[k] for k in draw(st.lists(st.integers(4, 7), min_size=4, max_size=4))]
        net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:]), power)
        rates = draw(st.lists(_rate_entries, min_size=4, max_size=4))
        edge = draw(st.none() | st.tuples(st.sampled_from(["uplink", "downlink"]), st.integers(0, 7)))
        if edge:
            _, sessions, rhs = reference_precondition_rhs(net, edge[0])[edge[1]]
            last = rhs + TOL - sum(rates[s] for s in sessions[:-1])
            rates[sessions[-1]] = math.nextafter(last, draw(st.sampled_from([-math.inf, last, math.inf])))
        d = draw(_directions.filter(lambda d: max(d) > 1e-9))
        trials.append((net, rates, d))
    return trials


@settings(max_examples=200, deadline=None)
@given(_stacked_trials())
@example([
    (GaussNetwork((3.0, 5.0), (2.0, 4.0), (7.0, 7.0), (7.0, 7.0), 2.0), [-0.0, 0.0, -5e-10, 3.0], [0.0, 0.5, 0.25, 1e-3]),
    (GaussNetwork(*[(_NEAR_GUARD, _NEAR_GUARD)] * 4, 1.0), [-0.0, -0.0, 2.0, 1.0], [0.3, 0.0, 0.0, 0.7]),
])
def test_stacked_arrays_match_scalar_reference(trials):
    # The family terms of both bounds, the session sums, both hops'
    # preconditions, the boundary walk, and the cascade's slack fold and
    # splits, each on one stacked batch, give every trial's scalar values
    # bit for bit.
    def same(got, want):
        assert (got, repr(got)) == (want, repr(want))

    nets = [net for net, _, _ in trials]
    up, down, p, r = (np.asarray(q) for q in _trial_columns([(net, rates) for net, rates, _ in trials]))
    for restricted in (False, True):
        terms = gaussian._family_terms(up, down, p, restricted)
        for i, net in enumerate(nets):
            same(tuple(terms[:, i].tolist()), tuple(family_rhs(net, restricted).values()))
    sums = gaussian._session_sums(r)
    for i, (_, rates, _) in enumerate(trials):
        same(tuple(sums[:, i].tolist()), tuple(family_sum(coefs, rates) for coefs in FAMILY_COEFS.values()))
    for direction, mags in (("uplink", up), ("downlink", down)):
        errors = gaussian._precondition_errors(direction, gaussian._snrs(mags, p), r)
        for i, (net, rates, _) in enumerate(trials):
            assert (errors.get(i) and str(errors[i])) == _first_failure(
                reference_require_preconditions, direction, net, tuple(rates)
            )

    accepted = [i for i, net in enumerate(nets) if reference_sampler_accepts(net)]
    if not accepted:
        return
    d = np.array([trials[i][2] for i in accepted])
    terms = gaussian._family_terms(up[:, accepted], down[:, accepted], p[accepted], True)
    with np.errstate(over="ignore"):  # as in the sweep: a tiny step's room is inf
        walked = gaussian._boundary_rates(SimpleNamespace(draw=lambda rows, k: d[rows]), terms)
    walks = [(nets[i], tuple(walked[:, j].tolist())) for j, i in enumerate(accepted)]
    for (net, got), i in zip(walks, accepted):
        # The reference sampler's walk, after a draw that gives this direction.
        drawn = SimpleNamespace(random=lambda size, d=trials[i][2]: np.array(d))
        same(got, tuple(map(float, reference_sample_boundary_rates(drawn, net))))
    # Each trial's smallest check slack over both hops, as min() picks it,
    # and its splits.
    expected = [_outcome(_reference_verdict, *walk) for walk in walks]
    if not any(isinstance(kind, type) for kind, _ in expected):
        with np.errstate(over="ignore", invalid="ignore"):  # as verify_constant_gap runs it
            same(_pipeline_verdicts(walks), [value for value, _ in expected])


# --- the reference stands alone -----------------------------------------------------------------


def _private_relaycap_reads(source: str) -> list[str]:
    """Every underscore name of a relaycap module that ``source`` imports or
    reads as an attribute of a name bound by a relaycap import."""
    tree = ast.parse(source)
    bound, found = set(), []

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relaycap":
                    found += [part for part in alias.name.split(".") if private(part)]
                    bound.add(alias.asname or "relaycap")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relaycap":
            found += [part for part in node.module.split(".") if private(part)]
            for alias in node.names:
                if private(alias.name):
                    found.append(alias.name)
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return found


def test_reference_reads_no_private_names():
    # The reference must not drift back onto the module's own tables, where
    # a wrong entry would agree with itself.
    assert _private_relaycap_reads(Path(gauss_reference.__file__).read_text()) == []
    for planted, name in (
        ("from relaycap import gaussian\nx = gaussian._FAMILIES[0]", "_FAMILIES"),
        ("import relaycap.gaussian as g\nx = g._UPLINK_CHAINS", "_UPLINK_CHAINS"),
        ("from relaycap.gaussian import _DOWNLINK_CHAINS", "_DOWNLINK_CHAINS"),
        ("from relaycap.gaussian import GaussNetwork\nGaussNetwork._drawn", "_drawn"),
        ("import relaycap\nrelaycap.gaussian._PRECONDITIONS", "_PRECONDITIONS"),
    ):
        assert _private_relaycap_reads(planted) == [name], planted
    assert _private_relaycap_reads("import numpy as np\nx = np._core\ny = [].__len__") == []
