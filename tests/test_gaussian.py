import ast
import importlib
import inspect
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import GenericAlias, SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cut_reference
import det_reference
import gauss_reference
import guards
from gauss_reference import (
    BASE_POINT,
    FAMILY_COEFS,
    PRECONDITIONS,
    awgn_capacity,
    family_rhs,
    family_sum,
    lattice_rate_cap,
    reference_boundary_walk,
    reference_budget_excess,
    reference_double,
    reference_downlink_allocate,
    reference_downlink_rate_check,
    reference_link_snrs,
    reference_precondition_rhs,
    reference_reduce_orderings,
    reference_region_verdict,
    reference_require_preconditions,
    reference_run_trial,
    reference_sampler_accepts,
    reference_snrs,
    reference_swap_pairs,
    reference_uplink_allocate,
    reference_uplink_rate_check,
    reference_verify_constant_gap,
)
from relaycap import (
    AllocationInvalidError,
    DetNetwork,
    GaussNetwork,
    InfeasibleRatesError,
    LowPowerError,
    SweepColumns,
    SweepConfig,
    restricted_bound_gaps,
    downlink_allocate,
    downlink_rate_check,
    enumerate_cuts,
    enumerate_integral_region,
    gauss_cutset,
    gauss_restricted_cutset,
    monte_carlo_gap,
    reduce_orderings,
    uplink_allocate,
    uplink_rate_check,
    verify_constant_gap,
)
from relaycap import chains, gaussian, gaussnet, hops, streams
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
    # whose (2 max|h|)^2 P is not a finite float is refused up front, and
    # the refusal names the largest magnitude itself, even where 2 max|h|
    # is already inf.
    with pytest.raises(ValueError, match="overflows") as refused:
        GaussNetwork((h, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), power)
    assert f"max|h| = {h:.4g}," in str(refused.value)


def test_network_squares_finite_below_the_overflow_bound():
    h = 6e153  # (2h)^2 = 1.44e308, just under the largest float
    net = GaussNetwork((h, h), (h, h), (h, h), (h, h), 1.0)
    for verdict in (gauss_cutset(net, (0, 0, 0, 0)), gauss_restricted_cutset(net, (0, 0, 0, 0))):
        assert verdict.inside and all(math.isfinite(c.rhs) for c in verdict.checks)
    assert all(math.isfinite(g) for g in restricted_bound_gaps(net).values())
    assert all(math.isfinite(x) for x in reference_link_snrs(net))
    up, down, p = net._columns()
    r = gaussnet._one((0.0,) * 4)
    for direction, mags, terms in zip(("uplink", "downlink"), (up, down), gaussnet._hop_terms(up, down, p)):
        splits, kept, _, errors = hops._allocate(direction, mags, p, r, gaussnet._pow2(r), terms)
        assert not errors and kept.tolist() == [0] and np.isfinite(splits.snr).all()


def test_downlink_overspend_names_the_case_and_the_excess():
    # Precondition terms of 100 let every rate through, so the case I split
    # runs past the relay's budget and is refused with the amount.
    net = GaussNetwork((30, 20), (25, 15), (20, 10), (30, 15), 10)
    _, down, p = net._columns()
    r = gaussnet._one((12.0, 6.0, 11.0, 5.0))
    _, kept, _, errors = hops._allocate("downlink", down, p, r, gaussnet._pow2(r), np.full((8, 1), 100.0))
    assert kept.tolist() == [] and isinstance(errors[0], AllocationInvalidError)
    assert str(errors[0]).startswith(
        "downlink case I relay budget exceeded by 932 (alphas (0.007, 0.448, 28.693, 903.60"
    )


# --- rate functions ---------------------------------------------------------


def test_capacity_values():
    assert gaussnet._capacity(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
    assert abs(gaussnet._capacity(np.array([15.0]))[0] - 4.0) < 1e-12


def test_capacity_domain():
    # The first negative entry in row-major order, not the column's first entry.
    with pytest.raises(ValueError, match=r"^capacity argument must be non-negative, got -0\.5$"):
        gaussnet._capacity(np.array([[1.0, -0.5], [-2.0, 0.0]]))


def test_lattice_cap_clamps():
    assert gaussnet._lattice_cap(np.array([0.0, 0.5, 8.0])).tolist() == [0.0, 0.0, 3.0]


def test_column_rate_functions_give_the_python_calls_bits():
    # (log2 x)+ as log2 of np.maximum(x, 1.0), C(x) and 2.0 ** r, bit for
    # bit, on their edges and on a spread of values; 2.0 ** r reads inf
    # where Python's overflows and raises.
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 5e-324, math.inf, -math.inf, math.nan]
    x = np.concatenate([edges, np.exp(rng.uniform(-700.0, 700.0, 500)), rng.uniform(-2.0, 4.0, 500)])
    assert gaussnet._lattice_cap(x).tobytes() == np.array([lattice_rate_cap(v) for v in x.tolist()]).tobytes()
    x = x[~(x < 0)]
    assert gaussnet._capacity(x).tobytes() == np.array([awgn_capacity(v) for v in x.tolist()]).tobytes()
    r = np.concatenate([[-1e-9, -0.0, math.nextafter(1024.0, 0.0), math.inf, math.nan], rng.uniform(0.0, 60.0, 500)])
    assert gaussnet._pow2(r).tobytes() == np.array([2.0**v for v in r.tolist()]).tobytes()
    assert gaussnet._pow2(np.array([1024.0, 1e300])).tolist() == [math.inf, math.inf]


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
# every formula must use h * h * P.
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
    up, down, p = net._columns()
    for direction, terms in zip(("uplink", "downlink"), gaussnet._hop_terms(up, down, p)):
        error = hops._precondition_errors(direction, terms, gaussnet._one(r)).get(0)
        got = None if error is None else str(error)
        assert got == _first_failure(reference_require_preconditions, direction, net, r)
    # The SNRs each hop's allocator walks on, in its chain's pair order
    # (the downlink's pair 1 has the stronger shared-stream receiver),
    # wherever a zero-rate trial of the network in normalised order gets a
    # split.
    ordered = reduce_orderings(net, (0.0,) * 4).net
    up, down, p = ordered._columns()
    per_hop = zip(("uplink", "downlink"), (up, down), (ordered.uplink, ordered.downlink), gaussnet._hop_terms(up, down, p))
    r = gaussnet._one((0.0,) * 4)
    for direction, mags, magnitudes, terms in per_hop:
        splits, kept, _, _ = hops._allocate(direction, mags, p, r, gaussnet._pow2(r), terms)
        if kept.size:
            swapped = direction == "downlink" and ordered.h_rb[1] > ordered.h_rb[0]
            want = reference_swap_pairs(reference_snrs(magnitudes, ordered.power), swapped)  # h * h * P
            assert tuple(splits.snr[:, 0].tolist()) == want
    # The sweep sampler's acceptance: SNR floor, then the exact 2-bit base check.
    base_ok = all(res[name] >= family_sum(coefs, BASE_POINT) for name, coefs in FAMILY_COEFS.items())
    assert gaussian._accepts(*net._columns())[0] == (min(reference_link_snrs(net)) >= MIN_LINK_SNR and base_ok)


@settings(max_examples=200, deadline=None)
@given(st.lists(_magnitudes, min_size=8, max_size=8), st.floats(0.05, 200.0))
@example([1.0, 100.0, 2.1255904992285837, 100.0, 100.0, 100.0, 100.0, 100.0], 1.0)
def test_precondition_rhs_is_the_hop_term_less_its_backoff(h, power):
    # The restricted region is the minimum of the two hops' terms, and each
    # precondition's rhs is its family's term on that hop less its back-off,
    # bit for bit: with only that family's term finite, a rate of
    # rhs + TOL holds and the next float above it fails, naming the row.
    net = GaussNetwork(tuple(h[:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:]), power)
    up, down, p = net._columns()
    hop_terms = gaussnet._hop_terms(up, down, p)
    assert gaussnet._min(*hop_terms)[:, 0].tolist() == list(family_rhs(net, True).values())
    families = [{k for k, c in enumerate(coefs) if c} for coefs in FAMILY_COEFS.values()]
    for direction, terms in zip(("uplink", "downlink"), hop_terms):
        for (name, sessions, backoff), (_, _, want) in zip(
            PRECONDITIONS[direction], reference_precondition_rhs(net, direction)
        ):
            family = families.index(set(sessions))
            rhs = terms[family, 0].item() - backoff
            assert (rhs, repr(rhs)) == (want, repr(want))
            only = np.full_like(terms, math.inf)
            only[family] = terms[family]
            for rate, fails in ((rhs + TOL, False), (math.nextafter(rhs + TOL, math.inf), True)):
                r = [0.0] * 4
                r[sessions[-1]] = rate
                error = hops._precondition_errors(direction, only, gaussnet._one(r)).get(0)
                assert (error.inequality if error else None) == (name if fails else None)


def test_uplink_precondition_reads_the_restricted_term_at_an_ulp():
    # For this |h_B1R|, h ** 2 and h * h differ in the last bit, and the
    # rate r_B1 sits one float above the restricted uplink term of R_B1 less
    # its 1-bit back-off, plus TOL: read from C(h * h P), it is refused.
    h = 2.1255904992285837
    assert (h**2, h * h) == (4.51813497041082, 4.518134970410819)
    net = GaussNetwork((100.0, 100.0), (h, 100.0), (100.0, 100.0), (100.0, 100.0), 1.0)
    r_b1 = math.nextafter(awgn_capacity(h * h) - 1.0 + TOL, math.inf)
    assert r_b1 == 1.4641807456145195
    with pytest.raises(InfeasibleRatesError) as info:
        uplink_allocate(net, (2.0, r_b1, 0.0, 0.0))
    assert info.value.inequality == "r_B1 <= C(|h_B1R|^2 P) - 1"


def test_cascade_preconditions_read_each_hops_terms_at_an_ulp(monkeypatch):
    # For this |h_RB1|, h ** 2 rounds one ulp below h * h, and R_A1 is the
    # largest float within TOL of its restricted term C(h * h P).  Backed off
    # by 2 bits, it sits less than one ulp of R_A1 below its downlink
    # precondition's rhs plus TOL, and above that rhs read from h ** 2.  A
    # rate inside the region meets every precondition of either hop on either
    # hop's terms, so the report cannot show which hop's terms a precondition
    # read: the spy compares each hop's rhs with the reference, bit for bit.
    h = 2.1370988374527102
    assert (h**2, h * h) == (4.567191441041725, 4.567191441041726)
    target = 2.47694969553709
    assert awgn_capacity(h * h) - target >= -TOL > awgn_capacity(h * h) - math.nextafter(target, math.inf)
    rhs = awgn_capacity(h * h) - 2.0
    assert awgn_capacity(h**2) - 2.0 + TOL < target - 2.0 <= rhs + TOL < math.nextafter(target, math.inf) - 2.0
    net = GaussNetwork((100.0, 100.0), (100.0, 100.0), (2.0, 100.0), (h, 100.0), 1.0)
    read, precondition_errors = {}, hops._precondition_errors

    def spy(direction, terms, r):
        read[direction] = terms[:, 0].tolist()
        return precondition_errors(direction, terms, r)

    monkeypatch.setattr(hops, "_precondition_errors", spy)
    report = verify_constant_gap(net, (target, 2.0, 2.0, 2.0))
    assert (report.stage, report.detail, report.normalized.net) == ("ok", "", net)
    families = [{k for k, c in enumerate(coefs) if c} for coefs in FAMILY_COEFS.values()]
    for direction in ("uplink", "downlink"):
        for (name, sessions, backoff), (_, _, want) in zip(
            PRECONDITIONS[direction], reference_precondition_rhs(net, direction)
        ):
            got = read[direction][families.index(set(sessions))] - backoff
            assert (got, repr(got)) == (want, repr(want)), name


def test_hop_loop_stops_at_first_failing_hop(monkeypatch):
    # The cascade reads each hop's functions from its `_HOPS` row: a forced
    # uplink check failure ends the run before the downlink is walked, and
    # a batch with no trial left skips the hop altogether.
    calls = []
    failing = ConstraintCheck("forced", 1.0, 0.0)

    def forced_checks(splits):
        calls.append("up")
        n = len(splits.case)
        return (((0, "forced"),),) * 3, np.ones((1, n)), np.zeros((1, n))

    def recording_walk(mags, snr, r, powers):
        calls.append("down")
        return downlink.walk(mags, snr, r, powers)

    uplink, downlink = hops._HOPS["uplink"], hops._HOPS["downlink"]
    monkeypatch.setitem(hops._HOPS, "uplink", uplink._replace(checks=forced_checks))
    monkeypatch.setitem(hops._HOPS, "downlink", downlink._replace(walk=recording_walk))
    report = verify_constant_gap(snr_net(255.0), (4.0, 4.0, 4.0, 4.0))
    assert calls == ["up"]
    assert report.stage == "uplink-rate-check" and report.detail == "forced"
    assert report.uplink is not None and report.uplink_checks == (failing,)
    assert report.downlink is None and report.downlink_checks == ()


def test_precondition_names_match_reference():
    for direction, reference in PRECONDITIONS.items():
        assert [row[0] for row in hops._PRECONDITIONS[direction]] == [row[0] for row in reference]


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


def _alpha_column(alloc):
    """The allocation's power fractions as the cascade's alpha rows, a batch of one."""
    if isinstance(alloc, DownlinkAllocation):
        return gaussnet._one(alloc.alpha_r)
    return gaussnet._one((*alloc.alpha_a1, *alloc.alpha_a2, alloc.alpha_b1, alloc.alpha_b2))


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
# Negative powers: refused at entry by both.
@example((_normalized_net([3.66, 2.69, 19.0, 40.75, 84.59, 2.0, 9.21, 61.58], 7.01),
          (6.617076885160013, 0.5400246143493648, 2.9015082007705986, 2.7274177087243627), (3, -1.0)))
# A budget that binds only once tampered: A2's, with its Gaussian fraction
# doubled, and the relay's, with its pair-2 shared stream quadrupled.
@example((_normalized_net([6.31, 64.18, 5.13, 7.31, 8.45, 27.54, 57.85, 80.64], 27.45),
          (2.771184913462683, 2.284792478738976, 5.037571114696192, 0.6388383132423753), (2, 2.0)))
@example((_normalized_net([88.72, 96.09, 47.81, 81.24, 5.78, 72.79, 32.6, 2.73], 58.05),
          (8.198984374797833, 4.50706504394909, 7.028172870364892, 3.4150418153173785), (3, 4.0)))
def test_chain_tables_match_reference(inputs):
    net, rates, (stream, factor) = inputs
    for hop, allocate, rate_check, reference_allocate, reference_check in (
        ("uplink", uplink_allocate, uplink_rate_check, reference_uplink_allocate, reference_uplink_rate_check),
        (
            "downlink", downlink_allocate, downlink_rate_check, reference_downlink_allocate,
            reference_downlink_rate_check,
        ),
    ):
        got = _outcome(allocate, net, rates)
        assert got == _outcome(reference_allocate, net, rates)
        alloc = got[0]
        if isinstance(alloc, (UplinkAllocation, DownlinkAllocation)):
            for a in (alloc, _tampered(alloc, stream, factor)):
                excess = hops._excess(_alpha_column(a), hops._HOPS[hop].budgets)[0].item()
                assert repr(excess) == repr(reference_budget_excess(a))
                assert _outcome(rate_check, net, a) == _outcome(reference_check, net, a)


def test_chain_tables_hold_each_stages_widths_and_forms():
    # `_walk` reads each stage only as far as its widths, the most receivers
    # and the most streams under one receiver over the cases, and computes
    # one receiver's closed form, several receivers', or both, as the
    # stage's cases need: one receiver's alone where the stage is one
    # receiver wide.  The downlink's receivers are (1, 2, 2, 3).
    uplink = [[[under] for _, under in chain] for chain in hops._UPLINK_CHAINS]
    downlink = [[[under for _, under in row] for _, row in chain] for chain in hops._DOWNLINK_CHAINS]
    for table, cases, widths in (
        (hops._UPLINK, uplink, ((1, 0), (1, 1), (1, 2), (1, 3))),
        (hops._DOWNLINK, downlink, ((1, 0), (2, 1), (2, 2), (3, 3))),
    ):
        stages = list(zip(*cases))  # per stage, each case's receivers
        assert table.widths == widths
        assert table.widths == tuple(
            (max(map(len, stage)), max(len(under) for receivers in stage for under in receivers)) for stage in stages
        )
        ones = [[len(receivers) == 1 for receivers in stage] for stage in stages]
        assert tuple(width == 1 for width, _ in table.widths) == tuple(all(one) for one in ones)
        assert table.mixed == tuple(any(one) and not all(one) for one in ones)
    lone = [tuple(width == 1 for width, _ in table.widths) for table in (hops._UPLINK, hops._DOWNLINK)]
    assert lone == [(True,) * 4, (True, False, False, False)]
    assert hops._DOWNLINK.mixed == (False, True, True, False)


# --- the engine's refusals ----------------------------------------------------------------------
# Each refusal's exact type and text, so that a rewrite of the chain walker
# or checker cannot drop or reword one unnoticed.

_CASE_I_NET = GaussNetwork((20.0, 6.0), (8.0, 4.0), (20.0, 20.0), (30.0, 25.0), 1.0)  # |h_B2R|^2 P = 16
_CASE_I_RATES = (2.0, 1.0, 1.5, 1.0)


def test_uplink_rate_check_refuses_an_allocation_of_another_case():
    alloc = replace(uplink_allocate(_CASE_I_NET, _CASE_I_RATES), case="II")
    with pytest.raises(ValueError, match=r"^allocation is for case II, network classifies as I$"):
        uplink_rate_check(_CASE_I_NET, alloc)


def test_downlink_rate_check_refuses_an_allocation_of_another_case():
    alloc = downlink_allocate(_CASE_I_NET, _CASE_I_RATES)
    other = replace(alloc, case=next(c for c in ("I", "II", "III") if c != alloc.case))
    with pytest.raises(ValueError, match="^allocation case does not match the network ordering$"):
        downlink_rate_check(_CASE_I_NET, other)


@pytest.mark.parametrize(
    "allocate, reference",
    [(uplink_allocate, reference_uplink_allocate), (downlink_allocate, reference_downlink_allocate)],
)
def test_allocators_refuse_a_rate_whose_power_overflows_at_its_precondition(allocate, reference):
    # 2.0 ** 1024 overflows, and Python raises.  The walks read 2^r only of
    # the rates that meet the hop's preconditions, and no such rate comes
    # near 1024, so a larger one is refused by its precondition.
    for rates in ((1024.0, 0.0, 0.0, 0.0), (2.0, 1.0, 1e300, 0.0)):
        with pytest.raises(InfeasibleRatesError):
            allocate(_CASE_I_NET, rates)
        assert _outcome(allocate, _CASE_I_NET, rates) == _outcome(reference, _CASE_I_NET, rates)


def test_uplink_rate_check_refuses_a_fraction_that_would_zero_a_noise():
    # W = alpha_b2 |h_B2R|^2 P = -0.5 exactly would make x_A2's noise 2 W + 1
    # zero.  A negative fraction is refused at entry, before any check, with
    # every fraction in field order.
    alloc = replace(uplink_allocate(_CASE_I_NET, _CASE_I_RATES), alpha_b2=-0.5 / 16.0)
    message = (
        r"^power fractions must be finite and non-negative, got \(0\.08838834764831845, 0\.035355339059327376, "
        r"0\.057529661440707654, 0\.05555555555555555, 0\.2209708691207961, -0\.03125\)$"
    )
    with pytest.raises(ValueError, match=message):
        uplink_rate_check(_CASE_I_NET, alloc)
    assert _outcome(uplink_rate_check, _CASE_I_NET, alloc) == _outcome(reference_uplink_rate_check, _CASE_I_NET, alloc)


def test_uplink_rate_check_refuses_negative_fractions_after_its_case_check():
    # A negative x_A1 Gaussian fraction, and W = -0.5 as above: one refusal
    # at entry names both.  An allocation of another case is refused for
    # its case first.
    alloc = uplink_allocate(_CASE_I_NET, _CASE_I_RATES)
    alloc = replace(alloc, alpha_a1=(-0.1, alloc.alpha_a1[1]), alpha_b2=-0.5 / (4.0**2 * 1.0))
    message = r"^power fractions must be finite and non-negative, got \(-0\.1, .*, -0\.03125\)$"
    with pytest.raises(ValueError, match=message):
        uplink_rate_check(_CASE_I_NET, alloc)
    with pytest.raises(ValueError, match=r"^allocation is for case II, network classifies as I$"):
        uplink_rate_check(_CASE_I_NET, replace(alloc, case="II"))
    for a in (alloc, replace(alloc, case="II")):
        assert _outcome(uplink_rate_check, _CASE_I_NET, a) == _outcome(reference_uplink_rate_check, _CASE_I_NET, a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.0])
def test_downlink_rate_check_takes_only_finite_fractions(bad):
    # NaN and inf are refused as a negative fraction is; -0.0 is at least 0.
    alloc = downlink_allocate(_CASE_I_NET, _CASE_I_RATES)
    alloc = replace(alloc, alpha_r=(*alloc.alpha_r[:3], bad))
    got = _outcome(downlink_rate_check, _CASE_I_NET, alloc)
    assert got == _outcome(reference_downlink_rate_check, _CASE_I_NET, alloc)
    refused = (ValueError, f"power fractions must be finite and non-negative, got {alloc.alpha_r}")
    assert (got == refused) is (bad != 0.0)


def test_uplink_allocate_refuses_unnormalized_rates():
    message = r"^rates \(0\.5, 1\.0, 0\.5, 0\.0\) not normalized: each pair needs r_A >= r_B >= 0$"
    with pytest.raises(ValueError, match=message):
        uplink_allocate(_CASE_I_NET, (0.5, 1.0, 0.5, 0.0))


@pytest.mark.parametrize("bad", [-5e-10, -2e-9, -0.0])
def test_every_gaussian_entry_refuses_a_negative_rate_alike(bad):
    # One rule at every entry that takes rates: a rate below 0 is refused
    # with one text, within TOL of 0 or not, as the reference refuses it;
    # -0.0 is at least 0 and passes.
    rates = (2.0, bad, 1.5, 1.0)
    refused = (ValueError, f"rates must be finite and non-negative, got {rates}")
    for entry, reference in (
        (uplink_allocate, reference_uplink_allocate),
        (downlink_allocate, reference_downlink_allocate),
        (gauss_cutset, lambda net, r: reference_region_verdict(net, r, False)),
        (gauss_restricted_cutset, lambda net, r: reference_region_verdict(net, r, True)),
        (reduce_orderings, reference_reduce_orderings),
        (verify_constant_gap, reference_verify_constant_gap),
    ):
        got = _outcome(entry, _CASE_I_NET, rates)
        assert got == _outcome(reference, _CASE_I_NET, rates), entry.__name__
        assert (got == refused) is (bad != 0.0), (entry.__name__, got)


@pytest.mark.parametrize(
    "allocate, rate_check, field, reference",
    [
        (uplink_allocate, uplink_rate_check, "alpha_a1", reference_uplink_rate_check),
        (downlink_allocate, downlink_rate_check, "alpha_r", reference_downlink_rate_check),
    ],
    ids=["uplink", "downlink"],
)
def test_rate_checks_refuse_an_over_budget_allocation(allocate, rate_check, field, reference):
    # Fractions that overspend a transmitter's power are refused at entry,
    # however the decoding checks would read them: multiplied by 100, the
    # relay's fractions once passed every downlink check while summing to
    # 1.37.  Within TOL of the budget they are taken.
    alloc = allocate(_CASE_I_NET, _CASE_I_RATES)
    spent = sum(getattr(alloc, field))
    for scale, taken in ((100.0, False), ((1.0 + 5e-10) / spent, True), ((1.0 + 2e-9) / spent, False)):
        tampered = replace(alloc, **{field: tuple(scale * a for a in getattr(alloc, field))})
        got = _outcome(rate_check, _CASE_I_NET, tampered)
        assert got == _outcome(reference, _CASE_I_NET, tampered)
        hop = rate_check.__name__.split("_")[0]
        assert (got[0] is ValueError and got[1].startswith(f"power fractions exceed the {hop} power budget by ")) is not taken, got


def _near_tie_trials(count):
    """``count`` normalised networks (|h| and P log-uniform on [1, 100]), each
    with feasible rates, pair by pair as drawn, moved to a near tie (r_B - r_A
    = k 1e-10 for k in -9..9) or with r_B moved into [-1e-9, 0]."""
    rng = np.random.default_rng(50)
    trials = []
    while len(trials) < count:
        net = random_normalized_net(rng, floor=1.0)
        r = random_feasible_rates(rng, net)
        if r is None:
            continue
        r = list(r)
        for a, kind in zip((0, 2), rng.integers(3, size=2).tolist()):
            if kind == 1:
                r[a] = r[a + 1] - rng.integers(-9, 10).item() * 1e-10
            elif kind == 2:
                r[a + 1] = -rng.uniform(0.0, 1e-9) * rng.integers(2).item()  # -0.0 half the time
        trials.append((net, tuple(r)))
    return trials


@pytest.mark.parametrize(
    "allocate, rate_check",
    [(uplink_allocate, uplink_rate_check), (downlink_allocate, downlink_rate_check)],
    ids=["uplink", "downlink"],
)
def test_allocators_make_only_splits_their_rate_checks_take(allocate, rate_check):
    # An allocator refuses, or makes a split of non-negative fractions that its
    # own rate check takes.  Rates with r_B a hair above r_A, or a pair rate a
    # hair below 0, would make a negative need and so a negative fraction,
    # which the rate check refuses: the allocators refuse such rates exactly,
    # not within TOL.
    unsorted = r"rates \(.*\) not normalized: each pair needs r_A >= r_B >= 0|rates must be finite and non-negative.*"
    made = 0
    for net, rates in _near_tie_trials(300):
        try:
            alloc = allocate(net, rates)
        except (InfeasibleRatesError, LowPowerError, AllocationInvalidError):
            continue
        except ValueError as exc:
            assert re.fullmatch(unsorted, str(exc)), (net, rates, exc)
            continue
        checks = rate_check(net, alloc)
        assert checks and all(isinstance(c, ConstraintCheck) for c in checks)
        assert (_alpha_column(alloc) >= 0.0).all(), (net, rates, alloc)
        made += 1
    assert made >= 100, made


def test_network_refuses_a_magnitude_array_of_the_wrong_length():
    with pytest.raises(ValueError, match="^h_ar needs one magnitude per pair$"):
        GaussNetwork((16.0,), (16.0, 16.0), (16.0, 16.0), (16.0, 16.0), 1.0)


def test_sweep_config_refuses_an_empty_range():
    with pytest.raises(ValueError, match="^magnitude and power ranges must be non-empty$"):
        SweepConfig(3, h_min=5.0, h_max=2.0)


# --- outer-vs-restricted gaps ----------------------------------------------------------------


def test_gap_zero_on_single_rate_families():
    gaps = restricted_bound_gaps(snr_net(20.0))
    for name in ("R_A1", "R_B1", "R_A2", "R_B2"):
        assert gaps[name] == 0.0


def test_bound_gaps_refusal_names_the_first_bad_trial():
    # Eight rows, one per `_FAMILIES` row; trials 1 and 2 leave [0, 1], and
    # only trial 1's gaps are named, each under its own family.
    restricted = np.ones((8, 3))
    planted = np.zeros((8, 3))
    planted[4, 1], planted[7, 1], planted[5, 2] = -0.5, 1.5, 2.0
    with pytest.raises(AssertionError) as info:
        gaussnet._bound_gaps(restricted + planted, restricted)
    assert str(info.value) == "gap outside [0, 1]: {'R_A1+R_A2': -0.5, 'R_B1+R_A2': 1.5}"


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


def test_normalized_hop_terms_are_gathered_bit_for_bit():
    # `_normalize` gathers the normalised network's `_hop_terms` from the
    # input's rather than computing them again: on networks whose
    # magnitudes tie or differ by an ulp, and whose rates call for every
    # side swap, clamp and pair swap, the gathered terms are the computed
    # ones, bit for bit.
    rng = np.random.default_rng(5)
    n = 2000
    values = np.array([2.0, 3.0, math.nextafter(3.0, 4.0), 7.5, 40.0])
    up, down = values[rng.integers(0, 5, (4, n))], values[rng.integers(0, 5, (4, n))]
    p = np.array([1.0, 2.5])[rng.integers(0, 2, n)]
    rates = np.array([0.0, 0.5, 1.0])[rng.integers(0, 3, (4, n))]  # inside every region here
    up, down, _, side, clamps, pairs, hop_terms = gaussnet._normalize(up, down, rates, gaussnet._hop_terms(up, down, p))
    assert hop_terms.tobytes() == gaussnet._hop_terms(up, down, p).tobytes()
    assert side.any() and pairs.any() and all(clamp.any() for _, clamp in clamps)


def test_reduce_orderings_requires_membership():
    with pytest.raises(InfeasibleRatesError):
        reduce_orderings(snr_net(15.0), (9.0, 0.0, 0.0, 0.0))


# --- case classification --------------------------------------------------------------


def _case_of(magnitudes, direction):
    """The case name of one hop's role-ordered magnitudes, as the cascade reads it."""
    return gaussnet._CASES[gaussnet._case_codes(gaussnet._one(magnitudes), direction)[0]]


def test_classify_uplink_cases():
    assert _case_of((10, 5, 3, 1), "uplink") == "I"
    assert _case_of((10, 4, 5, 3), "uplink") == "II"
    assert _case_of((10, 2, 5, 3), "uplink") == "III"


def test_classify_tie_goes_to_lowest_case():
    assert _case_of((5, 5, 5, 5), "uplink") == "I"
    assert _case_of((5, 3, 3, 3), "downlink") == "I"


def test_classify_rejects_unordered():
    with pytest.raises(ValueError):
        _case_of((5, 6, 3, 1), "uplink")
    with pytest.raises(ValueError):
        _case_of((5, 4, 6, 1), "downlink")


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
    assert reference_budget_excess(alloc) <= 0
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
        assert reference_budget_excess(alloc) <= 1e-9
        checks = rate_check(net, alloc)
        assert all(c.slack >= -1e-9 for c in checks), [c for c in checks if c.slack < -1e-9]

    up, down, p, r = (np.asarray(q) for q in _trial_columns(trials))
    up_terms, down_terms = gaussnet._hop_terms(up, down, p)
    mags, terms = (up, up_terms) if direction == "uplink" else (down, down_terms)
    splits, kept, excess, errors = hops._allocate(direction, mags, p, r, gaussnet._pow2(r), terms)
    assert not errors and kept.tolist() == list(range(len(trials)))
    assert (excess <= 1e-9).all(), np.flatnonzero(excess > 1e-9)
    _, lhs, rhs = hops._HOPS[direction].checks(splits)
    assert (rhs - lhs >= -1e-9).all(), np.argwhere(rhs - lhs < -1e-9)


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
    corners += [(*_row_trial(row), case) for seed, row, case in _FROZEN_CORNERS if seed != 0]
    assert [case for *_, case in corners] == ["I", "I", "II", "III"]
    for net, target, case in corners:
        report = verify_constant_gap(net, target)
        assert report.stage == "uplink-allocation", (net, target, report.stage)
        assert f"uplink case {case} power budget exceeded" in report.detail, (net, target, report.detail)
        backed_off = tuple(max(0.0, x - 2.0) for x in report.normalized.rates)
        with pytest.raises(AllocationInvalidError, match=f"^uplink case {case} power budget exceeded"):
            uplink_allocate(report.normalized.net, backed_off)


def _frozen_corners() -> list[tuple[int, tuple, str]]:
    """The seed, `SweepConfig` field-order row (trial, network, rates) and
    uplink case of each frozen sweep trial that fails at the uplink
    allocation: the 17 failures of the seed-0 10^6-trial sweep, then two
    default-range trials of seeds 2162487093 and 1552185256, as the sweep
    drew them before its counter streams."""
    frozen = json.loads((Path(__file__).parent / "data" / "uplink_budget_corners.json").read_text())
    return [(seed, tuple(row), case) for seed, *row, case in frozen["rows"]]


_FROZEN_CORNERS = _frozen_corners()


def test_frozen_corners_fail_at_the_uplink_allocation():
    # Each instance fails in the corner above: a fact about the scheme as the
    # paper states it, whatever stream drew it.  A fix for the corner updates
    # this test, and no instance is dropped to hide it.
    reports = [verify_constant_gap(*_row_trial(row)) for _, row, _ in _FROZEN_CORNERS]
    assert {r.stage for r in reports} == {"uplink-allocation"}
    found = [re.fullmatch(r"uplink case (I+) power budget exceeded by (\S+) \(alphas .*\)", r.detail) for r in reports]
    assert [m[1] for m in found] == [case for *_, case in _FROZEN_CORNERS]
    seed0 = [m for m, (seed, _, _) in zip(found, _FROZEN_CORNERS) if seed == 0]
    assert Counter(m[1] for m in seed0) == {"I": 11, "III": 6}
    assert all(0.00251 <= float(m[2]) <= 0.0785 for m in seed0), [m[2] for m in seed0]


# The trials of `sweep --trials 1000000 --seed 0` that fail, each in the corner above.
_SEED0_FAILURES = (
    147684, 168459, 180685, 218482, 221717, 274177, 357875, 397994,
    526882, 542454, 656382, 736549, 778448, 787878, 834027, 996472,
)


def test_seed0_million_trial_sweep_failures():
    # A trial's draws do not depend on its block, so the failures of the
    # 10^6-trial seed-0 sweep run cheaply as one block of their own.  The test
    # records the scheme as the paper states it: a fix for the corner updates
    # it, and no seed is changed to hide these trials.
    cfg = SweepConfig(10**6, 0)
    c = gaussian._trial_block(cfg, _SEED0_FAILURES)
    assert c.trial == _SEED0_FAILURES
    assert set(c.stage) == {"uplink-allocation"}
    reports = [verify_constant_gap(*_row_trial(row)) for row in zip(*c)]
    assert [r.stage for r in reports] == list(c.stage)
    found = [re.fullmatch(r"uplink case (I+) power budget exceeded by (\S+) \(alphas .*\)", r.detail) for r in reports]
    assert Counter(m[1] for m in found) == {"I": 4, "II": 2, "III": 10}
    assert all(0.0065 <= float(m[2]) <= 0.0905 for m in found), [m[2] for m in found]
    assert run_trial(cfg, _SEED0_FAILURES[3]) == SweepColumns._make((column[3],) for column in c)


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
    assert reference_budget_excess(alloc) <= 1e-9
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
    assert report.max_alpha_excess <= 1e-9
    assert report.min_check_slack >= -1e-9


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


# --- deterministic networks lifted onto Gaussian ones -----------------------------------------
# Each gain n of a deterministic network becomes the magnitude 2^(s n / 2) in
# the same field, at power 1, so each link's SNR is 2^(s n).  For a tuple R
# of the deterministic region, s R lies in the Gaussian cut-set region (a
# single family's term is C(2^(s n)) >= s n, a pair family's at least
# s max(n)), so the paper's claim covers (s R - 3)+: the cascade's back-off
# of the target s R - 1.  The family is finite and holds no random draw.

_LIFT_SCALES = (4, 16, 64)


@pytest.fixture(scope="module")
def lifted_region() -> tuple[np.ndarray, np.ndarray]:
    """Every M = 2 network with all eight gains in 1..3, once per tuple of
    its region: the gains as rows n_ar, n_br, n_ra, n_rb pair by pair and
    the tuples as session rows, one column per (network, tuple)."""
    gains, tuples = [], []
    for g in itertools.product(range(1, 4), repeat=8):
        for rates in enumerate_integral_region(DetNetwork(g[0:2], g[2:4], g[4:6], g[6:8])):
            gains.append(g)
            tuples.append(rates)
    return np.array(gains, dtype=float).T, np.array(tuples, dtype=float).T


@pytest.fixture(scope="module")
def lifted_family(lifted_region) -> tuple[np.ndarray, np.ndarray]:
    """The lifted region's columns with all four rates at least 1."""
    gains, rates = lifted_region
    keep = rates.min(axis=0) >= 1
    return gains[:, keep], rates[:, keep]


@pytest.mark.parametrize("s", _LIFT_SCALES)
def test_lifted_family_passes_the_cascade(lifted_family, s):
    gains, rates = lifted_family
    assert rates.shape == (4, 5924)
    up, down = gaussian._sessions(2.0 ** (s * gains / 2))
    p = np.ones(rates.shape[1])
    hop_terms = gaussnet._hop_terms(up, down, p)
    stage, _, _, _, _, reached = gaussian._verify_columns(up, down, p, s * rates - 1.0, hop_terms)
    assert set(stage.tolist()) == {"ok"}
    (up_rows, up_splits, _), (down_rows, down_splits, _) = reached["uplink"], reached["downlink"]
    assert up_rows.tolist() == down_rows.tolist() == list(range(rates.shape[1]))
    names = np.array(gaussnet._CASES)  # the splits carry case codes
    assert Counter(zip(names[up_splits.case].tolist(), names[down_splits.case].tolist())) == {
        ("I", "I"): 3546, ("I", "II"): 234, ("I", "III"): 792,
        ("II", "I"): 234, ("II", "II"): 20, ("II", "III"): 58,
        ("III", "I"): 796, ("III", "II"): 58, ("III", "III"): 186,
    }


def test_lifted_zero_rate_faces_at_s8_stop_where_they_stop_today(lifted_region):
    # ROADMAP item 19(b).  Each zero rate is raised to a target of 2 and the
    # others sit at s R - 1, so the backed-off point is exactly (s R - 3)+.
    # This records the stage each such target reaches today; it does not
    # assert that the claim fails there.
    gains, rates = lifted_region
    zero = (rates == 0).any(axis=0)
    gains, rates = gains[:, zero], rates[:, zero]
    up, down = gaussian._sessions(2.0 ** (8 * gains / 2))
    p = np.ones(rates.shape[1])
    hop_terms = gaussnet._hop_terms(up, down, p)
    target = np.where(rates == 0, 2.0, 8 * rates - 1.0)
    inside = ~gaussnet._outside(gaussnet._min(*hop_terms), target)[0]
    assert (rates.shape[1], inside.sum()) == (141_273, 95_013)
    rates, target, up, down, p = rates[:, inside], target[:, inside], up[:, inside], down[:, inside], p[inside]
    stage, _, _, detail, _, _ = gaussian._verify_columns(up, down, p, target, hop_terms[:, :, inside])
    assert Counter(stage.tolist()) == {"ok": 93_465, "uplink-allocation": 1548}
    failed = np.flatnonzero(stage == "uplink-allocation")
    assert set((rates[:, failed] == 0).sum(axis=0).tolist()) == {3}
    overspent = [re.fullmatch(r"uplink case (I+) power budget exceeded by (\S+) \(alphas .*\)", detail[i]) for i in failed]
    assert Counter(m[1] for m in overspent) == {"I": 1428, "III": 120}
    assert 0.102 <= min(float(m[2]) for m in overspent) <= max(float(m[2]) for m in overspent) <= 0.125


def _assert_batch_independent(up, down, p, target):
    """`_verify_columns` gives each trial of the batch the same stage,
    budget excess, check slack and detail, bit for bit, in the batch, in a
    permutation of its columns and alone."""
    hop_terms = gaussnet._hop_terms(up, down, p)

    def verdicts(cols):
        stage, excess, slack, detail, _, _ = gaussian._verify_columns(
            up[:, cols], down[:, cols], p[cols], target[:, cols], hop_terms[:, :, cols]
        )
        return list(zip(stage.tolist(), map(repr, excess.tolist()), map(repr, slack.tolist()), detail))

    batch = verdicts(np.arange(len(p)))
    order = np.random.default_rng(44).permutation(len(p))
    assert verdicts(order) == [batch[i] for i in order]
    assert [verdicts([i])[0] for i in range(len(p))] == batch


def test_cascade_trials_do_not_depend_on_their_batch(lifted_family, monkeypatch):
    # Each trial gathers its own case's rows of a hop's tables in one pass
    # over the batch, so its columns may not depend on the trials beside
    # it.  The batch mixes the lifted family's nine (uplink, downlink) case
    # pairs with the 19 frozen trials that fail at the uplink allocation.
    gains, rates = lifted_family
    up, down = gaussian._sessions(2.0 ** (16 * gains / 2))
    p, target = np.ones(rates.shape[1]), 16 * rates - 1.0
    *_, reached = gaussian._verify_columns(up, down, p, target, gaussnet._hop_terms(up, down, p))
    pairs = list(zip(reached["uplink"][1].case.tolist(), reached["downlink"][1].case.tolist()))
    picks = [pairs.index(pair) for pair in itertools.product(range(3), repeat=2)]
    frozen = np.array([row[1:] for _, row, _ in _FROZEN_CORNERS]).T
    h = frozen[[0, 2, 1, 3, 4, 6, 5, 7]]  # `_sessions`' row order, from the CSV's
    failing = (*gaussian._sessions(h), frozen[8], frozen[9:])
    batch = [np.concatenate([a[..., picks], b], axis=-1) for a, b in zip((up, down, p, target), failing)]
    stage = gaussian._verify_columns(*batch, gaussnet._hop_terms(*batch[:3]))[0].tolist()
    assert stage == ["ok"] * 9 + ["uplink-allocation"] * len(_FROZEN_CORNERS)
    _assert_batch_independent(*batch)
    # Planted: each trial reading its neighbour's case rows, or its
    # neighbour's powers, changes it with the batch around it.
    take, walk = chains._take, hops._walk
    for module, name, planted in (
        (chains, "_take", lambda rows, case: take(rows, np.roll(case, 1))),
        (hops, "_walk", lambda table, case, need, g: np.roll(walk(table, case, need, g), 1, axis=1)),
    ):
        with monkeypatch.context() as m:
            m.setattr(module, name, planted)
            with pytest.raises(AssertionError):
                _assert_batch_independent(*batch)


def test_lifted_family_lies_in_the_cutset_region(lifted_family):
    gains, rates = lifted_family
    outside = []
    for s in _LIFT_SCALES:
        for g, r in zip(gains.T.tolist(), rates.T.tolist()):
            h = [2.0 ** (s * n / 2) for n in g]
            rhs = family_rhs(GaussNetwork(h[0:2], h[2:4], h[4:6], h[6:8], 1.0), restricted=False)
            lifted = [s * x for x in r]
            outside += [
                (s, g, r, name) for name, coefs in FAMILY_COEFS.items() if family_sum(coefs, lifted) > rhs[name] + TOL
            ]
    assert outside == []


# --- Monte Carlo sweep ------------------------------------------------------------------------


def _row_trial(row):
    """The network and rates of a sweep row in `SweepColumns` field order."""
    _, a1, b1, a2, b2, ra1, rb1, ra2, rb2, p, *rates = row[:14]
    return GaussNetwork((a1, a2), (b1, b2), (ra1, ra2), (rb1, rb2), p), tuple(rates)


def test_sweep_empty():
    columns = monte_carlo_gap(SweepConfig(trials=0, seed=1))
    assert columns == SweepColumns(*[()] * len(SweepColumns._fields))


def test_sweep_rebuilds_draws_near_the_overflow_guard():
    # (2 max|h|)^2 P = 4e300 P reaches the sampler's 1e300 test, so each draw
    # is built as a GaussNetwork first; that network accepts it.
    columns = monte_carlo_gap(SweepConfig(3, h_min=1e150, h_max=1e150))
    assert list(columns.stage) == ["ok"] * 3


def test_sweep_deterministic_and_worker_invariant(monkeypatch):
    cfg = SweepConfig(trials=64, seed=13)
    a = monte_carlo_gap(cfg)
    b = monte_carlo_gap(cfg)
    assert a == b
    # Trials depend only on (seed, index): any split or order of the indices,
    # here blocks of 16 and one by one from the last, joins into the same
    # columns.
    def join(blocks):
        return SweepColumns._make(sum(column, ()) for column in zip(*blocks))

    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", 16)
    backwards = [run_trial(cfg, i) for i in reversed(range(cfg.trials))]
    assert join(gaussian.sweep_blocks(cfg)) == join(reversed(backwards)) == a
    # The columns stay a value: hashable and picklable.
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_sweep_rates_sit_on_boundary():
    cfg = SweepConfig(trials=32, seed=21)
    for net, rates in map(_row_trial, zip(*monte_carlo_gap(cfg))):
        assert min(rates) >= 2.0
        verdict = gauss_restricted_cutset(net, rates)
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


def test_run_trial_takes_the_top_index():
    # Trial i reads counters i 2^32 + c + 1 of one SplitMix64 sequence, so the
    # top index reads the sequence's last block, and a sampler that runs out
    # of draws reads counters below the boundary walk's.
    assert 9 * gaussian.MAX_SAMPLE_DRAWS <= 2**31 == streams._BOUNDARY
    cfg = SweepConfig(2**32, 3)
    block = gaussian._trial_block(cfg, (0, 2**32 - 1))
    assert run_trial(cfg, 2**32 - 1) == SweepColumns._make((column[1],) for column in block)
    assert run_trial(cfg, 2**32 - 1).stage == ("ok",)


def _log_form_accepts(up, down, p) -> np.ndarray:
    """The sampler's acceptance through C itself: every link clears the SNR
    floor, and every restricted family term holds (2, 2, 2, 2)."""
    h = np.concatenate([up, down])
    base = gaussnet._min(*gaussnet._hop_terms(up, down, p)) >= gaussnet._BASE_SUMS
    return ((h * h * p).min(axis=0) >= MIN_LINK_SNR) & base.all(axis=0)


def test_sampler_thresholds_match_capacity():
    # C is non-decreasing, so C(x) >= c holds exactly from the least such
    # float on: across 10^4 ulps on either side of each threshold.
    for c, least in zip((2.0, 4.0), (gaussian._SINGLE_SNR, gaussian._PAIR_SNR)):
        window = (np.array([least]).view(np.int64) + np.arange(-10**4, 10**4 + 1)).view(float)
        assert ((gaussnet._capacity(window) >= c) == (window >= least)).all(), c
    # So the thresholds accept what the log form accepts: on draws at the
    # default ranges, and on networks planted on each threshold (a pair's
    # uplink sum, a pair's downlink maximum, a link's SNR floor) and 1 and
    # 2 ulps either side of it.
    rng = np.random.default_rng(43)
    h, p = np.exp(rng.uniform(0.0, math.log(100.0), (8, 10**5))), np.exp(rng.uniform(0.0, math.log(100.0), 10**5))
    up, down = gaussian._sessions(h)
    assert np.array_equal(gaussian._accepts(up, down, p), _log_form_accepts(up, down, p))
    ulps = np.arange(-2, 3)

    def near(x):
        return (np.array([x]).view(np.int64) + ulps).view(float)

    ones, twos, fours = np.ones((4, 5)), np.full((4, 5), 2.0), np.full((4, 5), 4.0)
    pair = gaussian._PAIR_SNR
    planted = [
        (ones, twos, near(pair / 2)),  # every pair's uplink sum, (1 + 1) P
        (twos, ones, near(pair)),  # every pair's downlink maximum, 1 P
        (np.array([ones[0], *fours[1:]]), fours, near(MIN_LINK_SNR)),  # the A1 uplink's SNR, 1 P
    ]
    for up, down, p in planted:
        accepts = gaussian._accepts(up, down, p)
        assert accepts.tolist() == (ulps >= 0).tolist()
        assert np.array_equal(accepts, _log_form_accepts(up, down, p))


# --- the sweep streams against the reference f --------------------------------------------


# Counters a sweep reads, and the ends of a trial's block: the first and last
# sampling rounds a trial may draw, and the first boundary directions.
_COUNTERS = [*range(18), *range(8982, 9000), *range(2**31, 2**31 + 8), 2**32 - 1]


def _assert_draws(seed, indices, rows, start, k):
    """`_Streams.draw` gives f(seed, trial, counter) bit for bit, one row per
    counter and one column per trial of ``rows``."""
    got = streams._Streams(seed, indices).draw(np.array(rows, dtype=np.intp), start, k)
    want = [[reference_double(seed, indices[j], c) for j in rows] for c in range(start, start + k)]
    assert np.array_equal(got.view(np.uint64), np.array(want).reshape(k, len(rows)).view(np.uint64))


def test_sweep_streams_match_reference():
    # 8 seeds x 6 trials x 45 counters: seeds of one to seven 32-bit words,
    # the trials at both ends of the index range, and each counter run read
    # as one draw and as the single doubles it holds.
    indices = [0, 1, 12345, 2**31, 2**32 - 2, 2**32 - 1]
    for seed in (0, 1, 2**32 - 1, 2**64, 2**64 + 1, 2**128, 2**160, 2**200 + 7):
        for start, k in ((0, 18), (8982, 18), (2**31, 8)):
            _assert_draws(seed, indices, [5, 0, 3, 1, 4, 2], start, k)
        for c in _COUNTERS:
            _assert_draws(seed, indices, range(6), c, 1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64, 2**160]), st.integers(0, 2**256)),
    indices=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)), min_size=1, max_size=5),
    start=st.one_of(st.sampled_from(_COUNTERS[:-1]), st.integers(0, 2**32 - 36)),
    k=st.integers(1, 36),
    mask=st.integers(1, 31),
)
def test_sweep_streams_match_reference_on_any_rows(seed, indices, start, k, mask):
    # Any subset of a block's trials, in block order, draws its own doubles.
    rows = [j for j in range(len(indices)) if mask >> j & 1] or [0]
    _assert_draws(seed, indices, rows, start, k)


def test_sweep_streams_match_reference_at_the_sweeps_shapes():
    # A 150-trial block draws in the sweep's order: a pass of two sampling
    # rounds for every trial, a pass of the next two for 22 of them, then a
    # boundary direction for every trial.
    indices = range(150)
    every, redrawn = list(range(150)), list(range(0, 150, 7))
    assert len(redrawn) == 22
    for rows, start, k in ((every, 0, 18), (redrawn, 18, 18), (every, 2**31, 4)):
        _assert_draws(1, indices, rows, start, k)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(1, 40).flatmap(lambda words: st.integers(2 ** (32 * words - 32), 2 ** (32 * words) - 1)))
@example(seed=0)
@example(seed=255)
@example(seed=256)
@example(seed=2**128 - 1)
@example(seed=2**128)
@example(seed=2**1279 - 1)
def test_stream_key_takes_every_seed_size(seed):
    # Seeds of 1 to 40 32-bit words, and either side of a byte boundary.
    _assert_draws(seed, [0, 2**32 - 1], [0, 1], 0, 2)


# The modules of the Gaussian side: `gaussian` and the layers it took code
# from.  A source guard reads them all.
GAUSSIAN_MODULES = (gaussnet, chains, hops, streams, gaussian)


def _np_random_reads(source: str) -> list[tuple[str | None, str | None]]:
    """(enclosing def, dotted under its class, and the name read) of each
    read of numpy's random module: `np.random.X` gives X, a bare
    `np.random` gives None, and an import from it gives each name."""
    found = []
    for node, scopes, parent in guards.walk(source):
        owner = ".".join(name for _, name in scopes) or None
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                path = (alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}").split(".")
                if path[:2] == ["numpy", "random"]:
                    found.append((owner, ".".join(path[2:]) or None))
        elif getattr(node, "attr", None) == "random" and getattr(node.value, "id", None) in ("np", "numpy"):
            found.append((owner, parent.attr if isinstance(parent, ast.Attribute) else None))
    return found


def test_streams_read_only_the_seed_pool_from_numpy_random():
    # A per-trial SeedSequence plus generate_state costs about 20 us, half a
    # sweep trial, and importing numpy.random and building a generator costs
    # a process about 10 ms and 6 MB of RSS: `_Streams` computes every stream
    # itself, from the seed's key.  No Gaussian module, `streams` among
    # them, reads a numpy.random name: no SeedSequence, default_rng,
    # Generator or PCG64.
    for module in GAUSSIAN_MODULES:
        assert _np_random_reads(Path(module.__file__).read_text()) == [], module.__name__
    for planted, use in (
        ("def _sample_networks(cfg):\n    return np.random.default_rng(cfg.seed)", ("_sample_networks", "default_rng")),
        ("class S:\n    def __init__(self, s):\n        self.bits = np.random.PCG64(s)", ("S.__init__", "PCG64")),
        ("from numpy.random import Generator", (None, "Generator")),
        ("from numpy import random", (None, None)),
        ("rng = numpy.random", (None, None)),
    ):
        assert _np_random_reads(planted) == [use], planted


# numpy's transcendental functions: each rounds differently from libm on
# some inputs, and so differs from the Python calls the one-trial formulas
# make.
_NP_TRANSCENDENTALS = frozenset(
    "log log2 log10 log1p logaddexp logaddexp2 exp exp2 expm1 power float_power pow cbrt hypot sinc "
    "sin cos tan arcsin arccos arctan arctan2 asin acos atan atan2 "
    "sinh cosh tanh arcsinh arccosh arctanh asinh acosh atanh".split()
)


def _numpy_reads(source: str, names) -> list[tuple[str | None, str]]:
    """(enclosing def, dotted under its class, and the name) of each read
    of a numpy function of ``names``: `np.X` or `numpy.X`, called or not,
    and each import of one from numpy."""
    found = []
    for node, scopes, _ in guards.walk(source):
        owner = ".".join(name for _, name in scopes) or None
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(owner, alias.name) for alias in node.names if alias.name in names]
        elif getattr(node, "attr", None) in names and getattr(node.value, "id", None) in ("np", "numpy"):
            found.append((owner, node.attr))
    return found


def test_no_module_calls_a_numpy_transcendental_but_the_samplers_exp():
    # Every log and every `**` of the pipeline is libm's, entry by entry
    # through `gaussnet._each`: numpy's AVX-512 log1p differs from glibc's
    # on about 2% of inputs.  The one exception is the sampler's np.exp of
    # its uniforms, which the pinned sweep hashes were drawn with.
    package = Path(gaussian.__file__).parent
    for path in sorted(package.glob("*.py")):
        exempt = [("_sample_networks", "exp")] * 2 if path.stem == "gaussian" else []
        assert _numpy_reads(path.read_text(), _NP_TRANSCENDENTALS) == exempt, path.name
    for planted, use in (
        ("def _capacity(x):\n    return np.log1p(x) / _LN2", [("_capacity", "log1p")]),
        ("y = numpy.exp2(r)", [(None, "exp2")]),
        ("def f(x):\n    return _each(np.expm1, x)", [("f", "expm1")]),
        ("class C:\n    def g(self, x):\n        return np.float_power(x, 2)", [("C.g", "float_power")]),
        ("from numpy import maximum, power as pw", [(None, "power")]),
        ("def _lattice_cap(x):\n    return _each(math.log2, np.maximum(x, 1.0))", []),
    ):
        assert _numpy_reads(planted, _NP_TRANSCENDENTALS) == use, planted


# numpy functions written in Python over what an ndarray does itself: each
# pays a Python frame or two on every call, which at a batch of one is most
# of its cost.
_NP_WRAPPERS = frozenset({"take_along_axis", "delete", "flatnonzero"})


def test_sweep_path_calls_no_numpy_python_wrapper():
    # At a batch of one np.take_along_axis costs 9.5 us against 1.2 us for
    # the same fancy index, np.delete 4.7 us, and np.flatnonzero(m).tolist()
    # 1.4 us against 0.3 us for m.nonzero()[0].tolist(): the Gaussian
    # modules index directly.
    for module in GAUSSIAN_MODULES:
        assert _numpy_reads(Path(module.__file__).read_text(), _NP_WRAPPERS) == [], module.__name__
    for planted, use in (
        ("def _normalize(q, src):\n    return np.take_along_axis(q, src, 1)", [("_normalize", "take_along_axis")]),
        ("class C:\n    def f(self, m):\n        return np.flatnonzero(m).tolist()", [("C.f", "flatnonzero")]),
        ("drop = numpy.delete", [(None, "delete")]),
        ("from numpy import delete, nonzero", [(None, "delete")]),
        ("def f(m, rows):\n    return m.nonzero()[0].tolist(), rows[~m]", []),
    ):
        assert _numpy_reads(planted, _NP_WRAPPERS) == use, planted


def test_hop_code_never_dispatches_on_a_case_by_hand():
    # Each trial gathers its own case's rows of the hop tables, so no code
    # loops over the cases or compares a case with its name: a per-case
    # pass pays every numpy call once per case present.
    for module in (chains, hops, gaussian):
        assert guards.case_dispatch(Path(module.__file__).read_text()) == [], module.__name__
    for planted, found in (
        ("for c in range(len(_CASES)):\n    pass", [(None, "loop over _CASES")]),
        ("def f(case):\n    return [c for c in gaussnet._CASES if c]", [("f", "loop over _CASES")]),
        ("def f(alloc):\n    return alloc.case == 'II'", [("f", "case-name compare")]),
        ("class C:\n    def g(self, c):\n        return 'III' != c", [("g", "case-name compare")]),
        ("def f(case):\n    return _CASES[case] if case == 0 else _CASES.index('I')", []),
    ):
        assert guards.case_dispatch(planted) == found, planted


def test_hop_code_never_maps_a_case_name_back_to_its_code():
    # The walks and both rate checks classify with `_case_codes`, so no
    # case's name is made inside the cascade only to be looked up again.
    for module in (chains, hops, gaussian):
        assert guards.case_name_codes(Path(module.__file__).read_text()) == [], module.__name__
    for planted, found in (
        ("def f(up):\n    (case,) = classify_case(up, 'uplink')", [("f", "classify_case")]),
        ("class C:\n    def g(self, m):\n        return gaussnet.classify_case(m, 'downlink')", [("g", "classify_case")]),
        ("code = _CASES.index(name)", [(None, "_CASES.index")]),
        ("def f(c):\n    return np.array([gaussnet._CASES.index(c)])", [("f", "_CASES.index")]),
        ("from .gaussnet import _CASES, classify_case\n__all__ = ['classify_case']", []),
        ("def f(case, names):\n    return _CASES[case], names.index(case), index(case), classify_case", []),
    ):
        assert guards.case_name_codes(planted) == found, planted


def test_hop_layers_check_in_one_pass():
    # The hop API takes only finite powers of at least 0, so
    # `chains._chain_checks` cannot raise: it keeps no error path that
    # reruns the checks trial by trial, and no `_divide` that raises as
    # Python's division does.
    for path in sorted(Path(gaussian.__file__).parent.glob("*.py")):
        found = guards.second_paths(path.read_text())
        kinds = ("try", "_divide") if path.stem in ("chains", "hops") else ("_divide",)
        assert [f for f in found if f[1] in kinds] == [], path.name
    for planted, found in (
        ("def f(x):\n    try:\n        return 1 / x\n    except ZeroDivisionError:\n        raise", [("f", "try")]),
        ("def _divide(a, b):\n    return a / b", [(None, "_divide")]),
        ("from .gaussnet import _divide, _max", [(None, "_divide")]),
        ("class C:\n    def g(self, a, b):\n        return gaussnet._divide(a, b)", [("g", "_divide")]),
        ("def f(a, b):\n    divide = np.divide\n    return divide(a, b), a / b", []),
    ):
        assert guards.second_paths(planted) == found, planted


def _private_defaults(source: str) -> list[str]:
    """Each function whose name starts with a single underscore and that has
    a parameter default, positional or keyword-only."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and (node.args.defaults or any(d is not None for d in node.args.kw_defaults))
    ]


def test_no_private_gaussian_function_has_a_default():
    # Each private function has one call form, and its caller passes what
    # it needs: a default such as `terms=None` recomputed 12 capacity terms
    # per trial whenever a caller left them out.
    for module in GAUSSIAN_MODULES:
        assert _private_defaults(Path(module.__file__).read_text()) == [], module.__name__
    planted = (
        "def _verify_columns(up, down, p, target, terms=None):\n    pass\n"
        "class _Hop:\n    def __init__(self, walk=None):\n        pass\n"
        "    def _take(self, *, rows=()):\n        pass\n"
        "def public(x=1):\n    pass\n"
    )
    assert _private_defaults(planted) == ["_verify_columns", "_take"]


def _libm_work(monkeypatch) -> tuple[int, int, int, int]:
    """The libm maps (`gaussnet._each` calls) and the libm calls (their
    entries) of `_trial_block` on trials 0-149 of seed 0 as one block, then
    on trials 0-19 as batches of one."""
    each, sizes, counts = gaussnet._each, [], []

    def spy(fn, x, *args):
        sizes.append(x.size)
        return each(fn, x, *args)

    monkeypatch.setattr(gaussnet, "_each", spy)
    cfg = SweepConfig(150, 0)
    for blocks in ([range(150)], [(i,) for i in range(20)]):
        sizes.clear()
        for indices in blocks:
            gaussian._trial_block(cfg, indices)
        counts += [len(sizes), sum(sizes)]
    return tuple(counts)


def test_sweep_libm_work_is_pinned(monkeypatch):
    # A libm map costs a few numpy calls however short it is, and a libm
    # call about 60 ns, so each stage of the cascade maps once: a hop's
    # decoding checks once per (hop, cap function), the normalised
    # network's family terms gathered from the sampler's, and 2^r once for
    # both hops.  The pins hold that work: a stage that maps again, or that
    # recomputes a value the block already holds, moves them.  Every other
    # module reaches libm through `gaussnet._each`, so the spy sees it all.
    assert not any(hasattr(module, "_each") for module in (chains, hops, streams, gaussian))
    pinned = (7, 5791, 140, 775)
    assert _libm_work(monkeypatch) == pinned
    # Planted: a hop's checks mapping C once per case present, as they once
    # did, cost a map per (hop, case): all three cases reach both hops in
    # the block, and each map here takes C of the four stream powers.
    chain_checks = hops._chain_checks

    def per_case(table, case, power, g, rates):
        for c in np.unique(case).tolist():
            gaussnet._capacity(power[:, case == c])
        return chain_checks(table, case, power, g, rates)

    monkeypatch.setattr(hops, "_chain_checks", per_case)
    assert _libm_work(monkeypatch) == (7 + 2 * 3, 5791 + 2 * 4 * 150, 140 + 2 * 20, 775 + 2 * 4 * 20)
    monkeypatch.setattr(hops, "_chain_checks", chain_checks)
    # Planted: `_normalize` calling `_hop_terms` again, as it once did,
    # costs a map and 12 calls per trial.
    normalize = gaussian._normalize

    def recomputing(up, down, rates, hop_terms):
        normalized = normalize(up, down, rates, hop_terms)
        gaussnet._hop_terms(normalized[0], normalized[1], np.ones(up.shape[1]))
        return normalized

    monkeypatch.setattr(gaussian, "_normalize", recomputing)
    assert _libm_work(monkeypatch) == (7 + 1, 5791 + 12 * 150, 140 + 20, 775 + 12 * 20)


def test_sweep_libm_work_from_a_cold_start():
    # A fresh interpreter that builds a sweep's config and runs its first
    # block makes the block's libm work and no more: the sampler's
    # acceptance and the config's range check compare SNRs with constants,
    # so no first use of either reads a libm result.
    script = (
        "from relaycap import gaussian, gaussnet\n"
        "each, sizes = gaussnet._each, []\n"
        "def spy(fn, x, *args):\n"
        "    sizes.append(x.size)\n"
        "    return each(fn, x, *args)\n"
        "gaussnet._each = spy\n"
        "gaussian._trial_block(gaussian.SweepConfig(150, 0), range(150))\n"
        "print(len(sizes), sum(sizes))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(gaussian.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["7", "5791"]


def _sampling_work(monkeypatch, cfg) -> tuple[int, list[int]]:
    """The passes `_sample_networks` runs on trials 0 .. cfg.trials - 1 as one
    block, and the size of each libm map it makes."""
    each, draw, maps, passes = gaussnet._each, streams._Streams.draw, [], []

    def spy(fn, x, *args):
        maps.append(x.size)
        return each(fn, x, *args)

    def counted(self, rows, start, k):
        passes.append(len(rows))
        return draw(self, rows, start, k)

    monkeypatch.setattr(gaussnet, "_each", spy)
    monkeypatch.setattr(streams._Streams, "draw", counted)
    indices = range(cfg.trials)
    gaussian._sample_networks(cfg, streams._Streams(cfg.seed, indices), indices)
    return len(passes), maps


def test_sampling_maps_libm_once_per_block(monkeypatch):
    # Acceptance compares SNRs with thresholds, so however many passes a
    # block redraws, its one libm map is the kept networks' `_hop_terms`,
    # 12 capacity terms a trial.  Here most draws are rejected.
    cfg = SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0)
    passes, maps = _sampling_work(monkeypatch, cfg)
    assert passes > 100
    assert maps == [12 * cfg.trials]
    # Planted: a pass computing its candidates' family terms, as the
    # sampler once did each round, maps once more per pass.
    accepts = gaussian._accepts

    def through_terms(up, down, p):
        gaussnet._hop_terms(up, down, p)
        return accepts(up, down, p)

    monkeypatch.setattr(gaussian, "_accepts", through_terms)
    assert len(_sampling_work(monkeypatch, cfg)[1]) == passes + 1


def test_exp_of_stacked_draws_matches_per_trial_calls():
    # The sampler calls np.exp once on an (8 x rows) block of magnitude
    # uniforms, one column per trial, and once on a row of power uniforms,
    # where the one-trial sweep called it on each trial's 8 and on each power
    # alone: no row count from 1 to 2048 may change a bit (say, through a
    # SIMD tail).
    rng = np.random.default_rng(17)
    for lo, hi in ((0.0, math.log(100.0)), (-700.0, 700.0)):
        draws = rng.uniform(lo, hi, size=(2048, 9)).T
        mags, powers = draws[:8].copy(), draws[8].copy()
        per_trial = np.array([np.exp(t) for t in mags.T]).T.view(np.uint64)
        per_power = np.array([np.exp(x) for x in powers]).view(np.uint64)
        for n in range(1, 2049):
            assert np.array_equal(np.exp(mags[:, :n].copy()).view(np.uint64), per_trial[:, :n])
            assert np.array_equal(np.exp(powers[:n]).view(np.uint64), per_power[:n])


# --- the batch pipeline against the reference ----------------------------------------------


def _sweep_outcome(rows_of, cfg):
    """A sweep's rows and their repr, or its exception type and message."""
    try:
        rows = rows_of(cfg)
    except Exception as exc:  # noqa: BLE001 -- the exception itself is compared
        return type(exc), str(exc)
    return rows, repr(rows)


def _sweep_rows(cfg):
    return tuple(zip(*monte_carlo_gap(cfg)))


def _reference_rows(cfg):
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
# Up to 204 draws for one network.
@example(SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0))
# Trial 0 runs out of draws; then trial 8 does, after 0 to 7 were sampled.
@example(SweepConfig(20, 0, 1.0, 4.0, 1.0, 1.0))
@example(SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0))
# Seeds past one 32-bit word, and past the four-word pool.
@example(SweepConfig(8, 2**64 + 1))
@example(SweepConfig(8, 2**130 + 5))
def test_sweep_matches_reference(cfg):
    # Rows equal and print the same (every rate a plain float, bit for bit
    # the reference's), or the same exception.
    assert _sweep_outcome(_sweep_rows, cfg) == _sweep_outcome(_reference_rows, cfg)


@pytest.mark.parametrize(
    "cfg",
    [SweepConfig(23, 3), SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0), SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0)],
    ids=["default", "many-redraws", "trial-8-out-of-draws"],
)
def test_sweep_blocks_match_reference(monkeypatch, cfg):
    # Blocks of 5 trials: block edges, redraw rounds and a failing block
    # rerun trial by trial give the same rows, or the same exception for
    # the same trial.
    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", 5)
    assert _sweep_outcome(_sweep_rows, cfg) == _sweep_outcome(_reference_rows, cfg)


# Trial 8 runs out of draws; trials 0 to 7 are all sampled before it does.
_OUT_OF_DRAWS = SweepConfig(40, 7, 1.0, 4.0, 1.0, 2.0)


@pytest.mark.parametrize("rounds_per_pass", [1, 3, 4])
def test_sweep_rows_do_not_depend_on_the_rounds_per_pass(monkeypatch, rounds_per_pass):
    # A round's doubles are a pure function of (seed, trial, counter), so a
    # pass of any number of rounds, at any block size, and each trial alone
    # give the same rows, or the same exception.  Three rounds do not divide
    # `MAX_SAMPLE_DRAWS`, so a trial that runs out of draws ends on a short pass.
    configs = (SweepConfig(64, 13), SweepConfig(40, 7, 1.0, 8.0, 1.0, 1.0), _OUT_OF_DRAWS)
    want = [_sweep_outcome(_sweep_rows, cfg) for cfg in configs]
    monkeypatch.setattr(gaussian, "_ROUNDS_PER_PASS", rounds_per_pass)
    for block in (gaussian.SWEEP_BLOCK, 7):
        monkeypatch.setattr(gaussian, "SWEEP_BLOCK", block)
        assert [_sweep_outcome(_sweep_rows, cfg) for cfg in configs] == want
    for cfg, (rows, _) in zip(configs[:2], want):
        assert tuple(next(zip(*run_trial(cfg, i))) for i in range(cfg.trials)) == rows
    assert _sweep_outcome(lambda cfg: run_trial(cfg, 8), _OUT_OF_DRAWS) == want[2]


def _planted_stream(rounds):
    """A stream whose trial j draws ``rounds[j][r]`` for each of round r's 9
    doubles, and its last entry in every later round."""

    def draw(rows, start, k):
        return np.array([[rounds[j][min((start + c) // 9, len(rounds[j]) - 1)] for j in rows.tolist()] for c in range(k)])

    return SimpleNamespace(draw=draw)


@pytest.mark.parametrize("rounds_per_pass", [1, 2])
def test_sampler_refuses_draws_in_round_then_trial_order(monkeypatch, rounds_per_pass):
    # At the default ranges a uniform double of 0 gives |h| = P = 1, which the
    # sampler rejects; 0.99 gives a network it keeps; 100 and 110 give
    # magnitudes of about 1e200 and 1e220, whose square GaussNetwork refuses.
    # A pass draws every round of every pending trial, yet raises only for
    # rounds its trial reaches, the first in round-then-trial order.
    monkeypatch.setattr(gaussian, "_ROUNDS_PER_PASS", rounds_per_pass)
    cfg = SweepConfig(3, 0)
    # As in the sweep, a refused draw's SNRs may overflow before it is built.
    sample = gaussnet._quiet(gaussian._sample_networks)

    def refused(rounds):
        with pytest.raises(ValueError, match=r"^\(2 max\|h\|\)\^2 P overflows a float") as raised:
            sample(cfg, _planted_stream(rounds), range(3))
        return float(re.search(r"max\|h\| = (\S+),", str(raised.value))[1])

    # Trial 0 is kept at round 0 and never reaches its refused round 1;
    # trial 1 reaches its round 1 before trial 2 does.
    assert refused([[0.99, 110.0], [0.0, 110.0], [0.0, 100.0]]) == 1e220
    # Trial 2's round 0 comes before trial 1's round 1.
    assert refused([[0.99, 110.0], [0.0, 110.0], [100.0]]) == 1e200
    h, p, _ = sample(cfg, _planted_stream([[0.99, 110.0]] * 3), range(3))
    assert h.tolist() == [[np.exp(math.log(100.0) * 0.99).item()] * 3] * 8


def test_sweep_out_of_draws_reruns_only_the_trials_below(monkeypatch):
    # The sampler's error names the lowest trial still drawing, which is what
    # that trial raises alone, so only trials 0 to 7 are rerun, as one block.
    blocks = []
    trial_block = gaussian._trial_block

    def recorded(cfg, indices):
        blocks.append(list(indices))
        return trial_block(cfg, indices)

    monkeypatch.setattr(gaussian, "_trial_block", recorded)
    with pytest.raises(ValueError, match="^trial 8: none of 1000 sampled networks"):
        monte_carlo_gap(_OUT_OF_DRAWS)
    assert blocks == [list(range(40)), list(range(8))]


def test_sweep_lower_trial_failing_later_wins_over_out_of_draws(monkeypatch):
    # Trial 5 is sampled and then fails at a later stage, while trial 8 runs
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
    up, down, p, r = (np.asarray(q) for q in _trial_columns(trials))
    hop_terms = gaussnet._hop_terms(up, down, p)
    stage, excess, slack, detail, _, reached = gaussian._verify_columns(up, down, p, r, hop_terms)
    allocations = {hop: [None] * len(trials) for hop in ("uplink", "downlink")}
    for hop, (rows, splits, _) in reached.items():
        for j, i in enumerate(rows.tolist()):
            allocations[hop][i] = hops._HOPS[hop].allocation(splits, j)
    return list(zip(stage.tolist(), excess.tolist(), slack.tolist(), detail, *allocations.values()))


def _report_verdict(report):
    """A reference report's verdict as `_pipeline_verdicts` gives it, with
    the excess and slack the reference computes."""
    return (
        report.stage, report.max_alpha_excess, report.min_check_slack, report.detail, report.uplink, report.downlink,
    )


def _reference_verdict(net, rates):
    return _report_verdict(reference_verify_constant_gap(net, rates))


@st.composite
def _explicit_trial(draw):
    """A network with rates walked from (2, 2, 2, 2) towards the restricted
    boundary, and at times past it."""
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
    return net, tuple(2.0 + t * x for x in d)


@st.composite
def _explicit_trials(draw):
    """One to twelve `_explicit_trial`s."""
    return [draw(_explicit_trial()) for _ in range(draw(st.integers(1, 12)))]


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
    trials = [_row_trial(reference_run_trial(cfg, i)) for i in range(cfg.trials)]
    trials.insert(150, _CORNER_TRIAL)
    reports = [reference_verify_constant_gap(net, rates) for net, rates in trials]
    assert _pipeline_verdicts(trials) == [_report_verdict(r) for r in reports]
    cases = {(hop, getattr(r, hop).case) for r in reports for hop in ("uplink", "downlink") if getattr(r, hop)}
    assert cases == {(hop, case) for hop in ("uplink", "downlink") for case in ("I", "II", "III")}
    assert {r.stage for r in reports} == {"ok", "uplink-allocation"}


@settings(max_examples=100, deadline=None)
@given(_explicit_trial())
@example(_CORNER_TRIAL)
def test_report_matches_reference(trial):
    # The whole public report, its excess and slack fields included, equals
    # the reference's and prints as it does; or both raise the same exception.
    assert _outcome(verify_constant_gap, *trial) == _outcome(reference_verify_constant_gap, *trial)


def _peak_float(x) -> bool:
    """A value `cli._gauss_sweep`'s plain max() from 0.0 folds as max() over
    the trials would: a float in [0.0, 1 + TOL], not NaN and not -0.0."""
    return type(x) is float and 0.0 <= x <= 1.0 + TOL and math.copysign(1.0, x) == 1.0


def test_peak_float_rejects_nan_and_negative_zero():
    assert all(map(_peak_float, (0.0, TOL, 1.0, 1.0 + TOL)))
    assert not any(map(_peak_float, (math.nan, -0.0, -TOL, 1.0 + 2 * TOL, math.inf, np.float64(0.5), 0)))


@settings(max_examples=60, deadline=None)
@given(_sweep_configs(), _explicit_trials())
@example(SweepConfig(64, 13), [_CORNER_TRIAL, (snr_net(255.0), (4.0, 4.0, 4.0, 4.0))])
def test_excess_and_gap_columns_hold_plain_floats(cfg, trials):
    # The cascade's excess starts as np.zeros and only `_max` raises it, by
    # at most TOL; the gap is `_max` over 0.0 and gaps `_bound_gaps` bounds.
    # So both columns hold `_peak_float`s, on every stage, failing ones too.
    try:
        for block in gaussian.sweep_blocks(cfg):
            assert all(map(_peak_float, block.max_alpha_excess + block.bound_gap)), block
    except ValueError:  # a trial ran out of draws: the blocks before it were checked
        pass
    kept = [trial for trial in trials if not isinstance(_outcome(reference_verify_constant_gap, *trial)[0], type)]
    excess = [verdict[1] for verdict in _pipeline_verdicts(kept)] if kept else []
    assert all(map(_peak_float, excess)), excess


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
    restricted_terms = gaussnet._min(*gaussnet._hop_terms(up, down, p))
    cutset_terms = gaussnet._cutset_terms(up, down, p, restricted_terms)
    for restricted, terms in ((False, cutset_terms), (True, restricted_terms)):
        for i, net in enumerate(nets):
            same(tuple(terms[:, i].tolist()), tuple(family_rhs(net, restricted).values()))
    sums = gaussnet._session_sums(r)
    for i, (_, rates, _) in enumerate(trials):
        same(tuple(sums[:, i].tolist()), tuple(family_sum(coefs, rates) for coefs in FAMILY_COEFS.values()))
    for direction, terms in zip(("uplink", "downlink"), gaussnet._hop_terms(up, down, p)):
        errors = hops._precondition_errors(direction, terms, r)
        for i, (net, rates, _) in enumerate(trials):
            assert (errors.get(i) and str(errors[i])) == _first_failure(
                reference_require_preconditions, direction, net, tuple(rates)
            )

    accepted = [i for i, net in enumerate(nets) if reference_sampler_accepts(net)]
    if not accepted:
        return
    d = np.array([trials[i][2] for i in accepted])
    terms = gaussnet._min(*gaussnet._hop_terms(up[:, accepted], down[:, accepted], p[accepted]))
    with np.errstate(over="ignore"):  # as in the sweep: a tiny step's room is inf
        walked = gaussian._boundary_rates(SimpleNamespace(draw=lambda rows, start, k: d[rows].T), terms)
    walks = [(nets[i], tuple(walked[:, j].tolist())) for j, i in enumerate(accepted)]
    for (net, got), i in zip(walks, accepted):
        # The reference sampler's walk along this direction.
        same(got, reference_boundary_walk(net, trials[i][2]))
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
    # Neither reference may drift back onto the package's own tables, where
    # a wrong entry would agree with itself.
    for reference in (gauss_reference, det_reference, cut_reference):
        assert _private_relaycap_reads(Path(reference.__file__).read_text()) == [], reference.__name__
    # The deterministic one reads node gains, never session-ordered gains or the tables built from them.
    tree = ast.parse(Path(det_reference.__file__).read_text())
    assert not {"uplink", "downlink", "hop_orders", "sources", "_bit_table"} & {getattr(n, "attr", 0) for n in ast.walk(tree)}
    for planted, name in (
        ("from relaycap.scheduler import _run_induction", "_run_induction"),
        ("from relaycap import gaussian\nx = gaussian._FAMILIES[0]", "_FAMILIES"),
        ("import relaycap.gaussian as g\nx = g._UPLINK_CHAINS", "_UPLINK_CHAINS"),
        ("from relaycap.gaussian import _DOWNLINK_CHAINS", "_DOWNLINK_CHAINS"),
        ("from relaycap.gaussian import GaussNetwork\nGaussNetwork._drawn", "_drawn"),
        ("import relaycap\nrelaycap.gaussian._PRECONDITIONS", "_PRECONDITIONS"),
    ):
        assert _private_relaycap_reads(planted) == [name], planted
    assert _private_relaycap_reads("import numpy as np\nx = np._core\ny = [].__len__") == []


def _relaycap_code_imports(source: str) -> list[str]:
    """Every name ``source`` imports from relaycap that is not a class, an
    exception, a type alias or a constant: a function, or a module whose
    functions it could then call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "relaycap"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relaycap":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if inspect.ismodule(value) or (callable(value) and not isinstance(value, (type, GenericAlias))):
                    found.append(alias.name)
    return found


def test_reference_imports_no_function():
    # Each reference computes everything itself, C(x), (log2 x)+ and the cut
    # list included: a function it imported would agree with itself.
    for reference in (gauss_reference, det_reference, cut_reference):
        assert _relaycap_code_imports(Path(reference.__file__).read_text()) == [], reference.__name__
    for planted, names in (
        ("from relaycap.gaussian import gauss_cutset", ["gauss_cutset"]),
        ("from relaycap import FULL_DUPLEX, GaussNetwork, verify_constant_gap", ["verify_constant_gap"]),
        ("from relaycap.gaussnet import InfeasibleRatesError, RateQuad, reduce_orderings", ["reduce_orderings"]),
        ("from relaycap import gaussian", ["gaussian"]),
        ("import relaycap.gaussian as g", ["relaycap.gaussian"]),
        ("import numpy as np\nfrom math import log1p", []),
    ):
        assert _relaycap_code_imports(planted) == names, planted


def test_both_models_share_one_cut_list():
    # `enumerate_cuts` lists what the deterministic reference lists, in its
    # order; and the two-pair Gaussian families, as `gaussnet` and the
    # reference each write the paper's table, are the session sets of the
    # two-pair cuts.
    for pairs in range(1, 6):
        assert enumerate_cuts(pairs) == det_reference.cuts(pairs), pairs
    families = Counter(frozenset(sessions) for _, sessions, _, _ in gaussnet._FAMILIES)
    supports = Counter(frozenset(k for k, c in enumerate(coefs) if c) for coefs in FAMILY_COEFS.values())
    crossing = Counter(frozenset(cut.sessions) for cut in enumerate_cuts(2))
    assert len(crossing) == 8 and families == supports == crossing


def _cut_mismatches(got: dict, want: dict, ulps: int = 0) -> list[tuple[str, tuple[int, ...]]]:
    """Each crossing set one bound table has and the other lacks, and each
    whose bounds differ by more than ``ulps`` of the wanted one."""
    found = [("missing", key) for key in want.keys() - got.keys()] + [("extra", key) for key in got.keys() - want.keys()]
    found += [("bound", key) for key in want.keys() & got.keys() if abs(got[key] - want[key]) > ulps * math.ulp(want[key])]
    return sorted((kind, tuple(sorted(key))) for kind, key in found)


def test_node_cuts_derive_the_deterministic_cut_list():
    # Every node subset's crossing sessions, each set at its least GF(2)
    # rank, are `enumerate_cuts`' cuts at `det_reference.cut_bound`.
    rng = np.random.default_rng(22)
    for pairs in range(1, 5):
        for _ in range(10):
            net = DetNetwork(*(tuple(g) for g in rng.integers(0, 7, size=(4, pairs)).tolist()))
            want = {frozenset(cut.sessions): det_reference.cut_bound(net, cut) for cut in enumerate_cuts(pairs)}
            assert _cut_mismatches(cut_reference.det_bounds(net), want) == [], net
    # The rank of the stacked shift matrices is the largest gain.
    assert cut_reference.gf2_rank(cut_reference.shift(6, 4) + cut_reference.shift(6, 2)) == 4


def test_node_cuts_derive_the_gaussian_families():
    # For two pairs the node cuts give the paper's eight families, at the
    # general cut-set terms.  The reference computes C as log1p(x) / ln 2,
    # this one as log2(1 + x), so they may differ in the last bits: at the
    # sweep's ranges, where every x is at least 1, by at most 2 ulps of 300
    # draws; 4 are allowed.
    rng = np.random.default_rng(22)
    for _ in range(300):
        h, p = np.exp(rng.uniform(0.0, math.log(100.0), size=8)).tolist(), float(np.exp(rng.uniform(0.0, math.log(100.0))))
        net = GaussNetwork(tuple(h[0:2]), tuple(h[2:4]), tuple(h[4:6]), tuple(h[6:8]), p)
        rhs = family_rhs(net, restricted=False)
        want = {frozenset(k for k, c in enumerate(coefs) if c): rhs[name] for name, coefs in FAMILY_COEFS.items()}
        got = cut_reference.gauss_bounds(net)
        assert _cut_mismatches(got, want, ulps=4) == [], net
    # A family dropped, one too many, or one off by more than the ulps, fails.
    assert _cut_mismatches({k: v for k, v in got.items() if k != {0, 3}}, want, 4) == [("missing", (0, 3))]
    assert _cut_mismatches({**got, frozenset({0, 1}): 1.0}, want, 4) == [("extra", (0, 1))]
    off = {**got, frozenset({2}): want[frozenset({2})] + 5 * math.ulp(want[frozenset({2})])}
    assert _cut_mismatches(off, want, 4) == [("bound", (2,))]
