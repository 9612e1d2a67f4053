import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import det_reference
from relaycap import (
    Cut,
    DetNetwork,
    FullDuplex,
    HalfDuplex,
    RegionSizeError,
    enumerate_cuts,
    enumerate_integral_region,
    in_det_cutset,
)
from relaycap.cutset import _hop_holds
from relaycap.detnet import gain_order
from relaycap.scheduler import NotInRegionError, divide_and_conquer, schedule_half_duplex

REF = DetNetwork((3, 2), (2, 1), (2, 1), (3, 2))


@pytest.mark.parametrize("pairs,count", [(1, 2), (2, 8), (3, 26)])
def test_cut_counts(pairs, count):
    cuts = enumerate_cuts(pairs)
    assert len(cuts) == count
    assert len(set(cuts)) == count


def test_single_pair_cuts():
    assert set(enumerate_cuts(1)) == {Cut((0,), (1,)), Cut((0,), (0,))}


@pytest.mark.parametrize(
    "members,orientation,match",
    [
        ((-1,), (1,), "members must be non-negative integers"),  # used to answer for the last pair
        ((True,), (1,), "members must be non-negative integers"),  # used to answer for pair 1
        ((0.0,), (1,), "members must be non-negative integers"),
        ((0,), (True,), "orientation bits must be the integers 0/1"),
        ((0,), (1.0,), "orientation bits must be the integers 0/1"),  # used to fail in the cut's bound
        ((0,), (2,), "orientation bits must be the integers 0/1"),
    ],
    ids=repr,
)
def test_cut_refuses_non_integer_members_and_bits(members, orientation, match):
    with pytest.raises(ValueError, match=match):
        Cut(members, orientation)


@pytest.mark.parametrize(
    "members,orientation,message",
    [
        ((), (), "a cut needs a nonempty pair subset"),
        ((1, 0), (1, 1), "cut members must be sorted and unique"),
        ((0,), (1, 0), "one orientation bit per member required"),
    ],
    ids=repr,
)
def test_cut_refuses_a_malformed_member_list(members, orientation, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Cut(members, orientation)


def test_a_non_member_verdict_is_false():
    assert bool(in_det_cutset(REF, (9, 0, 0, 0))) is False


def test_cut_accepts_numpy_integers():
    cut = Cut((np.int64(0),), (np.int64(1),))
    assert cut == Cut((0,), (1,))
    assert cut.sessions == (0,) and cut.describe() == "{A1}->relay"


@pytest.mark.parametrize("pairs", [True, 1.0, 2.5, 0, -1, "2"], ids=repr)
def test_enumerate_cuts_refuses_a_count_that_is_no_positive_integer(pairs):
    enumerate_cuts(1)  # a cached 1 must not answer for True
    with pytest.raises(ValueError, match="need at least one pair"):
        enumerate_cuts(pairs)


def test_reference_bounds():
    assert det_reference.cut_bound(REF, Cut((0,), (1,))) == 3  # min(n_A1R, n_RB1)
    assert det_reference.cut_bound(REF, Cut((0, 1), (1, 1))) == 3  # min(max(3,2), max(3,2))
    assert det_reference.cut_bound(REF, Cut((1,), (0,))) == 1  # min(n_B2R, n_RA2)


def test_zero_network_bounds():
    net = DetNetwork((0, 0), (0, 0), (0, 0), (0, 0))
    assert all(det_reference.cut_bound(net, c) == 0 for c in enumerate_cuts(2))


def test_half_duplex_bound_scales():
    mode = HalfDuplex(Fraction(1, 3))
    assert det_reference.cut_bound(REF, Cut((0,), (1,)), mode) == Fraction(1, 1)
    assert det_reference.cut_bound(REF, Cut((0,), (0,)), HalfDuplex(Fraction(1, 2))) == 1


@pytest.mark.parametrize("mode", ["half", None, 0.5, Fraction(1, 2), FullDuplex], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda mode: in_det_cutset(REF, (2, 2, 0, 0), mode),
        lambda mode: enumerate_integral_region(REF, mode),
    ],
    ids=["in_det_cutset", "enumerate_integral_region"],
)
def test_a_value_that_is_not_a_duplex_mode_is_refused(call, mode):
    # Each used to answer for full duplex.
    with pytest.raises(ValueError, match="duplex mode must be FullDuplex or HalfDuplex, got "):
        call(mode)


def test_reference_membership():
    assert in_det_cutset(REF, (2, 1, 1, 1)).member
    assert in_det_cutset(REF, (0, 0, 0, 0)).member


def test_reference_non_membership_with_cuts():
    res = in_det_cutset(REF, (4, 0, 0, 0))
    assert not res.member
    bad = {(v.cut.members, v.cut.orientation) for v in res.violations}
    assert ((0,), (1,)) in bad
    single = next(v for v in res.violations if v.cut.members == (0,))
    assert single.bound == 3 and single.rate_sum == 4


def test_3122_is_outside_reference_region():
    # R_B2 = 2 exceeds min(n_B2R, n_RA2) = 1, so (3,1,2,2) lies outside this
    # network's region (it belongs to a different example topology).
    res = in_det_cutset(REF, (3, 1, 2, 2))
    assert not res.member
    assert ((1,), (0,)) in {(v.cut.members, v.cut.orientation) for v in res.violations}


def test_rate_validation():
    with pytest.raises(ValueError):
        in_det_cutset(REF, (1, 1, 1))
    with pytest.raises(ValueError):
        in_det_cutset(REF, (-1, 0, 0, 0))


@pytest.mark.parametrize(
    "rates,bits",
    [
        ((2, 0, 1, 1), (2, 0, 1, 1)),
        (tuple(map(np.int64, (2, 0, 1, 1))), (2, 0, 1, 1)),
        ((Fraction(1, 2), 0, 1, Fraction(3, 2)), (1, 0, 2, 3)),  # Q = 2
        ((2.0, 0.0, 1.0, 1.0), (2, 0, 1, 1)),
        ((3, 2, 2, 1), (3, 2, 2, 1)),  # a non-member has its bits too
    ],
    ids=["int", "numpy-int", "Fraction", "whole-float", "int-non-member"],
)
@pytest.mark.parametrize("delta", [None, Fraction(1, 3)], ids=["full", "delta=1/3"])
def test_membership_scaled_is_what_the_gate_reads(rates, bits, delta):
    # (Q, listen, transmit, bits): the rates' time scales and the bits they
    # serve over Q uses, which the scheduling gate reads as they stand.
    if delta is None:
        q = 2 if Fraction(1, 2) in rates else 1
        expected = (q, q, q, list(bits))
        scaled = in_det_cutset(REF, rates).scaled
    else:
        q = 6 if Fraction(1, 2) in rates else 3
        expected = (q, q // 3, q - q // 3, [b * 3 for b in bits])
        scaled = in_det_cutset(REF, rates, HalfDuplex(delta)).scaled
    assert scaled == expected  # in full duplex, int rates come back as their own bits
    assert all(type(b) is int for b in scaled[3])


def test_numpy_integer_rates_are_scaled_as_ints():
    # Kept as numpy int64, 3 * 2**62 bits wrapped to a negative count: the
    # tuple was a member at delta = 1/3 and scheduled with no assignment.
    net = DetNetwork((1,), (1,), (1,), (1,))
    rates = (np.int64(2**62), np.int64(2**62))
    membership = in_det_cutset(net, rates, HalfDuplex(Fraction(1, 3)))
    assert not membership.member
    assert membership.scaled[3] == [3 * 2**62, 3 * 2**62]
    with pytest.raises(NotInRegionError):
        schedule_half_duplex(net, Fraction(1, 3), rates)


def test_enumerate_all_ones():
    net = DetNetwork((1,), (1,), (1,), (1,))
    assert enumerate_integral_region(net) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_reference_region():
    region = enumerate_integral_region(REF)
    assert (2, 1, 1, 1) in region
    assert (3, 1, 2, 2) not in region
    assert region == sorted(region)
    assert det_reference.caps(REF) == (3, 2, 2, 1)
    assert region == det_reference.region(REF)


def test_enumerate_zero_network():
    net = DetNetwork((0,), (0,), (0,), (0,))
    assert enumerate_integral_region(net) == [(0, 0)]


def test_enumerate_budget_guard():
    net = DetNetwork((50, 50, 50), (50, 50, 50), (50, 50, 50), (50, 50, 50))
    start = time.perf_counter()
    with pytest.raises(RegionSizeError, match="tests of a 6-session walk exceed work budget"):
        enumerate_integral_region(net)
    assert time.perf_counter() - start < 1.0


def test_enumerate_budget_counts_the_cut_walk():
    # The walk's cost follows the region, not the 3^M - 1 cuts: the
    # one-tuple region of an all-zero M = 12 network, once refused up front
    # for its 531440 cuts, is answered.
    zeros = (0,) * 12
    start = time.perf_counter()
    assert enumerate_integral_region(DetNetwork(zeros, zeros, zeros, zeros)) == [(0,) * 24]
    assert time.perf_counter() - start < 1.0
    # The largest desk-scale walk, M = 3 with gains 6, still fits.
    sixes = (6, 6, 6)
    assert len(enumerate_integral_region(DetNetwork(sixes, sixes, sixes, sixes))) == 3024


def test_enumerate_budget_decided_without_giant_integers():
    # Once a product over all 2M caps and 3^M - 1, formatted into the message:
    # from about M = 9000 that raised "Exceeds the limit (4300 digits) for
    # integer string conversion" instead of RegionSizeError.  Now the one
    # failing probe per coordinate that every walk makes is too many.
    zeros = (0,) * 100_000
    net = DetNetwork(zeros, zeros, zeros, zeros)
    start = time.perf_counter()
    with pytest.raises(RegionSizeError, match="the 200000 or more tests of a 200000-session walk exceed work budget"):
        enumerate_integral_region(net)
    assert time.perf_counter() - start < 1.0
    # A region far past the budget: the walk runs out of it.
    big = (10**40,)
    start = time.perf_counter()
    with pytest.raises(RegionSizeError, match="tests of a 2-session walk exceed work budget"):
        enumerate_integral_region(DetNetwork(big, big, big, big))
    assert time.perf_counter() - start < 1.0


def test_enumerate_beyond_int64():
    # Q = 10**19 does not fit an int64: the numpy box walk raised OverflowError.
    mode = HalfDuplex(Fraction(1, 10**19))
    net = DetNetwork((2 * 10**19,), (1,), (10**19,), (2 * 10**19,))
    assert enumerate_integral_region(net, mode) == [(0, 0), (1, 0), (2, 0)]
    big = (10**19,)
    assert enumerate_integral_region(DetNetwork(big, big, big, big), mode) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_non_member_cut_listing_is_budgeted():
    # M per cut: the 3^9 - 1 cuts of M = 9 fit, those of M = 10 do not.
    assert len(enumerate_cuts(9)) == 3**9 - 1
    with pytest.raises(RegionSizeError, match=r"the 3\^10 - 1 cuts to list exceed work budget"):
        enumerate_cuts(10)
    # Listing the 3^14 - 1 cuts a non-member violates used to take about 90 s.
    zeros = (0,) * 14
    net = DetNetwork(zeros, zeros, zeros, zeros)
    rates = (1,) + (0,) * 27
    for call in (in_det_cutset, divide_and_conquer):
        start = time.perf_counter()
        with pytest.raises(RegionSizeError, match=r"the 3\^14 - 1 cuts to list exceed work budget"):
            call(net, rates)
        assert time.perf_counter() - start < 1.0


def test_enumerate_half_duplex():
    net = DetNetwork((2,), (2,), (2,), (2,))
    region = enumerate_integral_region(net, HalfDuplex(Fraction(1, 2)))
    assert region == [(0, 0), (0, 1), (1, 0), (1, 1)]
    tight = enumerate_integral_region(net, HalfDuplex(Fraction(1, 4)))
    assert tight == [(0, 0)]


def test_enumerate_half_duplex_matches_scalar_oracle():
    rng = np.random.default_rng(60)
    deltas = [Fraction(2, 5), Fraction(5, 7), Fraction(1, 6), Fraction(3, 4)]
    cut_below_box = 0
    for _ in range(25):
        pairs = int(rng.integers(1, 3))
        net = DetNetwork(
            *(tuple(int(g) for g in rng.integers(0, 10, size=pairs)) for _ in range(4))
        )
        mode = HalfDuplex(deltas[int(rng.integers(0, len(deltas)))])
        fast = enumerate_integral_region(net, mode)
        slow = det_reference.region(net, mode)
        assert fast == slow
        cut_below_box += len(slow) < math.prod(c + 1 for c in det_reference.caps(net, mode))
    # The comparison only tells something where a two-pair bound cuts the
    # region below its box of per-direction caps.
    assert cut_below_box >= 5


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.one_of(
        st.just(FullDuplex()),
        st.sampled_from([Fraction(1, 2), Fraction(2, 5), Fraction(5, 7), Fraction(1, 6)]).map(HalfDuplex),
    ),
    st.data(),
)
def test_region_walk_matches_box_reference(pairs, mode, data):
    gain_lists = st.lists(st.integers(0, 6), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    assert enumerate_integral_region(net, mode) == det_reference.region(net, mode)


gains = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(gains, gains, gains, gains, st.data())
def test_bound_monotone_in_gains(ar, br, ra, rb, data):
    net = DetNetwork(ar, br, ra, rb)
    cuts = enumerate_cuts(2)
    cut = data.draw(st.sampled_from(cuts))
    field = data.draw(st.sampled_from(["n_ar", "n_br", "n_ra", "n_rb"]))
    idx = data.draw(st.integers(0, 1))
    raised = list(getattr(net, field))
    raised[idx] += 1
    bumped = DetNetwork(**{f: (tuple(raised) if f == field else getattr(net, f)) for f in ("n_ar", "n_br", "n_ra", "n_rb")})
    assert det_reference.cut_bound(bumped, cut) >= det_reference.cut_bound(net, cut)


@settings(max_examples=60, deadline=None)
@given(gains, gains, gains, gains, st.data())
def test_region_downward_closed(ar, br, ra, rb, data):
    net = DetNetwork(ar, br, ra, rb)
    region = enumerate_integral_region(net)
    tup = data.draw(st.sampled_from(region))
    if sum(tup) == 0:
        return
    k = data.draw(st.sampled_from([i for i, t in enumerate(tup) if t > 0]))
    smaller = tuple(t - (i == k) for i, t in enumerate(tup))
    assert in_det_cutset(net, smaller).member


@settings(max_examples=25, deadline=None)
@given(gains, gains, gains, gains, st.integers(2, 3))
def test_region_scales_with_time_expansion(ar, br, ra, rb, q):
    # Q uses of a network are one use of the network with every gain times
    # Q: its integral region, scaled by Q, is the multiples of Q there.
    net = DetNetwork(ar, br, ra, rb)
    big = det_reference.expand_time(net, q, q)
    region = set(enumerate_integral_region(net))
    big_region = set(enumerate_integral_region(big))
    scaled = {tuple(q * t for t in tup) for tup in region}
    multiples = {tup for tup in big_region if all(t % q == 0 for t in tup)}
    assert scaled == multiples


# --- differential test: threshold oracle against brute-force cuts ------------


def boundary_point(net, rates, mode, past=0):
    """``rates`` with the sessions that no cut lets through zeroed, then
    scaled onto the region's boundary, or ``past`` beyond it."""
    rs = [
        Fraction(r) if det_reference.cut_bound(net, Cut((k // 2,), (1 - k % 2,)), mode) else Fraction(0)
        for k, r in enumerate(rates)
    ]
    ratios = []
    for cut in enumerate_cuts(net.pairs):
        lhs = det_reference.rate_sum(cut, rs)
        if lhs:
            ratios.append(det_reference.cut_bound(net, cut, mode) / lhs)
    scale = min(ratios, default=0) + past
    return [scale * r for r in rs]


rate_values = st.one_of(
    st.just(0),
    st.integers(1, 4),
    st.builds(Fraction, st.integers(1, 12), st.integers(2, 6)),
)
modes = st.one_of(
    st.just(FullDuplex()),
    st.builds(
        lambda den, num: HalfDuplex(Fraction(num % (den - 1) + 1, den)),
        st.integers(2, 7),
        st.integers(0, 5),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), modes, st.sampled_from(["drawn", "boundary", "above"]), st.data())
def test_threshold_oracle_matches_brute_force(pairs, mode, where, data):
    gain_lists = st.lists(st.integers(0, 6), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    rates = data.draw(st.lists(rate_values, min_size=2 * pairs, max_size=2 * pairs))
    if where != "drawn":
        rates = boundary_point(net, rates, mode, Fraction(1, 1000) if where == "above" else 0)
    expected = det_reference.violations(net, rates, mode)
    got = in_det_cutset(net, rates, mode)
    assert got.member == (not expected)
    assert got.violations == expected


# --- direct test: the two one-sided passes against brute-force cuts ----------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.data())
def test_cutset_holds_matches_brute_force_cuts(pairs, up_scale, down_scale, data):
    # The two `_hop_holds` passes, each on its hop's `gain_order`, against
    # every cut.  Gains and rates drawn directly, zeros included, then one
    # session's rate set to the largest value its cuts allow and one above.
    gain_lists = st.lists(st.integers(0, 6), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    uplink, downlink = net.uplink, net.downlink
    rates = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8]), min_size=2 * pairs, max_size=2 * pairs))
    k = data.draw(st.integers(0, 2 * pairs - 1))
    # The scaled network's cut bounds are min(up_scale * a, down_scale * b).
    scaled = det_reference.expand_time(net, up_scale, down_scale)
    room = min(
        det_reference.cut_bound(scaled, cut) - sum(rates[j] for j in cut.sessions if j != k)
        for cut in enumerate_cuts(pairs)
        if k in cut.sessions
    )
    for value in (rates[k], room, room + 1):
        if value >= 0:
            rates[k] = value
            holds = _hop_holds(gain_order(uplink), uplink, rates, up_scale) and (
                _hop_holds(gain_order(downlink), downlink, rates, down_scale)
            )
            assert holds == (not det_reference.violations(scaled, rates)), (net, rates)

