import dataclasses
import itertools
import json
import math
import pickle
import re
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import det_reference
import guards
from relaycap import (
    DetNetwork,
    HalfDuplex,
    InductionInvariantError,
    LevelAssignment,
    Membership,
    NotInRegionError,
    RegionSizeError,
    Schedule,
    ScheduleInvalidError,
    ShapeError,
    chunk_schedule,
    divide_and_conquer,
    enumerate_integral_region,
    in_det_cutset,
    random_messages,
    schedule_fractional,
    schedule_half_duplex,
    simulate_schedule,
    validate_schedule,
)
from relaycap import FullDuplex, cli, detnet, scheduler
from relaycap.cutset import _hop_holds, _time_scales
from relaycap.detnet import SIDES, NodeId, node_downlink_receive, relay_uplink_receive
from relaycap.scheduler import SOLO, XOR, SimulationResult, _run_induction, _take

REF = DetNetwork((3, 2), (2, 1), (2, 1), (3, 2))

# In-region home for the (3,1,2,2) walkthrough tuple (the reference network
# cannot carry it: its pair-2 backward rate is capped at 1).
WALKTHROUGH_NET = DetNetwork((5, 3), (3, 3), (1, 3), (5, 3))


def assert_exact_simulation(sched, seed=0, payloads=20):
    rng = np.random.default_rng(seed)
    for _ in range(payloads):
        msgs = random_messages(sched, rng)
        res = simulate_schedule(sched, msgs)
        assert res.ok, (msgs, res.decoded)


def random_network(rng, max_pairs=3, max_gain=6):
    pairs = int(rng.integers(1, max_pairs + 1))
    return DetNetwork(
        *(
            tuple(int(g) for g in rng.integers(0, max_gain + 1, size=pairs))
            for _ in range(4)
        )
    )


# --- reductions: the reference's reach and removal, by hand -----------------


def reduce_step(net, pair, side):
    """One step of the reference induction: the bit's reach, then its removal."""
    l_u, l_d = det_reference.reach(net, pair, side)
    return det_reference.reduce(net, l_u, l_d), l_u, l_d


def test_reduce_bidirectional_reference_pair1():
    reduced, l_u, l_d = reduce_step(REF, 0, None)
    assert (l_u, l_d) == (2, 2)
    # every gain at or above the removed level drops, in both directions
    assert reduced.n_ar == (2, 1) and reduced.n_br == (1, 1)
    assert reduced.n_ra == (1, 1) and reduced.n_rb == (2, 1)


def test_reduce_bidirectional_unit_network():
    net = DetNetwork((1,), (1,), (1,), (1,))
    reduced, l_u, l_d = reduce_step(net, 0, None)
    assert (l_u, l_d) == (1, 1)
    assert reduced == DetNetwork((0,), (0,), (0,), (0,))


def test_reduce_bidirectional_keeps_pair_symmetry():
    net = DetNetwork((4, 3), (4, 3), (2, 5), (2, 5))
    reduced, _, _ = reduce_step(net, 0, None)
    assert reduced.n_ar == reduced.n_br
    assert reduced.n_ra == reduced.n_rb


def test_reduce_bidirectional_requires_all_links():
    # B1 reaches no uplink level, so an XOR bit of pair 1 has none: the
    # induction, called directly on this non-member, finds no free level.
    net = DetNetwork((2,), (0,), (1,), (1,))
    message = "step 1 (xor pair 0) found no free uplink level; this contradicts the induction safety proof"
    refusal = _outcome(_run_induction, net, 1, 1, [1, 1])
    assert refusal == _outcome(det_reference.induction, net, [1, 1]) == (InductionInvariantError, message)


def test_reduce_oneway_levels():
    net = DetNetwork((2, 1), (0, 1), (1, 1), (3, 1))
    reduced, l_u, l_d = reduce_step(net, 0, "A")
    assert (l_u, l_d) == (2, 3)
    assert reduced.n_ar[0] == 1  # the source always loses exactly one level


def test_reduce_oneway_source_drop():
    rng = np.random.default_rng(3)
    for _ in range(50):
        net = random_network(rng)
        for pair in range(net.pairs):
            for side in ("A", "B"):
                if min(det_reference.reach(net, pair, side)) < 1:
                    continue
                reduced, _, _ = reduce_step(net, pair, side)
                assert reduced.uplink_gain(pair, side) == net.uplink_gain(pair, side) - 1


def test_solo_assignment_refuses_an_unknown_side():
    for side in ("C", "a", ""):
        with pytest.raises(ValueError, match="SOLO side"):
            LevelAssignment(0, "solo", side, 0, 1, 0, 1)
    assert LevelAssignment(0, "solo", "B", 0, 1, 0, 1).side == "B"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: LevelAssignment(0, "both", None, 0, 1, 0, 1), "unknown assignment kind 'both'"),
        (lambda: LevelAssignment(0, XOR, "A", 0, 1, 0, 1), "XOR assignments carry no side; SOLO assignments need one"),
        (lambda: LevelAssignment(0, SOLO, None, 0, 1, 0, 1), "XOR assignments carry no side; SOLO assignments need one"),
    ],
    ids=["unknown-kind", "xor-with-side", "solo-without-side"],
)
def test_scheduler_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


ASSIGNMENT_INT_FIELDS = ("pair", "uplink_slot", "uplink_level", "downlink_slot", "downlink_level")


@pytest.mark.parametrize("bad", [1.5, 1.0, 0.0, True, False, "1", None, Fraction(1), np.float64(1.0)])
@pytest.mark.parametrize("field", ASSIGNMENT_INT_FIELDS)
def test_assignment_refuses_non_integer_fields(field, bad):
    values = dict(pair=0, uplink_slot=0, uplink_level=1, downlink_slot=0, downlink_level=1)
    values[field] = bad
    with pytest.raises(ValueError, match=f"assignment {field} must be an integer"):
        LevelAssignment(kind="xor", side=None, **values)


def test_assignment_stores_numpy_integers_as_int():
    a = LevelAssignment(np.int64(0), "solo", "A", np.int32(0), np.int64(3), np.uint8(0), np.int16(2))
    assert [type(getattr(a, name)) for name in ASSIGNMENT_INT_FIELDS] == [int] * 5
    assert a == LevelAssignment(0, "solo", "A", 0, 3, 0, 2)
    sched = Schedule(net=REF, slots=1, assignments=(a,))
    assert simulate_schedule(sched, {(0, "A"): (1,), (0, "B"): (), (1, "A"): (), (1, "B"): ()}).ok


duplex_modes = st.one_of(
    st.just(FullDuplex()),
    st.builds(
        lambda den, num: HalfDuplex(Fraction(num % (den - 1) + 1, den)),
        st.integers(2, 7),
        st.integers(0, 5),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), duplex_modes, st.data())
def test_session_gains_match_node_reference(pairs, mode, data):
    # The hop passes on `hop_orders`, and the bit table's reach as the level
    # caps `validate_schedule` enforces, against the node-gain reference.
    gain_lists = st.lists(st.integers(0, 9), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))

    rates = data.draw(st.lists(st.integers(0, 9), min_size=2 * pairs, max_size=2 * pairs))
    _, listen, transmit = _time_scales(mode, ())
    up_order, down_order = net.hop_orders
    holds = _hop_holds(up_order, net.uplink, rates, listen) and _hop_holds(down_order, net.downlink, rates, transmit)
    assert holds == (not det_reference.violations(det_reference.expand_time(net, listen, transmit), rates))

    for pair in range(pairs):
        for kind, side in STEP_KINDS:
            caps = net._bit_table[pair, side][1]
            up_cap, down_cap = det_reference.reach(net, pair, side)
            assert caps == (up_cap, down_cap)
            for l_u, l_d in ((caps[0], caps[1]), (caps[0] + 1, caps[1]), (caps[0], caps[1] + 1)):
                a = LevelAssignment(pair, kind, side, 0, l_u, 0, l_d)
                if 1 <= l_u <= up_cap and 1 <= l_d <= down_cap:
                    validate_schedule(Schedule(net=net, slots=1, assignments=(a,)))
                else:
                    with pytest.raises(ScheduleInvalidError, match="unreachable"):
                        Schedule(net=net, slots=1, assignments=(a,))


def test_reach_is_the_smallest_gain_over_the_served_sessions():
    # The network's bit table: an XOR bit serves both of its pair's
    # sessions, a one-way bit its side's, and its reach on each hop is the
    # smallest gain over the sessions it serves.
    rng = np.random.default_rng(26)
    for _ in range(200):
        pairs = int(rng.integers(1, 5))
        net = DetNetwork(*(tuple(int(g) for g in rng.integers(0, 10, size=pairs)) for _ in range(4)))
        up, down = net.uplink, net.downlink
        for pair in range(pairs):
            for side, sessions in ((None, (2 * pair, 2 * pair + 1)), ("A", (2 * pair,)), ("B", (2 * pair + 1,))):
                assert net._bit_table[pair, side] == (
                    sessions, (min(up[k] for k in sessions), min(down[k] for k in sessions))
                )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_session_tables_match_their_rules(pairs, data):
    # A network keeps each hop's session order, each session's source and
    # each bit's served sessions and reach caps once they are read.  After
    # integral, chunked, fractional and half-duplex schedules and their
    # simulations, every table is whole, every entry equals what the rules
    # give directly, and the tables leave ==, hash, repr and pickling as a
    # fresh network has them.
    gain_lists = st.lists(st.integers(0, 7), min_size=pairs, max_size=pairs).map(tuple)
    fields = [data.draw(gain_lists) for _ in range(4)]
    net = DetNetwork(*fields)
    rates = [data.draw(st.integers(0, min(u, d))) for u, d in zip(net.uplink, net.downlink)]
    while not in_det_cutset(net, rates):
        rates[rates.index(max(rates))] -= 1
    halves = [Fraction(r, 2) for r in rates]
    rng = np.random.default_rng(pairs)
    for sched in (
        divide_and_conquer(net, rates),
        chunk_schedule(net, rates),
        schedule_fractional(net, halves),
        schedule_half_duplex(net, Fraction(1, 2), halves),
    ):
        assert simulate_schedule(sched, random_messages(sched, rng)).ok

    sessions = range(2 * pairs)
    assert net.hop_orders == (
        tuple(sorted(sessions, key=net.uplink.__getitem__)),
        tuple(sorted(sessions, key=net.downlink.__getitem__)),
    )
    assert net.sources == tuple((i, side) for i in range(pairs) for side in SIDES)
    assert net._bit_table.keys() == {(i, side) for i in range(pairs) for side in (None, *SIDES)}
    for (pair, side), (sessions, caps) in net._bit_table.items():
        senders = [(pair, "A"), (pair, "B")] if side is None else [(pair, side)]
        assert [net.sources[k] for k in sessions] == senders
        assert caps == det_reference.reach(net, pair, side)

    fresh = DetNetwork(*fields)
    copy = pickle.loads(pickle.dumps(net))
    for other in (net, copy):
        assert other == fresh and hash(other) == hash(fresh) and repr(other) == repr(fresh)
    assert divide_and_conquer(copy, rates) == divide_and_conquer(fresh, rates)


def test_scheduling_a_region_sorts_each_hop_once(monkeypatch):
    # The region walk, every tuple's membership verdict, induction,
    # validation and simulation all read the network's one sort per hop.
    calls = []
    real = detnet.gain_order

    def counting(gains):
        calls.append(tuple(gains))
        return real(gains)

    monkeypatch.setattr(detnet, "gain_order", counting)
    net = DetNetwork((3, 2, 4), (2, 1, 1), (2, 1, 3), (3, 2, 2))
    rng = np.random.default_rng(0)
    region = enumerate_integral_region(net)
    for rates in region:
        sched = divide_and_conquer(net, rates)
        assert simulate_schedule(sched, random_messages(sched, rng)).ok
    assert len(region) > 50
    assert calls == [net.uplink, net.downlink]


# --- divide and conquer ------------------------------------------------------


def test_reference_schedule_matches_expected_layout():
    sched = divide_and_conquer(REF, (2, 1, 1, 1))
    assert sched.slots == 1
    got = [(a.pair, a.kind, a.side, a.uplink_level, a.downlink_level) for a in sched.assignments]
    # pair-1 XOR on the shared level 2, pair-2 XOR on level 1, the leftover
    # A1 bit on top level 3; the relay mirrors bottom-up onto top-down levels.
    assert got == [
        (0, "xor", None, 2, 2),
        (1, "xor", None, 1, 1),
        (0, "solo", "A", 3, 3),
    ]
    assert sched.bit_budgets() == {(0, "A"): 2, (0, "B"): 1, (1, "A"): 1, (1, "B"): 1}
    assert_exact_simulation(sched, payloads=100)


def test_walkthrough_tuple_structure():
    assert in_det_cutset(WALKTHROUGH_NET, (3, 1, 2, 2)).member
    sched = divide_and_conquer(WALKTHROUGH_NET, (3, 1, 2, 2))
    kinds = Counter((a.pair, a.kind, a.side) for a in sched.assignments)
    assert kinds == {(0, "xor", None): 1, (1, "xor", None): 2, (0, "solo", "A"): 2}
    assert sched.bit_budgets() == {(0, "A"): 3, (0, "B"): 1, (1, "A"): 2, (1, "B"): 2}
    assert_exact_simulation(sched)


def test_zero_tuple_empty_schedule():
    sched = divide_and_conquer(REF, (0, 0, 0, 0))
    assert sched.assignments == ()
    assert simulate_schedule(sched, {}).ok


def test_non_member_rejected_before_scheduling():
    with pytest.raises(NotInRegionError) as err:
        divide_and_conquer(REF, (4, 0, 0, 0))
    assert err.value.violations


def test_induction_rechecks_region_after_each_step():
    # (4, 0, 0, 0) is outside REF's region; the first one-way step goes
    # through, and the per-step check then finds R_A1 = 3 above its cap of 2.
    with pytest.raises(InductionInvariantError, match="after step 1"):
        _run_induction(REF, 1, 1, [4, 0, 0, 0])


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 1)]), st.booleans(), st.data())
def test_induction_matches_reference_on_networks(pairs, scales, outside, data):
    # The digest reaches Q > 1 only with halved maximal tuples; here every
    # tuple of the scaled region can be drawn, and, with ``outside``, one a
    # unit above it, whose refusal (a step without a level, or a failed
    # re-check) must match too.
    listen, transmit = scales
    gain_lists = st.lists(st.integers(0, 8), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    scaled = det_reference.expand_time(net, listen, transmit)
    rates = [data.draw(st.integers(0, c)) for c in det_reference.caps(scaled)]
    while det_reference.violations(scaled, rates):
        rates[rates.index(max(rates))] -= 1
    if outside:
        rates[data.draw(st.integers(0, 2 * pairs - 1))] += 1
    assert _outcome(_run_induction, net, listen, transmit, rates) == _outcome(det_reference.induction, scaled, rates)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_an_order_sorted_once_stays_valid_under_reductions(pairs, up_scale, down_scale, data):
    # The induction sorts each hop's sessions once and re-checks every
    # step on that order; a reduction maps n to n - (n >= l) on each hop.
    gain_lists = st.lists(st.integers(0, 9), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    up_order, down_order = net.hop_orders
    levels = st.tuples(st.integers(1, 10), st.integers(1, 10))
    for l_u, l_d in data.draw(st.lists(levels, min_size=1, max_size=6)):
        net = det_reference.reduce(net, l_u, l_d)
        rates = data.draw(st.lists(st.integers(0, 9), min_size=2 * pairs, max_size=2 * pairs))
        holds = _hop_holds(up_order, net.uplink, rates, up_scale) and _hop_holds(down_order, net.downlink, rates, down_scale)
        assert holds == (not det_reference.violations(det_reference.expand_time(net, up_scale, down_scale), rates))


def test_fractional_rates_rejected_by_integral_path():
    with pytest.raises(ValueError):
        divide_and_conquer(REF, (Fraction(1, 2), 0, 0, 0))


@pytest.mark.parametrize(
    "bad",
    [True, False, math.inf, -math.inf, math.nan, np.float64(math.inf), 0.1, np.float64(1.5),
     # Fraction() parses these two: in_det_cutset(REF, ["1", "0", "0", "0"])
     # once answered member=True and divide_and_conquer built its schedule.
     "1", "1/3", None, 1j],
)
@pytest.mark.parametrize(
    "call",
    [
        in_det_cutset,
        divide_and_conquer,
        chunk_schedule,
        schedule_fractional,
        lambda net, rates: schedule_half_duplex(net, Fraction(1, 2), rates),
    ],
)
def test_rates_refuse_bools_and_non_finite_values(call, bad):
    with pytest.raises(ValueError, match="rates must be"):
        call(REF, (0, bad, 0, 0))


def test_a_listen_fraction_that_is_not_a_number_is_refused_first():
    # schedule_half_duplex(REF, "1/3", ...) once scheduled over Q = 3.
    with pytest.raises(ValueError, match=r"^listen fraction must be a number, got '1/3'$"):
        schedule_half_duplex(REF, "1/3", ("1/3", 0, 0, 0))
    with pytest.raises(ValueError, match=r"^rates must be finite numbers, got \('1/3', 0, 0, 0\)$"):
        schedule_half_duplex(REF, Fraction(1, 3), ("1/3", 0, 0, 0))


@pytest.mark.parametrize(
    "rates,message",
    [
        ((0, 0, 0), "expected 4 rate components, got 3"),
        ((0.5, -1, "1", 0), "rates must be finite numbers, got (0.5, -1, '1', 0)"),
        ((0.5, -1, math.inf, 0), "rates must be finite numbers, got (0.5, -1, inf, 0)"),
        ((0.5, True, 0, 0), "rates must be non-negative numbers, got (0.5, True, 0, 0)"),
        ((0.25, 0, Fraction(-1, 2), 0), "rates must be non-negative numbers, got (0.25, 0, Fraction(-1, 2), 0)"),
        ((1, 0.5, 0.25, 0), "rates must be exact: 0.5 is a float that is not a whole number"),
    ],
    ids=repr,
)
def test_rate_refusals_keep_their_order(rates, message):
    # Whichever value comes first: a wrong count, then a value that is not a
    # finite number, then a bool or negative rate, then an inexact one.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        in_det_cutset(REF, rates)


def test_inexact_float_rates_and_fractions_named():
    # Both once ran on at the float's binary value: Q = 180143985094819840.
    with pytest.raises(ValueError, match="0.1 is a float that is not a whole number; pass a Fraction or an int"):
        schedule_fractional(REF, (0.1, 0, 0, 0))
    with pytest.raises(ValueError, match="listen fraction must be exact: 0.1 is a float"):
        schedule_half_duplex(REF, 0.1, (Fraction(1, 10), 0, 0, 0))
    # A whole float is exact and still taken.
    assert divide_and_conquer(REF, (1.0, 0, 0, 0)) == divide_and_conquer(REF, (1, 0, 0, 0))


# --- time expansion ----------------------------------------------------------


def test_expand_time_identity_and_scaling():
    assert det_reference.expand_time(REF, 1, 1) == REF
    scaled = det_reference.expand_time(REF, 2, 3)
    assert scaled.n_ar == (6, 4) and scaled.n_br == (4, 2)
    assert scaled.n_ra == (6, 3) and scaled.n_rb == (9, 6)


def test_expand_time_region_scaling_spot():
    net = DetNetwork((2, 1), (1, 2), (2, 2), (1, 1))
    region = set(enumerate_integral_region(net))
    big = set(enumerate_integral_region(det_reference.expand_time(net, 3, 3)))
    assert {tuple(3 * x for x in t) for t in region} == {
        t for t in big if all(x % 3 == 0 for x in t)
    }


# --- fractional and half duplex ----------------------------------------------


def test_fractional_half_rates():
    net = DetNetwork((1,), (1,), (1,), (1,))
    sched = schedule_fractional(net, (Fraction(1, 2), Fraction(1, 2)))
    assert sched.slots == 2
    assert sched.bit_budgets() == {(0, "A"): 1, (0, "B"): 1}
    assert_exact_simulation(sched)


def test_fractional_integral_degenerates():
    sched = schedule_fractional(REF, (2, 1, 1, 1))
    assert sched.slots == 1
    assert {(a.uplink_slot, a.downlink_slot) for a in sched.assignments} == {(0, 0)}


def test_fractional_lcm_of_denominators():
    net = DetNetwork((2,), (2,), (2,), (2,))
    sched = schedule_fractional(net, (Fraction(1, 2), Fraction(1, 3)))
    assert sched.slots == 6
    assert sched.bit_budgets() == {(0, "A"): 3, (0, "B"): 2}
    assert_exact_simulation(sched)


def test_fractional_scaled_region_tuples():
    # Any member tuple shrunk by a rational factor stays a member (the
    # region is a polytope through the origin), so the expanded schedule
    # must carry exactly slots * rate bits per direction and decode.
    rng = np.random.default_rng(99)
    for _ in range(15):
        net = random_network(rng, max_pairs=2, max_gain=5)
        region = enumerate_integral_region(net)
        corner = region[int(rng.integers(0, len(region)))]
        den = int(rng.integers(2, 8))
        num = int(rng.integers(1, den))
        rates = [Fraction(x * num, den) for x in corner]
        sched = schedule_fractional(net, rates)
        budgets = sched.bit_budgets()
        for i in range(net.pairs):
            assert budgets[(i, "A")] == rates[2 * i] * sched.slots
            assert budgets[(i, "B")] == rates[2 * i + 1] * sched.slots
        assert_exact_simulation(sched, payloads=3)


def test_half_duplex_even_split():
    net = DetNetwork((2,), (2,), (2,), (2,))
    sched = schedule_half_duplex(net, Fraction(1, 2), (1, 1))
    assert sched.slots == 2 and sched.listen_slots == 1
    assert all(a.uplink_slot == 0 and a.downlink_slot == 1 for a in sched.assignments)
    assert sched.bit_budgets() == {(0, "A"): 2, (0, "B"): 2}
    assert_exact_simulation(sched)


def test_half_duplex_zero_rates():
    net = DetNetwork((2,), (2,), (2,), (2,))
    for delta in (Fraction(1, 3), Fraction(2, 5)):
        sched = schedule_half_duplex(net, delta, (0, 0))
        assert sched.assignments == ()


def test_half_duplex_rejects_when_listen_share_too_small():
    net = DetNetwork((2,), (2,), (2,), (2,))
    mode = HalfDuplex(Fraction(1, 4))
    assert not in_det_cutset(net, (1, 1), mode).member
    with pytest.raises(NotInRegionError):
        schedule_half_duplex(net, Fraction(1, 4), (1, 1))


def test_half_duplex_slot_partition():
    net = DetNetwork((3, 1), (2, 2), (2, 1), (3, 2))
    delta = Fraction(2, 3)
    for rates in enumerate_integral_region(net, HalfDuplex(delta)):
        sched = schedule_half_duplex(net, delta, rates)
        assert sched.listen_slots == sched.slots * delta
        for a in sched.assignments:
            assert a.uplink_slot < sched.listen_slots <= a.downlink_slot
        budgets = sched.bit_budgets()
        for i in range(net.pairs):
            assert budgets[(i, "A")] == rates[2 * i] * sched.slots
            assert budgets[(i, "B")] == rates[2 * i + 1] * sched.slots
        assert_exact_simulation(sched, payloads=3)


def test_time_expansion_budget(monkeypatch):
    ones = DetNetwork((1,), (1,), (1,), (1,))
    half = (Fraction(1, 2), Fraction(1, 2))
    monkeypatch.setattr(scheduler, "STEP_BUDGET", 2)
    assert schedule_fractional(ones, half).slots == 2
    assert schedule_half_duplex(ones, Fraction(1, 2), half).slots == 2
    assert len(divide_and_conquer(ones, (1, 1)).assignments) == 1
    assert len(chunk_schedule(ones, (1, 1)).assignments) == 1
    monkeypatch.setattr(scheduler, "STEP_BUDGET", 1)
    with pytest.raises(RegionSizeError, match="serves 2 bits, step budget is 1"):
        schedule_fractional(ones, half)
    with pytest.raises(RegionSizeError, match="serves 2 bits, step budget is 1"):
        schedule_half_duplex(ones, Fraction(1, 2), half)
    for integral in (divide_and_conquer, chunk_schedule):
        with pytest.raises(RegionSizeError, match="Q=1 uses serves 2 bits, step budget is 1"):
            integral(ones, (1, 1))


def test_time_expansion_large_q_few_bits():
    # Q = 3000 uses but a single bit: the budget counts bits, not Q.
    rates = (Fraction(1, 3000), 0, 0, 0)
    sched = schedule_fractional(REF, rates)
    assert sched.slots == 3000 and len(sched.assignments) == 1
    assert_exact_simulation(sched, payloads=2)
    sched = schedule_half_duplex(REF, Fraction(1, 2), rates)
    assert sched.slots == 3000 and len(sched.assignments) == 1
    assert_exact_simulation(sched, payloads=2)


def test_half_duplex_large_q_bounded_memory():
    # Q = 4093 * 4091, about 1.67e7 uses, 4093 bits: the combined network has
    # downlink gains near 3.3e7, so anything allocated per level shows.
    net = DetNetwork((2,), (2,), (2,), (2,))
    tracemalloc.start()
    try:
        sched = schedule_half_duplex(net, Fraction(1, 4093), (Fraction(1, 4091), 0))
        assert_exact_simulation(sched, payloads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sched.slots == 4093 * 4091 and sched.listen_slots == 4091
    assert len(sched.assignments) == 4093
    assert peak < 10 * 2**20


STEP_KINDS = ((XOR, None), (SOLO, "A"), (SOLO, "B"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 24), max_size=80), st.integers(1, 3), st.data())
def test_replay_matches_quadratic_undo(caps, pairs, data):
    # `_take` returns the highest level at or below the cap not yet taken,
    # 0 when none is free, as a scan of the taken set does.
    below, taken = {}, set()
    for cap in caps:
        level = det_reference.free_level(taken, cap)
        assert _take(below, cap) == level
        taken.add(level)
    # The induction takes each step's levels with `_take`, from the step's
    # reach on the original network.  The reference's chain of reductions
    # takes them in reduced coordinates instead; undoing its removals must
    # give the same levels, and `_take` must find no free level on exactly
    # the hops where the reduced reach is 0.
    gain_lists = st.lists(st.integers(0, 12), min_size=pairs, max_size=pairs).map(tuple)
    original = net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    steps = st.tuples(st.integers(0, pairs - 1), st.sampled_from(STEP_KINDS))
    below_up, below_down = {}, {}
    reduced, took = [], []
    for pair, (_, side) in data.draw(st.lists(steps, max_size=40)):
        cap_up, cap_down = det_reference.reach(original, pair, side)
        levels = _take(below_up, cap_up), _take(below_down, cap_down)
        l_u, l_d = det_reference.reach(net, pair, side)
        if not (l_u and l_d):
            assert (levels[0] == 0, levels[1] == 0) == (l_u == 0, l_d == 0)
            break
        net = det_reference.reduce(net, l_u, l_d)
        reduced.append((l_u, l_d))
        took.append(levels)
    assert det_reference.quadratic_replay(reduced) == took


def test_every_scheduler_is_budgeted():
    # 200000 bits at Q = 1: refused before any induction or packing.
    net = DetNetwork((200000,), (200000,), (200000,), (200000,))
    rates = (200000, 0)
    start = time.perf_counter()
    for schedule in (divide_and_conquer, chunk_schedule, schedule_fractional):
        with pytest.raises(RegionSizeError, match="Q=1 uses serves 200000 bits"):
            schedule(net, rates)
    assert time.perf_counter() - start < 1.0


def test_time_expansion_budget_rejects_prime_denominators_fast():
    # Q = 13*17*19*23*29*31, about 8.7e7 uses (twice that with delta = 1/2):
    # refused before expanding.
    net = DetNetwork((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1))
    rates = [Fraction(1, p) for p in (13, 17, 19, 23, 29, 31)]
    start = time.perf_counter()
    with pytest.raises(RegionSizeError, match="Q=86822723"):
        schedule_fractional(net, rates)
    with pytest.raises(RegionSizeError, match="Q=173645446"):
        schedule_half_duplex(net, Fraction(1, 2), rates)
    assert time.perf_counter() - start < 1.0


# --- chunked schedules ---------------------------------------------------------


def chunk_runs(sched):
    ups, downs = defaultdict(list), defaultdict(list)
    for a in sched.assignments:
        ups[(a.pair, a.kind)].append(a.uplink_level)
        downs[(a.pair, a.kind)].append(a.downlink_level)
    return ups, downs


def assert_contiguous(sched):
    ups, downs = chunk_runs(sched)
    for group in (ups, downs):
        for key, levels in group.items():
            levels = sorted(levels)
            assert levels == list(range(levels[0], levels[0] + len(levels))), (key, levels)


def test_chunked_reference_layout():
    sched = chunk_schedule(REF, (2, 1, 1, 1))
    ups, _ = chunk_runs(sched)
    assert sorted(map(len, ups.values())) == [1, 1, 1]
    assert_contiguous(sched)
    assert_exact_simulation(sched, payloads=50)


def test_chunked_equal_rates_have_no_solo():
    sched = chunk_schedule(DetNetwork((2,), (2,), (2,), (2,)), (2, 2))
    assert all(a.kind == "xor" for a in sched.assignments)


def test_chunked_straddling_case_stays_contiguous():
    # Serving (3,1) on gains (4,3) forces the solo run above the shared run;
    # a greedy top-level assignment would fragment it.
    net = DetNetwork((4,), (3,), (9,), (9,))
    sched = chunk_schedule(net, (3, 1))
    assert_contiguous(sched)
    assert_exact_simulation(sched)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_chunked_matches_inductive_construction(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_gain=5)
    region = enumerate_integral_region(net)
    rates = region[int(rng.integers(0, len(region)))]
    inductive = divide_and_conquer(net, rates)
    chunked = chunk_schedule(net, rates)
    assert chunked.bit_budgets() == inductive.bit_budgets()
    validate_schedule(chunked)
    assert_contiguous(chunked)
    msgs = random_messages(chunked, rng)
    assert simulate_schedule(chunked, msgs).ok


# --- every small network, without reduction -------------------------------------


def _relabellings(pairs):
    """The relabellings that generate the group, each a map of the gains
    (n_ar, n_br, n_ra, n_rb) and a map of a rate tuple: swapping pairs i and
    i + 1, each pair's A/B swap (n_ar <-> n_br, n_ra <-> n_rb, R_A <-> R_B),
    and hop reversal (n_ar <-> n_rb, n_br <-> n_ra)."""

    def transpose(i):
        order = [*range(i), i + 1, i, *range(i + 2, pairs)]
        return (
            lambda gains: tuple(tuple(g[k] for k in order) for g in gains),
            lambda rates: tuple(rates[2 * k + side] for k in order for side in (0, 1)),
        )

    def swap(i):
        def gains_map(gains):
            ar, br, ra, rb = map(list, gains)
            ar[i], br[i], ra[i], rb[i] = br[i], ar[i], rb[i], ra[i]
            return tuple(map(tuple, (ar, br, ra, rb)))

        return gains_map, lambda rates: tuple(rates[k ^ 1] if k // 2 == i else rates[k] for k in range(2 * pairs))

    reverse = (lambda gains: gains[::-1], lambda rates: rates)
    return [*map(transpose, range(pairs - 1)), *map(swap, range(pairs)), reverse]


def _decodes(sched, rates, rng):
    """The schedule carries each session's rate over its slots, and a random
    payload decodes exactly."""
    budgets = sched.bit_budgets()
    carried = [budgets[node] for node in sched.net.sources]
    return carried == [sched.slots * r for r in rates] and simulate_schedule(sched, random_messages(sched, rng)).ok


@pytest.mark.parametrize("pairs, max_gain", [(1, 4), (2, 1)], ids=["M1-gains4", "M2-gains1"])
def test_every_small_network_is_complete_under_relabelling(pairs, max_gain):
    # Every network of the family, on the full product with no reduction to
    # canonical forms: the region is the reference's and maps onto itself
    # under each relabelling, which a reduction to canonical forms assumes;
    # both level rules schedule every tuple and the simulation decodes it.
    # At delta = 1/3 the same, with hop reversal onto the delta = 2/3 region.
    third, two_thirds = HalfDuplex(Fraction(1, 3)), HalfDuplex(Fraction(2, 3))
    family = [
        tuple(g[k * pairs:(k + 1) * pairs] for k in range(4))
        for g in itertools.product(range(max_gain + 1), repeat=4 * pairs)
    ]
    full = {gains: enumerate_integral_region(DetNetwork(*gains)) for gains in family}
    rng = np.random.default_rng(12)
    for gains in family:
        net = DetNetwork(*gains)
        half = enumerate_integral_region(net, third)
        assert full[gains] == det_reference.region(net), gains
        assert half == det_reference.region(net, third), gains
        for relabel, relabel_rates in _relabellings(pairs):
            assert sorted(map(relabel_rates, full[gains])) == full[relabel(gains)], gains
        assert half == enumerate_integral_region(DetNetwork(*gains[::-1]), two_thirds), gains
        for rates in full[gains]:
            for sched in (divide_and_conquer(net, rates), chunk_schedule(net, rates)):
                assert _decodes(sched, rates, rng), (gains, rates)
        for rates in half:
            assert _decodes(schedule_half_duplex(net, third.delta, rates), rates, rng), (gains, rates)


_BUILT = {"Schedule", "LevelAssignment", "in_det_cutset", "validate_schedule"}


def _builds(source: str) -> list[tuple[str | None, str]]:
    """(enclosing def or class, name) of each call of a name in `_BUILT`,
    bare or as an attribute; a method is named with its class, "C.f"."""
    found = []
    for node, scopes, _ in guards.walk(source):
        if guards.called(node) in _BUILT:
            owner = guards.innermost(scopes)
            if [kind for kind, _ in scopes[-2:]] == ["class", "def"]:
                owner = f"{scopes[-2][1]}.{owner}"
            found.append((owner, guards.called(node)))
    return found


def test_one_schedule_builder():
    # Both level rules, the induction and the chunked packing, reach their
    # schedule through `_time_expanded`; no other code in the module builds
    # a schedule or an assignment, or asks for the membership verdict that
    # gates every schedule.  A schedule is validated once, when built.
    source = Path(scheduler.__file__).read_text()
    assert sorted(_builds(source)) == [
        ("Schedule.__init__", "validate_schedule"),
        ("_time_expanded", "LevelAssignment"), ("_time_expanded", "Schedule"), ("_time_expanded", "in_det_cutset"),
    ]
    planted = (
        "def chunk_schedule(net, runs):\n"
        "    levels = tuple(LevelAssignment(*run) for run in runs)\n"
        "    return scheduler.Schedule(net=net, slots=1, assignments=levels)"
    )
    assert _builds(planted) == [("chunk_schedule", "LevelAssignment"), ("chunk_schedule", "Schedule")]
    planted = "class C:\n    def __init__(self):\n        validate_schedule(self)"
    assert _builds(planted) == [("C.__init__", "validate_schedule")]


# --- simulation guards ----------------------------------------------------------


def test_simulation_rejects_duplicate_levels():
    # Both levels are reachable, so the refusal is the reuse check's.
    a = LevelAssignment(0, "xor", None, 0, 1, 0, 2)
    b = LevelAssignment(1, "xor", None, 0, 1, 0, 1)
    with pytest.raises(ScheduleInvalidError, match=r"^uplink level reused in one slot: \(0, 1\)$"):
        Schedule(net=REF, slots=1, assignments=(a, b))


def test_validate_rejects_a_downlink_level_reused_in_one_slot():
    a = LevelAssignment(0, "xor", None, 0, 2, 0, 1)
    b = LevelAssignment(1, "xor", None, 0, 1, 0, 1)
    with pytest.raises(ScheduleInvalidError, match=r"^downlink level reused in one slot: \(0, 1\)$"):
        validate_schedule(Schedule(net=REF, slots=1, assignments=(a, b)))


def test_validate_accepts_one_level_in_different_slots():
    a = LevelAssignment(0, "xor", None, 0, 1, 0, 1)
    b = LevelAssignment(1, "xor", None, 1, 1, 1, 1)
    validate_schedule(Schedule(net=REF, slots=2, assignments=(a, b)))


@pytest.mark.parametrize(
    "fields,listen,message",
    [
        ((2, "xor", None, 0, 1, 0, 1), None, "assignment names pair 2 of 2"),
        ((0, "xor", None, 2, 1, 0, 1), None, "uplink slot 2 outside 0..1"),
        ((0, "xor", None, 0, 1, -1, 1), None, "downlink slot -1 out of range"),
        ((0, "xor", None, 1, 1, 1, 1), 1, "uplink use scheduled in a transmit slot"),
        ((0, "xor", None, 0, 1, 0, 1), 1, "downlink use scheduled in a listen slot"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_validate_refuses_an_assignment_outside_the_schedule(fields, listen, message):
    with pytest.raises(ScheduleInvalidError, match=f"^{re.escape(message)}$"):
        Schedule(net=REF, slots=2, assignments=(LevelAssignment(*fields),), listen_slots=listen)


def test_simulation_rejects_unreachable_level():
    a = LevelAssignment(1, "xor", None, 0, 2, 0, 1)  # pair 2 shares only level 1
    with pytest.raises(ScheduleInvalidError):
        Schedule(net=REF, slots=1, assignments=(a,))


@pytest.mark.parametrize("slots", [1.5, 1.0, True, 0, -1, "1", None], ids=repr)
def test_validate_refuses_slots_that_are_not_a_positive_integer(slots):
    # Schedule(net, 1.5, ...) and Schedule(net, True, ...) used to simulate with ok=True.
    a = LevelAssignment(0, "xor", None, 0, 1, 0, 1)
    with pytest.raises(ScheduleInvalidError, match="slots must be a positive integer"):
        Schedule(net=REF, slots=slots, assignments=(a,))


@pytest.mark.parametrize("listen", [True, False, 0, 2, 3, 1.0, "1"], ids=repr)
def test_validate_refuses_listen_slots_outside_the_slots(listen):
    a = LevelAssignment(0, "xor", None, 0, 1, 1, 1)
    with pytest.raises(ScheduleInvalidError, match=r"listen_slots must be None or an integer in \[1, 1\]"):
        Schedule(net=REF, slots=2, assignments=(a,), listen_slots=listen)
    validate_schedule(Schedule(net=REF, slots=2, assignments=(a,), listen_slots=1))


@pytest.mark.parametrize("pair", [2, -1])
def test_schedule_refuses_a_pair_outside_the_network(pair):
    # Such a schedule used to be built, and its `bit_budgets` (so
    # `random_messages`) raised a bare KeyError: (2, 'A') or (-1, 'A').
    a = LevelAssignment(pair, "xor", None, 0, 1, 0, 1)
    with pytest.raises(ScheduleInvalidError, match=f"^assignment names pair {pair} of 2$"):
        Schedule(REF, 1, (a,))


def test_a_schedule_is_validated_once(monkeypatch, tmp_path, capsys):
    calls = []
    real = scheduler.validate_schedule

    def counting(sched):
        calls.append(sched)
        return real(sched)

    monkeypatch.setattr(scheduler, "validate_schedule", counting)
    sched = divide_and_conquer(REF, (2, 1, 1, 1))
    assert simulate_schedule(sched, random_messages(sched, np.random.default_rng(0))).ok
    assert len(calls) == 1

    # One schedule and five payloads: validated when built, never per payload.
    calls.clear()
    path = tmp_path / "det.json"
    net = {"kind": "deterministic", "pairs": 2, "n_ar": [3, 2], "n_br": [2, 1], "n_ra": [2, 1], "n_rb": [3, 2]}
    path.write_text(json.dumps(net))
    assert cli.main(["schedule", str(path), "--rates", "2,1,1,1", "--simulate", "5"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["simulate"]["decoded_exactly"] == 5
    assert len(calls) == 1

    # The kept budgets are handed out as a fresh dict each time.
    budgets = sched.bit_budgets()
    budgets[(0, "A")] += 5
    del budgets[(1, "B")]
    assert sched.bit_budgets() == {(0, "A"): 2, (0, "B"): 1, (1, "A"): 1, (1, "B"): 1}


def test_simulation_rejects_unknown_message_keys():
    sched = divide_and_conquer(REF, (1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"outside the network: \[\(7, 'Z'\), \(2, 'A'\)\]"):
        simulate_schedule(sched, {(0, "A"): (1,), (7, "Z"): (1, 0, 1), (2, "A"): ()})


@pytest.mark.parametrize("bad", [1.9, 0.2, "0", True, 2, -1], ids=repr)
def test_simulation_refuses_entries_that_are_not_bits(bad):
    # Only an integer 0 or 1 is a bit: int() would read 1.9 as 1, "0" as 0 and
    # True as 1, and the simulation would report ok.
    sched = divide_and_conquer(REF, (1, 1, 0, 0))
    for node in ((0, "A"), (0, "B")):
        msgs = {(0, "A"): (1,), (0, "B"): (0,), (1, "A"): (), (1, "B"): ()}
        msgs[node] = (bad,)
        with pytest.raises(ValueError, match=rf"message for \({node[0]}, '{node[1]}'\) must be bits"):
            simulate_schedule(sched, msgs)
    # numpy integers are bits like ints.
    res = simulate_schedule(sched, {(0, "A"): (np.int64(1),), (0, "B"): (np.uint8(0),), (1, "A"): (), (1, "B"): ()})
    assert res.ok and res.decoded == {(0, "A"): (1,), (0, "B"): (0,), (1, "A"): (), (1, "B"): ()}


def _values():
    """One value of each type the op builds, its init fields, the repr it
    must keep, and a value of the same type that differs from it."""
    sched = divide_and_conquer(REF, (1, 0, 0, 1))
    msgs = {(0, "A"): (1,), (0, "B"): (), (1, "A"): (), (1, "B"): (0,)}
    sim = simulate_schedule(sched, msgs)
    return [
        (sched.assignments[0], "pair kind side uplink_slot uplink_level downlink_slot downlink_level",
         "LevelAssignment(pair=0, kind='solo', side='A', uplink_slot=0, uplink_level=3, "
         "downlink_slot=0, downlink_level=3)", sched.assignments[1]),
        (sched, "net slots assignments listen_slots",
         f"Schedule(net={REF!r}, slots=1, assignments={sched.assignments!r}, listen_slots=None)",
         divide_and_conquer(REF, (1, 0, 0, 0))),
        (sim, "ok decoded",
         "SimulationResult(ok=True, decoded={(0, 'A'): (1,), (0, 'B'): (), (1, 'A'): (), (1, 'B'): (0,)})",
         simulate_schedule(sched, {**msgs, (0, "A"): (0,)})),
        (in_det_cutset(REF, (1, 0, 0, 1)), "member violations scaled",
         "Membership(member=True, violations=())", in_det_cutset(REF, (5, 0, 0, 0))),
    ]


@pytest.mark.parametrize("index", range(4), ids=["LevelAssignment", "Schedule", "SimulationResult", "Membership"])
def test_values_keep_their_dataclass_contract(index):
    # The values the op builds are frozen dataclasses, however they are
    # constructed: fields, replace, ==, hash, repr, frozenness and pickling.
    value, names, text, other = _values()[index]
    assert repr(value) == text
    init = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
    assert list(init) == names.split()
    compared = tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)
    assert (value == other) is False is (compared == tuple(getattr(other, f.name) for f in dataclasses.fields(other) if f.compare))
    copy = dataclasses.replace(value)
    assert copy == value and copy is not value and repr(copy) == text
    assert type(value)(**init) == value
    try:
        expected_hash = hash(compared)
    except TypeError:  # a dict field: unhashable, as the field tuple is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected_hash == hash(copy)
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and repr(restored) == text


def test_value_constructors_store_numpy_integers_as_int():
    a = LevelAssignment(np.int64(0), "xor", None, np.int32(0), np.uint8(2), np.int16(0), np.int64(1))
    assert a == LevelAssignment(0, "xor", None, 0, 2, 0, 1)
    assert all(type(getattr(a, name)) is int for name in scheduler._INT_FIELDS)
    assert type(dataclasses.replace(a, pair=np.int64(1)).pair) is int
    # Keywords and positions build the same values.
    assert LevelAssignment(pair=0, kind="xor", side=None, uplink_slot=0, uplink_level=2,
                           downlink_slot=0, downlink_level=1) == a
    sched = Schedule(REF, 1, (a,))
    assert sched == Schedule(net=REF, slots=1, assignments=(a,), listen_slots=None)
    assert Membership(True, (), None) == Membership(member=True, violations=(), scaled=(1, 1, 1, []))
    assert SimulationResult(True, {}) == SimulationResult(ok=True, decoded={})


@pytest.mark.parametrize(
    "changes, refusal, text",
    [
        # An unknown node is refused before any payload is read.
        ({(5, "A"): (1,), (0, "B"): (2,)}, ValueError, r"^messages for nodes outside the network: \[\(5, 'A'\)\]$"),
        # A bool is no bit, and that is refused before the wrong length.
        ({(0, "A"): (True, 0, 1)}, ValueError, r"^message for \(0, 'A'\) must be bits$"),
        ({(0, "A"): (1.0,)}, ValueError, r"^message for \(0, 'A'\) must be bits$"),
        ({(0, "A"): (1.0, 1)}, ValueError, r"^message for \(0, 'A'\) must be bits$"),
        # The first payload at fault, in session order, is the one refused.
        ({(0, "A"): (1, 1), (0, "B"): (True,)}, ShapeError, r"^message for \(0, 'A'\) has 2 bits, schedule carries 1$"),
        ({(0, "A"): (np.int64(1),), (0, "B"): (1, 0), (1, "A"): (0.0,)}, ShapeError, r"^message for \(0, 'B'\) has 2 bits"),
        ({(0, "B"): (False,), (1, "A"): 7}, ValueError, r"^message for \(0, 'B'\) must be bits$"),
        ({(1, "A"): 7}, TypeError, r"not iterable"),
    ],
)
def test_simulation_payload_refusals_keep_their_order(changes, refusal, text):
    # Payloads with two faults, or two payloads at fault: the refusal is the
    # one the entry-by-entry check makes, node by node in session order.
    sched = divide_and_conquer(REF, (1, 1, 0, 0))
    msgs = {(0, "A"): (1,), (0, "B"): (0,), (1, "A"): (), (1, "B"): ()}
    with pytest.raises(refusal, match=text):
        simulate_schedule(sched, {**msgs, **changes})
    # A numpy-integer bit is a bit, and is decoded as an int.
    res = simulate_schedule(sched, {**msgs, (0, "A"): (np.uint8(1),), (0, "B"): [np.int64(0)]})
    assert res.ok and res.decoded == msgs and type(res.decoded[0, "A"][0]) is int


def test_simulation_rejects_wrong_payload_length():
    sched = divide_and_conquer(REF, (1, 1, 0, 0))
    with pytest.raises(ShapeError):
        simulate_schedule(sched, {(0, "A"): (1, 0), (0, "B"): (1,), (1, "A"): (), (1, "B"): ()})


def test_simulate_refuses_a_frame_python_cannot_build():
    # A one-way bit rides its source's top level, so this schedule's uplink
    # frame is 10^30 bits long: once an OverflowError from `bit << shift`.
    net = DetNetwork((10**30, 2), (2, 1), (2, 1), (3, 2))
    sched = schedule_fractional(net, (1, 0, 0, 0))
    with pytest.raises(ShapeError, match=f"frames of {10**30} bits"):
        simulate_schedule(sched, random_messages(sched, np.random.default_rng(0)))


def test_simulate_refuses_a_frame_past_the_budget_before_building_it():
    # Once a 10^10-bit uplink frame, about 1.2 GB, was built: frames were
    # refused only past sys.maxsize bits.
    start = time.perf_counter()
    tracemalloc.start()
    try:
        net = DetNetwork((10**10, 2), (2, 1), (2, 1), (3, 2))
        sched = schedule_fractional(net, (1, 0, 0, 0))
        refusal = f"^frames of {10**10} bits: a simulated frame holds at most {scheduler.FRAME_BUDGET}$"
        with pytest.raises(ShapeError, match=refusal):
            simulate_schedule(sched, random_messages(sched, np.random.default_rng(0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1 and peak < 2**20
    # The budget itself is simulated; one bit more is refused.
    for gain, simulated in ((scheduler.FRAME_BUDGET, True), (scheduler.FRAME_BUDGET + 1, False)):
        sched = schedule_fractional(DetNetwork((2, 1), (2, 1), (2, 1), (3, gain)), (0, 0, 0, 1))
        msgs = random_messages(sched, np.random.default_rng(0))
        if simulated:
            assert simulate_schedule(sched, msgs).ok
        else:
            with pytest.raises(ShapeError, match=f"^frames of {gain} bits"):
                simulate_schedule(sched, msgs)


def test_decoded_messages_round_trip_specific_payload():
    sched = divide_and_conquer(REF, (2, 1, 1, 1))
    msgs = {(0, "A"): (1, 0), (0, "B"): (1,), (1, "A"): (1,), (1, "B"): (0,)}
    res = simulate_schedule(sched, msgs)
    assert res.ok and res.decoded == msgs


# --- simulator against its previous form -----------------------------------------
# `simulate_schedule` as it was before each node's heard frame was derived once
# per downlink slot, kept verbatim; the differential test below requires the
# same `SimulationResult`, or the same exception type and message.


def reference_simulate_schedule(
    sched: Schedule, messages: Mapping[NodeId, Sequence[int]]
) -> SimulationResult:
    """Push message bits through the deterministic channel end to end.

    Transmit frames are built from the schedule, the relay receive/permute/
    forward chain runs through the channel-model primitives, every node
    decodes from what it actually hears (XOR entries combined with the
    node's own transmitted bit, SOLO entries read directly), and the
    verdict compares decoded messages with the inputs.
    """
    validate_schedule(sched)
    net = sched.net
    budgets = sched.bit_budgets()
    unknown = [node for node in messages if node not in budgets]
    if unknown:
        raise ValueError(f"messages for nodes outside the network: {unknown}")
    msgs: dict[NodeId, tuple[int, ...]] = {}
    for node, need in budgets.items():
        got = tuple(int(b) for b in messages.get(node, ()))
        if any(b not in (0, 1) for b in got):
            raise ValueError(f"message for {node} must be bits")
        if len(got) != need:
            raise ShapeError(f"message for {node} has {len(got)} bits, schedule carries {need}")
        msgs[node] = got

    # Message bits are consumed listen-slot by listen-slot, most significant
    # relay level first, on both the encode and decode side.
    order = sorted(sched.assignments, key=lambda a: (a.uplink_slot, -a.uplink_level))
    feeds = {node: iter(bits) for node, bits in msgs.items()}
    sent = [
        {side: next(feeds[(a.pair, side)]) for side in (SIDES if a.kind == XOR else (a.side,))}
        for a in order
    ]

    # Uplink: a node's bit for relay level l (bottom-up) sits at its own
    # top-down frame index gain - l, and arrives as bit l - 1 at the relay.
    q_up, q_down = net.q_up, net.q_down
    tx: dict[int, dict[NodeId, int]] = defaultdict(lambda: defaultdict(int))
    for a, bits in zip(order, sent):
        for side, bit in bits.items():
            shift = q_up - 1 - net.uplink[2 * a.pair + SIDES.index(side)] + a.uplink_level
            tx[a.uplink_slot][(a.pair, side)] |= bit << shift
    received = {slot: relay_uplink_receive(net, frames) for slot, frames in tx.items()}

    # Relay permute-and-forward: downlink level l (top-down) is bit
    # q_down - l of the relay frame.
    relay_frames: dict[int, int] = defaultdict(int)
    for a in order:
        bit = received[a.uplink_slot] >> (a.uplink_level - 1) & 1
        relay_frames[a.downlink_slot] |= bit << (q_down - a.downlink_level)

    # Each destination decodes from what it hears: a destination with
    # downlink gain g finds level l at bit g - l.  Decoded bits are
    # reassembled in the order they were consumed.
    out: dict[NodeId, list[int]] = {node: [] for node in msgs}
    for a, bits in zip(order, sent):
        for side, bit in bits.items():
            dst = "B" if side == "A" else "A"
            heard = node_downlink_receive(net, relay_frames[a.downlink_slot], a.pair, dst)
            g = net.downlink[2 * a.pair + SIDES.index(side)]
            got = heard >> (g - a.downlink_level) & 1
            if a.kind == XOR:
                got ^= bits[dst]  # own bit cancels out of the XOR
            out[(a.pair, side)].append(got)

    decoded = {node: tuple(bits) for node, bits in out.items()}
    return SimulationResult(ok=decoded == msgs, decoded=decoded)


def _sim_outcome(simulate, sched, msgs):
    try:
        return simulate(sched, msgs)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)


def _in_region_tuple(data, net, q, mode):
    """A rate tuple over ``q`` uses: drawn per session up to q times its
    singleton cap, then lowered one unit at a time until it is a member."""
    caps = det_reference.caps(net, mode)
    bits = [data.draw(st.integers(0, q * c)) for c in caps]
    while not in_det_cutset(net, [Fraction(b, q) for b in bits], mode).member:
        bits[bits.index(max(bits))] -= 1
    return [Fraction(b, q) for b in bits]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["integral", "chunked", "fractional", "half"]), st.data())
def test_simulation_matches_previous_simulator(pairs, kind, data):
    gain_lists = st.lists(st.integers(0, 6), min_size=pairs, max_size=pairs).map(tuple)
    net = DetNetwork(*(data.draw(gain_lists) for _ in range(4)))
    if kind in ("integral", "chunked"):
        rates = [int(r) for r in _in_region_tuple(data, net, 1, FullDuplex())]
        sched = (divide_and_conquer if kind == "integral" else chunk_schedule)(net, rates)
    elif kind == "fractional":
        sched = schedule_fractional(net, _in_region_tuple(data, net, data.draw(st.integers(2, 4)), FullDuplex()))
    else:
        delta = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]))
        mode = HalfDuplex(delta)
        sched = schedule_half_duplex(net, delta, _in_region_tuple(data, net, delta.denominator * 2, mode))

    msgs = {
        node: tuple(data.draw(st.lists(st.integers(0, 1), min_size=need, max_size=need)))
        for node, need in sched.bit_budgets().items()
    }
    node = data.draw(st.sampled_from(sorted(msgs)))
    corruption = data.draw(st.sampled_from(["none", "long", "short", "two", "unknown"]))
    if corruption == "long":
        msgs[node] += (1,)
    elif corruption == "short":
        msgs[node] = msgs[node][1:]
    elif corruption == "two":
        msgs[node] = (2,) + msgs[node][1:]
    elif corruption == "unknown":
        msgs[data.draw(st.sampled_from([(pairs, "A"), (0, "C"), (-1, "B")]))] = (1,)
    assert _sim_outcome(simulate_schedule, sched, msgs) == _sim_outcome(
        reference_simulate_schedule, sched, msgs
    )


# --- completeness over small networks -------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_region_tuple_schedules_and_simulates(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_gain=4)
    for rates in enumerate_integral_region(net):
        sched = divide_and_conquer(net, rates)
        budgets = sched.bit_budgets()
        for i in range(net.pairs):
            assert budgets[(i, "A")] == rates[2 * i]
            assert budgets[(i, "B")] == rates[2 * i + 1]
        msgs = random_messages(sched, rng)
        assert simulate_schedule(sched, msgs).ok
