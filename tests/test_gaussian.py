import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from relaycap.gaussian import _downlink_snrs, _uplink_snrs, run_trial


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
