"""Acceptance suite: every exit criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Tolerances and trial counts are pinned here, not configurable.
"""

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import det_reference
from relaycap import (
    DetNetwork,
    HalfDuplex,
    NotInRegionError,
    SweepColumns,
    SweepConfig,
    chunk_schedule,
    divide_and_conquer,
    downlink_allocate,
    enumerate_integral_region,
    in_det_cutset,
    monte_carlo_gap,
    random_messages,
    schedule_half_duplex,
    simulate_schedule,
    uplink_allocate,
    validate_schedule,
)
from relaycap.cli import main as cli_main
from relaycap.gaussian import GaussNetwork, restricted_bound_gaps, run_trial

REF_NET = DetNetwork((3, 2), (2, 1), (2, 1), (3, 2))


def conclude(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@contextmanager
def criterion(name: str):
    """Guarantee a verdict line even when an assertion fails mid-criterion."""
    try:
        yield
    except AssertionError as exc:
        first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        if not first.startswith(f"{name}:"):
            print(f"[FAIL] {name}: {first}")
        raise


def desk_networks(count: int, seed: int, max_pairs: int = 3, max_gain: int = 6):
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(count):
        pairs = int(rng.integers(1, max_pairs + 1))
        nets.append(
            DetNetwork(
                *(
                    tuple(int(g) for g in rng.integers(0, max_gain + 1, size=pairs))
                    for _ in range(4)
                )
            )
        )
    return nets, rng


def test_reference_golden():
    with criterion("reference-golden"):
        start = time.monotonic()
        assert in_det_cutset(REF_NET, (2, 1, 1, 1)).member
        sched = divide_and_conquer(REF_NET, (2, 1, 1, 1))
        validate_schedule(sched)
        rng = np.random.default_rng(2026)
        decoded = sum(
            simulate_schedule(sched, random_messages(sched, rng)).ok for _ in range(100)
        )
        elapsed = time.monotonic() - start
        conclude(
            "reference-golden",
            decoded == 100 and elapsed < 1.0,
            f"(2,1,1,1) admitted, {decoded}/100 payloads decoded exactly in {elapsed:.2f}s",
        )


def test_deterministic_completeness_desk_scale():
    with criterion("deterministic-completeness"):
        start = time.monotonic()
        nets, rng = desk_networks(200, seed=20260808)
        tuples = 0
        for net in nets:
            for rates in enumerate_integral_region(net):
                sched = divide_and_conquer(net, rates)  # induction check runs per step
                budgets = sched.bit_budgets()
                assert all(
                    budgets[(i, "A")] == rates[2 * i] and budgets[(i, "B")] == rates[2 * i + 1]
                    for i in range(net.pairs)
                )
                assert simulate_schedule(sched, random_messages(sched, rng)).ok, (net, rates)
                tuples += 1
        elapsed = time.monotonic() - start
        conclude(
            "deterministic-completeness",
            elapsed < 300.0,
            f"200 networks, {tuples} in-region tuples scheduled and decoded exactly in {elapsed:.1f}s",
        )


def test_converse_sanity():
    with criterion("converse-sanity"):
        nets, rng = desk_networks(200, seed=20260808)
        rejected = 0
        for net in nets:
            caps = det_reference.caps(net)
            tried = 0
            while tried < 3:
                cand = tuple(int(rng.integers(0, c + 3)) for c in caps)
                if in_det_cutset(net, cand).member:
                    continue
                tried += 1
                membership = in_det_cutset(net, cand)
                assert membership.violations, (net, cand)
                with pytest.raises(NotInRegionError):
                    divide_and_conquer(net, cand)
                rejected += 1
            if rejected >= 200:
                break
        conclude(
            "converse-sanity",
            rejected >= 200,
            f"{rejected} non-member tuples rejected with violated cuts, none scheduled",
        )


def test_half_duplex_region_completeness():
    with criterion("half-duplex-region"):
        nets, rng = desk_networks(50, seed=77)
        scheduled = 0
        for net in nets:
            for delta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                for rates in enumerate_integral_region(net, HalfDuplex(delta)):
                    sched = schedule_half_duplex(net, delta, rates)
                    assert sched.listen_slots == sched.slots * delta
                    assert sched.slots - sched.listen_slots == sched.slots * (1 - delta)
                    assert all(
                        a.uplink_slot < sched.listen_slots <= a.downlink_slot
                        for a in sched.assignments
                    )
                    assert simulate_schedule(sched, random_messages(sched, rng)).ok
                    scheduled += 1
        conclude(
            "half-duplex-region",
            True,
            f"{scheduled} half-duplex tuples over 50 networks x 3 listen fractions, all exact",
        )


def test_chunked_layout():
    with criterion("chunked-layout"):
        nets, rng = desk_networks(100, seed=31)
        checked = 0
        for net in nets:
            region = enumerate_integral_region(net)
            rates = region[int(rng.integers(0, len(region)))]
            sched = chunk_schedule(net, rates)
            validate_schedule(sched)
            assert sched.bit_budgets() == divide_and_conquer(net, rates).bit_budgets()
            runs = defaultdict(list)
            for a in sched.assignments:
                runs[(a.pair, a.kind, "u")].append(a.uplink_level)
                runs[(a.pair, a.kind, "d")].append(a.downlink_level)
            for key, levels in runs.items():
                levels = sorted(levels)
                assert levels == list(range(levels[0], levels[0] + len(levels))), (net, rates, key)
            assert simulate_schedule(sched, random_messages(sched, rng)).ok
            checked += 1
        conclude(
            "chunked-layout",
            checked == 100,
            f"{checked} chunked schedules valid, contiguous per (pair, kind), decoded exactly",
        )


def test_restricted_gap_bound():
    with criterion("restricted-gap"):
        rng = np.random.default_rng(404)
        worst = -math.inf
        for _ in range(10_000):
            h = np.exp(rng.uniform(0.0, math.log(100.0), size=8))
            p = float(np.exp(rng.uniform(0.0, math.log(100.0))))
            net = GaussNetwork(
                (float(h[0]), float(h[1])),
                (float(h[2]), float(h[3])),
                (float(h[4]), float(h[5])),
                (float(h[6]), float(h[7])),
                p,
            )
            gaps = restricted_bound_gaps(net)  # raises if any gap leaves [0, 1]
            worst = max(worst, max(gaps.values()))
        conclude(
            "restricted-gap",
            worst <= 1.0 + 1e-9,
            f"10^4 networks, max per-constraint gap {worst:.9f} within [0, 1 + 1e-9]",
        )


def test_constant_gap_sweep():
    with criterion("constant-gap-sweep"):
        start = time.monotonic()
        c = monte_carlo_gap(SweepConfig(trials=100_000, seed=0))
        elapsed = time.monotonic() - start
        failing = sorted({stage for stage in c.stage if stage != "ok"})
        pass_rate, max_excess = c.stage.count("ok") / len(c.stage), max(c.max_alpha_excess)
        conclude(
            "constant-gap-sweep",
            pass_rate == 1.0 and max_excess <= 1e-9 and elapsed < 120.0,
            f"10^5 boundary samples: pass rate {pass_rate:.6f}, "
            f"max alpha excess {max_excess:.2e}, "
            f"max bound gap {max(c.bound_gap):.6f}, {elapsed:.1f}s"
            + (f"; failing stages {failing}" if failing else ""),
        )


def test_closed_form_spot_checks():
    with criterion("closed-form-spots"):
        up_net = GaussNetwork((20.0, 6.0), (8.0, 4.0), (20.0, 20.0), (30.0, 25.0), 1.0)
        up = uplink_allocate(up_net, (2.0, 1.0, 1.5, 1.0))
        down_net = GaussNetwork(
            (30.0, 25.0), (20.0, 20.0), (4.0, 4.0), (math.sqrt(20.0), math.sqrt(18.0)), 1.0
        )
        down = downlink_allocate(down_net, (1.2, 0.2, 0.1, 0.05))
        ok = abs(up.alpha_b2 - 0.125) < 1e-12 and abs(down.alpha_r[0] - 0.05) < 1e-12
        conclude(
            "closed-form-spots",
            ok,
            f"alpha_B2 = {up.alpha_b2!r} (0.125), alpha_R1 = {down.alpha_r[0]!r} (0.05), tol 1e-12",
        )


def test_sweep_determinism(tmp_path, capsys):
    paths = [tmp_path / n for n in ("a.csv", "b.csv")]
    for path in paths:
        code = cli_main(["sweep", "--trials", "300", "--seed", "99", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    cfg = SweepConfig(trials=300, seed=99)
    backwards = tuple(run_trial(cfg, i) for i in reversed(range(cfg.trials)))
    c = monte_carlo_gap(cfg)
    verdicts = [line.split(",")[:4] for line in blobs[0].decode().splitlines()[1:]]
    ok = (
        blobs[0] == blobs[1]
        and c == SweepColumns._make(sum(column, ()) for column in zip(*backwards[::-1]))
        and verdicts == [[str(t), "99", "pass" if s == "ok" else "fail", s] for t, s in zip(c.trial, c.stage)]
    )
    with capsys.disabled():
        conclude(
            "sweep-determinism",
            ok,
            f"fixed-seed CSV byte-identical across reruns, columns equal to trials run "
            f"in reverse order ({len(blobs[0])} bytes)",
        )
