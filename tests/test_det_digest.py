"""A sha256 pin of the deterministic side's outputs on desk-scale networks.

Forty seeded networks (M = 1..3, gains 0..6): every integral tuple of each
region is scheduled by `divide_and_conquer` and `chunk_schedule` and both
schedules are simulated on a seeded payload; the region's largest tuple,
halved, is also scheduled over Q = 2 uses in full and in half duplex.  Every
tuple one unit outside the region gives its membership report and the
scheduler's refusal, and each network adds a few refused inputs.  The
digest covers the repr of every result and the type and text of every
error, so a change to a schedule, a simulated bit, a violated-cut list or
an error message changes it.
"""

import hashlib
import random
from fractions import Fraction

from relaycap import (
    DetNetwork,
    chunk_schedule,
    divide_and_conquer,
    enumerate_integral_region,
    in_det_cutset,
    schedule_fractional,
    schedule_half_duplex,
    simulate_schedule,
)

NETWORKS = 40
# computed with the scheduler, oracle and simulator as they were before the
# two-pass oracle; every later change to the deterministic hot path must keep it
DIGEST = "d23ed31d51f045e8536c9624670989dad2f906bbd9dce5e6a7fc604fa41a00d2"


def desk_networks():
    rng = random.Random(2010)
    for n in range(NETWORKS):
        pairs = n % 3 + 1
        yield DetNetwork(*(tuple(rng.randint(0, 6) for _ in range(pairs)) for _ in range(4)))


def outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:  # the error type and text are part of the output
        return f"{type(exc).__name__}: {exc}"


def payload(rng, sched) -> dict:
    return {
        node: tuple(rng.getrandbits(1) for _ in range(need))
        for node, need in sched.bit_budgets().items()
    }


def simulated(rng, sched) -> str:
    return outcome(simulate_schedule, sched, payload(rng, sched))


def network_outputs(net: DetNetwork, rng: random.Random):
    region = enumerate_integral_region(net)
    yield repr(region)
    for rates in region:
        for schedule in (divide_and_conquer, chunk_schedule):
            sched = schedule(net, rates)
            yield repr(sched)
            yield simulated(rng, sched)

    inside = set(region)
    outside = sorted(
        {r[:k] + (r[k] + 1,) + r[k + 1:] for r in region for k in range(len(r))} - inside
    )
    for rates in outside:
        yield outcome(in_det_cutset, net, rates)
        yield outcome(divide_and_conquer, net, rates)

    half = tuple(Fraction(r, 2) for r in region[-1])
    for sched in (schedule_fractional(net, half), schedule_half_duplex(net, Fraction(1, 2), half)):
        yield repr(sched)
        yield simulated(rng, sched)

    zeros = (0,) * (2 * net.pairs)
    yield outcome(divide_and_conquer, net, (Fraction(1, 2),) + zeros[1:])
    yield outcome(divide_and_conquer, net, zeros[1:])
    yield outcome(chunk_schedule, net, (True,) + zeros[1:])
    sched = divide_and_conquer(net, region[-1])
    msgs = payload(rng, sched)
    node = max(msgs, key=lambda n: len(msgs[n]))
    for bad in ((node, msgs[node] + (0,)), (node, (2,) + msgs[node][1:]), ((net.pairs, "A"), ())):
        yield outcome(simulate_schedule, sched, {**msgs, bad[0]: bad[1]})


def test_deterministic_outputs_pinned():
    rng = random.Random(12)
    digest = hashlib.sha256()
    for net in desk_networks():
        for text in network_outputs(net, rng):
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == DIGEST
