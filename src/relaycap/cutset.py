"""Cut-set bounds, region membership and region enumeration.

All arithmetic on this side of the package is exact: integer gains,
integer or `Fraction` rates, `Fraction` listen fractions.  Floats are
deliberately kept out so that boundary tuples classify deterministically.

Rates and gains are indexed by session in the order A1, B1, A2, B2, ...
(`DetNetwork.uplink` and `.downlink`).  A cut picks a nonempty subset U of
pairs and an orientation bit per member: orientation 1 puts A_i on the
transmitting side of the cut (counting session A_i), orientation 0 picks
B_i; `Cut.sessions` lists the sessions it counts.  The bound is

    sum over the cut's sessions of their rates
      <= min( max over those sessions of the uplink gains,
              max over those sessions of the downlink gains )

with the uplink term scaled by delta and the downlink term by (1 - delta)
when the relay is half-duplex.

Membership does not walk the 3^M - 1 cuts.  A cut's bound is
min(up_scale * a, down_scale * b) for its largest uplink gain a and downlink
gain b, so a cut is violated iff its rate sum exceeds up_scale * a or
down_scale * b: the region is the intersection of two one-sided regions,
one per hop.  `_hop_holds` tests each with one pass over the sessions in
that hop's gain order, in integers, in O(M); see its docstring for why it
is exact.  It is the one verdict pass: `in_det_cutset`, the region walk and
the scheduler's re-check after every induction step run it on the
network's `hop_orders`, sorted once per network.  Only a non-member walks
`enumerate_cuts`, to list its violated cuts; the brute-force reference that
checks every verdict against every cut lives with the tests
(`tests/det_reference.py`).  Enumeration walks the down-closed region on
the hop passes, so its cost follows the region's size.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .detnet import FULL_DUPLEX, DetNetwork, DuplexMode, FullDuplex, HalfDuplex, _integer, _refuse_inexact

Rate = Union[int, Fraction]

# Cap on the work of `enumerate_integral_region` and `enumerate_cuts`, in
# session reads: 2M per tuple the region walk tests, M per cut listed.  The
# cuts of M = 9 fit; a refusal takes up to about 0.5 s (M = 1, 2-vCPU x86).
READ_BUDGET = 250_000


class RegionSizeError(RuntimeError):
    """A region walk, a cut listing or a time expansion exceeds its budget."""


@dataclass(frozen=True)
class Cut:
    members: tuple[int, ...]  # sorted pair indices, nonempty
    orientation: tuple[int, ...]  # one bit per member, 1 = A side transmits

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a cut needs a nonempty pair subset")
        if not all(_integer(i) and i >= 0 for i in self.members):
            raise ValueError(f"cut members must be non-negative integers, got {self.members!r}")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("cut members must be sorted and unique")
        if len(self.orientation) != len(self.members):
            raise ValueError("one orientation bit per member required")
        if not all(_integer(b) and b in (0, 1) for b in self.orientation):
            raise ValueError(f"orientation bits must be the integers 0/1, got {self.orientation!r}")

    @property
    def sessions(self) -> tuple[int, ...]:
        """The sessions the cut counts: 2i for A_i, 2i + 1 for B_i."""
        return tuple(2 * i + 1 - b for i, b in zip(self.members, self.orientation))

    def describe(self) -> str:
        parts = [f"{'A' if b else 'B'}{i + 1}" for i, b in zip(self.members, self.orientation)]
        return "{" + ",".join(parts) + "}->relay"


@dataclass(frozen=True)
class CutViolation:
    cut: Cut
    rate_sum: Fraction
    bound: Fraction


@dataclass(frozen=True)
class Membership:
    member: bool
    violations: tuple[CutViolation, ...]
    # (Q, listen, transmit, bits): the rates' `_time_scales` and bits, as the verdict read them
    scaled: tuple[int, int, int, list[int]] = field(compare=False, repr=False)

    def __init__(
        self, member: bool, violations: tuple[CutViolation, ...], scaled: tuple[int, int, int, list[int]]
    ) -> None:
        self.__dict__.update(member=member, violations=violations, scaled=scaled)

    def __bool__(self) -> bool:
        return self.member


@lru_cache(maxsize=None, typed=True)  # typed, so that a cached 1 does not answer for True
def enumerate_cuts(pairs: int) -> tuple[Cut, ...]:
    """All 3^M - 1 cuts of an M-pair network; RegionSizeError, before any
    is built, when M session reads per cut would pass `READ_BUDGET`."""
    if not _integer(pairs) or pairs < 1:
        raise ValueError(f"need at least one pair, as an integer, got {pairs!r}")
    count = 1
    for _ in range(pairs):
        count *= 3
        if count - 1 > READ_BUDGET // pairs:  # stops once past, so 3^M is never built
            raise RegionSizeError(f"the 3^{pairs} - 1 cuts to list exceed work budget {READ_BUDGET}")
    cuts = []
    for k in range(1, pairs + 1):
        for members in itertools.combinations(range(pairs), k):
            for orientation in itertools.product((1, 0), repeat=k):
                cuts.append(Cut(members, orientation))
    return tuple(cuts)


def _time_scales(mode: DuplexMode, denominators: Iterable[int]) -> tuple[int, int, int]:
    """(Q, listen, transmit): the fewest channel uses Q that make delta (in
    half duplex) and every rate with these denominators integral, and how
    many of them the relay listens and transmits in.  Full duplex listens
    and transmits in all Q; half duplex listens in delta * Q and transmits
    in the rest, always fewer than Q.  The one reading of a `DuplexMode`
    on the scheduling path: anything else is refused with ValueError."""
    if isinstance(mode, FullDuplex):
        q = math.lcm(*denominators)
        return q, q, q
    if isinstance(mode, HalfDuplex):
        q = math.lcm(mode.delta.denominator, *denominators)
        listen = mode.delta.numerator * (q // mode.delta.denominator)
        return q, listen, q - listen
    raise ValueError(f"duplex mode must be FullDuplex or HalfDuplex, got {mode!r}")


def _check_rates(net: DetNetwork, rates: Sequence[Rate]) -> tuple[list[Rate], list[int]]:
    """The rates, one per session, with every non-int converted to a
    Fraction, in one pass, and the denominators of those not given as an
    int: an int comes back as itself, with no denominator.  Refuses with
    ValueError, in this order: a wrong count; a value that is not a number
    (a string among them) or not finite; a bool or a negative rate; an
    inexact one (a float that is not whole)."""
    if len(rates) != 2 * net.pairs:
        raise ValueError(f"expected {2 * net.pairs} rate components, got {len(rates)}")
    out = []
    others = []  # the non-int rates, which `_refuse_inexact` reads
    denominators = []
    unreadable = negative = False
    for r in rates:
        if type(r) is not int:
            others.append(r)
            try:
                if not isinstance(r, numbers.Number):  # Fraction() would parse a string
                    raise TypeError(r)
                exact = int(r) if _integer(r) else Fraction(r)  # a numpy int, stored as int, cannot wrap
            except (OverflowError, TypeError, ValueError):  # e.g. inf, NaN, 1j
                unreadable = True
                continue
            if isinstance(r, bool):
                negative = True
            r = exact
            denominators.append(r.denominator)
        if r < 0:
            negative = True
        out.append(r)
    if unreadable:
        raise ValueError(f"rates must be finite numbers, got {rates}")
    if negative:
        raise ValueError(f"rates must be non-negative numbers, got {rates}")
    for r in others:
        _refuse_inexact(r, "rates")
    return out, denominators


def _hop_holds(order: Sequence[int], gains: Sequence[int], rates: Sequence[int], scale: int) -> bool:
    """One hop's verdict: True iff no cut's rate sum exceeds scale * (its
    largest gain in ``gains``).  ``gains`` and ``rates`` are indexed by
    session (A1, B1, A2, B2, ...), rates are non-negative ints, and
    ``order`` lists the sessions in non-decreasing order of ``gains``.

    Separability.  A cut's sum exceeds min(up_scale * a, down_scale * b)
    iff it exceeds up_scale * a or down_scale * b, so membership is this
    test on each hop.  The pass walks ``order``, skipping zero-rate
    sessions, keeps each pair's largest rate seen so far and their sum,
    and fails as soon as the sum exceeds scale * g for the gain g just
    reached; the sum is checked when it grows, since g only rises.

    Exactness.  If it fails at gain g, the kept rates select at most one
    session per pair, all with gains <= g: a cut, nonempty because its sum
    is positive, whose largest gain g' <= g gives a bound scale * g' <=
    scale * g below its sum, so the cut is violated.  Conversely, let a cut
    be violated on this hop.  Drop its zero-rate members: the sum stays and
    the largest gain g cannot grow, so it stays violated.  Once the pass
    has seen every positive-rate session of gain <= g, the cut's members
    among them, the kept sum is at least the cut's sum > scale * g; it last
    grew at a gain <= g, and the pass failed there.

    Sessions of equal gain may come in any order: the sum only grows within
    a run of equal gains and is compared with one bound, so it exceeds that
    bound at some step of the run iff at its end.  So an order sorted once
    stays valid while the gains change by any map that never reorders them.
    The induction's reduction, n -> n - (n >= l), is such a map (it may
    merge two gains, never swap them), and so is the identity of a region
    walk over fixed gains."""
    best = [0] * (len(rates) // 2)  # largest rate seen so far, per pair
    total = 0
    for k in order:
        r = rates[k]
        if r:
            i = k // 2
            if r > best[i]:
                total += r - best[i]
                best[i] = r
                if total > scale * gains[k]:
                    return False
    return True


def in_det_cutset(
    net: DetNetwork, rates: Sequence[Rate], mode: DuplexMode = FULL_DUPLEX
) -> Membership:
    """Membership test; on failure reports every violated cut.

    The verdict comes from the two `_hop_holds` passes, on the network's
    `hop_orders`, on the bits the checked rates serve over the Q uses of
    their `_time_scales`.  Only a non-member walks `enumerate_cuts` to list
    its violated cuts, in that order, each bound being
    min(listen * a, transmit * b) / Q, or raises its RegionSizeError."""
    rs, denominators = _check_rates(net, rates)
    q, listen, transmit = _time_scales(mode, denominators)
    # Q = 1 with every rate an int: the rates are their own bits.
    bits = rs if q == 1 and not denominators else [r.numerator * (q // r.denominator) for r in rs]
    scaled = q, listen, transmit, bits
    up_order, down_order = net.hop_orders
    if _hop_holds(up_order, net.uplink, bits, listen) and _hop_holds(down_order, net.downlink, bits, transmit):
        return Membership(True, (), scaled)
    violations = []
    up, down = net.uplink, net.downlink
    for cut in enumerate_cuts(net.pairs):
        sessions = cut.sessions
        lhs = sum(bits[k] for k in sessions)
        bound = min(listen * max(up[k] for k in sessions), transmit * max(down[k] for k in sessions))
        if lhs > bound:
            violations.append(CutViolation(cut, Fraction(lhs, q), Fraction(bound, q)))
    return Membership(False, tuple(violations), scaled)


def region_walk_tests(pairs: int) -> int:
    """The tests a region walk over ``pairs`` pairs may make, at 2M session
    reads each, within `READ_BUDGET`.  RegionSizeError when the 2M probes
    that every walk fails would pass it: the refusal depends on M alone."""
    n = 2 * pairs
    tests = READ_BUDGET // n
    if tests < n:
        raise RegionSizeError(f"the {n} or more tests of a {n}-session walk exceed work budget {READ_BUDGET}")
    return tests


def enumerate_integral_region(
    net: DetNetwork, mode: DuplexMode = FULL_DUPLEX
) -> list[tuple[int, ...]]:
    """Every integral rate tuple inside the cut-set region, in lexicographic
    order.  An odometer asks the two `_hop_holds` passes, on the network's
    `hop_orders`, about each tuple it visits.  The region is down-closed,
    so once (prefix, v, 0, ..., 0) fails, no tuple with that prefix and a
    rate >= v next is a member: the walk carries to the previous
    coordinate.  Each test reads the 2M sessions: RegionSizeError
    is raised once those reads pass `READ_BUDGET`, up front as
    `region_walk_tests` says."""
    q, listen, transmit = _time_scales(mode, ())
    n = 2 * net.pairs
    tests = region_walk_tests(net.pairs)
    up, down = net.uplink, net.downlink
    up_order, down_order = net.hop_orders
    rates = [0] * n
    bits = [0] * n  # rates[k] * q: the bits over Q uses that the hop passes read
    region = [tuple(rates)]
    k = n - 1
    for _ in range(tests):
        rates[k] += 1
        bits[k] += q
        if _hop_holds(up_order, up, bits, listen) and _hop_holds(down_order, down, bits, transmit):
            region.append(tuple(rates))
            k = n - 1
        else:
            rates[k] = bits[k] = 0
            k -= 1
            if k < 0:
                return region
    raise RegionSizeError(f"tests of a {n}-session walk exceed work budget {READ_BUDGET} at {len(region)} tuples")
