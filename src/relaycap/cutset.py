"""Cut-set bounds, region membership and brute-force region enumeration.

All arithmetic on this side of the package is exact: integer gains,
integer or `Fraction` rates, `Fraction` listen fractions.  Floats are
deliberately kept out so that boundary tuples classify deterministically.

A cut picks a nonempty subset U of pairs and an orientation bit per
member: orientation 1 puts A_i on the transmitting side of the cut
(counting R_{A_i}), orientation 0 picks B_i.  The bound is

    sum over U of the oriented rates
      <= min( max over U of the oriented uplink gains,
              max over U of the oriented downlink gains )

with the uplink term scaled by delta and the downlink term by (1 - delta)
when the relay is half-duplex.

Membership does not walk the 3^M - 1 cuts.  A cut's bound depends only on
its largest oriented uplink gain a and downlink gain b, so the region is
cut by one threshold test per (a, b): the largest rate sum of any cut whose
gains stay <= (a, b) must not exceed the bound at (a, b).  `cutset_holds`
runs that test in integers in O(M K^2) with K <= 2M distinct gains; see its
docstring for why it is exact.  `enumerate_cuts` and `det_cut_bound` stay
as the brute-force reference, and list the violated cuts of a non-member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .detnet import FULL_DUPLEX, DetNetwork, DuplexMode, HalfDuplex

Rate = Union[int, Fraction]
RateTuple = tuple[Rate, ...]

# Cap on the work of `enumerate_integral_region`: one numpy pass over the
# box of candidate tuples per cut, for all 3^M - 1 cuts.  A pass costs about
# 10 ns per cell plus a fixed 20 us, as much as about 1000 cells (2-vCPU x86
# machine), so the work is counted as (3^M - 1) * (cells + 1000).
CELL_BUDGET = 5_000_000


class RegionSizeError(RuntimeError):
    """A brute-force enumeration box or a time expansion exceeds its budget."""


@dataclass(frozen=True)
class Cut:
    members: tuple[int, ...]  # sorted pair indices, nonempty
    orientation: tuple[int, ...]  # one bit per member, 1 = A side transmits

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a cut needs a nonempty pair subset")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError("cut members must be sorted and unique")
        if len(self.orientation) != len(self.members):
            raise ValueError("one orientation bit per member required")
        if any(b not in (0, 1) for b in self.orientation):
            raise ValueError("orientation bits must be 0/1")

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

    def __bool__(self) -> bool:
        return self.member


@lru_cache(maxsize=None)
def enumerate_cuts(pairs: int) -> tuple[Cut, ...]:
    """All cuts of an M-pair network: sum over k of C(M,k) * 2^k of them."""
    if pairs < 1:
        raise ValueError("need at least one pair")
    cuts = []
    for k in range(1, pairs + 1):
        for members in itertools.combinations(range(pairs), k):
            for orientation in itertools.product((1, 0), repeat=k):
                cuts.append(Cut(members, orientation))
    return tuple(cuts)


def _cut_gains(net: DetNetwork, cut: Cut) -> tuple[int, int]:
    up = max(
        net.n_ar[i] if b else net.n_br[i] for i, b in zip(cut.members, cut.orientation)
    )
    down = max(
        net.n_rb[i] if b else net.n_ra[i] for i, b in zip(cut.members, cut.orientation)
    )
    return up, down


def det_cut_bound(net: DetNetwork, cut: Cut, mode: DuplexMode = FULL_DUPLEX) -> Fraction:
    """Exact value of one cut's rate-sum bound."""
    up, down = _cut_gains(net, cut)
    if isinstance(mode, HalfDuplex):
        return min(mode.delta * up, (1 - mode.delta) * down)
    return Fraction(min(up, down))


def _time_scales(mode: DuplexMode, denominators: Iterable[int]) -> tuple[int, int, int]:
    """(Q, listen, transmit): the fewest channel uses Q that make delta (in
    half duplex) and every rate with these denominators integral, and how
    many of them the relay listens and transmits in.  Full duplex listens
    and transmits in all Q; half duplex listens in delta * Q and transmits
    in the rest."""
    if isinstance(mode, HalfDuplex):
        q = math.lcm(mode.delta.denominator, *denominators)
        listen = mode.delta.numerator * (q // mode.delta.denominator)
        return q, listen, q - listen
    q = math.lcm(*denominators)
    return q, q, q


def _check_rates(net: DetNetwork, rates: Sequence[Rate]) -> tuple[Rate, ...]:
    """The rates with every non-int converted to a Fraction once."""
    if len(rates) != 2 * net.pairs:
        raise ValueError(f"expected {2 * net.pairs} rate components, got {len(rates)}")
    out = tuple(r if isinstance(r, int) else Fraction(r) for r in rates)
    if any(r.numerator < 0 for r in out):
        raise ValueError(f"rates must be non-negative, got {rates}")
    return out


def cutset_holds(
    n_ar: Sequence[int],
    n_br: Sequence[int],
    n_ra: Sequence[int],
    n_rb: Sequence[int],
    rates: Sequence[int],
    up_scale: int = 1,
    down_scale: int = 1,
) -> bool:
    """Integer threshold test: True iff every cut satisfies

        sum of its oriented rates <= min(up_scale * a, down_scale * b)

    where a and b are the cut's largest oriented uplink and downlink gain.
    ``rates`` are non-negative ints in the usual (R_A1, R_B1, ...) order;
    integral full-duplex rates use the unit scales.

    Session (i, A) has oriented gains (n_ar[i], n_rb[i]), session (i, B) has
    (n_br[i], n_ra[i]).  For every threshold pair (a, b) of those gains,
    taken over the sessions with positive rate (b only from sessions whose
    uplink gain is <= a), the test adds up, per pair, its largest rate whose
    oriented gains are both <= (a, b) and compares the sum with the bound
    at (a, b).  That is O(M K^2) with K <= 2M.

    Exactness.  If a cut is violated, drop its zero-rate members: its rate
    sum stays and its bound cannot grow, so it stays violated, and its gains
    (a, b) are among the thresholds tried.  The cut is one selection of at
    most one session per pair with gains <= (a, b), so the maximised sum is
    at least its rate sum and the test fails.  Conversely, if the test fails
    at (a, b), the maximising selection is itself a cut, nonempty because its
    sum is positive, with largest gains a' <= a and b' <= b; the bound is
    monotone in both gains, so the cut's bound is at most the bound at
    (a, b), which the sum exceeds.
    """
    sessions = []
    for i, (ra, rb) in enumerate(zip(rates[0::2], rates[1::2])):
        if ra:
            sessions.append((i, ra, n_ar[i], n_rb[i]))
        if rb:
            sessions.append((i, rb, n_br[i], n_ra[i]))
    for a in {s[2] for s in sessions}:
        below = [s for s in sessions if s[2] <= a]
        for b in {s[3] for s in below}:
            best: dict[int, int] = {}
            for i, r, _, d in below:
                if d <= b and r > best.get(i, 0):
                    best[i] = r
            if sum(best.values()) > min(up_scale * a, down_scale * b):
                return False
    return True


def in_det_cutset(
    net: DetNetwork, rates: Sequence[Rate], mode: DuplexMode = FULL_DUPLEX
) -> Membership:
    """Membership test; on failure reports every violated cut.

    The verdict comes from `cutset_holds` on the rates scaled to a common
    denominator, together with delta in half duplex.  Only a non-member
    walks `enumerate_cuts` to list its violated cuts, in that order."""
    rs = _check_rates(net, rates)
    q, listen, transmit = _time_scales(mode, [r.denominator for r in rs])
    ints = [r.numerator * (q // r.denominator) for r in rs]
    if cutset_holds(net.n_ar, net.n_br, net.n_ra, net.n_rb, ints, listen, transmit):
        return Membership(True, ())
    violations = []
    for cut in enumerate_cuts(net.pairs):
        lhs = sum(rs[2 * i] if b else rs[2 * i + 1] for i, b in zip(cut.members, cut.orientation))
        bound = det_cut_bound(net, cut, mode)
        if lhs > bound:
            violations.append(CutViolation(cut, Fraction(lhs), bound))
    return Membership(False, tuple(violations))


def directed_rate_caps(net: DetNetwork, mode: DuplexMode = FULL_DUPLEX) -> tuple[int, ...]:
    """Largest integral value of each directed rate alone (the singleton cuts)."""
    caps = []
    for i in range(net.pairs):
        for bit in (1, 0):
            bound = det_cut_bound(net, Cut((i,), (bit,)), mode)
            caps.append(int(bound))  # floor: Fraction.__int__ truncates non-negatives
    return tuple(caps)


def enumerate_integral_region(
    net: DetNetwork, mode: DuplexMode = FULL_DUPLEX
) -> list[tuple[int, ...]]:
    """Every integral rate tuple inside the cut-set region, in lexicographic
    order.  Brute force over the box of per-direction caps; intended as the
    oracle for desk-scale networks.  Refused before any work when the walk
    would exceed `CELL_BUDGET`."""
    caps = directed_rate_caps(net, mode)
    cells = math.prod(c + 1 for c in caps)
    cuts = 3**net.pairs - 1
    work = cuts * (cells + 1000)  # see CELL_BUDGET
    if work > CELL_BUDGET:
        raise RegionSizeError(
            f"enumeration box has {cells} cells and {cuts} cuts, "
            f"work {work} exceeds budget {CELL_BUDGET}"
        )

    dims = tuple(c + 1 for c in caps)
    # row-major unravel keeps the columns in lexicographic order
    points = np.stack(np.unravel_index(np.arange(cells, dtype=np.int64), dims))

    # integral rates over Q uses: Q * lhs <= min(listen * up, transmit * down)
    q, listen, transmit = _time_scales(mode, ())
    mask = np.ones(points.shape[1], dtype=bool)
    for cut in enumerate_cuts(net.pairs):
        idx = [2 * i if b else 2 * i + 1 for i, b in zip(cut.members, cut.orientation)]
        lhs = points[idx].sum(axis=0)
        up, down = _cut_gains(net, cut)
        mask &= q * lhs <= min(listen * up, transmit * down)
    region = points[:, mask].T
    return [tuple(int(v) for v in row) for row in region]
