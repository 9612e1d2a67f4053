"""The deterministic side by brute force, as the test reference.

One reference per computation, on a network's node gains ``n_ar``,
``n_br``, ``n_ra`` and ``n_rb``: the cut list, built here, and each cut's
bound, reading the duplex mode itself; built on them, membership with its
violated cuts, the box region and each session's cap; each bit's reach,
one reduction step n -> n - (n >= l) and a scan for a free level; the
paper's induction by repeated reduction, its levels mapped back by
`quadratic_replay`; and time expansion.  The differential tests require
`relaycap` to reproduce every verdict, region, level and refusal here.

Nothing here reads the session-ordered gains (`uplink`, `downlink`), the
network's `hop_orders` or bit table, any private helper, or any function
of `relaycap`: a wrong entry there then shows up as a difference, not as
agreement with itself.  `test_reference_reads_no_private_names` and
`test_reference_imports_no_function` keep it that way.
"""

import functools
import itertools
import math
from fractions import Fraction

from relaycap import FULL_DUPLEX, Cut, CutViolation, DetNetwork, FullDuplex, HalfDuplex, InductionInvariantError
from relaycap.scheduler import SOLO, XOR


# --- cut bounds and what is built on them -------------------------------------


@functools.cache
def cuts(pairs):
    """Every cut of a ``pairs``-pair network, in the order `in_det_cutset`
    lists them: by member count, then by members, then by orientation, 1
    before 0.  Each pair stays out of a cut or joins it on one side, so
    there are 3^M - 1."""
    listed = []
    for sides in itertools.product((None, 1, 0), repeat=pairs):
        members = tuple(i for i, b in enumerate(sides) if b is not None)
        if members:
            listed.append(Cut(members, tuple(sides[i] for i in members)))
    return tuple(sorted(listed, key=lambda c: (len(c.members), c.members, [1 - b for b in c.orientation])))


def rate_sum(cut, rates):
    """The rates the cut counts: R_{A_i} for a member i of orientation 1,
    R_{B_i} for orientation 0."""
    return sum(rates[2 * i] if b else rates[2 * i + 1] for i, b in zip(cut.members, cut.orientation))


def cut_bound(net, cut, mode=FULL_DUPLEX):
    """Exact value of one cut's bound: min(a, b), or min(delta * a,
    (1 - delta) * b) for a half-duplex relay, where a is the largest gain
    from the cut's senders to the relay and b the largest from the relay to
    their partners.  A_i sends on n_ar[i] and B_i hears on n_rb[i]; B_i sends
    on n_br[i] and A_i hears on n_ra[i]."""
    senders = list(zip(cut.members, cut.orientation))
    a = max(net.n_ar[i] if b else net.n_br[i] for i, b in senders)
    b = max(net.n_rb[i] if b else net.n_ra[i] for i, b in senders)
    if isinstance(mode, FullDuplex):
        return min(a, b)
    if isinstance(mode, HalfDuplex):
        return min(mode.delta * a, (1 - mode.delta) * b)
    raise ValueError(f"duplex mode must be FullDuplex or HalfDuplex, got {mode!r}")


def violations(net, rates, mode=FULL_DUPLEX):
    """Every violated cut, in `cuts` order, as `in_det_cutset` lists them;
    a tuple is a member iff there is none."""
    out = []
    for cut in cuts(net.pairs):
        lhs, bound = rate_sum(cut, rates), cut_bound(net, cut, mode)
        if lhs > bound:
            out.append(CutViolation(cut, Fraction(lhs), Fraction(bound)))
    return tuple(out)


def caps(net, mode=FULL_DUPLEX):
    """The largest integral rate of each session alone, its singleton cut's
    bound floored, in session order (A1, B1, A2, B2, ...)."""
    return tuple(math.floor(cut_bound(net, Cut((k // 2,), (1 - k % 2,)), mode)) for k in range(2 * net.pairs))


def region(net, mode=FULL_DUPLEX):
    """Every tuple of the box of `caps`, in lexicographic order, that no cut
    excludes."""
    # a tuple's rate sums are integers, so each bound may be floored
    bounds = [(cut, math.floor(cut_bound(net, cut, mode))) for cut in cuts(net.pairs)]
    box = itertools.product(*(range(c + 1) for c in caps(net, mode)))
    return [t for t in box if all(rate_sum(cut, t) <= b for cut, b in bounds)]


# --- the induction --------------------------------------------------------------


def reach(net, pair, side):
    """The levels (l_u, l_d) that serve one bit of ``pair``: for an XOR bit
    (``side`` None) the highest uplink level both users reach and the lowest
    downlink level both hear; for a one-way bit from ``side``, its source's
    highest uplink level and its destination's lowest downlink level."""
    if side is None:
        return min(net.n_ar[pair], net.n_br[pair]), min(net.n_ra[pair], net.n_rb[pair])
    if side == "A":
        return net.n_ar[pair], net.n_rb[pair]
    return net.n_br[pair], net.n_ra[pair]


def reduce(net, l_u, l_d):
    """The network with uplink level ``l_u`` and downlink level ``l_d``
    removed: every gain at or above a removed level drops by one."""
    up = [tuple(n - (n >= l_u) for n in gains) for gains in (net.n_ar, net.n_br)]
    down = [tuple(n - (n >= l_d) for n in gains) for gains in (net.n_ra, net.n_rb)]
    return DetNetwork(*up, *down)


def free_level(taken, cap):
    """The highest level <= ``cap`` not in ``taken``, by scanning; 0 if none."""
    return max((level for level in range(1, cap + 1) if level not in taken), default=0)


def quadratic_replay(levels):
    """Each step's (l_u, l_d), taken on the network every earlier step
    reduced, in the original network's levels: undo the earlier removals
    one by one, latest first, O(steps^2)."""
    out = []
    for k, (l_u, l_d) in enumerate(levels):
        for u, d in reversed(levels[:k]):
            l_u += l_u >= u
            l_d += l_d >= d
        out.append((l_u, l_d))
    return out


def induction(net, rates):
    """Serve integral ``rates`` bit by bit on networks: each pair's
    min(R_A, R_B) XOR bits, lowest pair first, then each session's one-way
    bits.  Every step takes its bit's `reach`, reduces the network and
    re-checks the rates left against every cut.  Returns (pair, kind, side,
    l_u, l_d) per step, levels in the original network's; a step with no
    level left, or rates that leave the reduced region, raise
    `InductionInvariantError` with `_run_induction`'s text."""
    plan = []
    for i in range(net.pairs):
        plan += [(i, XOR, None)] * min(rates[2 * i], rates[2 * i + 1])
    for k, r in enumerate(rates):
        plan += [(k // 2, SOLO, "AB"[k % 2])] * (r - min(r, rates[k ^ 1]))
    remaining = list(rates)
    levels = []
    for pair, kind, side in plan:
        l_u, l_d = reach(net, pair, side)
        if not (l_u and l_d):
            raise InductionInvariantError(
                f"step {len(levels) + 1} ({kind} pair {pair}) found no free "
                f"{'downlink' if l_u else 'uplink'} level; this contradicts the "
                f"induction safety proof"
            )
        net = reduce(net, l_u, l_d)
        for k in (2 * pair, 2 * pair + 1) if side is None else (2 * pair + "AB".index(side),):
            remaining[k] -= 1
        levels.append((l_u, l_d))
        if violations(net, remaining):
            raise InductionInvariantError(
                f"reduced tuple {tuple(remaining)} left the reduced region after "
                f"step {len(levels)} ({kind} pair {pair}); this contradicts the "
                f"induction safety proof"
            )
    return [(*step, *taken) for step, taken in zip(plan, quadratic_replay(levels))]


def expand_time(net, listen, transmit):
    """``listen`` uses of the uplink and ``transmit`` of the downlink as one
    use of the network with uplink gains times ``listen`` and downlink gains
    times ``transmit``; Q full-duplex uses are ``listen = transmit = Q``.
    Its full-duplex cut bounds are min(listen * a, transmit * b)."""
    up = [tuple(listen * n for n in gains) for gains in (net.n_ar, net.n_br)]
    down = [tuple(transmit * n for n in gains) for gains in (net.n_ra, net.n_rb)]
    return DetNetwork(*up, *down)
