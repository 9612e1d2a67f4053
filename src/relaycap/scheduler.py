"""Divide-and-conquer level assignment, time expansion, half-duplex
scheduling and bit-exact schedule simulation.

The inductive construction serves one bit (pair) per step:

* bidirectional step -- both users of a pair transmit on the highest
  uplink relay level they share (``l_u = min`` of their uplink gains) and
  the relay forwards the XOR on the lowest downlink level they share
  (``l_d = min`` of their downlink gains);
* one-way step -- the source transmits on its highest reachable uplink
  level (``l_u`` = its uplink gain) and the relay forwards the bit on the
  destination's lowest reachable downlink level (``l_d`` = the
  destination's downlink gain).

Both rules are facts about the network's gains, kept in its bit table:
keyed by (pair, side), side None for an XOR bit, each entry holds the
sessions the bit serves and its reach (l_u, l_d), the smallest gain over
those sessions on each hop.  The induction, the chunked packing,
`validate_schedule` and the simulation read it, as they read the network's
`hop_orders` and `sources`.

After a step, every uplink gain >= l_u and every downlink gain >= l_d
drops by one (the removed level disappears from the frame), and the
reduced rate tuple provably stays inside the reduced network's cut-set
region; that invariant is re-checked at runtime on every step, on the
network's `hop_orders`.

The induction takes each step's levels directly in original-network
levels: the level the reduced network serves a step on is, in original
levels, the largest one at or below the step's cap that no earlier step
took, found in a map of the levels taken so far.

Every schedule is a level rule -- this construction, or the chunked
packing `_pack` -- run on Q channel uses: the Q uses concatenate into one
use of the network with uplink gains scaled by the listen slots and
downlink gains by the transmit slots, both at least 1, so the scaled gains,
and the caps of a bit, keep the network's orders.  An integral full-duplex
tuple is the case Q = 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .cutset import Membership, Rate, RegionSizeError, _hop_holds, in_det_cutset
from .detnet import (
    FULL_DUPLEX,
    SIDES,
    DetNetwork,
    DuplexMode,
    HalfDuplex,
    NodeId,
    ShapeError,
    _integer,
    node_downlink_receive,
    relay_uplink_receive,
)

XOR = "xor"
SOLO = "solo"

# Cap on the bits any schedule serves, sum of Q times each rate (Q = 1 for
# integral and chunked schedules); refused before any induction or packing.
# The induction takes at most one step per bit.  At the cap, 8192 one-way
# steps schedule and validate in about 0.04 s for M = 1 and M = 3 (2-vCPU x86).
STEP_BUDGET = 8192

# Cap on the bits of a simulated frame, the network's largest gain; refused
# before any frame is built.  Frames are Python ints, built by shifts, so
# their cost grows with the gain, not with the bits carried.  At the cap one
# bit simulates in about 0.06 ms and 8192 bits in 0.09 s, with no peak RSS
# above the 37 MB at rest; one bit takes 4.4 ms and 6 MB more at 2^24, 26 ms
# and 38 MB more at 10^8 (2-vCPU x86, fastest of 5).
FRAME_BUDGET = 2**20


class NotInRegionError(ValueError):
    """Requested rates lie outside the cut-set region."""

    def __init__(self, membership: Membership):
        self.violations = membership.violations
        cuts = ", ".join(
            f"{v.cut.describe()}: {v.rate_sum} > {v.bound}" for v in membership.violations
        )
        super().__init__(f"rate tuple outside the cut-set region; violated cuts: {cuts}")


class InductionInvariantError(RuntimeError):
    """A reduction step left the reduced region -- provably impossible, so
    reaching this means a bug, not bad input."""


class ScheduleInvalidError(ValueError):
    """A schedule violates a level bound or reuses a level within a slot."""


_INT_FIELDS = ("pair", "uplink_slot", "uplink_level", "downlink_slot", "downlink_level")


@dataclass(frozen=True)
class LevelAssignment:
    """One relay level pair serving one session in one (listen, transmit)
    slot combination.  ``uplink_level`` is bottom-up, ``downlink_level``
    top-down, both in original-network coordinates."""

    pair: int
    kind: str  # XOR or SOLO
    side: str | None  # transmitting side for SOLO, None for XOR
    uplink_slot: int
    uplink_level: int
    downlink_slot: int
    downlink_level: int

    def __post_init__(self) -> None:
        if self.kind not in (XOR, SOLO):
            raise ValueError(f"unknown assignment kind {self.kind!r}")
        if (self.side is None) != (self.kind == XOR):
            raise ValueError("XOR assignments carry no side; SOLO assignments need one")
        if self.kind == SOLO and self.side not in SIDES:
            raise ValueError(f"SOLO side must be 'A' or 'B', got {self.side!r}")
        if not (
            type(self.pair) is type(self.uplink_slot) is type(self.uplink_level)
            is type(self.downlink_slot) is type(self.downlink_level) is int
        ):  # the slow path also stores numpy integers as int
            ints = self.pair, self.uplink_slot, self.uplink_level, self.downlink_slot, self.downlink_level
            for name, value in zip(_INT_FIELDS, ints):
                if not _integer(value):
                    raise ValueError(f"assignment {name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class Schedule:
    """Level assignments over ``slots`` uses, checked when built by `validate_schedule`."""

    net: DetNetwork
    slots: int
    assignments: tuple[LevelAssignment, ...]
    listen_slots: int | None = None  # half-duplex: slots [0, listen_slots) listen
    _budgets: dict[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_budgets", validate_schedule(self))

    def bit_budgets(self) -> dict[NodeId, int]:
        """Directed message bits carried per (pair, source side)."""
        return dict(self._budgets)


Step = tuple[int, str, str | None, int, int]  # (pair, kind, side, l_u, l_d) serving one bit


def _take(below: dict[int, int], cap: int) -> int:
    """Take the largest level <= ``cap`` that is not yet taken, and return
    it; 0 when every level up to ``cap`` is taken.  ``below`` holds each
    taken level and a level under it such that every level in between is
    taken too; the walk down those links is compressed as it is taken."""
    level = cap
    while level in below:
        level = below[level]
    if level:
        below[level] = level - 1
        while cap != level:
            below[cap], cap = level - 1, below[cap]  # the old link is read first
    return level


def _runs(bits: Sequence[int]) -> list[tuple[int, str, str | None, int]]:
    """The plan that serves a tuple: each non-empty run of bits as (pair,
    kind, side, bits), pair by pair -- the pair's min(R_A, R_B) XOR bits,
    then its |R_A - R_B| one-way bits from the larger side."""
    runs = []
    for i in range(len(bits) // 2):
        a, b = bits[2 * i], bits[2 * i + 1]
        if min(a, b):
            runs.append((i, XOR, None, min(a, b)))
        if a != b:
            runs.append((i, SOLO, "A" if a > b else "B", abs(a - b)))
    return runs


def _run_induction(net: DetNetwork, listen: int, transmit: int, rates: Sequence[int]) -> list[Step]:
    """Serve ``rates`` bit by bit on the network's gains scaled by
    ``listen`` on the uplink and ``transmit`` on the downlink (both >= 1),
    in the order of the `_runs` plan with every XOR run first: each pair's
    XOR bits, lowest pair first, then each pair's one-way bits.  Returns
    (pair, kind, side, l_u, l_d) per step, levels in scaled coordinates.

    A step serves its bit, on each hop, on the largest level at or below
    its scaled reach, from the network's bit table, that no earlier step
    took: removing a level and renumbering the rest, the paper's reduction
    n -> n - (n >= l), leaves exactly the levels not taken, so the reach in
    the reduced network lands on that level.  A session's reduced gain is
    the number of levels at or below its gain not yet taken.  After every
    step, re-checks that the remaining rates lie in the reduced full-duplex
    region on the network's `hop_orders`: scaling and reduction never
    reorder gains (see `_hop_holds`).  A step with no level left, or a
    failed re-check, raises `InductionInvariantError`; only a tuple outside
    the region can reach either, and `_time_expanded` refuses those first."""
    up = [n * listen for n in net.uplink]
    down = [n * transmit for n in net.downlink]
    up_order, down_order = net.hop_orders
    reduced_up, reduced_down = list(up), list(down)
    taken_up: dict[int, int] = {}
    taken_down: dict[int, int] = {}
    remaining = list(rates)
    steps = []
    for pair, kind, side, count in sorted(_runs(rates), key=lambda run: run[1] == SOLO):
        sessions, (cap_up, cap_down) = net._bit_table[pair, side]
        cap_up *= listen
        cap_down *= transmit
        for _ in range(count):
            l_u = _take(taken_up, cap_up)
            l_d = _take(taken_down, cap_down)
            if not (l_u and l_d):
                raise InductionInvariantError(
                    f"step {len(steps) + 1} ({kind} pair {pair}) found no free "
                    f"{'downlink' if l_u else 'uplink'} level; this contradicts the "
                    f"induction safety proof"
                )
            # The removal n -> n - (n >= l), tested on the original gains
            # since l_u and l_d are original levels.
            for k, g in enumerate(up):
                if g >= l_u:
                    reduced_up[k] -= 1
            for k, g in enumerate(down):
                if g >= l_d:
                    reduced_down[k] -= 1
            for k in sessions:
                remaining[k] -= 1
            steps.append((pair, kind, side, l_u, l_d))
            if not (
                _hop_holds(up_order, reduced_up, remaining, 1)
                and _hop_holds(down_order, reduced_down, remaining, 1)
            ):
                raise InductionInvariantError(
                    f"reduced tuple {tuple(remaining)} left the reduced region after "
                    f"step {len(steps)} ({kind} pair {pair}); this contradicts the "
                    f"induction safety proof"
                )
    return steps


def divide_and_conquer(net: DetNetwork, rates: Sequence[Rate]) -> Schedule:
    """Single-use schedule achieving an integral in-region rate tuple: time
    expansion with Q = 1."""
    return _time_expanded(net, FULL_DUPLEX, rates, True, _run_induction)


def _interleaved(level: int, lanes: int) -> tuple[int, int]:
    """Expanded level -> (slot, per-use level) under the block interleaving
    that identifies Q uses with the gains-times-Q network."""
    return (level - 1) % lanes, (level + lanes - 1) // lanes


def _time_expanded(
    net: DetNetwork, mode: DuplexMode, rates: Sequence[Rate], integral: bool,
    levels: Callable[[DetNetwork, int, int, Sequence[int]], list[Step]],
) -> Schedule:
    """Schedule an in-region tuple over Q uses: the one gate and the one
    builder of every schedule.  The gate takes (Q, listen, transmit, bits)
    as the membership verdict scaled the rates; with ``integral`` it first
    refuses a rate that is not whole (in full duplex Q is 1 exactly when
    every rate is), then raises `NotInRegionError` for a non-member
    (`RegionSizeError` if its cuts are too many to list) and
    `RegionSizeError` for bits past `STEP_BUDGET` induction steps.  The
    relay listens in the first ``listen`` of the Q slots and transmits in
    the last ``transmit`` (both Q in full duplex); the Q uses concatenate
    into one full-duplex use with uplink gains scaled by ``listen`` and
    downlink gains by ``transmit``, on which the level rule ``levels``
    (`_run_induction` or `_pack`) serves the scaled bits."""
    membership = in_det_cutset(net, rates, mode)
    q, listen, transmit, bits = membership.scaled
    if integral and q != 1:
        r = next(Fraction(b, q) for b in bits if b % q)
        raise ValueError(f"expected integral rates, got component {r}")
    if not membership.member:
        raise NotInRegionError(membership)
    if sum(bits) > STEP_BUDGET:
        raise RegionSizeError(
            f"schedule over Q={q} uses serves {sum(bits)} bits, "
            f"step budget is {STEP_BUDGET}"
        )
    assignments = []
    for pair, kind, side, l_u, l_d in levels(net, listen, transmit, bits):
        up_slot, up_level = _interleaved(l_u, listen)
        down_slot, down_level = _interleaved(l_d, transmit)
        assignments.append(
            LevelAssignment(
                pair, kind, side, up_slot, up_level, q - transmit + down_slot, down_level
            )
        )
    listen_slots = listen if listen < q else None  # half duplex listens in fewer than Q
    return Schedule(net=net, slots=q, assignments=tuple(assignments), listen_slots=listen_slots)


def schedule_fractional(net: DetNetwork, rates: Sequence[Rate]) -> Schedule:
    """Schedule a rational in-region tuple over Q uses, Q = lcm of the rate
    denominators."""
    return _time_expanded(net, FULL_DUPLEX, rates, False, _run_induction)


def schedule_half_duplex(
    net: DetNetwork, delta: Fraction, rates: Sequence[Rate]
) -> Schedule:
    """Schedule under a half-duplex relay listening a ``delta`` fraction of
    the time: the first Q*delta of Q slots listen, the rest transmit."""
    return _time_expanded(net, HalfDuplex(delta), rates, False, _run_induction)


# --- chunked variant -------------------------------------------------------


def _pack(net: DetNetwork, listen: int, transmit: int, bits: Sequence[int]) -> list[Step]:
    """The chunked level rule on the network's gains scaled by ``listen``
    and ``transmit``: each `_runs` run takes one contiguous run of levels
    per hop, packed bottom-up in order of the runs' scaled reach caps
    (earliest deadline first).  Dense stacking keeps every run contiguous,
    and the cut-set bounds imply the deadline condition, so the packing
    succeeds exactly on in-region tuples.  Returns (pair, kind, side, l_u,
    l_d) per bit, run by run."""
    runs = _runs(bits)
    caps = []
    for pair, _, side, _ in runs:
        cap_up, cap_down = net._bit_table[pair, side][1]
        caps.append((cap_up * listen, cap_down * transmit))
    firsts = [[0, 0] for _ in runs]  # first uplink and downlink level per run
    for hop, direction in enumerate(("up", "down")):
        next_free = 1
        for k in sorted(range(len(runs)), key=lambda k: (caps[k][hop], *runs[k][:2])):
            pair, kind, _, count = runs[k]
            firsts[k][hop] = next_free
            next_free += count
            if next_free - 1 > caps[k][hop]:
                raise InductionInvariantError(
                    f"chunk packing ran past its reachability cap ({direction}link "
                    f"pair {pair} {kind}: need level {next_free - 1}, "
                    f"cap {caps[k][hop]}); in-region tuples cannot do this"
                )
    return [
        (pair, kind, side, up + n, down + n)
        for (pair, kind, side, count), (up, down) in zip(runs, firsts)
        for n in range(count)
    ]


def chunk_schedule(net: DetNetwork, rates: Sequence[Rate]) -> Schedule:
    """Single-use schedule of an integral in-region tuple with each pair's
    XOR bits, and its one-way bits, on one contiguous run of levels per
    hop: the packing rule `_pack` run through the shared builder."""
    return _time_expanded(net, FULL_DUPLEX, rates, True, _pack)


# --- simulation ------------------------------------------------------------


def validate_schedule(sched: Schedule) -> dict[NodeId, int]:
    """Check level bounds per assignment and per-slot orthogonality, and
    return the message bits each (pair, source side) sends; `Schedule` keeps them."""
    net = sched.net
    slots, listen = sched.slots, sched.listen_slots
    if not _integer(slots) or slots < 1:
        raise ScheduleInvalidError(f"slots must be a positive integer, got {slots!r}")
    if listen is not None and (not _integer(listen) or not 1 <= listen < slots):
        raise ScheduleInvalidError(
            f"listen_slots must be None or an integer in [1, {slots - 1}], got {listen!r}"
        )
    sent = [0] * (2 * net.pairs)  # message bits per session
    used_up: set[tuple[int, int]] = set()
    used_down: set[tuple[int, int]] = set()
    for a in sched.assignments:
        if not 0 <= a.pair < net.pairs:
            raise ScheduleInvalidError(f"assignment names pair {a.pair} of {net.pairs}")
        if a.uplink_slot < 0 or a.uplink_slot >= slots:
            raise ScheduleInvalidError(f"uplink slot {a.uplink_slot} outside 0..{slots - 1}")
        if a.downlink_slot < 0 or a.downlink_slot >= slots:
            raise ScheduleInvalidError(f"downlink slot {a.downlink_slot} out of range")
        if listen is not None:
            if a.uplink_slot >= listen:
                raise ScheduleInvalidError("uplink use scheduled in a transmit slot")
            if a.downlink_slot < listen:
                raise ScheduleInvalidError("downlink use scheduled in a listen slot")
        sessions, (up_cap, down_cap) = net._bit_table[a.pair, a.side]
        if not 1 <= a.uplink_level <= up_cap:
            raise ScheduleInvalidError(
                f"uplink level {a.uplink_level} unreachable for {a.kind} of pair "
                f"{a.pair} (cap {up_cap})"
            )
        if not 1 <= a.downlink_level <= down_cap:
            raise ScheduleInvalidError(
                f"downlink level {a.downlink_level} unreachable for {a.kind} of pair "
                f"{a.pair} (cap {down_cap})"
            )
        up_key = (a.uplink_slot, a.uplink_level)
        down_key = (a.downlink_slot, a.downlink_level)
        if up_key in used_up:
            raise ScheduleInvalidError(f"uplink level reused in one slot: {up_key}")
        if down_key in used_down:
            raise ScheduleInvalidError(f"downlink level reused in one slot: {down_key}")
        used_up.add(up_key)
        used_down.add(down_key)
        for k in sessions:
            sent[k] += 1
    return dict(zip(net.sources, sent))


@dataclass(frozen=True)
class SimulationResult:
    ok: bool
    decoded: dict[NodeId, tuple[int, ...]]


def _ordered(assignments: Sequence[LevelAssignment]) -> list[LevelAssignment]:
    # Message bits are consumed listen-slot by listen-slot, most significant
    # relay level first, on both the encode and decode side.
    return sorted(assignments, key=lambda a: (a.uplink_slot, -a.uplink_level))


def simulate_schedule(
    sched: Schedule, messages: Mapping[NodeId, Sequence[int]]
) -> SimulationResult:
    """Push message bits through the deterministic channel end to end.

    Transmit frames are built from the schedule (checked when it was
    built), the relay receive/permute/forward chain runs through the
    channel-model primitives, every node decodes from what it actually
    hears (XOR entries combined with the node's own transmitted bit, SOLO
    entries read directly), and the verdict compares decoded messages
    with the inputs.  Every message entry must be an integer 0 or 1
    (numpy integers included, bools not): nothing else is read as a bit.
    A network whose frames pass `FRAME_BUDGET` bits is refused first.
    """
    net = sched.net
    q_up, q_down = net.q_up, net.q_down
    if max(q_up, q_down) > FRAME_BUDGET:
        raise ShapeError(f"frames of {max(q_up, q_down)} bits: a simulated frame holds at most {FRAME_BUDGET}")
    unknown = [node for node in messages if node not in sched._budgets]
    if unknown:
        raise ValueError(f"messages for nodes outside the network: {unknown}")
    msgs: dict[NodeId, tuple[int, ...]] = {}
    for node, need in sched._budgets.items():
        got = tuple(messages.get(node, ()))
        if set(map(type, got)) - {int}:  # the slow path stores numpy integers as int, and refuses the rest
            got = tuple(int(b) if _integer(b) else None for b in got)
        if not set(got) <= {0, 1}:
            raise ValueError(f"message for {node} must be bits")
        if len(got) != need:
            raise ShapeError(f"message for {node} has {len(got)} bits, schedule carries {need}")
        msgs[node] = got

    # Uplink: each assignment draws its message bits in consumption order,
    # one (session, bit) per session the bit serves, whose source is nodes[k]; a
    # node's bit for relay level l (bottom-up) sits at its own top-down frame
    # index gain - l, and arrives as bit l - 1 at the relay.
    order = _ordered(sched.assignments)
    feeds = {node: iter(bits) for node, bits in msgs.items()}
    nodes = net.sources  # session k's source; k ^ 1's is its destination
    up, down = net.uplink, net.downlink
    sent: list[list[tuple[int, int]]] = []
    tx: dict[int, dict[NodeId, int]] = defaultdict(dict)
    for a in order:
        drawn = []
        frames = tx[a.uplink_slot]
        top = q_up - 1 + a.uplink_level
        for k in net._bit_table[a.pair, a.side][0]:
            node = nodes[k]
            bit = next(feeds[node])
            frames[node] = frames.get(node, 0) | bit << (top - up[k])
            drawn.append((k, bit))
        sent.append(drawn)
    received = {slot: relay_uplink_receive(net, frames) for slot, frames in tx.items()}

    # Relay permute-and-forward: downlink level l (top-down) is bit
    # q_down - l of the relay frame.
    relay_frames: dict[int, int] = defaultdict(int)
    for a in order:
        bit = received[a.uplink_slot] >> (a.uplink_level - 1) & 1
        relay_frames[a.downlink_slot] |= bit << (q_down - a.downlink_level)

    # Each destination decodes from what it hears, one frame per (downlink
    # slot, session): a destination with downlink gain g finds level l at
    # bit g - l.  Decoded bits are reassembled in the order they were consumed.
    heard: dict[tuple[int, int], int] = {}
    out: dict[NodeId, list[int]] = {node: [] for node in msgs}
    for a, drawn in zip(order, sent):
        slot, level, xor = a.downlink_slot, a.downlink_level, a.kind == XOR
        for k, _ in drawn:
            frame = heard.get((slot, k))
            if frame is None:
                frame = heard[slot, k] = node_downlink_receive(net, relay_frames[slot], *nodes[k ^ 1])
            got = frame >> (down[k] - level) & 1
            if xor:
                got ^= drawn[(k & 1) ^ 1][1]  # the destination's own bit cancels out of the XOR
            out[nodes[k]].append(got)

    decoded = {node: tuple(bits) for node, bits in out.items()}
    return SimulationResult(ok=decoded == msgs, decoded=decoded)


def random_messages(sched: Schedule, rng) -> dict[NodeId, tuple[int, ...]]:
    """Random payload matching the schedule's bit budgets."""
    return {
        node: tuple(int(b) for b in rng.integers(0, 2, size=need))
        for node, need in sched.bit_budgets().items()
    }
