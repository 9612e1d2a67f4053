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

_INT = frozenset((int,))  # `_INT.issuperset(map(type, xs))`: every x is an int, not a subclass

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

    def __init__(
        self, pair: int, kind: str, side: str | None,
        uplink_slot: int, uplink_level: int, downlink_slot: int, downlink_level: int,
    ) -> None:
        if kind not in (XOR, SOLO):
            raise ValueError(f"unknown assignment kind {kind!r}")
        if (side is None) != (kind == XOR):
            raise ValueError("XOR assignments carry no side; SOLO assignments need one")
        if kind == SOLO and side not in SIDES:
            raise ValueError(f"SOLO side must be 'A' or 'B', got {side!r}")
        if not (
            type(pair) is type(uplink_slot) is type(uplink_level)
            is type(downlink_slot) is type(downlink_level) is int
        ):  # the slow path also stores numpy integers as int
            ints = pair, uplink_slot, uplink_level, downlink_slot, downlink_level
            for name, value in zip(_INT_FIELDS, ints):
                if not _integer(value):
                    raise ValueError(f"assignment {name} must be an integer, got {value!r}")
            pair, uplink_slot, uplink_level, downlink_slot, downlink_level = map(int, ints)
        self.__dict__.update(
            pair=pair, kind=kind, side=side, uplink_slot=uplink_slot, uplink_level=uplink_level,
            downlink_slot=downlink_slot, downlink_level=downlink_level,
        )


# An assignment as the simulation reads it: (uplink slot, -uplink level,
# downlink slot, downlink level, whether it is an XOR bit, the sessions it
# serves).  Sorted, rows come in the order message bits are consumed.
Row = tuple[int, int, int, int, bool, tuple[int, ...]]


@dataclass(frozen=True)
class Schedule:
    """Level assignments over ``slots`` uses, checked when built by
    `validate_schedule`, which also leaves on it the rows the simulation reads."""

    net: DetNetwork
    slots: int
    assignments: tuple[LevelAssignment, ...]
    listen_slots: int | None = None  # half-duplex: slots [0, listen_slots) listen
    _budgets: dict[NodeId, int] = field(init=False, repr=False, compare=False)
    _rows: list[Row] = field(init=False, repr=False, compare=False)

    def __init__(
        self, net: DetNetwork, slots: int, assignments: tuple[LevelAssignment, ...],
        listen_slots: int | None = None,
    ) -> None:
        fields = self.__dict__
        fields.update(net=net, slots=slots, assignments=assignments, listen_slots=listen_slots)
        fields["_budgets"] = validate_schedule(self)

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
    for i, (a, b) in enumerate(zip(bits[::2], bits[1::2])):
        if a and b:
            runs.append((i, XOR, None, a if a < b else b))
        if a > b:
            runs.append((i, SOLO, "A", a - b))
        elif b > a:
            runs.append((i, SOLO, "B", b - a))
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
    up = net.uplink if listen == 1 else [n * listen for n in net.uplink]
    down = net.downlink if transmit == 1 else [n * transmit for n in net.downlink]
    up_order, down_order = net.hop_orders
    table = net._bit_table
    reduced_up, reduced_down = list(up), list(down)
    taken_up: dict[int, int] = {}
    taken_down: dict[int, int] = {}
    remaining = list(rates)
    steps = []
    all_sessions = range(len(up))
    xor_runs, solo_runs = [], []
    for run in _runs(rates):
        (xor_runs if run[1] is XOR else solo_runs).append(run)
    for pair, kind, side, count in xor_runs + solo_runs:
        sessions, (cap_up, cap_down) = table[pair, side]
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
            # The removal n -> n - (n >= l) on both hops, tested on the
            # original gains since l_u and l_d are original levels.
            for k in all_sessions:
                if up[k] >= l_u:
                    reduced_up[k] -= 1
                if down[k] >= l_d:
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
    # Block interleaving identifies the Q uses with the scaled network: on
    # a hop used in ``lanes`` slots, expanded level l is per-use level
    # (l + lanes - 1) // lanes in slot (l - 1) % lanes of that hop's slots.
    first_down = q - transmit
    assignments = tuple([
        LevelAssignment(
            pair, kind, side, (l_u - 1) % listen, (l_u + listen - 1) // listen,
            first_down + (l_d - 1) % transmit, (l_d + transmit - 1) // transmit,
        )
        for pair, kind, side, l_u, l_d in levels(net, listen, transmit, bits)
    ])
    listen_slots = listen if listen < q else None  # half duplex listens in fewer than Q
    return Schedule(net, q, assignments, listen_slots)


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
    return the message bits each (pair, source side) sends; `Schedule` keeps
    them.  The walk also leaves on ``sched`` its assignments as sorted rows
    (see `Row`), which `simulate_schedule` reads."""
    net = sched.net
    slots, listen = sched.slots, sched.listen_slots
    if not _integer(slots) or slots < 1:
        raise ScheduleInvalidError(f"slots must be a positive integer, got {slots!r}")
    if listen is not None and (not _integer(listen) or not 1 <= listen < slots):
        raise ScheduleInvalidError(
            f"listen_slots must be None or an integer in [1, {slots - 1}], got {listen!r}"
        )
    pairs, table = net.pairs, net._bit_table
    sent = [0] * (2 * pairs)  # message bits per session
    used_up: set[tuple[int, int]] = set()
    used_down: set[tuple[int, int]] = set()
    rows: list[Row] = []
    for a in sched.assignments:
        pair = a.pair
        if not 0 <= pair < pairs:
            raise ScheduleInvalidError(f"assignment names pair {pair} of {pairs}")
        up_slot = a.uplink_slot
        if up_slot < 0 or up_slot >= slots:
            raise ScheduleInvalidError(f"uplink slot {up_slot} outside 0..{slots - 1}")
        down_slot = a.downlink_slot
        if down_slot < 0 or down_slot >= slots:
            raise ScheduleInvalidError(f"downlink slot {down_slot} out of range")
        if listen is not None:
            if up_slot >= listen:
                raise ScheduleInvalidError("uplink use scheduled in a transmit slot")
            if down_slot < listen:
                raise ScheduleInvalidError("downlink use scheduled in a listen slot")
        sessions, (up_cap, down_cap) = table[pair, a.side]
        up_level = a.uplink_level
        if not 1 <= up_level <= up_cap:
            raise ScheduleInvalidError(
                f"uplink level {up_level} unreachable for {a.kind} of pair {pair} (cap {up_cap})"
            )
        down_level = a.downlink_level
        if not 1 <= down_level <= down_cap:
            raise ScheduleInvalidError(
                f"downlink level {down_level} unreachable for {a.kind} of pair {pair} (cap {down_cap})"
            )
        up_key = (up_slot, up_level)
        down_key = (down_slot, down_level)
        if up_key in used_up:
            raise ScheduleInvalidError(f"uplink level reused in one slot: {up_key}")
        if down_key in used_down:
            raise ScheduleInvalidError(f"downlink level reused in one slot: {down_key}")
        used_up.add(up_key)
        used_down.add(down_key)
        for k in sessions:
            sent[k] += 1
        rows.append((up_slot, -up_level, down_slot, down_level, a.kind == XOR, sessions))
    # Message bits are consumed listen-slot by listen-slot, most significant
    # relay level first, on both the encode and decode side.  No two rows
    # share an uplink (slot, level), so the sort reads nothing past those.
    rows.sort()
    sched.__dict__["_rows"] = rows
    return dict(zip(net.sources, sent))


@dataclass(frozen=True)
class SimulationResult:
    ok: bool
    decoded: dict[NodeId, tuple[int, ...]]

    def __init__(self, ok: bool, decoded: dict[NodeId, tuple[int, ...]]) -> None:
        self.__dict__.update(ok=ok, decoded=decoded)


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
    budgets = sched._budgets
    unknown = [node for node in messages if node not in budgets]
    if unknown:
        raise ValueError(f"messages for nodes outside the network: {unknown}")
    # Each payload, in session order, is checked before the next is read, so
    # the first at fault is refused; numpy integers are stored as int.
    payloads = []
    for node, need in budgets.items():
        got = tuple(messages.get(node, ()))
        if not _INT.issuperset(map(type, got)):
            got = tuple(int(b) if _integer(b) else None for b in got)
        if got.count(0) + got.count(1) != len(got):
            raise ValueError(f"message for {node} must be bits")
        if len(got) != need:
            raise ShapeError(f"message for {node} has {len(got)} bits, schedule carries {need}")
        payloads.append(got)

    # Uplink: each row draws its message bits in consumption order, one per
    # session k it serves, whose source is nodes[k]; a node's bit for relay
    # level l (bottom-up) sits at its own top-down frame index gain - l, and
    # arrives as bit l - 1 at the relay.
    rows = sched._rows
    feeds = list(map(iter, payloads))
    nodes = net.sources  # session k's source; k ^ 1's is its destination
    up, down = net.uplink, net.downlink
    drawn = []  # per row, the bit it carries of each session it serves
    tx: dict[int, dict[NodeId, int]] = {}
    for up_slot, neg_level, _, _, _, sessions in rows:
        frames = tx.get(up_slot)
        if frames is None:
            frames = tx[up_slot] = {}
        top = q_up - 1 - neg_level
        bits = []
        for k in sessions:
            node = nodes[k]
            bit = next(feeds[k])
            frames[node] = frames.get(node, 0) | bit << (top - up[k])
            bits.append(bit)
        drawn.append(bits)
    received = {}
    for slot, frames in tx.items():
        received[slot] = relay_uplink_receive(net, frames)

    # Relay permute-and-forward: downlink level l (top-down) is bit
    # q_down - l of the relay frame.
    relay_frames: dict[int, int] = {}
    for up_slot, neg_level, down_slot, down_level, _, _ in rows:
        bit = received[up_slot] >> (-1 - neg_level) & 1
        relay_frames[down_slot] = relay_frames.get(down_slot, 0) | bit << (q_down - down_level)

    # Each destination decodes from what it hears, one frame per (downlink
    # slot, session): a destination with downlink gain g finds level l at
    # bit g - l.  Decoded bits are reassembled in the order they were consumed.
    heard: dict[tuple[int, int], int] = {}
    out: list[list[int]] = [[] for _ in payloads]
    for (_, _, slot, level, xor, sessions), bits in zip(rows, drawn):
        for j, k in enumerate(sessions):
            frame = heard.get((slot, k))
            if frame is None:
                frame = heard[slot, k] = node_downlink_receive(net, relay_frames[slot], *nodes[k ^ 1])
            got = frame >> (down[k] - level) & 1
            if xor:
                got ^= bits[1 - j]  # the destination's own bit cancels out of the XOR
            out[k].append(got)

    decoded = list(map(tuple, out))
    return SimulationResult(decoded == payloads, dict(zip(budgets, decoded)))


def random_messages(sched: Schedule, rng) -> dict[NodeId, tuple[int, ...]]:
    """Random payload matching the schedule's bit budgets."""
    return {
        node: tuple(rng.integers(0, 2, size=need).tolist())
        for node, need in sched.bit_budgets().items()
    }
