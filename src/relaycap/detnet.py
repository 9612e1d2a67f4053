"""Linear shift deterministic channel model over GF(2).

Every node transmits a q-level binary frame per channel use.  A frame is
a plain int in ``[0, 2**q)`` with the most significant level in the top
bit.  A link of gain n delivers the transmitter's n most significant
levels to the bottom n levels of the receiver's frame -- a right shift by
q - n -- and simultaneous arrivals on a level add bit-wise mod 2 (XOR).
Zero-gain links are legal and simply contribute nothing.

A session is one directed message: session 2i is A_i to B_i (rate
R_{A_i}), session 2i + 1 is B_i to A_i, the order of the rates and of the
Gaussian side.  `DetNetwork.uplink` and `.downlink` give each session's
source-to-relay and relay-to-destination gain; the cut-set bounds and the
scheduler read only these, the channel primitives below read node gains.

Level-index conventions, used consistently by the scheduler and the
simulator:

* Uplink relay levels are counted bottom-up: level 1 is the least
  significant received level, bit 0 of the relay's frame.  A node with
  uplink gain n reaches relay levels 1..n and its most significant
  transmitted bit lands on level n, so the highest level shared by both
  users of pair i is ``min(n_ar[i], n_br[i])``.
* Downlink relay levels are counted top-down: level 1 is the relay's most
  significant transmitted level.  A node with downlink gain n hears relay
  levels 1..n, so the lowest level shared by both users of pair i is
  ``min(n_ra[i], n_rb[i])``.

All values here are immutable; every operation is a pure function.  A
network keeps tables derived from its gains, each built whole the first
time it is read (`hop_orders`, `sources`, the bit table the scheduler
reads and the node table the channel primitives read); they are not
fields, so `==`, `hash` and `repr` never see them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Side = str  # "A" or "B"
NodeId = tuple[int, Side]  # (pair index, side)

SIDES = ("A", "B")


class InvalidGainError(ValueError):
    """A channel gain is negative or exceeds the frame length."""


class ShapeError(ValueError):
    """A frame does not fit the q levels of the direction it is used in."""


@dataclass(frozen=True)
class FullDuplex:
    """Relay listens and transmits in every channel use."""


def _integer(v) -> bool:
    """Whether ``v`` is an integer, numpy's included: a bool or a float is
    not.  The exact-int test comes first, as the cheap one."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _refuse_inexact(value, what: str) -> None:
    """Refuse a float (or another inexact real) that is not a whole number:
    its exact binary value is almost never the fraction the caller meant."""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        if not float(value).is_integer():
            raise ValueError(
                f"{what} must be exact: {value!r} is a float that is not a whole number; "
                "pass a Fraction or an int"
            )


@dataclass(frozen=True)
class HalfDuplex:
    """Relay listens a fixed rational fraction ``delta`` of the time."""

    delta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.delta, numbers.Number):  # Fraction() would parse a string
            raise ValueError(f"listen fraction must be a number, got {self.delta!r}")
        _refuse_inexact(self.delta, "listen fraction")
        delta = Fraction(self.delta)
        object.__setattr__(self, "delta", delta)
        if not 0 < delta < 1:
            raise ValueError(f"listen fraction must lie strictly in (0,1), got {delta}")


DuplexMode = Union[FullDuplex, HalfDuplex]

FULL_DUPLEX = FullDuplex()


@dataclass(frozen=True)
class DetNetwork:
    """Integer channel gains of an M-pair bidirectional relay network.

    ``n_ar[i]``/``n_br[i]`` are the uplink gains of A_i/B_i towards the
    relay; ``n_ra[i]``/``n_rb[i]`` are the downlink gains from the relay
    towards A_i/B_i.
    """

    n_ar: tuple[int, ...]
    n_br: tuple[int, ...]
    n_ra: tuple[int, ...]
    n_rb: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("n_ar", "n_br", "n_ra", "n_rb"):
            raw = getattr(self, name)
            try:
                raw = tuple(raw)
            except TypeError as exc:
                raise InvalidGainError(f"{name} must be integers, got {raw!r}") from exc
            if not all(_integer(v) and v >= 0 for v in raw):
                raise InvalidGainError(f"{name} must be non-negative integers, got {raw}")
            object.__setattr__(self, name, tuple(map(int, raw)))
        if not self.n_ar:
            raise ValueError("network needs at least one pair")
        if any(len(getattr(self, name)) != self.pairs for name in ("n_br", "n_ra", "n_rb")):
            raise ValueError("gain arrays must all have one entry per pair")

    @cached_property
    def pairs(self) -> int:
        return len(self.n_ar)

    @cached_property
    def uplink(self) -> tuple[int, ...]:
        """Each session's uplink gain, n_ar[i] for A_i and n_br[i] for B_i,
        in session order (A1, B1, A2, B2, ...)."""
        return tuple(g for pair in zip(self.n_ar, self.n_br) for g in pair)

    @cached_property
    def downlink(self) -> tuple[int, ...]:
        """The relay's gain to each session's destination, n_rb[i] for A_i
        and n_ra[i] for B_i, in session order."""
        return tuple(g for pair in zip(self.n_rb, self.n_ra) for g in pair)

    @cached_property
    def hop_orders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The sessions in non-decreasing order of uplink gain, and of
        downlink gain: the orders the cut-set hop passes walk."""
        return gain_order(self.uplink), gain_order(self.downlink)

    @cached_property
    def sources(self) -> tuple[NodeId, ...]:
        """Each session's source node, in session order: (i, "A") for
        session 2i, (i, "B") for 2i + 1; session k's destination is k ^ 1's."""
        return tuple(self.nodes())

    @cached_property
    def _bit_table(self) -> dict:
        """(pair, side) of each bit the scheduler serves, side None for an
        XOR bit -> (the sessions it serves, its (uplink, downlink) reach).
        An XOR bit serves both of its pair's sessions, a one-way bit from
        ``side`` that side's session.  Its reach on each hop is the smallest
        gain over those sessions: by the level conventions above, the
        highest uplink and the lowest downlink level they all share, which
        the induction serves the bit on."""
        up, down = self.uplink, self.downlink
        table = {}
        for i in range(self.pairs):
            a, b = 2 * i, 2 * i + 1
            table[i, None] = (a, b), (min(up[a], up[b]), min(down[a], down[b]))
            table[i, "A"] = (a,), (up[a], down[a])
            table[i, "B"] = (b,), (up[b], down[b])
        return table

    @cached_property
    def _node_gains(self) -> dict:
        """Each node (pair, side), pair an int and side a str -> its
        (uplink, downlink) gain: the one node-to-gain rule.  The channel
        primitives look a key up in it; one not in it takes the checked
        `uplink_gain` or `downlink_gain`, which read it once `_check_node`
        has accepted the node (a numpy pair among them)."""
        table = {}
        for i in range(self.pairs):
            table[i, "A"] = self.n_ar[i], self.n_ra[i]
            table[i, "B"] = self.n_br[i], self.n_rb[i]
        return table

    @cached_property
    def q_up(self) -> int:
        """Uplink frame length: the largest uplink gain (0 when all are 0)."""
        return max(self.uplink)

    @cached_property
    def q_down(self) -> int:
        """Downlink frame length: the largest downlink gain (0 when all are 0)."""
        return max(self.downlink)

    def uplink_gain(self, pair: int, side: Side) -> int:
        self._check_node(pair, side)
        return self._node_gains[pair, side][0]

    def downlink_gain(self, pair: int, side: Side) -> int:
        """Gain of the relay-to-node link, i.e. how much of the relay frame the node hears."""
        self._check_node(pair, side)
        return self._node_gains[pair, side][1]

    def nodes(self) -> Iterable[NodeId]:
        for i in range(self.pairs):
            for side in SIDES:
                yield (i, side)

    def _check_node(self, pair: int, side: Side) -> None:
        if not _integer(pair) or not 0 <= pair < self.pairs or side not in SIDES:
            raise LookupError(f"no node ({pair}, {side!r}) in an {self.pairs}-pair network")


def gain_order(gains: Sequence[int]) -> tuple[int, ...]:
    """Indices of ``gains`` in non-decreasing order of gain, ties in index
    order.  Scaling every gain by one positive factor keeps the order."""
    return tuple(sorted(range(len(gains)), key=gains.__getitem__))


def shifted_contribution(x: int, gain: int, q: int) -> int:
    """What a receiver sees from one transmitter: the top ``gain`` of the
    ``q`` levels of frame ``x`` shifted to the bottom of the frame, zeros
    above.  All three are integers: numpy's are taken as int, bools refused."""
    if not type(x) is type(gain) is type(q) is int:
        if not (_integer(gain) and _integer(q)):
            raise InvalidGainError(f"gain {gain!r} and frame length {q!r} must be integers")
        if not _integer(x):
            raise ShapeError(f"frame {x!r} is not an integer")
        x, gain, q = int(x), int(gain), int(q)
    if not 0 <= gain <= q:
        raise InvalidGainError(f"gain {gain} outside [0, {q}]")
    if x < 0 or x >> q:
        raise ShapeError(f"frame {x} outside [0, 2**{q})")
    return x >> (q - gain)


def relay_uplink_receive(net: DetNetwork, frames: Mapping[NodeId, int]) -> int:
    """Relay frame received in one use: mod-2 sum of every node's shifted
    contribution.  Nodes absent from ``frames`` are silent."""
    q = net.q_up
    table = net._node_gains
    acc = 0
    for (pair, side), frame in frames.items():
        # Only an int pair and a str side look up the table: a bool or a
        # float pair would find the int it equals.
        gains = table.get((pair, side)) if type(pair) is int and type(side) is str else None
        gain = gains[0] if gains else net.uplink_gain(pair, side)
        # A node's gain is an int in [0, q], so an int frame in [0, 2**q)
        # (``frame >> q`` is 0 for those alone) shifts as
        # `shifted_contribution` shifts it; it checks every other frame.
        if type(frame) is int and not frame >> q:
            acc ^= frame >> (q - gain)
        else:
            acc ^= shifted_contribution(frame, gain, q)
    return acc


def node_downlink_receive(net: DetNetwork, relay_frame: int, pair: int, side: Side) -> int:
    """What node (pair, side) hears when the relay broadcasts ``relay_frame``."""
    gains = net._node_gains.get((pair, side)) if type(pair) is int and type(side) is str else None
    gain = gains[1] if gains else net.downlink_gain(pair, side)
    q = net.q_down
    if type(relay_frame) is int and not relay_frame >> q:  # as in relay_uplink_receive
        return relay_frame >> (q - gain)
    return shifted_contribution(relay_frame, gain, q)
