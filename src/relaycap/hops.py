"""Both hops of the two-pair Gaussian relay network's achievable scheme:
the successive-cancellation chains, the power allocators and the
decoding-rate checks, uplink and downlink.

Streams are represented by their rate and received power only; no lattice
codeword is constructed.  The scheme superposes, at the higher-rate user of
each pair, a Gaussian codeword and a lattice codeword received at the
partner's lattice power, so the relay can decode the lattice sum.  Sorting
the users by receive strength leaves three configurations per hop, each
with its successive-cancellation chain written once, in `_UPLINK_CHAINS` or
`_DOWNLINK_CHAINS`, and laid out as a `chains._Table` indexed by case code:
one pass of `chains._walk` per hop spends, bottom-up, exactly the power each
stream needs over the interference still standing under it, and one pass of
`chains._chain_checks` makes every trial's checks, with one division and one
libm map per cap function.  `_HOPS` gives the cascade each hop's functions
and budgets; the allocators and rate checks run the batch code on a batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chains import _chain_checks, _Table, _walk
from .gaussnet import (
    _CASES,
    _FAMILIES,
    _SESSIONS,
    TOL,
    ConstraintCheck,
    GaussNetwork,
    InfeasibleRatesError,
    _capacity,
    _case_codes,
    _hop_terms,
    _lattice_cap,
    _max,
    _min,
    _one,
    _pow2,
    _quiet,
    _rate_quad,
    _row,
    _session_sums,
    _swap_pairs,
)

MIN_PROVEN_SNR = 2.5  # every |h|^2 P must clear this for the splits to be proven valid


class LowPowerError(ValueError):
    """A receive SNR sits below the proven validity threshold of the construction."""


class AllocationInvalidError(RuntimeError):
    """A computed power split exceeds a power budget: the validity chains only
    guarantee the splits near-universally (see the package notes on sum-rate
    corner cases)."""


@dataclass
class _Splits:
    """One hop's power splits for a batch: each trial's case code, the alpha
    rows of `UplinkAllocation` or `DownlinkAllocation` in field order, the
    stream rate rows in its chain's stream order, the |h|^2 P rows its chain
    read (the downlink's, like its rates, in the chain's pair order), and
    the downlink's pair swap."""

    case: np.ndarray
    alpha: np.ndarray
    rates: np.ndarray
    snr: np.ndarray
    swapped: np.ndarray | None = None

    def take(self, rows) -> "_Splits":
        swapped = None if self.swapped is None else self.swapped[rows]
        return _Splits(self.case[rows], self.alpha[:, rows], self.rates[:, rows], self.snr[:, rows], swapped)


def _precondition_errors(direction: str, terms, r) -> dict[int, InfeasibleRatesError]:
    """Each refused trial's first failed rate precondition of the hop, as the
    `InfeasibleRatesError` naming it, by the trial's position in the batch.
    A precondition is the hop's restricted family term, from ``terms`` (the
    hop's `_hop_terms`), less its back-off."""
    rows = _PRECONDITIONS[direction]
    lhs, rhs = _session_sums(r)[_PRE_ORDER], terms[_PRE_ORDER] - _BACKOFFS[direction]
    failed = lhs > rhs + TOL
    errors = {}
    for i in failed.any(axis=0).nonzero()[0].tolist():
        k = failed[:, i].argmax()
        errors[i] = InfeasibleRatesError(rows[k][0], f"lhs={lhs[k, i].item():.6g}, rhs={rhs[k, i].item():.6g}")
    return errors


def _excess(alpha, budgets) -> np.ndarray:
    """Each trial's budget excess: the most any transmitter's ``budgets``
    (each the alpha rows it sums) pass 1, or the most negative fraction."""
    worst = reduce(_max, [reduce(np.add, [alpha[k] for k in budget]) - 1.0 for budget in budgets])
    return _max(worst, -reduce(_min, alpha))


def _allocate(direction: str, mags, p, r, powers, terms):
    """Walk each trial's cancellation chain for the hop at rates ``r``, whose
    `_pow2` are ``powers``: per pair a Gaussian (solo) stream at r_A - r_B,
    then a lattice (shared) stream at r_B, in both chains' stream order.
    Rates with a pair not r_A >= r_B, exactly, are refused, so no need is
    negative: every rate that reaches here is at least 0 (`_rate_quad`,
    `_back_off`).  A trial is refused at the SNR floor or at the hop's first
    failed rate precondition (from ``terms``, the hop's `_hop_terms`), and
    after the walk where its split overspends.  Returns the splits made,
    their trials' positions and budget excess, and the refused trials'
    errors."""
    unsorted = (r[1::2] > r[0::2]).any(axis=0)
    if unsorted.any():
        raise ValueError(f"rates {_row(r, unsorted.argmax())} not normalized: each pair needs r_A >= r_B >= 0")
    snr = mags * mags * p
    floor = snr.min(axis=0)  # finite and positive, as the network is
    errors = _precondition_errors(direction, terms, r)
    for i in (floor < MIN_PROVEN_SNR - TOL).nonzero()[0].tolist():
        errors[i] = LowPowerError(f"{direction} |h|^2 P floor {floor[i].item():.4g} below {MIN_PROVEN_SNR}")
    refused = np.zeros(len(p), bool)
    refused[list(errors)] = True
    rows = (~refused).nonzero()[0]
    rates = r[:, rows]
    rates[0::2] -= rates[1::2]
    hop = _HOPS[direction]
    splits = hop.walk(mags[:, rows], snr[:, rows], rates, powers[:, rows])
    excess = _excess(splits.alpha, hop.budgets)
    over = excess > TOL
    for i in over.nonzero()[0].tolist():
        errors[rows[i].item()] = AllocationInvalidError(hop.overspend(splits, i, excess[i].item()))
    kept = (~over).nonzero()[0]
    return splits.take(kept), rows[kept], excess[kept], errors


# --- Uplink ------------------------------------------------------------------


@dataclass(frozen=True)
class UplinkAllocation:
    case: str
    alpha_a1: tuple[float, float]  # Gaussian and lattice fraction at A1
    alpha_a2: tuple[float, float]
    alpha_b1: float  # lattice fraction at B1
    alpha_b2: float
    gaussian_rates: tuple[float, float]  # r_Ai - r_Bi
    lattice_rates: tuple[float, float]  # r_Bi


_PRE_ORDER = [0, 1, 2, 3, 4, 6, 5, 7]  # the families in precondition checking order


def _precondition_rows(direction: str) -> tuple[tuple[str, tuple[int, ...], float], ...]:
    """(name, sessions, back-off) of each rate precondition of one hop, in
    checking order: the paper's, which puts A1+B2 before B1+B2.  A session's
    uplink is |h_A1R| for session A1; its downlink is the relay's link to its
    destination, the partner `s ^ 1`: |h_RB1|."""
    up, rows = direction == "uplink", []
    for _, sessions, up_backoff, down_backoff in (_FAMILIES[k] for k in _PRE_ORDER):
        powers = [f"|h_{_SESSIONS[s]}R|^2" if up else f"|h_R{_SESSIONS[s ^ 1]}|^2" for s in sessions]
        snr = powers[0] if len(powers) == 1 else f"({'+'.join(powers)})" if up else f"max({','.join(powers)})"
        backoff, lhs = up_backoff if up else down_backoff, " + ".join(f"r_{_SESSIONS[s]}" for s in sessions)
        rows.append((f"{lhs} <= C({snr} P) - {backoff:g}", sessions, backoff))
    return tuple(rows)


_PRECONDITIONS = {direction: _precondition_rows(direction) for direction in ("uplink", "downlink")}
_BACKOFFS = {direction: np.array([[backoff] for _, _, backoff in rows]) for direction, rows in _PRECONDITIONS.items()}


# The uplink cancellation chains, bottom stage first, each stage a stream
# and the streams still standing under it at the relay, which decodes from
# the top.  The relay is the one receiver, `_RELAY`, at SNR 1, so the powers
# are the received ones, alpha * |h|^2 P: G1 and G2 of the Gaussian
# codewords, T and W of each lattice codeword of pairs 1 and 2 (a lattice
# sum arrives at twice that).  Cases II and III end in the same MAC: x_A2's
# codeword, then x_A1's, decoded jointly under both lattice sums.
_G1, _T, _G2, _W = range(4)
_RELAY = 0
_UPLINK_CHAINS = (  # indexed by case code: I, II, III
    ((_W, ()), (_G2, (_W,)), (_T, (_G2, _W)), (_G1, (_T, _G2, _W))),
    ((_W, ()), (_T, (_W,)), (_G2, (_T, _W)), (_G1, (_T, _W))),
    ((_T, ()), (_W, (_T,)), (_G2, (_T, _W)), (_G1, (_T, _W))),  # pair 2's lattice sum before pair 1's
)
# Each case's uplink checks, in decoding order: the MAC's sum after its two single-user checks.
_LATTICE1 = ("decode pair-1 lattice sum", (_T,), _lattice_cap)
_LATTICE2 = ("decode pair-2 lattice sum", (_W,), _lattice_cap)
_MAC_CHECKS = (
    ("decode x_A1 gaussian (MAC)", (_G1,), _capacity),
    ("decode x_A2 gaussian (MAC)", (_G2,), _capacity),
    ("gaussian MAC sum", (_G1, _G2), _capacity),
)
_UPLINK_CHECKS = (  # indexed by case code: I, II, III
    (("decode x_A1 gaussian", (_G1,), _capacity), _LATTICE1, ("decode x_A2 gaussian", (_G2,), _capacity), _LATTICE2),
    (*_MAC_CHECKS, _LATTICE1, _LATTICE2),
    (*_MAC_CHECKS, _LATTICE2, _LATTICE1),
)
_UPLINK = _Table(  # a lattice sum's power arrives twice
    [[(s, ((_RELAY, under),)) for s, under in chain] for chain in _UPLINK_CHAINS], _UPLINK_CHECKS, (1.0, 2.0, 1.0, 2.0)
)


def _walk_uplink(mags, snr, rates, powers) -> _Splits:
    """The uplink power splits of each trial's case at stream ``rates``,
    walking its chain in `_UPLINK_CHAINS` from the bottom; ``powers`` are 2^r."""
    case = _case_codes(mags, "uplink")
    u, s, v, w = powers

    # Power over noise: 2^rate - 1 for a Gaussian codeword, 2^rate for a lattice one.  In a MAC, x_A1's
    # single-user and sum-rate constraints each demand a power; the larger binds.
    need = powers.copy()
    need[0::2] = powers[0::2] / powers[1::2] - 1.0
    need[_G1] = np.where(case == 0, need[_G1], _max(need[_G1], (u * v) / (s * w) - v / w))
    q = _walk(_UPLINK, case, need, np.ones((1, len(case))))
    # G1 / x1, T / x1, G2 / x3, W / x3, T / x2, W / x4
    alpha = q[[_G1, _T, _G2, _W, _T, _W]] / snr[[0, 0, 2, 2, 1, 3]]
    return _Splits(case, alpha, rates, snr)


def _uplink_allocation(splits: _Splits, i: int) -> UplinkAllocation:
    a1g, a1l, a2g, a2l, b1, b2 = _row(splits.alpha, i)
    rg1, rl1, rg2, rl2 = _row(splits.rates, i)
    return UplinkAllocation(_CASES[splits.case[i]], (a1g, a1l), (a2g, a2l), b1, b2, (rg1, rg2), (rl1, rl2))


def _uplink_overspend(splits: _Splits, i: int, excess: float) -> str:
    a = _uplink_allocation(splits, i)
    return (f"uplink case {a.case} power budget exceeded by {excess:.3g} (alphas A1={a.alpha_a1}, "
            f"A2={a.alpha_a2}, B1={a.alpha_b1:.6g}, B2={a.alpha_b2:.6g})")


@_quiet
def uplink_allocate(net: GaussNetwork, r: Sequence[float]) -> UplinkAllocation:
    """Power splits letting the relay decode both Gaussian codewords and
    both lattice sums at the component rates implied by ``r``: the case's
    chain in `_UPLINK_CHAINS`, walked from the bottom, gives each stream the
    receive power that makes its decoding inequality an equality over the
    streams still undecoded beneath it; lattice partners mirror powers through
    the alignment rule, so each pair's lattice codewords arrive level."""
    up, down, p = net._columns()
    r = _one(_rate_quad(r))
    splits, *_, errors = _allocate("uplink", up, p, r, _pow2(r), _hop_terms(up, down, p)[0])
    if errors:  # a batch of one's refusal
        raise errors[0]
    return _uplink_allocation(splits, 0)


def _uplink_checks(splits: _Splits):
    """`_chain_checks` of each trial's case in `_UPLINK_CHECKS`, at the relay."""
    q = splits.alpha[[0, 4, 2, 5]] * splits.snr  # received powers of G1, T, G2, W
    ones = np.ones((1, len(splits.case)))
    return _chain_checks(_UPLINK, splits.case, q, ones, splits.rates)


def _require_fractions(hop: str, alpha) -> None:
    """Refuse a handed-in allocation whose power fractions, a batch of one,
    are not all finite and at least 0, as `_chain_checks` takes no other,
    or overspend a transmitter's budget on the hop, as no allocator makes."""
    if not (np.isfinite(alpha) & (alpha >= 0.0)).all():
        raise ValueError(f"power fractions must be finite and non-negative, got {_row(alpha, 0)}")
    excess = _excess(alpha, _HOPS[hop].budgets)[0].item()
    if excess > TOL:
        raise ValueError(f"power fractions exceed the {hop} power budget by {excess:.3g}, got {_row(alpha, 0)}")


def _single_checks(case, names, lhs, rhs) -> tuple[ConstraintCheck, ...]:
    """The `_chain_checks` of a batch of one, of case code ``case``, in decoding order."""
    return tuple(ConstraintCheck(name, lhs[s, 0].item(), rhs[s, 0].item()) for s, name in names[case])


@_quiet
def uplink_rate_check(net: GaussNetwork, alloc: UplinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every decoding inequality of the allocation's case, in
    decoding order: the case's chain from the top."""
    up, _, p = net._columns()
    alpha = _one((*alloc.alpha_a1, *alloc.alpha_a2, alloc.alpha_b1, alloc.alpha_b2))
    rates = _one([rate for pair in zip(alloc.gaussian_rates, alloc.lattice_rates) for rate in pair])
    case = _case_codes(up, "uplink")
    if _CASES[case[0]] != alloc.case:
        raise ValueError(f"allocation is for case {alloc.case}, network classifies as {_CASES[case[0]]}")
    _require_fractions("uplink", alpha)
    return _single_checks(case[0], *_uplink_checks(_Splits(case, alpha, rates, up * up * p)))


# --- Downlink ----------------------------------------------------------------


@dataclass(frozen=True)
class DownlinkAllocation:
    """Relay power split over the four broadcast streams, indexed as in
    `_DOWNLINK_CHAINS`: 0 = pair 1's solo stream, 1 = pair 1's shared stream,
    2 and 3 = pair 2's.  Pair 1 is the pair with the stronger shared-stream
    receiver: the input's pair 2 when ``pairs_swapped`` is set."""

    case: str
    alpha_r: tuple[float, float, float, float]
    stream_rates: tuple[float, float, float, float]
    pairs_swapped: bool


# The downlink cancellation chains, bottom stage first, over the relay power
# fractions of the streams: a stage is a stream and each receiver that
# decodes it, the position of its SNR in (b1, a1, b2, a2), that is |h_RB1|^2
# P, |h_RA1|^2 P, ..., with the streams still standing there.  Pair 1's A
# node already knows stream 0; pair 2's A node reconstructs its solo stream 2.
_SOLO1, _SHARED1, _SOLO2, _SHARED2 = range(4)
_B1, _A1, _B2, _A2 = range(4)
_DOWNLINK_CHAINS = (  # indexed by case code: I, II, III
    (
        (_SOLO1, ((_B1, ()),)),
        (_SHARED1, ((_B1, (_SOLO1,)), (_A1, ()))),
        (_SOLO2, ((_B2, (_SOLO1, _SHARED1)),)),
        (_SHARED2, ((_B2, (_SOLO1, _SHARED1, _SOLO2)), (_A2, (_SOLO1, _SHARED1)))),
    ),
    (
        (_SOLO1, ((_B1, ()),)),
        (_SOLO2, ((_B2, (_SOLO1,)),)),
        (_SHARED1, ((_A1, (_SOLO2,)), (_B2, (_SOLO1, _SOLO2)))),
        (_SHARED2, ((_B2, (_SOLO1, _SHARED1, _SOLO2)), (_A1, (_SHARED1, _SOLO2)), (_A2, (_SOLO1, _SHARED1)))),
    ),
    (
        (_SOLO1, ((_B1, ()),)),
        (_SOLO2, ((_B2, (_SOLO1,)),)),
        (_SHARED2, ((_A2, (_SOLO1,)), (_B2, (_SOLO1, _SOLO2)))),
        (_SHARED1, ((_B2, (_SOLO1, _SOLO2, _SHARED2)), (_A1, (_SOLO2, _SHARED2)), (_A2, (_SOLO1, _SHARED2)))),
    ),
)
# Each case's downlink checks: each stream's rate against its worst receiver, shared streams first.
_DOWNLINK_CHECKS = ((
    ("pair-1 shared stream", (_SHARED1,), _capacity),
    ("pair-2 shared stream", (_SHARED2,), _capacity),
    ("pair-1 solo stream", (_SOLO1,), _capacity),
    ("pair-2 solo stream", (_SOLO2,), _capacity),
),) * len(_CASES)
_DOWNLINK = _Table(_DOWNLINK_CHAINS, _DOWNLINK_CHECKS, (1.0, 1.0, 1.0, 1.0))


def _walk_downlink(mags, snr, rates, powers) -> _Splits:
    """The relay's power split of each trial's case at stream ``rates``,
    walking its chain in `_DOWNLINK_CHAINS` from the bottom; ``powers`` are
    2^r.  The chains take pair 1 to be the pair with the stronger
    shared-stream receiver."""
    swapped = mags[2] > mags[0]
    rates, powers, mags, snr = _swap_pairs(np.array([rates, powers, mags, snr]), swapped)
    case = _case_codes(mags, "downlink")

    need = powers - 1.0
    need[0::2] = powers[0::2] / powers[1::2] - 1.0
    return _Splits(case, _walk(_DOWNLINK, case, need, snr), rates, snr, swapped)


def _downlink_allocation(s: _Splits, i: int) -> DownlinkAllocation:
    return DownlinkAllocation(_CASES[s.case[i]], _row(s.alpha, i), _row(s.rates, i), bool(s.swapped[i]))


def _downlink_overspend(splits: _Splits, i: int, excess: float) -> str:
    alloc = _downlink_allocation(splits, i)
    return f"downlink case {alloc.case} relay budget exceeded by {excess:.3g} (alphas {alloc.alpha_r})"


@_quiet
def downlink_allocate(net: GaussNetwork, r: Sequence[float]) -> DownlinkAllocation:
    """Relay power split delivering the four streams at their rates: the
    case's chain in `_DOWNLINK_CHAINS`, walked from the bottom, where a stream
    of rate rho needs alpha >= (2^rho - 1) (1 + g q) / g at each receiver of
    SNR g under interference fraction q.  The chains take pair 1 to be the
    pair with the stronger shared-stream receiver (the B side, after
    normalization), relabeling the pairs where the input has them the other
    way round, as the pair-symmetric rate preconditions permit."""
    up, down, p = net._columns()
    r = _one(_rate_quad(r))
    splits, *_, errors = _allocate("downlink", down, p, r, _pow2(r), _hop_terms(up, down, p)[1])
    if errors:  # a batch of one's refusal
        raise errors[0]
    return _downlink_allocation(splits, 0)


def _downlink_checks(splits: _Splits):
    """`_chain_checks` of each trial's case in `_DOWNLINK_CHECKS`, with the
    pairs as its chain takes them."""
    return _chain_checks(_DOWNLINK, splits.case, splits.alpha, splits.snr, splits.rates)


@_quiet
def downlink_rate_check(net: GaussNetwork, alloc: DownlinkAllocation) -> tuple[ConstraintCheck, ...]:
    """Evaluate every broadcast decoding inequality of the allocation's
    case: each stream's rate against its worst receiver in the case's chain."""
    _, down, p = net._columns()
    alpha, rates, swapped = _one(alloc.alpha_r), _one(alloc.stream_rates), np.array([alloc.pairs_swapped])
    down = _swap_pairs(down, swapped)
    case = _case_codes(down, "downlink")
    if _CASES[case[0]] != alloc.case:
        raise ValueError("allocation case does not match the network ordering")
    _require_fractions("downlink", alpha)
    return _single_checks(case[0], *_downlink_checks(_Splits(case, alpha, rates, down * down * p, swapped)))


class _Hop(NamedTuple):
    walk: Callable  # (magnitudes, SNRs, stream rates, 2^rates) -> _Splits
    budgets: tuple  # each transmitter's alpha rows, in `_excess`
    overspend: Callable  # (splits, trial, excess) -> AllocationInvalidError text
    checks: Callable  # splits -> `_chain_checks`: names, lhs and rhs rows
    allocation: Callable  # (splits, trial) -> UplinkAllocation or DownlinkAllocation


_HOPS = {
    "uplink": _Hop(_walk_uplink, ((0, 1), (2, 3), (4,), (5,)), _uplink_overspend, _uplink_checks, _uplink_allocation),
    "downlink": _Hop(_walk_downlink, ((0, 1, 2, 3),), _downlink_overspend, _downlink_checks, _downlink_allocation),
}
