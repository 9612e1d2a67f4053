"""Two-pair Gaussian relay network: the constant-gap achievability check and
the Monte Carlo sweep.

The layers below hold the rest, and this module re-exports their public
names, so `relaycap.gaussian` stays the Gaussian API: `gaussnet` has the
network, its constraint families, the cut-set and restricted regions,
normalisation and case classification; `hops` both hops' cancellation
chains, power allocators and rate checks, on `chains`' tables; `streams`
the sweep's random streams.  None of them imports this module.

Every computation runs on columns, one entry per trial (see `gaussnet`).
One masked cascade, `_verify_columns`, normalises, then allocates and
checks each hop, each trial leaving at its first failing stage:
`sweep_blocks` runs it on each block of sampled trials and
`verify_constant_gap` on a batch of one, whose report it builds from the
cascade's columns.

The sweep's randomness is columns too (see `streams`): trial i's k-th
double is a pure function of (seed, i, k), numpy's k-th draw of
default_rng(SeedSequence(entropy=seed, spawn_key=(i,))) computed without
building that generator or importing numpy.random.  A sampling round takes
9 doubles per pending trial, a boundary direction 4, and redraws advance
only the rejected trials' streams.  The sampler tests a round's networks
with no libm call, each SNR against the least float whose C reaches the
2-bit base point's sum (`_accepts`): two constants that
`test_sampler_thresholds_match_capacity` checks against `_capacity`.  It
maps C once per block, on the networks it keeps.  `sweep_blocks` yields a
sweep block by block, so a caller that keeps only what it needs of each
block runs in memory flat in the trial count; `monte_carlo_gap` joins the
blocks into one `SweepColumns`.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .detnet import _integer
from .gaussnet import (
    _BASE_SUMS,
    _PAIR_S,
    _PAIR_T,
    TOL,
    ConstraintCheck,
    GaussNetwork,
    InfeasibleRatesError,
    NormalizedProblem,
    RateQuad,
    RegionVerdict,
    _bound_gaps,
    _cutset_terms,
    _hop_terms,
    _max,
    _min,
    _normalize,
    _normalized_problem,
    _one,
    _positive,
    _pow2,
    _quiet,
    _rate_quad,
    _row,
    _session_sums,
    gauss_cutset,
    gauss_restricted_cutset,
    reduce_orderings,
    restricted_bound_gaps,
)
from .hops import (
    _HOPS,
    MIN_PROVEN_SNR,
    AllocationInvalidError,
    DownlinkAllocation,
    LowPowerError,
    UplinkAllocation,
    _allocate,
    _single_checks,
    downlink_allocate,
    downlink_rate_check,
    uplink_allocate,
    uplink_rate_check,
)
from .streams import _M32, _ROUND, _Streams, _uniform

# Sweep sampling: every link SNR of a sampled network clears MIN_LINK_SNR,
# and boundary rates retreat BOUNDARY_NUDGE bits into the region.
MIN_LINK_SNR = max(4.0, MIN_PROVEN_SNR)
BOUNDARY_NUDGE = 1e-6
# Draws per sampled network before a trial is refused; at the default ranges
# no trial of 10^5 (seed 0) needed more than 10.
MAX_SAMPLE_DRAWS = 1000
# Trials per block of the sweep's batch pipeline.  `sweep_blocks` yields each
# block's columns once the block is done, and `cli.cmd_sweep` spools its CSV
# rows then, so the block size, not the trial count, bounds a sweep's memory,
# and trades it against per-block overhead: `relaycap sweep --seed 0 --out f`
# peaked at 37.5 MB RSS at 10^4 trials and 38.2 MB at 10^6 (x86, Python 3.11).
SWEEP_BLOCK = 1024


# --- End-to-end verification -------------------------------------------------


@dataclass(frozen=True)
class AchievabilityReport:
    """Everything the constant-gap pipeline computed for one (net, R) pair."""

    net: GaussNetwork
    target: RateQuad
    backed_off: RateQuad
    normalized: NormalizedProblem
    uplink: UplinkAllocation | None
    uplink_checks: tuple[ConstraintCheck, ...]
    downlink: DownlinkAllocation | None
    downlink_checks: tuple[ConstraintCheck, ...]
    stage: str  # "ok" or the first failing stage
    detail: str
    max_alpha_excess: float  # largest budget excess over the allocations made, 0.0 at least
    min_check_slack: float  # worst decoding-inequality slack across both hops, inf with none

    @property
    def achievable(self) -> bool:
        return self.stage == "ok"


def _require_hypothesis(target, up, down, p) -> None:
    """Raise for the first trial outside the constant-gap hypothesis:
    a component below 2, or a link SNR below the proven threshold."""
    below = (target < 2.0 - TOL).any(axis=0)
    if below.any():
        raise InfeasibleRatesError(
            "constant-gap hypothesis: every component must be >= 2", f"got {_row(target, below.argmax())}"
        )
    h = np.concatenate([up, down])
    floor = (h * h * p).min(axis=0)  # finite and positive, as the network is
    weak = floor < MIN_PROVEN_SNR - TOL
    if weak.any():
        raise LowPowerError(
            f"|h|^2 P floor {floor[weak.argmax()].item():.4g} below the proven threshold {MIN_PROVEN_SNR}"
        )


def _back_off(rates: np.ndarray) -> np.ndarray:
    """Each rate less 2 bits, floored at 0."""
    return _max(0.0, rates - 2.0)


@_quiet
def verify_constant_gap(net: GaussNetwork, rates: Sequence[float]) -> AchievabilityReport:
    """Check that R minus 2 bits per user is achievable by the lattice +
    superposition scheme whenever R sits in the restricted cut-set region
    with every component at least 2.

    Raises on inputs outside the hypothesis (components below 2, rates
    outside the region, SNRs below the proven side conditions); returns a
    report whose ``stage`` pinpoints any internal failure otherwise.  The
    report is `_verify_columns` on a batch of one.
    """
    target = _rate_quad(rates)
    up, down, p = net._columns()
    hop_terms = _hop_terms(up, down, p)
    stage, excess, slack, detail, normalized, hops = _verify_columns(up, down, p, _one(target), hop_terms)
    reached = {
        hop: (_HOPS[hop].allocation(splits, 0), _single_checks(splits.case[0], *checks))
        for hop, (rows, splits, checks) in hops.items()
        if rows.size
    }
    (uplink, uplink_checks), (downlink, downlink_checks) = (reached.get(hop, (None, ())) for hop in _HOPS)
    return AchievabilityReport(
        net=net,
        target=target,
        backed_off=_row(_back_off(_one(target)), 0),
        normalized=_normalized_problem(net, normalized),
        uplink=uplink,
        uplink_checks=uplink_checks,
        downlink=downlink,
        downlink_checks=downlink_checks,
        stage=stage[0],
        detail=detail[0],
        max_alpha_excess=excess[0].item(),
        min_check_slack=slack[0].item(),
    )


def _verify_columns(up, down, p, target, hop_terms):
    """`verify_constant_gap` on session arrays, given their `_hop_terms`:
    the one constant-gap cascade.  The hops run masked, and a trial leaves
    at its first failing stage, so a hop no trial reaches is skipped.
    Returns each trial's stage, largest budget excess, smallest check slack
    and detail, as its report gives them; `_normalize`'s columns; and per
    hop reached, the trials that got a split, their `_Splits` and their
    `_chain_checks`.  Raises where `verify_constant_gap` raises, for some
    trial."""
    n = len(p)
    _require_hypothesis(target, up, down, p)
    normalized = _normalize(up, down, target, hop_terms)
    up, down, quad = normalized[:3]
    up_terms, down_terms = normalized[-1]
    r = _back_off(quad)
    powers = _pow2(r)  # both hops' walks read it

    stage, detail = np.full(n, "ok", dtype=object), [""] * n
    excess, slack = np.zeros(n), np.full(n, math.inf)
    hops = {}
    rows = np.arange(n)  # the trials still at stage "ok"
    for hop, mags, terms in (("uplink", up, up_terms), ("downlink", down, down_terms)):
        if not rows.size:
            break
        # Past _normalize a precondition fails only by rounding, yet _allocate checks them all: uplink_allocate and
        # downlink_allocate need it, the cascade's ulp test spies on it, and a skip here would be a second code path.
        splits, kept, spent, errors = _allocate(
            hop, mags[:, rows], p[rows], r[:, rows], powers[:, rows], terms[:, rows]
        )
        for i, e in errors.items():
            stage[rows[i]], detail[rows[i]] = f"{hop}-allocation", str(e)
        rows = rows[kept]
        excess[rows] = _max(excess[rows], spent)

        names, lhs, rhs = checks = _HOPS[hop].checks(splits)
        slacks = rhs - lhs  # inf where a trial's case has no such check
        # min() over both hops' checks, from the column's inf, which min() never picks over a slack.  A walk's
        # powers are finite and at least +0.0: at normalised rates every need (2^r - 1 or 2^r) is at least
        # +0.0, and the preconditions and the (2 max|h|)^2 P guard bound it.  So no slack is NaN or -0.0,
        # and the fold over the check slots picks what min() picks in decoding order.
        slack[rows] = functools.reduce(_min, [slack[rows], *slacks])
        failed = slacks < -TOL
        bad = failed.any(axis=0)
        for j in bad.nonzero()[0].tolist():
            detail[rows[j]] = ", ".join(name for s, name in names[splits.case[j]] if failed[s, j])
        stage[rows[bad]] = f"{hop}-rate-check"
        hops[hop] = (rows, splits, checks)
        rows = rows[~bad]
    return stage, excess, slack, detail, normalized, hops


# --- Monte Carlo sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """A sweep: ``trials`` trials drawn from seed ``seed``, with magnitudes
    log-uniform on [h_min, h_max] and power log-uniform on [p_min, p_max].

    ``trials`` and ``seed`` are non-negative integers (bools refused).  A
    seed of any size is taken, as numpy's SeedSequence takes it, but at most
    2^32 trials, since a trial's index is one 32-bit spawn-key word.  The
    range bounds are positive finite reals."""

    trials: int
    seed: int = 0
    h_min: float = 1.0
    h_max: float = 100.0
    p_min: float = 1.0
    p_max: float = 100.0

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            v = getattr(self, name)
            if not _integer(v) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.trials > 2**32:
            raise ValueError(f"trials must be at most 2**32 (one spawn-key word per trial), got {self.trials}")
        for name in ("h_min", "h_max", "p_min", "p_max"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if not (self.h_min <= self.h_max and self.p_min <= self.p_max):
            raise ValueError("magnitude and power ranges must be non-empty")
        # Every family term grows with each magnitude and the power, so when
        # the strongest network in range fails the sampler, every draw does.
        if not _ranges_hold(self.h_max, self.p_max):
            raise ValueError(
                "ranges cannot satisfy the side conditions: even with every |h| = "
                f"{self.h_max:.4g} and P = {self.p_max:.4g} a network misses the SNR "
                f"floor {MIN_LINK_SNR} or cannot hold the rates (2, 2, 2, 2)"
            )


# A sweep's trials as columns, one tuple per quantity in trial order: each
# drawn network's eight magnitudes and power (named as the sweep CSV's
# columns), its boundary rates, its report's stage, max_alpha_excess and
# min_check_slack, and its largest restricted bound gap.
SweepColumns = namedtuple(
    "SweepColumns",
    "trial h_a1r h_b1r h_a2r h_b2r h_ra1 h_rb1 h_ra2 h_rb2 power r_a1 r_b1 r_a2 r_b2 "
    "stage max_alpha_excess min_check_slack bound_gap",
)


# The least floats whose C reaches 2 and 4 bits, the base point (2, 2, 2, 2)'s
# sums over a single session and over a pair.  C is non-decreasing, so a
# family term C(x) holds its base sum exactly when its SNR x reaches that
# float.  They are C's switch points as `_capacity` computes it, log1p(x) /
# ln 2; `test_sampler_thresholds_match_capacity` checks them against it.
_SINGLE_SNR, _PAIR_SNR = 2.9999999999999996, 14.999999999999996


def _accepts(up, down, p) -> np.ndarray:
    """Which networks the sampler keeps: every link clears the SNR floor
    and the 2-bit base point (2, 2, 2, 2) lies in the restricted region,
    compared exactly but with no libm call: each SNR of `_hop_terms`, in
    its association, against `_SINGLE_SNR` or `_PAIR_SNR`.  A link's SNR
    is a single family's on its hop, so one floor covers both tests."""
    up2, down_snr = up * up, down * down * p
    pairs = np.concatenate([(up2[_PAIR_S] + up2[_PAIR_T]) * p, np.maximum(down_snr[_PAIR_S], down_snr[_PAIR_T])])
    links = np.concatenate([up2 * p, down_snr]) >= max(MIN_LINK_SNR, _SINGLE_SNR)
    return links.all(axis=0) & (pairs >= _PAIR_SNR).all(axis=0)


@functools.lru_cache
@_quiet
def _ranges_hold(h_max: float, p_max: float) -> bool:
    """Whether the strongest network of a sweep's ranges passes the sampler."""
    h = (h_max, h_max)
    return bool(_accepts(*GaussNetwork(h, h, h, h, p_max)._columns())[0])


def _sessions(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink session arrays of drawn magnitudes, whose rows
    are h_ar, h_br, h_ra, h_rb, pair by pair."""
    return h[[0, 2, 1, 3]], h[[6, 4, 7, 5]]


def _sample_networks(cfg: SweepConfig, streams: _Streams, indices: Sequence[int]):
    """Log-uniform magnitudes and power, each trial redrawn until `_accepts`
    keeps its network, at most `MAX_SAMPLE_DRAWS` times.  A round takes
    `_ROUND` doubles from each pending trial's stream (`np.exp` of 8
    magnitude uniforms, then of a power uniform) and tests the round at once,
    on SNR thresholds; the next round redraws the rejected trials.  Returns
    the magnitudes (one row per link, one column per trial), the powers and
    the `_hop_terms` of the kept networks, the block's one libm map."""
    lo_h, hi_h = math.log(cfg.h_min), math.log(cfg.h_max)
    lo_p, hi_p = math.log(cfg.p_min), math.log(cfg.p_max)
    n = len(indices)
    h, p = np.empty((8, n)), np.empty(n)
    rows = np.arange(n)
    for _ in range(MAX_SAMPLE_DRAWS):
        d = streams.draw(rows, _ROUND)
        hp = np.exp(_uniform(lo_h, hi_h, d[:8]))
        pp = np.exp(_uniform(lo_p, hi_p, d[8]))
        h[:, rows], p[rows] = hp, pp
        # A draw GaussNetwork might refuse (a square near overflow, or an
        # exp that underflowed) is built as one, so it raises as it would.
        top = 2.0 * hp.max(axis=0)
        for j in (~((hp > 0).all(axis=0) & (pp > 0) & (top * top * pp < 1e300))).nonzero()[0].tolist():
            h_j = hp[:, j].tolist()
            GaussNetwork(h_j[0:2], h_j[2:4], h_j[4:6], h_j[6:8], pp[j].item())
        rows = rows[~_accepts(*_sessions(hp), pp)]
        if not rows.size:
            return h, p, _hop_terms(*_sessions(h), p)
    error = ValueError(
        f"trial {indices[rows[0]]}: none of {MAX_SAMPLE_DRAWS} sampled networks met the SNR "
        "floor and held the rates (2, 2, 2, 2); widen the magnitude or power range"
    )
    error.trial = indices[rows[0]]  # the lowest trial still drawing, for `_sweep_block`
    raise error


def _boundary_rates(streams: _Streams, terms: np.ndarray) -> np.ndarray:
    """Per trial, a point of the restricted-region boundary at least 2 in
    every component: walk from (2,2,2,2) along a random non-negative
    direction, 4 doubles of the trial's stream redrawn while none exceeds
    1e-9, to the nearest constraint, then retreat `BOUNDARY_NUDGE` bits."""
    n = terms.shape[1]
    d, rows = np.empty((4, n)), np.arange(n)
    while rows.size:
        d[:, rows] = streams.draw(rows, 4)
        rows = rows[d[:, rows].max(axis=0) <= 1e-9]
    # No room is NaN or -0.0: every term holds the base point, so the
    # smallest room is np.min's.
    steps = _session_sums(d)
    rooms = (terms - _BASE_SUMS) / np.where(steps > 0, steps, 1.0)
    t_star = np.where(steps > 0, rooms, math.inf).min(axis=0)
    t = _max(0.0, t_star - BOUNDARY_NUDGE / d.max(axis=0))
    return 2.0 + t * d


@_quiet
def _trial_block(cfg: SweepConfig, indices: Sequence[int]) -> SweepColumns:
    """The trials ``indices`` of the sweep, as one batch."""
    streams = _Streams(cfg.seed, indices)
    h, p, hop_terms = _sample_networks(cfg, streams, indices)
    terms = _min(*hop_terms)
    rates = _boundary_rates(streams, terms)
    up, down = _sessions(h)
    stage, excess, slack, *_ = _verify_columns(up, down, p, rates, hop_terms)
    # Both bounds share the single-family terms, so their gaps are 0.0.
    gaps = _bound_gaps(_cutset_terms(up, down, p, terms), terms)
    gap = functools.reduce(_max, [0.0, *gaps])
    # h's rows are h_ar, h_br, h_ra, h_rb pair by pair; the columns take the CSV's order.
    columns = (*h[[0, 2, 1, 3, 4, 6, 5, 7]], p, *rates, stage, excess, slack, gap)
    return SweepColumns(tuple(indices), *(tuple(c.tolist()) for c in columns))


def _sweep_block(cfg: SweepConfig, indices: Sequence[int]) -> SweepColumns:
    """`_trial_block`, raising what the lowest-index trial that raises
    raises alone.  A trial's draws do not depend on its block, so when the
    sampler runs out of draws, its error names the lowest trial still
    drawing and is what that trial raises alone: only the trials below it
    are rerun, as one block, and recursively if that block raises.  Any
    other error reruns the block as batches of one, in order."""
    try:
        return _trial_block(cfg, indices)
    except Exception as exc:  # noqa: BLE001 -- re-raised below unless a lower trial raises first
        error = exc
    trial = getattr(error, "trial", None)
    if trial is None:
        for i in indices:
            _trial_block(cfg, (i,))
    elif below := [i for i in indices if i < trial]:
        _sweep_block(cfg, below)
    raise error


def run_trial(cfg: SweepConfig, index: int) -> SweepColumns:
    """One deterministic trial's columns, a batch of one; its stream depends
    only on (seed, index), so trials run in any order or split yield the
    same columns.  ``index`` is one spawn-key word: an integer in [0, 2^32)."""
    if not _integer(index) or not 0 <= index <= _M32:
        raise ValueError(f"trial index must be an integer in [0, 2**32), got {index!r}")
    return _trial_block(cfg, (int(index),))


def sweep_blocks(cfg: SweepConfig) -> Iterator[SweepColumns]:
    """Sample (network, boundary rate tuple) pairs and verify the 2-bit
    back-off end to end, yielding each block of `SWEEP_BLOCK` trials' columns
    as soon as it is done; deterministic for a fixed seed.  A sweep that
    fails raises once the first failing block is reached, after yielding
    every block before it."""
    for start in range(0, cfg.trials, SWEEP_BLOCK):
        yield _sweep_block(cfg, range(start, min(start + SWEEP_BLOCK, cfg.trials)))


def monte_carlo_gap(cfg: SweepConfig) -> SweepColumns:
    """`sweep_blocks`, joined into one `SweepColumns`."""
    columns = [[] for _ in SweepColumns._fields]
    for block in sweep_blocks(cfg):
        for column, values in zip(columns, block):
            column += values
    return SweepColumns._make(map(tuple, columns))
