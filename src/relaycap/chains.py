"""Successive-cancellation chains as tables, walked and checked for a batch
of trials in one pass.  A hop (`hops`) writes each case's chain as stages,
bottom first: a stream and each receiver that decodes it, an SNR row and
the streams still standing there.  `_Table` lays a hop's chains and checks
out as arrays indexed by case code, so each trial gathers its own case's
rows (`_take`) and no code loops over the cases.  The table also holds
each stage's widths, the most receivers and the most streams under one
receiver over the cases, and which closed forms its cases need, fixed when
it is built: `_walk` reads no padding past a stage's widths, and computes
both forms only at a stage that has one receiver in some cases and more in
others.  An interference adds the weighted powers of just the streams it
reads, in stream order, as the closed forms do, so every float is theirs,
bit for bit.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .gaussnet import _divide, _max, _min

_ZERO, _TERMS = 4, 3  # a hop's power row that stays 0; the most streams standing under one receiver


def _rows(rows, counts) -> np.ndarray:
    """Rows of receivers, per case code a list of (stream, receivers), as
    `_take` reads them: per row its stream, its receivers to check (``counts``),
    each receiver's SNR row, then term by term the `_TERMS` streams under each
    receiver, padded with `_ZERO`; a row short of receivers repeats its last."""
    width = max(len(row) for case in rows for _, row in case)
    table = [
        [[s, n, *sum(zip(*((k, *u, *[_ZERO] * (_TERMS - len(u))) for k, u in row + row[-1:] * (width - len(row)))), ())]
         for (s, row), n in zip(case, case_counts)]
        for case, case_counts in zip(rows, counts)
    ]
    return np.array(table).swapaxes(1, 2).copy()


class _Table:
    """A hop's chains and checks by case code: the `_rows` of the stages and
    of the check ``slots``, each one (streams, cap) at its first stream's
    stage (no receiver to check where the case lacks it); each cap's slots;
    each case's (slot, name) in decoding order; and each stream's weight in
    an interference, `_ZERO`'s last.  Per stage, over the cases: its widths,
    the most receivers and the most streams under one receiver, past which
    `_rows` only pads (a case has a receiver at every stage, so a stage one
    receiver wide has one in every case); and whether one receiver in some
    case and more in another (``mixed``)."""

    def __init__(self, chains, checks, weight):
        self.slots = tuple(dict.fromkeys((streams, cap) for case in checks for _, streams, cap in case))
        self.order = tuple(tuple((self.slots.index((s, cap)), name) for name, s, cap in case) for case in checks)
        at = [[(s[0], dict(chain)[s[0]]) for s, _ in self.slots] for chain in chains]
        live = [[len(row) * any(i == s for s, _ in o) for i, (_, row) in enumerate(c)] for c, o in zip(at, self.order)]
        self.stages = _rows(chains, [[len(row) for _, row in chain] for chain in chains])
        self.checks = _rows(at, live)
        caps = dict.fromkeys(cap for _, cap in self.slots)
        self.caps = [(cap, np.array([c is cap for _, c in self.slots])[:, None, None]) for cap in caps]
        self.weight = np.array([*weight, 0.0])[:, None]
        stages = [[row for _, row in stage] for stage in zip(*chains)]
        self.widths = tuple((max(map(len, rows)), max(len(u) for row in rows for _, u in row)) for rows in stages)
        self.mixed = tuple(w > 1 and any(len(row) == 1 for row in rows) for (w, _), rows in zip(self.widths, stages))


def _take(rows, case):
    """Each trial's `_rows`, trial last: streams and receivers to check (row,
    n), SNR rows (row, receiver, n) and streams under them (row, term, receiver, n)."""
    rows = np.ascontiguousarray(rows[case].T)
    receivers = rows[:, 2:].reshape(len(rows), _TERMS + 1, (len(rows[0]) - 2) // (_TERMS + 1), len(case))
    return rows[:, 0], rows[:, 1], receivers[:, 0], receivers[:, 1:]


def _interference(table: _Table, power, at) -> np.ndarray:
    """Each receiver's interference: the weighted powers, at ``at`` in the
    flattened ``power``, of the streams under it, added in stream order (0.0
    where ``at`` holds no stream).  It reads no other power, so an unread
    inf cannot make a NaN of 0 * inf."""
    if not at.shape[-3]:
        return 0.0
    terms = (table.weight * power).take(at)
    return reduce(np.add, [terms[..., t, :, :] for t in range(at.shape[-3])])


def _walk(table: _Table, case, need, g) -> np.ndarray:
    """Each stream's power, walking each trial's chain from the bottom: a
    stream needs ``need`` (1 + g q) / g at a receiver of SNR row g under
    interference q, and its worst receiver binds.  Each stage reads only its
    `_Table.widths` of receivers and streams under them, and computes the
    closed form of one receiver, of several, or both, as its cases need."""
    n = np.arange(len(case))
    stream, count, snr, under = _take(table.stages, case)
    gk, need, at = g[snr, n], need[stream, n], under * len(n) + n
    power = np.zeros((_ZERO + 1, len(n)))
    # Past a stage's widths `_rows` holds only `_ZERO` terms, each adding
    # +0.0 (which can turn a -0.0 q into +0.0, the same 1 + g q), and repeats
    # of a receiver, which max() keeps: reading no further changes no bit.
    for j, ((width, terms), mixed) in enumerate(zip(table.widths, table.mixed)):
        gj = gk[j, :width]
        a = 1.0 + gj * _interference(table, power, at[j, :terms, :width])
        if width == 1:
            p = need[j] * a[0] / gj[0]  # one receiver: the closed form's association, bit for bit
        else:
            p = need[j] * reduce(_max, a / gj)
            if mixed:
                p = np.where(count[j] == 1, need[j] * a[0] / gj[0], p)
        power[stream[j], n] = p
    return power[:_ZERO]


def _chain_checks(table: _Table, case, power, g, rates):
    """Each trial's decoding checks: `_Table.order`, to name them, and lhs and
    rhs rows, one per check slot (rhs inf where the case lacks the check).  A
    check sums its streams' rates and powers p, and takes the least cap(g p /
    (1 + g q)) over the receivers of its first stream's stage, as min() picks
    it.  On an error the checks rerun trial by trial, each in decoding order,
    to raise what the first trial to raise raises alone."""
    n = np.arange(len(case))
    _, count, snr, under = _take(table.checks, case)
    live = np.arange(snr.shape[1])[:, None] < count[:, None]
    gk, p = g[snr, n], np.array([reduce(np.add, [power[s] for s in streams]) for streams, _ in table.slots])
    q = _interference(table, np.concatenate([power, np.zeros((1, len(n)))]), under * len(n) + n)
    num, den = gk * p[:, None], 1.0 + gk * q
    try:
        x = _divide(num, den)
        for cap, slots in table.caps:
            at = live & slots
            x[at] = cap(x[at])
    except (ZeroDivisionError, ValueError):
        for i, s, k in [(i, s, k) for i, c in enumerate(case) for s, _ in table.order[c] for k in range(count[s, i])]:
            table.slots[s][1](_divide(num[s, k, i:i + 1], den[s, k, i:i + 1]))
        raise
    rhs = reduce(_min, np.where(live, x, math.inf).swapaxes(0, 1))
    return table.order, np.array([reduce(np.add, [rates[s] for s in streams]) for streams, _ in table.slots]), rhs
