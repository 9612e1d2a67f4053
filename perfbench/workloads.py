"""The workloads: input generation, the timed calls into relaycap, and
output checks that do not trust the layer under test.

A workload's inputs are a fixed list of units derived from the seed; a
cycle runs every unit once, in order.  ``units`` builds them (that is the
input generation ``setup_s`` times); ``run_unit`` makes one unit's timed
calls and then checks every output with the benchmark's own code.  Only the
calls into the package count as measured time.

Both are closed-loop, single-process and sequential: one call is made only
after the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from relaycap import cli, cutset, gaussian, scheduler
from relaycap.detnet import DetNetwork

# Cycle sizes per second of --seconds.  The run repeats a cycle a fixed
# number of times (run.CYCLES = 12), so at 30 s a cycle takes the package as
# first benchmarked 2 to 3.5 s on a 2-vCPU x86 virtual machine, depending on
# how busy its host is.
GAUSS_TRIALS_PER_UNIT = 150  # trials in one sweep call
GAUSS_UNITS_PER_S = 1.6
# Strata of det-desk networks: (M, fewest region tuples, most region tuples,
# tuples per second of --seconds).  Region sizes are heavy-tailed (an M = 3
# region holds 72 tuples at the median and up to about 1600), so networks
# drawn freely would let a seed double a cycle's work, or its tail of slow
# tuples.  Networks are drawn until each stratum holds its budget of tuples;
# a draw whose stratum is full is set aside.  A budget of 0 draws exactly one
# network.  Regions over 1023 tuples (0.4% of M = 3 draws) would each take a
# third of a cycle, and are left out.
DESK_STRATA = (
    (1, 1, 1023, 3),
    (2, 1, 1023, 10),
    (3, 1, 31, 2),
    (3, 32, 127, 9),
    (3, 128, 255, 9),
    (3, 256, 511, 9),
    (3, 512, 1023, 0),
)

GAUSS_STAGES = (
    "ok",
    "uplink-rate-check",
    "uplink-allocation",
    "downlink-rate-check",
    "downlink-allocation",
)
# restricted_bound_gaps itself accepts gaps within 1e-9 of [0, 1]
BOUND_GAP_TOL = 1e-9

SIDES = ("A", "B")


def sub_seed(*parts) -> int:
    """A 64-bit seed, independent across workloads, seeds and units."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class UnitResult:
    attempted: int = 0
    failed: int = 0
    verdict_pass: int = 0  # ops whose own verdict from the package is "pass"
    # Time inside calls into the package: one entry per op, and one per
    # other timed call (region enumeration, the sweep outside its trials).
    # Their lengths are fixed by the unit's inputs.
    op_s: list = field(default_factory=list)
    extra_s: list = field(default_factory=list)
    composition: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)

    def count(self, key: str, n: int = 1) -> None:
        self.composition[key] = self.composition.get(key, 0) + n


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def begin(self, name: str, op: int) -> None:
        pass

    def end(self) -> None:
        pass


NULL_TRACER = NullTracer()


# --- gauss-sweep -------------------------------------------------------------


@contextlib.contextmanager
def timed_trials(sink: list):
    """Time each ``run_trial`` call, the sweep's per-trial entry point."""
    original = gaussian.run_trial

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        sink.append(perf_counter() - start)
        return result

    gaussian.run_trial = timed
    try:
        yield
    finally:
        gaussian.run_trial = original


class GaussSweep:
    """``relaycap sweep`` in-process without --workers; a unit is one sweep
    call of ``GAUSS_TRIALS_PER_UNIT`` trials with its own sweep seed."""

    name = "gauss-sweep"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.n_units = max(1, round(GAUSS_UNITS_PER_S * seconds))
        self.trials = GAUSS_TRIALS_PER_UNIT
        self.csv_path = workdir / f"sweep-{os.getpid()}.csv"

    def units(self) -> list[int]:
        return [sub_seed(self.name, self.seed, k) % 2**32 for k in range(self.n_units)]

    def run_unit(self, sweep_seed: int, tracer=NULL_TRACER) -> UnitResult:
        res = UnitResult(attempted=self.trials)
        argv = ["sweep", "--trials", str(self.trials), "--seed", str(sweep_seed),
                "--out", str(self.csv_path)]
        trial_times: list = []
        out = io.StringIO()
        timing = timed_trials(trial_times) if tracer is NULL_TRACER else contextlib.nullcontext()
        code = None
        with timing, contextlib.redirect_stdout(out):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op
                res.fail(f"sweep seed {sweep_seed} raised {exc!r}", self.trials)
            call_s = perf_counter() - start
        # If the sweep does not call run_trial once per trial (or is traced),
        # each trial is charged the call's mean time per trial.
        if len(trial_times) != self.trials:
            trial_times = [call_s / self.trials] * self.trials
        res.op_s = trial_times
        res.extra_s = [call_s - sum(trial_times)]
        if code is None:
            return res
        try:
            self._check(res, code, out.getvalue(), sweep_seed)
        finally:
            self.csv_path.unlink(missing_ok=True)
        return res

    def _check(self, res: UnitResult, code: int, stdout: str, sweep_seed: int) -> None:
        if code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
            res.fail(f"sweep seed {sweep_seed} exited {code}", self.trials)
            return
        try:
            data = self.csv_path.read_bytes()
            summary = json.loads(stdout)
        except (OSError, ValueError) as exc:
            res.fail(f"sweep seed {sweep_seed}: unreadable output ({exc})", self.trials)
            return
        res.count("csv_bytes", len(data))
        lines = data.decode().splitlines()
        header = lines[0].split(",") if lines else []
        missing = {"trial", "verdict", "stage", "bound_gap"} - set(header)
        if missing:
            res.fail(f"sweep CSV lacks columns {sorted(missing)}", self.trials)
            return
        col = {name: header.index(name) for name in ("trial", "verdict", "stage", "bound_gap")}
        rows = lines[1:]
        if len(rows) != self.trials:
            res.fail(f"sweep CSV has {len(rows)} rows, expected {self.trials}",
                     abs(self.trials - len(rows)))
        seen = set()
        for row in rows[: self.trials]:
            fields = row.split(",")
            try:
                trial = int(fields[col["trial"]])
                verdict, stage = fields[col["verdict"]], fields[col["stage"]]
                gap = float(fields[col["bound_gap"]])
            except (IndexError, ValueError):
                res.fail(f"malformed sweep CSV row {row!r}")
                continue
            if (
                trial in seen
                or not 0 <= trial < self.trials
                or stage not in GAUSS_STAGES
                or verdict != ("pass" if stage == "ok" else "fail")
                or not -BOUND_GAP_TOL <= gap <= 1.0 + BOUND_GAP_TOL
            ):
                res.fail(f"bad sweep CSV row {row!r}")
                continue
            seen.add(trial)
            res.count(f"stage.{stage}")
            if verdict == "pass":
                res.verdict_pass += 1
        gap_fail = len(seen) - res.verdict_pass
        res.count("trials", len(seen))
        res.count("gap_fail", gap_fail)
        # exit 3 is a genuine gap failure only if the CSV shows one
        if (code == cli.EXIT_INFEASIBLE) != (gap_fail > 0):
            res.fail(f"sweep seed {sweep_seed} exited {code} with {gap_fail} failing trials")
        if summary.get("trials") != self.trials or summary.get("passed") != res.verdict_pass:
            res.fail(f"sweep summary disagrees with its CSV: {summary}")


# --- deterministic helpers: the benchmark's own cut check --------------------


def own_cuts(pairs: int) -> list[tuple[int, ...]]:
    """Every cut as one entry per pair: 0 absent, 1 A side sends, 2 B side sends."""
    return [c for c in itertools.product((0, 1, 2), repeat=pairs) if any(c)]


def cut_terms(net: DetNetwork, cut: tuple[int, ...]) -> tuple[list[int], int, int]:
    """Rate indices on the cut and its largest uplink and downlink gain."""
    idx, up, down = [], 0, 0
    for i, s in enumerate(cut):
        if s == 1:
            idx.append(2 * i)
            up, down = max(up, net.n_ar[i]), max(down, net.n_rb[i])
        elif s == 2:
            idx.append(2 * i + 1)
            up, down = max(up, net.n_br[i]), max(down, net.n_ra[i])
    return idx, up, down


def own_region(net: DetNetwork) -> tuple[np.ndarray, int]:
    """Integral full-duplex region in lexicographic order, and the box size."""
    caps = []
    for i in range(net.pairs):
        caps += [min(net.n_ar[i], net.n_rb[i]), min(net.n_br[i], net.n_ra[i])]
    dims = [c + 1 for c in caps]
    grid = np.indices(dims, dtype=np.int16).reshape(len(dims), -1)
    keep = np.ones(grid.shape[1], dtype=bool)
    for cut in own_cuts(net.pairs):
        idx, up, down = cut_terms(net, cut)
        keep &= grid[idx].sum(axis=0) <= min(up, down)
    return grid[:, keep].T, math.prod(dims)


def payload(rng: random.Random, budgets: dict) -> dict:
    """Message bits drawn by the benchmark, one tuple per directed session."""
    msgs = {}
    for node, n in budgets.items():
        bits = rng.getrandbits(n)
        msgs[node] = tuple((bits >> j) & 1 for j in range(n))
    return msgs


def check_schedule(res: UnitResult, sched, sim, msgs: dict, label: str) -> None:
    """Budgets counted from the assignments, exact decode, then the tallies."""
    budgets = {node: 0 for node in msgs}
    for a in sched.assignments:
        for side in (SIDES if a.side is None else (a.side,)):
            budgets[(a.pair, side)] = budgets.get((a.pair, side), 0) + 1
    if sched.slots != 1:
        res.fail(f"{label}: {sched.slots} slots, expected 1")
    elif budgets != {node: len(bits) for node, bits in msgs.items()}:
        res.fail(f"{label}: bit budgets {budgets} differ from the rates")
    elif {node: tuple(bits) for node, bits in sim.decoded.items()} != msgs:
        res.fail(f"{label}: decoded bits differ from the payload")
    if sim.ok:
        res.verdict_pass += 1
    res.count("tuples")
    res.count("steps", len(sched.assignments))
    res.count("slots", sched.slots)
    res.count("bits", sum(len(bits) for bits in msgs.values()))


def scheduled_op(res: UnitResult, tracer, op: int, net, rates, msgs: dict, label: str):
    """One timed op: build a schedule and simulate it.  Returns (sched, sim)
    or None when a call raised."""
    tracer.begin("op", op)
    start = perf_counter()
    try:
        sched = scheduler.divide_and_conquer(net, rates)
        sim = scheduler.simulate_schedule(sched, msgs)
    except Exception as exc:  # an op that raises is a failed op
        res.fail(f"{label} raised {exc!r}")
        return None
    finally:
        tracer.end()
        res.op_s.append(perf_counter() - start)
    return sched, sim


# --- det-desk ----------------------------------------------------------------


class DetDesk:
    """Desk-scale completeness: a unit is one network.  Enumerate its region,
    check all of it, then schedule and simulate every tuple in it.  M in
    {1, 2, 3}, gains uniform on 0..6, stratified by region size."""

    name = "det-desk"

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.expected: dict = {}  # network -> (own region, box cells)

    def units(self) -> list[tuple[DetNetwork, int]]:
        """For each M, networks are drawn until every stratum of DESK_STRATA
        holds its budget of tuples, counted with the benchmark's own cut
        check.  Each network comes with the seed of its payloads."""
        rng = random.Random(sub_seed(self.name, self.seed))
        nets = []
        for m in sorted({s[0] for s in DESK_STRATA}):
            strata = [[lo, hi, max(1, round(per_s * self.seconds))]
                      for pairs, lo, hi, per_s in DESK_STRATA if pairs == m]
            while any(left > 0 for _, _, left in strata):
                net = DetNetwork(*(tuple(rng.randint(0, 6) for _ in range(m)) for _ in range(4)))
                if net not in self.expected:
                    self.expected[net] = own_region(net)
                size = len(self.expected[net][0])
                for stratum in strata:
                    if stratum[0] <= size <= stratum[1] and stratum[2] > 0:
                        stratum[2] -= size
                        nets.append(net)
        return [(net, sub_seed(self.name, self.seed, n, "payload")) for n, net in enumerate(nets)]

    def run_unit(self, unit, tracer=NULL_TRACER) -> UnitResult:
        net, payload_seed = unit
        rng = random.Random(payload_seed)
        res = UnitResult()
        expected, cells = self.expected[net]
        res.attempted = len(expected)
        res.count("networks")
        res.count("cells", cells)
        res.count("region_tuples", len(expected))
        start = perf_counter()
        try:
            region = cutset.enumerate_integral_region(net)
        except Exception as exc:
            res.fail(f"{net}: enumerate_integral_region raised {exc!r}", len(expected))
            return res
        finally:
            res.extra_s.append(perf_counter() - start)
        got = np.asarray(region, dtype=np.int64).reshape(-1, 2 * net.pairs)
        if not np.array_equal(got, expected):
            res.fail(f"{net}: region has {len(got)} tuples, own cut check finds {len(expected)}")
        for op, rates in enumerate(region):
            budgets = {(i, s): rates[2 * i + j] for i in range(net.pairs)
                       for j, s in enumerate(SIDES)}
            msgs = payload(rng, budgets)
            label = f"{net} rates {rates}"
            done = scheduled_op(res, tracer, op, net, rates, msgs, label)
            if done:
                check_schedule(res, *done, msgs, label)
        return res


WORKLOADS = {cls.name: cls for cls in (GaussSweep, DetDesk)}
