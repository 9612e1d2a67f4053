"""Spans around calls into relaycap, and the per-layer metrics derived from them.

Only the traced run uses this module.  ``Tracer.install`` replaces the
module attributes that the package itself looks up with wrappers that record
one span per call: name, start, end, parent span, op id (the unit and
the op within it) and, for a few layers, a value read from the arguments or
the result.  For example the
scheduler calls ``relaycap.scheduler.in_det_cutset``, so that name is
wrapped, not ``relaycap.cutset.in_det_cutset``.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from relaycap import cli, cutset, gaussian, scheduler
from workloads import GAUSS_STAGES


def _stage(args, result):
    return getattr(result, "stage", None)


def _case(args, result):
    return getattr(result, "case", None)


def _pairs(args, result):
    return args[0].pairs


def _trial_index(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("index", -1)


# (module, attribute, span name, value recorded from the call, op id taken from the call)
WRAPPED = (
    (cli, "cmd_sweep", "cli.sweep", None, None),
    (gaussian, "monte_carlo_gap", "gaussian.monte_carlo_gap", None, None),
    (gaussian, "run_trial", "gaussian.run_trial", None, _trial_index),
    (gaussian, "verify_constant_gap", "gaussian.verify_constant_gap", _stage, None),
    (gaussian, "restricted_bound_gaps", "gaussian.restricted_bound_gaps", None, None),
    (gaussian, "reduce_orderings", "gaussian.reduce_orderings", None, None),
    (gaussian, "gauss_restricted_cutset", "gaussian.gauss_restricted_cutset", None, None),
    (gaussian, "uplink_allocate", "gaussian.uplink_allocate", _case, None),
    (gaussian, "downlink_allocate", "gaussian.downlink_allocate", _case, None),
    (gaussian, "uplink_rate_check", "gaussian.uplink_rate_check", None, None),
    (gaussian, "downlink_rate_check", "gaussian.downlink_rate_check", None, None),
    (cutset, "enumerate_integral_region", "cutset.enumerate_integral_region", None, None),
    (scheduler, "in_det_cutset", "cutset.in_det_cutset", _pairs, None),
    (scheduler, "divide_and_conquer", "scheduler.schedule", None, None),
    (scheduler, "simulate_schedule", "scheduler.simulate_schedule", None, None),
    (scheduler, "validate_schedule", "scheduler.validate_schedule", None, None),
    (scheduler, "relay_uplink_receive", "detnet.relay_uplink_receive", None, None),
    (scheduler, "node_downlink_receive", "detnet.node_downlink_receive", None, None),
)

CASES = ("I", "II", "III")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id, value]
        self.stack: list[int] = []
        self.unit = -1  # set by the run before each unit
        self.op = (-1, -1)
        self.installed: list[tuple] = []  # (module, attribute, original)

    def begin(self, name: str, op=None) -> None:
        """Open a span; a new ``op`` starts an op id, otherwise the span
        belongs to the current op."""
        if op is not None:
            self.op = (self.unit, op)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def _wrap(self, fn, name, value, op_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name, op_of(args, kwargs) if op_of else None)
            span = tracer.spans[-1]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if value:
                span[5] = value(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every attribute in WRAPPED; returns the ones that do not exist."""
        missing = []
        for module, attr, name, value, op_of in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, value, op_of))
            self.installed.append((module, attr, fn))
        return missing

    def restore(self) -> list[str]:
        """Put the originals back; returns the attributes that are not restored."""
        installed, self.installed = self.installed, []
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)
        return [f"{m.__name__}.{a}" for m, a, fn in installed if getattr(m, a) is not fn]

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for name, start, end, parent, op, value in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "value": value}) + "\n")


def tallies(spans) -> Counter:
    """Stage and case counts read from the values the traced calls returned.
    The stage metrics come from the sweep's CSV; these stage counts only
    feed the determinism guard."""
    out = Counter()
    for name, _, _, _, _, value in spans:
        if name == "gaussian.verify_constant_gap":
            out[f"verify_stage.{value}"] += 1
        elif name == "gaussian.uplink_allocate":
            out[f"uplink_case.{value}"] += 1
        elif name == "gaussian.downlink_allocate":
            out[f"downlink_case.{value}"] += 1
    return out


def layer_metrics(spans, totals: dict, timed_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced cycle.  ``totals`` is the cycle's
    summed composition and ``timed_s`` its time inside package calls."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    by_m_calls, by_m_total = Counter(), defaultdict(float)
    for i, (name, start, end, _, _, value) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        if name == "cutset.in_det_cutset":
            by_m_calls[value] += 1
            by_m_total[value] += end - start

    def per(x, n):
        return x / n if n else 0.0

    trials = totals.get("trials", 0)
    us = 1e6
    m = {
        "gaussian.sample.us_per_trial": per(own["gaussian.run_trial"], trials) * us,
        "gaussian.gauss_restricted_cutset.calls_per_trial":
            per(calls["gaussian.gauss_restricted_cutset"], trials),
        "gaussian.verify_constant_gap.self_us_per_trial":
            per(own["gaussian.verify_constant_gap"], trials) * us,
        "gaussian.gap_fail": totals.get("gap_fail", 0),
        "cli.sweep.self_us_per_trial": per(own["cli.sweep"], trials) * us,
        "cli.csv_bytes": totals.get("csv_bytes", 0),
        "cutset.in_det_cutset.calls": calls["cutset.in_det_cutset"],
        "cutset.in_det_cutset.share": per(total["cutset.in_det_cutset"], timed_s),
        "cutset.enumerate_integral_region.us_per_call":
            per(total["cutset.enumerate_integral_region"],
                calls["cutset.enumerate_integral_region"]) * us,
        "cutset.enumerate_integral_region.share":
            per(total["cutset.enumerate_integral_region"], timed_s),
        "cutset.region.cells": totals.get("cells", 0),
        "cutset.region.yield": per(totals.get("region_tuples", 0), totals.get("cells", 0)),
        "scheduler.schedule.self_us_per_step":
            per(own["scheduler.schedule"], totals.get("steps", 0)) * us,
        "scheduler.schedule.self_share": per(own["scheduler.schedule"], timed_s),
        "scheduler.steps_per_op": per(totals.get("steps", 0), totals.get("tuples", 0)),
        "scheduler.slots_per_op": per(totals.get("slots", 0), totals.get("tuples", 0)),
        "scheduler.simulate_schedule.self_us_per_bit":
            per(own["scheduler.simulate_schedule"], totals.get("bits", 0)) * us,
        "scheduler.simulate_schedule.self_share":
            per(own["scheduler.simulate_schedule"], timed_s),
        "scheduler.validate_schedule.us_per_call":
            per(total["scheduler.validate_schedule"], calls["scheduler.validate_schedule"]) * us,
        "detnet.share": per(total["detnet.relay_uplink_receive"]
                            + total["detnet.node_downlink_receive"], timed_s),
        "trace.overhead_frac": overhead_frac,
    }
    for layer in ("reduce_orderings", "uplink_allocate", "downlink_allocate",
                  "uplink_rate_check", "downlink_rate_check", "restricted_bound_gaps"):
        m[f"gaussian.{layer}.us_per_trial"] = per(total[f"gaussian.{layer}"], trials) * us
    for stage in GAUSS_STAGES:
        m[f"gaussian.stage.{stage}"] = totals.get(f"stage.{stage}", 0)
    for hop in ("uplink", "downlink"):
        for case in CASES:
            m[f"gaussian.{hop}_case.{case}"] = totals.get(f"{hop}_case.{case}", 0)
    for pairs in (1, 2, 3):
        m[f"cutset.in_det_cutset.us_per_call.M{pairs}"] = per(by_m_total[pairs], by_m_calls[pairs]) * us
    for name in ("detnet.relay_uplink_receive", "detnet.node_downlink_receive"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.us_per_call"] = per(total[name], calls[name]) * us
    return m
