"""Command-line front end.

Subcommands: ``region`` (membership queries), ``schedule`` (construct and
optionally simulate deterministic schedules), ``gauss-verify`` (constant-gap
achievability pipeline) and ``sweep`` (Monte Carlo verification runs).

Reports are JSON on stdout with sorted keys so identical runs are
byte-identical.  Exit codes: 0 success / member, 2 input error,
3 infeasible or non-member, 4 side-condition (low power) failure.

Network files are JSON.  Deterministic gains and ``pairs`` are JSON
integers; floats, booleans and strings are rejected, never truncated.
Deterministic rates and listen fractions are written as integer or "p/q"
strings -- decimal notation is rejected so boundary tuples never pass
through floats.  Gaussian rates are finite decimals; Gaussian magnitudes
are arrays of two JSON numbers and power a JSON number, all finite.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from . import gaussian, scheduler
from .cutset import RegionSizeError, enumerate_integral_region, in_det_cutset
from .detnet import FULL_DUPLEX, DetNetwork, HalfDuplex
from .gaussian import (
    AllocationInvalidError,
    GaussNetwork,
    InfeasibleRatesError,
    LowPowerError,
    SweepConfig,
)
from .scheduler import NotInRegionError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SIDE_CONDITION = 4

_FRACTION_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*([1-9]\d*)\s*)?$")


class InputError(ValueError):
    """Bad file contents or malformed command-line values."""


def parse_fraction(text: str) -> Fraction:
    """Exact rational from an integer or 'p/q' string; decimals rejected."""
    m = _FRACTION_RE.match(str(text))
    if not m:
        raise InputError(f"expected an integer or 'p/q' fraction, got {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


_DET_FIELDS = {"kind", "pairs", "n_ar", "n_br", "n_ra", "n_rb", "duplex", "delta"}
_GAUSS_FIELDS = {"kind", "h_ar", "h_br", "h_ra", "h_rb", "power"}
_JSON_NUMBER = (int, float)  # exact types: a JSON true is a bool, never a number


def load_network(path: str):
    """Parse a network file into (DetNetwork, DuplexMode) or GaussNetwork."""
    try:
        raw = Path(path).read_bytes()
        doc = json.loads(raw)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    digest = hashlib.sha256(raw).hexdigest()

    if kind == "deterministic":
        unknown = set(doc) - _DET_FIELDS
        if unknown:
            raise InputError(f"{path}: unknown fields {sorted(unknown)}")
        try:
            pairs = doc["pairs"]
            gains = {k: tuple(doc[k]) for k in ("n_ar", "n_br", "n_ra", "n_rb")}
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: bad deterministic network fields ({exc})") from exc
        if type(pairs) is not int:
            raise InputError(f"{path}: pairs must be an integer, got {pairs!r}")
        if any(len(g) != pairs for g in gains.values()):
            raise InputError(f"{path}: gain arrays must each hold {pairs} entries")
        try:
            net = DetNetwork(**gains)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
        duplex = doc.get("duplex", "full")
        if duplex == "full":
            if "delta" in doc:
                raise InputError(f"{path}: 'delta' only applies to half duplex")
            mode = FULL_DUPLEX
        elif duplex == "half":
            if "delta" not in doc:
                raise InputError(f"{path}: half duplex requires 'delta'")
            delta = parse_fraction(doc["delta"])
            try:
                mode = HalfDuplex(delta)
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from exc
        else:
            raise InputError(f"{path}: duplex must be 'full' or 'half', got {duplex!r}")
        return net, mode, digest

    if kind == "gaussian":
        unknown = set(doc) - _GAUSS_FIELDS
        if unknown:
            raise InputError(f"{path}: unknown fields {sorted(unknown)}")
        magnitudes = [doc.get(k) for k in ("h_ar", "h_br", "h_ra", "h_rb")]
        if not all(type(m) is list and len(m) == 2 for m in magnitudes):
            raise InputError(f"{path}: h_ar, h_br, h_ra and h_rb must be arrays of two magnitudes")
        if any(type(v) not in _JSON_NUMBER for v in [*sum(magnitudes, []), doc.get("power")]):
            raise InputError(f"{path}: magnitudes and power must be JSON numbers")
        try:
            net = GaussNetwork(*map(tuple, magnitudes), doc["power"])
        except (ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad gaussian network fields ({exc})") from exc
        return net, None, digest

    raise InputError(f"{path}: kind must be 'deterministic' or 'gaussian', got {kind!r}")


def _det_rates(text: str, net: DetNetwork) -> list[Fraction]:
    """One exact rate per session of ``net`` from a comma-separated list."""
    rates = [parse_fraction(tok) for tok in text.split(",")]
    if len(rates) != 2 * net.pairs:
        raise InputError(f"expected {2 * net.pairs} rates, got {len(rates)}")
    return rates


def _gaussian_rates(text: str) -> list[float]:
    """Four finite decimal rates from a comma-separated list."""
    try:
        rates = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InputError(f"gaussian rates must be decimals: {exc}") from exc
    if len(rates) != 4:
        raise InputError(f"expected 4 rates, got {len(rates)}")
    if not all(math.isfinite(r) for r in rates):
        raise InputError(f"gaussian rates must be finite, got {text!r}")
    return rates


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, sort_keys=True, indent=2, default=str)
    sys.stdout.write("\n")


def _assignment_records(sched: scheduler.Schedule) -> list[dict]:
    return [
        {
            "pair": a.pair,
            "kind": a.kind,
            "side": a.side,
            "uplink_slot": a.uplink_slot,
            "uplink_level": a.uplink_level,
            "downlink_slot": a.downlink_slot,
            "downlink_level": a.downlink_level,
        }
        for a in sched.assignments
    ]


def _check_records(checks, slack: bool = False) -> list[dict]:
    return [
        {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, **({"slack": c.slack} if slack else {})}
        for c in checks
    ]


def _violation_records(violations) -> list[dict]:
    return [
        {"cut": v.cut.describe(), "rate_sum": str(v.rate_sum), "bound": str(v.bound)}
        for v in violations
    ]


def cmd_region(args) -> int:
    net, mode, digest = load_network(args.network)
    report = {"command": "region", "input_digest": digest}
    if isinstance(net, DetNetwork):
        if args.restricted:
            raise InputError("--restricted applies to gaussian networks only")
        rates = _det_rates(args.rates, net)
        membership = in_det_cutset(net, rates, mode)
        report.update(
            network="deterministic",
            rates=[str(r) for r in rates],
            member=membership.member,
            violated_cuts=_violation_records(membership.violations),
        )
        _emit(report)
        return EXIT_OK if membership.member else EXIT_INFEASIBLE
    rates = _gaussian_rates(args.rates)
    check = gaussian.gauss_restricted_cutset(net, rates) if args.restricted else gaussian.gauss_cutset(net, rates)
    report.update(
        network="gaussian",
        region="restricted" if args.restricted else "cut-set",
        rates=rates,
        member=check.inside,
        violated=_check_records(check.violated()),
        binding=_check_records(check.binding()),
    )
    _emit(report)
    return EXIT_OK if check.inside else EXIT_INFEASIBLE


def cmd_schedule(args) -> int:
    if args.simulate < 0:
        raise InputError(f"--simulate must be non-negative, got {args.simulate}")
    net, mode, digest = load_network(args.network)
    if not isinstance(net, DetNetwork):
        raise InputError("schedule requires a deterministic network")
    rates = _det_rates(args.rates, net)

    if isinstance(mode, HalfDuplex):
        if args.chunked:
            raise InputError("--chunked applies to full-duplex networks only")
        sched = scheduler.schedule_half_duplex(net, mode.delta, rates)
    elif args.chunked:
        sched = scheduler.chunk_schedule(net, rates)
    else:
        sched = scheduler.schedule_fractional(net, rates)

    report = {
        "command": "schedule",
        "input_digest": digest,
        "rates": [str(r) for r in rates],
        "slots": sched.slots,
        "listen_slots": sched.listen_slots,
        "assignments": _assignment_records(sched),
        "bit_budgets": {f"{s}{i + 1}": n for (i, s), n in sched.bit_budgets().items()},
    }
    if args.simulate:
        rng = np.random.default_rng(args.seed)
        passed = 0
        for _ in range(args.simulate):
            msgs = scheduler.random_messages(sched, rng)
            passed += scheduler.simulate_schedule(sched, msgs).ok
        report["simulate"] = {"payloads": args.simulate, "decoded_exactly": passed, "seed": args.seed}
        _emit(report)
        return EXIT_OK if passed == args.simulate else EXIT_INFEASIBLE
    _emit(report)
    return EXIT_OK


def cmd_gauss_verify(args) -> int:
    net, _, digest = load_network(args.network)
    if not isinstance(net, GaussNetwork):
        raise InputError("gauss-verify requires a gaussian network")
    rates = _gaussian_rates(args.rates)

    report = gaussian.verify_constant_gap(net, rates)
    doc = {
        "command": "gauss-verify",
        "input_digest": digest,
        "target_rates": list(report.target),
        "backed_off_rates": list(report.backed_off),
        "achievable": report.achievable,
        "stage": report.stage,
        "detail": report.detail,
        "normalized": {
            "side_swapped": list(report.normalized.side_swapped),
            "pairs_swapped": report.normalized.pairs_swapped,
            "clamped": list(report.normalized.clamped),
            "rates": list(report.normalized.rates),
        },
        "max_alpha_excess": report.max_alpha_excess(),
    }
    if report.uplink is not None:
        doc["uplink"] = {
            "case": report.uplink.case,
            "alpha_a1": list(report.uplink.alpha_a1),
            "alpha_a2": list(report.uplink.alpha_a2),
            "alpha_b1": report.uplink.alpha_b1,
            "alpha_b2": report.uplink.alpha_b2,
            "checks": _check_records(report.uplink_checks, slack=True),
        }
    if report.downlink is not None:
        doc["downlink"] = {
            "case": report.downlink.case,
            "pairs_swapped": report.downlink.pairs_swapped,
            "alpha_r": list(report.downlink.alpha_r),
            "checks": _check_records(report.downlink_checks, slack=True),
        }
    _emit(doc)
    return EXIT_OK if report.achievable else EXIT_INFEASIBLE


_GAUSS_CSV_HEADER = (
    "trial,seed,verdict,stage,max_alpha_slack,bound_gap,"
    "h_a1r,h_b1r,h_a2r,h_b2r,h_ra1,h_rb1,h_ra2,h_rb2,power"
)
_DET_CSV_HEADER = "trial,seed,verdict,pairs,n_ar,n_br,n_ra,n_rb,tuples_checked,failures"


def _write_out(path: str | None, text: str, mode: str = "w") -> None:
    """Write ``text`` to the --out file, or to stdout when there is none.
    Mode "a" with no text checks the file before any sweep work: it creates
    a missing file and truncates none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, mode) as out:
            out.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_sweep(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    if args.seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {args.seed}")
    if args.max_pairs < 1:
        raise InputError(f"--max-pairs must be at least 1, got {args.max_pairs}")
    if args.max_gain < 0:
        raise InputError(f"--max-gain must be non-negative, got {args.max_gain}")
    if args.det:
        _write_out(args.out, "", "a")
        return _det_sweep(args)
    cfg = SweepConfig(
        trials=args.trials,
        seed=args.seed,
        h_min=args.hmin,
        h_max=args.hmax,
        p_min=args.pmin,
        p_max=args.pmax,
    )
    _write_out(args.out, "", "a")
    report = gaussian.monte_carlo_gap(cfg)
    c = report.columns
    floats = (
        c.max_alpha_excess, c.bound_gap, c.h_a1r, c.h_b1r, c.h_a2r, c.h_b2r,
        c.h_ra1, c.h_rb1, c.h_ra2, c.h_rb2, c.power,
    )
    verdicts = ["pass" if s == "ok" else "fail" for s in c.stage]
    rows = zip(map(str, c.trial), repeat(str(cfg.seed)), verdicts, c.stage, *(map(repr, f) for f in floats))
    _write_out(args.out, "\n".join([_GAUSS_CSV_HEADER, *map(",".join, rows)]) + "\n")
    summary = {
        "command": "sweep",
        "mode": "gaussian",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "ranges": {"h": [cfg.h_min, cfg.h_max], "power": [cfg.p_min, cfg.p_max]},
        "passed": c.stage.count("ok"),
        "pass_rate": report.pass_rate,
        "max_alpha_slack": report.max_alpha_excess,
        "max_bound_gap": report.max_bound_gap,
        "out": args.out,
    }
    _emit(summary)
    return EXIT_OK if report.pass_rate == 1.0 else EXIT_INFEASIBLE


def _det_sweep(args) -> int:
    lines = [_DET_CSV_HEADER]
    failures_total = 0
    tuples_total = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(trial,)))
        pairs = int(rng.integers(1, args.max_pairs + 1))
        gains = {
            name: tuple(int(g) for g in rng.integers(0, args.max_gain + 1, size=pairs))
            for name in ("n_ar", "n_br", "n_ra", "n_rb")
        }
        net = DetNetwork(**gains)
        failures = 0
        region = enumerate_integral_region(net)  # RegionSizeError aborts the sweep
        for tup in region:
            sched = scheduler.divide_and_conquer(net, tup)
            msgs = scheduler.random_messages(sched, rng)
            if not scheduler.simulate_schedule(sched, msgs).ok:
                failures += 1
        failures_total += failures
        tuples_total += len(region)
        lines.append(
            ",".join(
                [
                    str(trial),
                    str(args.seed),
                    "pass" if failures == 0 else "fail",
                    str(pairs),
                    ";".join(map(str, gains["n_ar"])),
                    ";".join(map(str, gains["n_br"])),
                    ";".join(map(str, gains["n_ra"])),
                    ";".join(map(str, gains["n_rb"])),
                    str(len(region)),
                    str(failures),
                ]
            )
        )
    _write_out(args.out, "\n".join(lines) + "\n")
    _emit(
        {
            "command": "sweep",
            "mode": "deterministic",
            "seed": args.seed,
            "trials": args.trials,
            "tuples_checked": tuples_total,
            "failures": failures_total,
            "out": args.out,
        }
    )
    return EXIT_OK if failures_total == 0 else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaycap",
        description="Capacity regions and relaying schedules for multi-pair bidirectional relay networks",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("region", help="cut-set region membership")
    p.add_argument("network")
    p.add_argument("--rates", required=True, help="comma-separated rate tuple")
    p.add_argument("--restricted", action="store_true", help="use the restricted bound (gaussian only)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("schedule", help="construct (and simulate) a deterministic schedule")
    p.add_argument("network")
    p.add_argument("--rates", required=True)
    p.add_argument("--simulate", type=int, default=0, metavar="N", help="verify N random payloads")
    p.add_argument("--chunked", action="store_true", help="contiguous per-type level chunks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("gauss-verify", help="constant-gap achievability check")
    p.add_argument("network")
    p.add_argument("--rates", required=True)
    p.set_defaults(func=cmd_gauss_verify)

    p = sub.add_parser("sweep", help="Monte Carlo verification sweep")
    p.add_argument("--det", action="store_true", help="deterministic-network completeness sweep")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hmin", type=float, default=1.0)
    p.add_argument("--hmax", type=float, default=100.0)
    p.add_argument("--pmin", type=float, default=1.0)
    p.add_argument("--pmax", type=float, default=100.0)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.add_argument("--max-pairs", type=int, default=3, help="det mode: largest M")
    p.add_argument("--max-gain", type=int, default=6, help="det mode: largest channel gain")
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built once per process: parsing reads it and
    returns a fresh namespace, so no call sees another's arguments."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotInRegionError, InfeasibleRatesError, RegionSizeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LowPowerError as exc:
        print(f"side condition: {exc}", file=sys.stderr)
        return EXIT_SIDE_CONDITION
    except AllocationInvalidError as exc:
        print(f"allocation invalid: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
