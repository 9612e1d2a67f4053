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
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from . import gaussian, scheduler
from .cutset import RegionSizeError, enumerate_integral_region, in_det_cutset, region_walk_tests
from .detnet import FULL_DUPLEX, DetNetwork, HalfDuplex
from .gaussian import (
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

_FRACTION_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*([1-9]\d*)\s*)?$", re.ASCII)


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


_NETWORK_FIELDS = {
    "deterministic": {"kind", "pairs", "n_ar", "n_br", "n_ra", "n_rb", "duplex", "delta"},
    "gaussian": {"kind", "h_ar", "h_br", "h_ra", "h_rb", "power"},
}


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
    if not isinstance(kind, str) or kind not in _NETWORK_FIELDS:
        raise InputError(f"{path}: kind must be 'deterministic' or 'gaussian', got {kind!r}")
    unknown = set(doc) - _NETWORK_FIELDS[kind]
    if unknown:
        raise InputError(f"{path}: unknown fields {sorted(unknown)}")
    digest = hashlib.sha256(raw).hexdigest()

    if kind == "deterministic":
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
            try:
                mode = HalfDuplex(parse_fraction(doc["delta"]))
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from exc
        else:
            raise InputError(f"{path}: duplex must be 'full' or 'half', got {duplex!r}")
        return net, mode, digest

    magnitudes = [doc.get(k) for k in ("h_ar", "h_br", "h_ra", "h_rb")]
    if not all(type(m) is list and len(m) == 2 for m in magnitudes):
        raise InputError(f"{path}: h_ar, h_br, h_ra and h_rb must be arrays of two magnitudes")
    try:
        net = GaussNetwork(*map(tuple, magnitudes), doc.get("power"))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: bad gaussian network fields ({exc})") from exc
    return net, None, digest


def _det_rates(text: str) -> list[Fraction]:
    """Exact rates from a comma-separated list."""
    return [parse_fraction(tok) for tok in text.split(",")]


def _gaussian_rates(text: str) -> list[float]:
    """Decimal rates from a comma-separated list, in ASCII: `float` would
    also read other scripts' digits and ``_`` separators."""
    tokens = text.split(",")
    try:
        for tok in tokens:
            if not tok.isascii() or "_" in tok:
                raise ValueError(f"{tok!r} is not an ASCII decimal")
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"gaussian rates must be decimals: {exc}") from exc


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, sort_keys=True, indent=2, default=str)
    sys.stdout.write("\n")


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
        rates = _det_rates(args.rates)
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


def _check_seed(seed: int) -> None:
    """Refuse a seed numpy cannot seed a generator with, in `SweepConfig`'s
    words for the Gaussian sweep's seed."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")


def cmd_schedule(args) -> int:
    if args.simulate < 0:
        raise InputError(f"--simulate must be non-negative, got {args.simulate}")
    _check_seed(args.seed)
    net, mode, digest = load_network(args.network)
    if not isinstance(net, DetNetwork):
        raise InputError("schedule requires a deterministic network")
    rates = _det_rates(args.rates)

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
        "assignments": [dataclasses.asdict(a) for a in sched.assignments],
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


# The report fields gauss-verify leaves out: the normalised network and the allocations' stream rates.
_UNPRINTED = frozenset({"net", "gaussian_rates", "lattice_rates", "stream_rates"})


def _printed(report) -> dict:
    """A report dataclass's fields as gauss-verify prints them."""
    return {name: value for name, value in dataclasses.asdict(report).items() if name not in _UNPRINTED}


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
        "normalized": _printed(report.normalized),
        "max_alpha_excess": report.max_alpha_excess,
    }
    for hop, alloc, checks in (
        ("uplink", report.uplink, report.uplink_checks),
        ("downlink", report.downlink, report.downlink_checks),
    ):
        if alloc is not None:
            doc[hop] = {**_printed(alloc), "checks": _check_records(checks, slack=True)}
    _emit(doc)
    return EXIT_OK if report.achievable else EXIT_INFEASIBLE


# The Gaussian CSV's float columns, as `SweepColumns` fields; the header
# spells the first one max_alpha_slack.
_GAUSS_FLOATS = ("max_alpha_excess", "bound_gap", *gaussian.SweepColumns._fields[1:10])
_GAUSS_CSV_HEADER = ",".join(("trial", "seed", "verdict", "stage", "max_alpha_slack", *_GAUSS_FLOATS[1:]))
_DET_CSV_HEADER = "trial,seed,verdict,pairs,n_ar,n_br,n_ra,n_rb,tuples_checked,failures"


# CSV characters a sweep spools in memory; past them the spool moves to an
# unnamed temporary file, so a sweep's memory does not grow with its trials.
# The CSV is ASCII, spooled as bytes, so a copy to --out decodes no text.
_SPOOL_CHARS = 1 << 16
# The longest Gaussian CSV row, less its trial and seed fields: their commas,
# the verdict, the longest stage ("downlink-allocation") and the newline,
# and each float at the 24 characters of the longest float repr, with its comma.
_GAUSS_ROW_CHARS = len(",,pass,downlink-allocation\n") + len(_GAUSS_FLOATS) * len(f",{-2.2250738585072014e-308!r}")


def _check_spool_room(cfg: SweepConfig) -> None:
    """Refuse a Gaussian sweep whose longest possible CSV would not fit in
    the temporary directory, which the spool moves to past `_SPOOL_CHARS`;
    a sweep whose CSV stays in memory is not checked.  The CSV is ASCII, so
    its characters are its bytes."""
    row = len(str(cfg.trials)) + len(str(cfg.seed)) + _GAUSS_ROW_CHARS
    longest = len(_GAUSS_CSV_HEADER) + 1 + cfg.trials * row
    if longest <= _SPOOL_CHARS:
        return
    tmp = tempfile.gettempdir()
    free = shutil.disk_usage(tmp).free
    if longest > free:
        raise InputError(f"cannot spool the sweep's CSV: it may take {longest} bytes, and {tmp} has {free} free")


def _open_out(path: str | None):
    """The --out file, opened once before any sweep work so that an
    unwritable path is refused first: a missing file is created, and none is
    truncated until `_write_out` copies the spool's bytes into it.  A null
    context when there is no --out."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "ab")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_out(out, path: str | None, spool) -> None:
    """Replace the contents of ``out``, `_open_out`'s file for ``path``, with
    the spooled CSV; write it to stdout when there is no file.  A file no
    longer at ``path`` (removed or replaced while the sweep ran) is refused,
    as a write error, and left as it is.  Both copies go by chunks, so a
    spool in the temporary directory is never read whole."""
    spool.seek(0)
    if out is None:
        for chunk in iter(functools.partial(spool.read, _SPOOL_CHARS), b""):
            sys.stdout.write(chunk.decode())
        return
    try:
        if not os.path.samestat(os.fstat(out.fileno()), os.stat(path)):
            raise InputError(f"cannot write {path}: the file was replaced while the sweep ran")
        if out.seekable() and out.tell():  # a file that was not empty
            out.truncate(0)
        shutil.copyfileobj(spool, out)
        out.flush()
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


# The largest value numpy's default int64 draw takes for --max-pairs and
# --max-gain: each is drawn with an exclusive upper bound one above it.
_DRAW_MAX = 2**63 - 1

# The flags one sweep mode reads, by their parsed names.  Each is None when
# not given, so that the other mode refuses it: the Gaussian ranges, as the
# `SweepConfig` fields whose defaults then apply, and the --det sweep's
# largest M and gain, with their defaults.
_GAUSS_RANGES = {"hmin": "h_min", "hmax": "h_max", "pmin": "p_min", "pmax": "p_max"}
_DET_DEFAULTS = {"max_pairs": 3, "max_gain": 6}


def cmd_sweep(args) -> int:
    other, mode = (_GAUSS_RANGES, "gaussian") if args.det else (_DET_DEFAULTS, "--det")
    for dest in other:
        if getattr(args, dest) is not None:
            raise InputError(f"--{dest.replace('_', '-')} applies to the {mode} sweep only")
    if args.det:
        for dest, default in _DET_DEFAULTS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        if args.max_pairs < 1:
            raise InputError(f"--max-pairs must be at least 1, got {args.max_pairs}")
        if args.max_gain < 0:
            raise InputError(f"--max-gain must be non-negative, got {args.max_gain}")
        for flag, value in (("--max-pairs", args.max_pairs), ("--max-gain", args.max_gain)):
            if value > _DRAW_MAX:
                raise InputError(f"{flag} must be at most 2**63 - 1 (an int64 draw), got {value}")
        if args.trials < 0:
            raise InputError(f"--trials must be non-negative, got {args.trials}")
        _check_seed(args.seed)
    else:
        given = {field: getattr(args, dest) for dest, field in _GAUSS_RANGES.items()}
        cfg = SweepConfig(args.trials, args.seed, **{field: v for field, v in given.items() if v is not None})
        _check_spool_room(cfg)
    # Rows are spooled as they are made and copied out only once the sweep
    # has succeeded: a sweep that fails leaves no partial CSV.
    with _open_out(args.out) as out, tempfile.SpooledTemporaryFile(_SPOOL_CHARS, "w+b") as spool:
        try:
            summary, passed = _det_sweep(args, spool) if args.det else _gauss_sweep(cfg, spool)
        except OSError as exc:  # only the spool's temporary file does I/O here
            raise InputError(f"cannot spool the sweep's CSV: {exc.strerror or exc}") from exc
        _write_out(out, args.out, spool)
    _emit({"command": "sweep", "seed": args.seed, "trials": args.trials, **summary, "out": args.out})
    return EXIT_OK if passed else EXIT_INFEASIBLE


def _gauss_sweep(cfg: SweepConfig, spool):
    """Write the Gaussian sweep's CSV to ``spool`` block by block; return its
    summary fields and verdict, from running tallies."""
    spool.write(_GAUSS_CSV_HEADER.encode() + b"\n")
    # The largest excess and gap so far, from 0.0: plain max() is exact, as both
    # columns hold floats in [0.0, 1 + TOL], none of them -0.0 (a test pins it).
    passed, peak_excess, peak_gap = 0, 0.0, 0.0
    for c in gaussian.sweep_blocks(cfg):
        floats = [getattr(c, name) for name in _GAUSS_FLOATS]
        verdicts = ["pass" if s == "ok" else "fail" for s in c.stage]
        rows = zip(map(str, c.trial), repeat(str(cfg.seed)), verdicts, c.stage, *(map(repr, f) for f in floats))
        spool.write(("\n".join(map(",".join, rows)) + "\n").encode())
        passed += c.stage.count("ok")
        peak_excess, peak_gap = max([peak_excess, *c.max_alpha_excess]), max([peak_gap, *c.bound_gap])
        del c, floats, verdicts, rows  # released before `sweep_blocks` computes the next block
    pass_rate = passed / cfg.trials if cfg.trials else 1.0
    summary = {
        "mode": "gaussian",
        "ranges": {"h": [cfg.h_min, cfg.h_max], "power": [cfg.p_min, cfg.p_max]},
        "passed": passed,
        "pass_rate": pass_rate,
        "max_alpha_slack": peak_excess,
        "max_bound_gap": peak_gap,
    }
    return summary, pass_rate == 1.0


def _det_sweep(args, spool):
    """Write the deterministic sweep's CSV to ``spool`` trial by trial;
    return its summary fields and verdict."""
    spool.write(_DET_CSV_HEADER.encode() + b"\n")
    summary = {"mode": "deterministic", "tuples_checked": 0, "failures": 0}
    for trial in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(trial,)))
        pairs = int(rng.integers(1, args.max_pairs + 1))
        region_walk_tests(pairs)  # a walk too large is refused before its gains are drawn
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
        summary["failures"] += failures
        summary["tuples_checked"] += len(region)
        fields = [str(trial), str(args.seed), "pass" if failures == 0 else "fail", str(pairs)]
        fields += [*(";".join(map(str, g)) for g in gains.values()), str(len(region)), str(failures)]
        spool.write((",".join(fields) + "\n").encode())
    return summary, summary["failures"] == 0


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

    p = sub.add_parser("schedule", help="construct (and simulate) a deterministic schedule")
    p.add_argument("network")
    p.add_argument("--rates", required=True)
    p.add_argument("--simulate", type=int, default=0, metavar="N", help="verify N random payloads")
    p.add_argument("--chunked", action="store_true", help="contiguous per-type level chunks")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gauss-verify", help="constant-gap achievability check")
    p.add_argument("network")
    p.add_argument("--rates", required=True)

    p = sub.add_parser("sweep", help="Monte Carlo verification sweep")
    p.add_argument("--det", action="store_true", help="deterministic-network completeness sweep")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    for dest in _GAUSS_RANGES:
        p.add_argument(f"--{dest}", type=float)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.add_argument("--max-pairs", type=int, help="det mode: largest M")
    p.add_argument("--max-gain", type=int, help="det mode: largest channel gain")
    return parser


# `build_parser`'s parser, built once per process: parsing reads it and
# returns a fresh namespace, so no call sees another's arguments.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up when called, not bound into the cached parser, so a command
    # wrapped after an earlier call is the one that runs.
    command = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        return command(args)
    except (NotInRegionError, InfeasibleRatesError, RegionSizeError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LowPowerError as exc:
        print(f"side condition: {exc}", file=sys.stderr)
        return EXIT_SIDE_CONDITION
    except ValueError as exc:  # InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
