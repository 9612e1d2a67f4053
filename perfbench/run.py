"""relaycap benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload det-desk --seed 1 --seconds 30 --trace 0

Workloads: gauss-sweep, det-desk (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass; their names and units are read from
BENCHMARK.json.  Standard output ends with two JSON lines: the run
metadata, then the result
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Spans, results and the determinism guard's records go to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = Path("BENCHMARK.json")
SRC = Path("src")
STATE = Path(".bench_build") / "perfbench"
# Cycles of an untraced run, each followed by a setup probe.  Fixed, so
# that a parent and a change take their fastest times over the same number
# of repeats.
CYCLES = 12
TRACED_CYCLES = 3  # untraced and traced cycles of a traced run, alternating
WORKLOAD_NAMES = ("gauss-sweep", "det-desk")

# The reference block: fixed pure-Python work of the kinds the package does
# (small ints, tuples, dicts, Fractions), run after every unit.  REF_S is
# its time on the 2-vCPU x86 virtual machine the figures were calibrated on,
# in a fast stretch.  Times are reported at that speed: each is multiplied
# by REF_S over the reference block's time in the same run.
REF_LOOPS = 1200
REF_S = 5.0e-4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time import and input generation, print it and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def reference_block() -> float:
    """Time one pass of the reference block."""
    start = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(REF_LOOPS):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i * i % 11
        if i % 16 == 0:
            acc += Fraction(i % 5, 1 + i % 9)
    return time.perf_counter() - start


def bench_digest() -> str:
    """Identifies the benchmark's own code, so guard records from another
    version of it are not compared."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def source_identity() -> dict:
    """Git sha when the working directory is a git checkout's root, and a
    digest of src/ either way."""
    sha = None
    # the ceiling keeps git from searching the directories above this one
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().resolve().parent)}
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == Path.cwd().resolve():
            sha = lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def probe_setup(args) -> float:
    """setup_s of a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Cycle:
    """One pass over every unit, in order, with the time of the reference
    block run after each unit.  ``tallies`` holds the counts a traced cycle
    reads from its spans."""

    results: list
    ref_s: list
    tallies: Counter = field(default_factory=Counter)

    def op_s(self) -> list:
        return [t for r in self.results for t in r.op_s]

    def unit_s(self) -> list[float]:
        """Time inside calls into the package, per unit."""
        return [sum(r.op_s) + sum(r.extra_s) for r in self.results]

    def total_s(self) -> float:
        return sum(self.unit_s())

    def counts(self) -> tuple[int, int]:
        """Ops attempted and failed; an op fails at most once, however many
        checks it fails."""
        return (sum(r.attempted for r in self.results),
                sum(min(r.failed, r.attempted) for r in self.results))

    def composition(self) -> Counter:
        total = Counter(self.tallies)
        for r in self.results:
            total.update(r.composition)
        return total


def run_cycle(wl, units: list, tracer=None) -> Cycle:
    import workloads

    results, ref_s = [], []
    for k, unit in enumerate(units):
        if tracer is not None:
            tracer.unit = k
        results.append(wl.run_unit(unit, tracer or workloads.NULL_TRACER))
        ref_s.append(reference_block())
    return Cycle(results, ref_s)


def fastest_units_s(cycles: list[Cycle]) -> float:
    """Each unit's fastest time over the cycles, summed."""
    return sum(map(min, zip(*(cycle.unit_s() for cycle in cycles))))


def host_scale(cycles: list[Cycle]) -> float:
    """REF_S over the reference block's time, taken the way the units' times
    are: its fastest time after each unit, over the cycles, then the median
    over the units."""
    return REF_S / statistics.median(map(min, zip(*(cycle.ref_s for cycle in cycles))))


def guard(cycles: list[Cycle], path: Path, digest: str) -> list[str]:
    """Determinism guard: every cycle of a seed must have the same
    composition, in this run and in every earlier run recorded at ``path``."""
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    if doc.get("bench") != digest:
        doc = {"bench": digest, "composition": {}}
    ref = doc["composition"]
    problems = []
    for n, cycle in enumerate(cycles):
        for key, value in cycle.composition().items():
            if ref.setdefault(key, value) != value:
                problems.append(f"cycle {n}: {key} is {value}, was {ref[key]} before")
        if len(cycle.op_s()) != len(cycles[0].op_s()):
            problems.append(f"cycle {n}: {len(cycle.op_s())} ops timed, "
                            f"cycle 0 timed {len(cycles[0].op_s())}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True))
    os.replace(tmp, path)
    return problems


def untraced_run(wl, units: list, args):
    """CYCLES whole cycles, with a setup probe after each.  Other tenants of
    the virtual machine slow its cores by up to 1.8x, for stretches from
    under a second to many minutes.  Within a run that only ever adds time,
    so each unit (a whole sweep call, or a network with all its tuples) is
    charged its fastest time over the cycles, each op likewise, and setup_s
    is the fastest probe.  A slow stretch as long as the run slows the
    reference block too, and the host scale takes it out."""
    cycles, setup_samples = [], []
    for n in range(CYCLES):
        cycles.append(run_cycle(wl, units))
        if n == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_samples.append(probe_setup(args))

    scale = host_scale(cycles)
    per_op = [cycle.op_s() for cycle in cycles]
    latencies = sorted(map(min, zip(*per_op)))
    unit_s = fastest_units_s(cycles)
    attempted, failed = map(sum, zip(*(cycle.counts() for cycle in cycles)))
    verdict_pass = sum(r.verdict_pass for cycle in cycles for r in cycle.results)
    ok_frac = (attempted - failed) / attempted
    raw = {
        "ops_per_s": cycles[0].counts()[0] * ok_frac / unit_s,
        "op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "setup_s": min(setup_samples),
    }
    values = {
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_p99_ms": raw["op_p99_ms"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": ok_frac,
        "verdict_pass_frac": verdict_pass / attempted,
    }
    extra = {
        "host_scale": scale,
        "unscaled": raw,
        "setup_samples_s": setup_samples,
        "cycle_s": [c.total_s() for c in cycles],
        "units_fastest_s": unit_s,
        "op_samples": len(latencies),
        "samples_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
    }
    return cycles, values, extra


def traced_run(wl, units: list, args):
    """Untraced and traced cycles alternate, TRACED_CYCLES of each.  The
    per-layer metrics come from the spans of the first traced cycle;
    trace.overhead_frac compares the units' fastest times on each side."""
    import tracing

    plain, traced, problems = [], [], []
    tracer = tracing.Tracer()
    for n in range(TRACED_CYCLES):
        plain.append(run_cycle(wl, units))
        missing = tracer.install()
        if n == 0:
            problems += [f"cannot trace missing attribute {a}" for a in missing]
        kept = len(tracer.spans)
        try:
            cycle = run_cycle(wl, units, tracer)
        finally:
            problems += [f"attribute {a} not restored after tracing" for a in tracer.restore()]
        cycle.tallies = tracing.tallies(tracer.spans[kept:])
        if n == 0:
            totals = cycle.composition()
            timed_s = cycle.total_s()
        else:
            del tracer.spans[kept:]
        traced.append(cycle)
    tracer.write(STATE / f"spans-{args.workload}-{args.seed}.jsonl")
    overhead = (fastest_units_s(traced) * host_scale(traced)
                / (fastest_units_s(plain) * host_scale(plain)) - 1.0)
    values = tracing.layer_metrics(tracer.spans, totals, timed_s, overhead_frac=overhead)
    return plain + traced, values, {"spans": len(tracer.spans)}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaycap" / "__init__.py").is_file() or not SPEC.is_file():
        print("error: src/relaycap or BENCHMARK.json not found; run from the repository root",
              file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import workloads  # imports relaycap and numpy

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, STATE)
    units = wl.units()
    setup_s = time.perf_counter() - start
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads(SPEC.read_text())
    if args.trace:
        cycles, values, extra, problems = traced_run(wl, units, args)
    else:
        cycles, values, extra = untraced_run(wl, units, args)
        problems = []
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}

    problems += guard(
        cycles,
        STATE / f"composition-{args.workload}-seed{args.seed}-{args.seconds}s.json",
        bench_digest(),
    )
    ran = [r for cycle in cycles for r in cycle.results]
    failed = sum(cycle.counts()[1] for cycle in cycles)
    errors = [e for r in ran for e in r.errors] + problems
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **source_identity(),
        "cycles": len(cycles),
        "units": len(units),
        "composition": cycles[0].composition(),
        **extra,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(cycle.counts()[0] for cycle in cycles),
        "failed": failed,
        "metrics": metrics,
    }
    with (STATE / "results.jsonl").open("a") as log:
        log.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
