"""Smoke test of the benchmark.

Runs every workload at a tiny size, untraced and traced, and checks that each
result is correct and prints every metric BENCHMARK.json names, with its
unit.  On the traced runs it checks two properties of the layer split: the
deterministic layers read zero on gauss-sweep, and on det-desk the
membership oracle has the largest share of the time.  Last, it runs the
benchmark in a directory that holds only BENCHMARK.json and perfbench/,
where it must fail without printing a result.

    python3 perfbench/smoke.py        # from the repository root; exit 0 = pass
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BUILD_DIR = Path(".bench_build")
DET_LAYERS = ("cutset.", "scheduler.", "detnet.")


def run(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_result(done: subprocess.CompletedProcess, expected: dict) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"not correct: {done.stderr.strip()[-300:]}")
    units = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if units != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(units.items()) ^ set(expected.items()))}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
    return problems


def layer_checks(workload: str, metrics: dict) -> list[str]:
    values = {name: m["value"] for name, m in metrics.items()}
    problems = []
    if workload == "gauss-sweep":
        problems += [f"{name} = {v} on gauss-sweep" for name, v in values.items()
                     if name.startswith(DET_LAYERS) and v != 0]
    if workload == "det-desk":
        oracle = values["cutset.in_det_cutset.share"]
        problems += [f"{name} = {v} exceeds the oracle's share {oracle}"
                     for name, v in values.items()
                     if name.endswith("share") and name != "cutset.in_det_cutset.share" and v >= oracle]
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[group]}
            done = run(".", workload, trace)
            found = check_result(done, expected)
            if not found and trace:
                found = layer_checks(workload, json.loads(done.stdout.splitlines()[-1])["metrics"])
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)

    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("bare directory: the benchmark did not fail without a result")
        print(f"bare directory: exit {done.returncode}", flush=True)

    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
