import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import guards
from relaycap import cli, hops, scheduler
from relaycap.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SIDE_CONDITION,
    InputError,
    load_network,
    main,
    parse_fraction,
)
from relaycap.cutset import RegionSizeError, in_det_cutset
from relaycap.detnet import DetNetwork, FullDuplex, HalfDuplex
from relaycap.gaussian import GaussNetwork, SweepColumns, SweepConfig, gauss_cutset, run_trial, verify_constant_gap
from relaycap.scheduler import SimulationResult

REF_NET = {
    "kind": "deterministic",
    "pairs": 2,
    "n_ar": [3, 2],
    "n_br": [2, 1],
    "n_ra": [2, 1],
    "n_rb": [3, 2],
}

GAUSS = {
    "kind": "gaussian",
    "h_ar": [16.0, 16.0],
    "h_br": [16.0, 16.0],
    "h_ra": [16.0, 16.0],
    "h_rb": [16.0, 16.0],
    "power": 1.0,
}


@pytest.fixture
def det_file(tmp_path):
    path = tmp_path / "det.json"
    path.write_text(json.dumps(REF_NET))
    return str(path)


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(GAUSS))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, doc, out.err


def test_parse_fraction_forms():
    assert parse_fraction("3") == 3
    assert parse_fraction("1/2") == Fraction(1, 2)
    for bad in ("0.5", "-1", "1/0", "a/b", ""):
        with pytest.raises(InputError):
            parse_fraction(bad)


def test_load_deterministic(tmp_path):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({**REF_NET, "duplex": "half", "delta": "1/3"}))
    net, mode, digest = load_network(str(path))
    assert isinstance(net, DetNetwork) and isinstance(mode, HalfDuplex)
    assert mode.delta == Fraction(1, 3)
    assert len(digest) == 64


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({**REF_NET, "mystery": 1}))
    with pytest.raises(InputError):
        load_network(str(path))


def test_load_rejects_decimal_delta(tmp_path):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({**REF_NET, "duplex": "half", "delta": "0.5"}))
    with pytest.raises(InputError):
        load_network(str(path))


def test_load_gaussian(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GAUSS))
    net, mode, _ = load_network(str(path))
    assert isinstance(net, GaussNetwork) and mode is None


def test_region_member(det_file, capsys):
    code, doc, _ = run(capsys, "region", det_file, "--rates", "2,1,1,1")
    assert code == EXIT_OK
    assert doc["member"] is True and doc["violated_cuts"] == []
    assert doc["input_digest"]


def test_region_non_member_lists_cuts(det_file, capsys):
    code, doc, _ = run(capsys, "region", det_file, "--rates", "4,0,0,0")
    assert code == EXIT_INFEASIBLE
    assert any(v["cut"] == "{A1}->relay" for v in doc["violated_cuts"])


def test_region_non_member_past_the_listing_budget(tmp_path, capsys):
    # Its 3^14 - 1 cuts are too many to list: refused, not walked.
    path = tmp_path / "wide.json"
    gains = {f: [0] * 14 for f in ("n_ar", "n_br", "n_ra", "n_rb")}
    path.write_text(json.dumps({"kind": "deterministic", "pairs": 14, **gains}))
    start = time.perf_counter()
    code, doc, err = run(capsys, "region", str(path), "--rates", ",".join(["1"] + ["0"] * 27))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INFEASIBLE and doc is None
    assert err.startswith("infeasible: the 3^14 - 1 cuts to list exceed work budget")


def test_region_bad_rate_arity(det_file, capsys):
    code, _, err = run(capsys, "region", det_file, "--rates", "1,1")
    assert code == EXIT_INPUT and "expected 4 rate components, got 2" in err


def test_region_decimal_rate_rejected(det_file, capsys):
    code, _, _ = run(capsys, "region", det_file, "--rates", "0.5,0,0,0")
    assert code == EXIT_INPUT


def test_region_gaussian(gauss_file, capsys):
    code, doc, _ = run(capsys, "region", gauss_file, "--rates", "2,2,2,2", "--restricted")
    assert code == EXIT_OK and doc["member"]
    code, doc, _ = run(capsys, "region", gauss_file, "--rates", "9,9,9,9")
    assert code == EXIT_INFEASIBLE and doc["violated"]


def test_schedule_with_simulation(det_file, capsys):
    code, doc, _ = run(capsys, "schedule", det_file, "--rates", "2,1,1,1", "--simulate", "100")
    assert code == EXIT_OK
    assert doc["simulate"]["decoded_exactly"] == 100
    assert doc["bit_budgets"] == {"A1": 2, "B1": 1, "A2": 1, "B2": 1}
    assert len(doc["assignments"]) == 3


def test_schedule_without_simulation(det_file, capsys):
    code, doc, _ = run(capsys, "schedule", det_file, "--rates", "2,1,1,1")
    assert code == EXIT_OK and "simulate" not in doc
    _, simulated, _ = run(capsys, "schedule", det_file, "--rates", "2,1,1,1", "--simulate", "1")
    assert doc["assignments"] == simulated["assignments"]


def test_schedule_chunked(det_file, capsys):
    code, doc, _ = run(capsys, "schedule", det_file, "--rates", "2,1,1,1", "--chunked", "--simulate", "10")
    assert code == EXIT_OK and doc["simulate"]["decoded_exactly"] == 10


def test_schedule_fractional(tmp_path, capsys):
    path = tmp_path / "m1.json"
    path.write_text(
        json.dumps({"kind": "deterministic", "pairs": 1, "n_ar": [1], "n_br": [1], "n_ra": [1], "n_rb": [1]})
    )
    code, doc, _ = run(capsys, "schedule", str(path), "--rates", "1/2,1/2", "--simulate", "5")
    assert code == EXIT_OK and doc["slots"] == 2


def test_schedule_half_duplex_labels(tmp_path, capsys):
    path = tmp_path / "hd.json"
    path.write_text(
        json.dumps(
            {
                "kind": "deterministic",
                "pairs": 1,
                "n_ar": [2],
                "n_br": [2],
                "n_ra": [2],
                "n_rb": [2],
                "duplex": "half",
                "delta": "1/2",
            }
        )
    )
    code, doc, _ = run(capsys, "schedule", str(path), "--rates", "1,1", "--simulate", "5")
    assert code == EXIT_OK
    assert doc["slots"] == 2 and doc["listen_slots"] == 1
    assert all(a["uplink_slot"] < 1 <= a["downlink_slot"] for a in doc["assignments"])


def test_schedule_non_member(det_file, capsys):
    code, _, err = run(capsys, "schedule", det_file, "--rates", "4,0,0,0")
    assert code == EXIT_INFEASIBLE and "violated" in err


def test_gauss_verify_achievable(gauss_file, capsys):
    code, doc, _ = run(capsys, "gauss-verify", gauss_file, "--rates", "4,4,4,4")
    assert code == EXIT_OK
    assert doc["achievable"] and doc["stage"] == "ok"
    assert doc["uplink"]["case"] in ("I", "II", "III")
    assert all(c["slack"] >= -1e-9 for c in doc["uplink"]["checks"])


def test_gauss_verify_hypothesis(gauss_file, capsys):
    code, _, err = run(capsys, "gauss-verify", gauss_file, "--rates", "1,4,4,4")
    assert code == EXIT_INFEASIBLE and "constant-gap hypothesis" in err


def test_gauss_verify_low_power(tmp_path, capsys):
    path = tmp_path / "low.json"
    path.write_text(json.dumps({**GAUSS, "h_ar": [0.7, 0.7], "h_br": [0.7, 0.7], "h_ra": [0.7, 0.7], "h_rb": [0.7, 0.7]}))
    code, _, err = run(capsys, "gauss-verify", str(path), "--rates", "4,4,4,4")
    assert code == EXIT_SIDE_CONDITION and "side condition" in err


def test_sweep_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--trials", "40", "--seed", "5", "--out", str(out1)]) == EXIT_OK
    capsys.readouterr()
    assert main(["sweep", "--trials", "40", "--seed", "5", "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header, *rows = out1.read_text().splitlines()
    assert header.startswith("trial,seed,verdict,stage,max_alpha_slack,bound_gap,")
    # Each row is the trial run on its own: trials taken from the last index
    # back give the same rows.
    cfg = SweepConfig(trials=40, seed=5)
    backwards = [run_trial(cfg, i) for i in reversed(range(cfg.trials))]
    expected = []
    for c in reversed(backwards):
        r = SweepColumns._make(x for (x,) in c)  # the trial's one entry per field
        cells = (
            r.max_alpha_excess, r.bound_gap, r.h_a1r, r.h_b1r, r.h_a2r, r.h_b2r, r.h_ra1, r.h_rb1, r.h_ra2, r.h_rb2,
            r.power,
        )
        expected.append(",".join(
            [str(r.trial), "5", "pass" if r.stage == "ok" else "fail", r.stage, *map(repr, cells)]
        ))
    assert rows == expected


def test_sweep_zero_trials_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--trials", "0", "--out", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["passed"], doc["pass_rate"]) == (0, 1.0)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial,")


def test_sweep_det_counts_a_failed_simulation(tmp_path, capsys, monkeypatch):
    # The 2nd simulation reports a wrong decode: trial 0 fails with one
    # failure, trial 1 still passes, and the sweep exits infeasible.
    real = scheduler.simulate_schedule
    calls = []

    def simulate(sched, msgs):
        calls.append(sched)
        return SimulationResult(False, {}) if len(calls) == 2 else real(sched, msgs)

    monkeypatch.setattr(scheduler, "simulate_schedule", simulate)
    out = tmp_path / "det.csv"
    code, doc, _ = run(capsys, "sweep", "--det", "--trials", "2", "--seed", "3", "--out", str(out))
    assert code == EXIT_INFEASIBLE
    _, first, second = out.read_text().splitlines()
    assert first == "0,3,fail,2,3;0,2;1,6;0,4;3,12,1"
    assert second.split(",")[:3] == ["1", "3", "pass"]
    assert doc["failures"] == 1 and doc["tuples_checked"] == 28


def test_sweep_det_mode(tmp_path, capsys):
    out = tmp_path / "det.csv"
    code = main(["sweep", "--det", "--trials", "8", "--seed", "2", "--out", str(out)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert doc["failures"] == 0 and doc["tuples_checked"] > 0
    assert out.read_text().splitlines()[0] == "trial,seed,verdict,pairs,n_ar,n_br,n_ra,n_rb,tuples_checked,failures"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_refuses_unwritable_out_before_sweeping(tmp_path, capsys, monkeypatch, mode):
    # Once the whole sweep ran, then a FileNotFoundError traceback.
    path = tmp_path / "missing" / "x.csv"
    monkeypatch.setattr(cli.gaussian, "sweep_blocks", None)  # any sweep work fails
    monkeypatch.setattr(cli, "enumerate_integral_region", None)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_write_error_is_an_input_error(tmp_path, capsys, monkeypatch, mode):
    # The directory goes away while the sweep runs.
    path = tmp_path / "gone" / "x.csv"
    path.parent.mkdir()
    for owner, name in ((cli.gaussian, "sweep_blocks"), (cli, "enumerate_integral_region")):
        def removing(*args, sweep=getattr(owner, name)):
            path.unlink(missing_ok=True)
            path.parent.rmdir()
            return sweep(*args)

        monkeypatch.setattr(owner, name, removing)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_opens_out_once_and_replaces_a_longer_file_exactly(tmp_path, monkeypatch, mode):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(["sweep", *mode, "--trials", "3", "--seed", "4", "--out", str(fresh)]) == EXIT_OK
    reused.write_text("x" * 100_000 + "\n")
    opened = []

    def counting(path, *args):
        opened.append(path)
        return open(path, *args)

    monkeypatch.setattr(cli, "open", counting, raising=False)
    assert main(["sweep", *mode, "--trials", "3", "--seed", "4", "--out", str(reused)]) == EXIT_OK
    assert opened == [str(reused)]
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_a_failed_sweep_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, mode):
    # The file is truncated only once the sweep has succeeded.
    path = tmp_path / "kept.csv"
    path.write_text("earlier results\n")

    def failing(*args):
        raise RegionSizeError("too large")

    monkeypatch.setattr(cli.gaussian, "sweep_blocks", failing)
    monkeypatch.setattr(cli, "enumerate_integral_region", failing)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert code == EXIT_INFEASIBLE and doc is None and err == "infeasible: too large\n"
    assert path.read_text() == "earlier results\n"


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_sweep_failing_in_a_later_block_writes_no_csv(tmp_path, capsys, monkeypatch, to_file):
    # Blocks of 5 trials: trial 23 runs out of draws in the fifth block, once
    # the first four blocks' rows were spooled.  Not one CSV byte reaches
    # --out, which keeps its old contents, or stdout.
    monkeypatch.setattr(cli.gaussian, "SWEEP_BLOCK", 5)
    spooled, sweep_blocks = [], cli.gaussian.sweep_blocks

    def recorded(cfg):
        for block in sweep_blocks(cfg):
            spooled.append(block.trial)
            yield block

    monkeypatch.setattr(cli.gaussian, "sweep_blocks", recorded)
    path = tmp_path / "kept.csv"
    path.write_text("earlier results\n")
    argv = ["sweep", "--trials", "40", "--seed", "7", "--hmax", "4", "--pmax", "2"]
    code = main([*argv, "--out", str(path)] if to_file else argv)
    out, err = capsys.readouterr()
    assert spooled == [tuple(range(start, start + 5)) for start in range(0, 20, 5)]
    assert code == EXIT_INPUT and out == "" and err.startswith("error: trial 23: none of 1000 sampled networks")
    assert path.read_text() == "earlier results\n"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_a_spool_that_cannot_grow_is_an_input_error(tmp_path, capsys, monkeypatch, mode):
    # Past `_SPOOL_CHARS` the rows move to a temporary file; a full disk
    # there is refused like one at --out, which keeps its old contents.
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_SPOOL_CHARS", 10)
    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    path = tmp_path / "kept.csv"
    path.write_text("earlier results\n")
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "3", "--out", str(path))
    assert (code, doc) == (EXIT_INPUT, None)
    assert err == "error: cannot spool the sweep's CSV: No space left on device\n"
    assert path.read_text() == "earlier results\n"


def test_a_gaussian_sweep_the_temporary_directory_cannot_hold_is_refused_up_front(tmp_path, capsys, monkeypatch):
    # Past `_SPOOL_CHARS` the spool moves to the temporary directory.  A sweep
    # whose longest possible CSV would not fit there is refused before its
    # first block, and --out is left as it was; one whose CSV stays in memory
    # reads no free space at all.
    free, asked = [0], []

    def disk_usage(path):
        asked.append(path)
        return SimpleNamespace(free=free[0])

    monkeypatch.setattr(shutil, "disk_usage", disk_usage)
    assert run(capsys, "sweep", "--trials", "150", "--seed", str(2**32 - 1), "--out", str(tmp_path / "a.csv"))[0] == EXIT_OK
    assert asked == []

    kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
    kept.write_text("earlier results\n")
    with monkeypatch.context() as m:
        m.setattr(cli.gaussian, "sweep_blocks", None)  # any sweep work fails
        for path in (kept, missing):
            code, doc, err = run(capsys, "sweep", "--trials", "300", "--seed", "7", "--out", str(path))
            assert (code, doc, asked[-1]) == (EXIT_INPUT, None, tempfile.gettempdir())
            prefix, _, rest = err.partition(" bytes, and ")
            assert prefix.startswith("error: cannot spool the sweep's CSV: it may take ")
            assert rest == f"{tempfile.gettempdir()} has 0 free\n"
    assert kept.read_text() == "earlier results\n" and not missing.exists()

    # The bound holds the sweep's real CSV, which fits at exactly that much free space and not one byte less.
    longest = int(prefix.rpartition(" ")[2])
    free[0] = longest
    assert run(capsys, "sweep", "--trials", "300", "--seed", "7", "--out", str(kept))[0] == EXIT_OK
    assert len(kept.read_bytes()) <= longest
    free[0] = longest - 1
    assert run(capsys, "sweep", "--trials", "300", "--seed", "7", "--out", str(missing))[0] == EXIT_INPUT
    assert not missing.exists()


_LONGEST_FLOAT = -2.2250738585072014e-308  # 24 characters, the longest float repr


def test_the_spool_bound_holds_a_failing_row_of_every_stage(tmp_path, capsys, monkeypatch):
    # `_GAUSS_ROW_CHARS` takes "downlink-allocation" as the longest stage.  A
    # failing row of any stage the cascade can write, at the longest floats,
    # fits in it less the row's trial and seed; and a sweep whose rows all
    # fail so fits the bound `_check_spool_room` refuses past.
    stages = ["ok", *(f"{hop}-{kind}" for hop in hops._HOPS for kind in ("allocation", "rate-check"))]
    for stage in stages:
        row = ",," + ",".join(["fail", stage, *[repr(_LONGEST_FLOAT)] * 11]) + "\n"
        assert len(row) <= cli._GAUSS_ROW_CHARS, stage

    floats = SweepColumns._fields[1:9] + ("power", "max_alpha_excess", "bound_gap")
    sweep_blocks = cli.gaussian.sweep_blocks

    def failing(cfg):
        for block in sweep_blocks(cfg):
            n = len(block.trial)
            worst = {name: (_LONGEST_FLOAT,) * n for name in floats}
            yield block._replace(stage=(max(stages, key=len),) * n, **worst)

    trials, seed = 9, 2**64
    with monkeypatch.context() as m, pytest.raises(InputError) as refused:
        m.setattr(cli, "_SPOOL_CHARS", 0)  # the bound is checked only past it
        m.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=0))
        cli._check_spool_room(SweepConfig(trials, seed))
    bound = int(str(refused.value).partition(" bytes")[0].rpartition(" ")[2])
    monkeypatch.setattr(cli.gaussian, "sweep_blocks", failing)
    path = tmp_path / "x.csv"
    assert run(capsys, "sweep", "--trials", str(trials), "--seed", str(seed), "--out", str(path))[0] == EXIT_INFEASIBLE
    rows = path.read_text().splitlines()
    assert len(rows) == trials + 1 and all(",fail,downlink-allocation," in row for row in rows[1:])
    assert len(path.read_bytes()) <= bound


def _traced_sweep_peak(capsys, path, trials: int) -> int:
    """The tracemalloc peak, in bytes, of an in-process `sweep --out path`."""
    tracemalloc.start()
    try:
        assert main(["sweep", "--trials", str(trials), "--out", str(path)]) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()


def test_sweep_memory_is_flat_in_the_trial_count(tmp_path, capsys, monkeypatch):
    # Each block's rows go to a spool that moves to a temporary file past
    # `_SPOOL_CHARS`, and a block's columns live only until the next block
    # is done: 4096 trials peak where 1024 do, both many blocks long.  Once
    # every trial's columns and the whole CSV were held, and the traced peak
    # grew from 0.94 MiB to 3.61 MiB.
    monkeypatch.setattr(cli.gaussian, "SWEEP_BLOCK", 256)
    path = tmp_path / "x.csv"
    _traced_sweep_peak(capsys, path, 1)  # once-per-process caches are not a sweep's memory
    small = _traced_sweep_peak(capsys, path, 1024)
    assert path.stat().st_size > cli._SPOOL_CHARS
    assert _traced_sweep_peak(capsys, path, 4096) - small < 256 * 1024


def test_a_sweep_holds_one_block_at_a_time(tmp_path, capsys, monkeypatch):
    # A block's columns and rows are released before `sweep_blocks` computes
    # the next block, so two blocks peak within 0.1 MiB of one.  Once the
    # loop's variables kept the previous block alive: 2.34 MiB for two
    # 1024-trial blocks against 1.72 MiB for one.
    monkeypatch.setattr(cli.gaussian, "SWEEP_BLOCK", 1024)
    path = tmp_path / "x.csv"
    _traced_sweep_peak(capsys, path, 1)
    one = _traced_sweep_peak(capsys, path, 1024)
    assert _traced_sweep_peak(capsys, path, 2048) - one < 0.1 * 2**20


def test_the_sweep_summary_is_the_librarys(tmp_path, capsys, monkeypatch):
    # `sweep` folds its summary from running tallies, block by block, and
    # `monte_carlo_gap` joins the blocks' columns: over four blocks, the
    # summary gives the joined columns' figures, bit for bit.
    monkeypatch.setattr(cli.gaussian, "SWEEP_BLOCK", 256)
    code, doc, _ = run(capsys, "sweep", "--trials", "1000", "--seed", "7", "--out", str(tmp_path / "x.csv"))
    c = cli.gaussian.monte_carlo_gap(SweepConfig(1000, 7))
    passed = c.stage.count("ok")
    got = (doc["passed"], doc["pass_rate"], doc["max_alpha_slack"], doc["max_bound_gap"])
    want = (passed, passed / len(c.stage), max(c.max_alpha_excess), max(c.bound_gap))
    assert code == EXIT_OK and (got, repr(got)) == (want, repr(want))


@pytest.mark.parametrize(
    "mode,flag,owner",
    [
        *(pytest.param([], flag, "--det", id=f"gaussian{flag}") for flag in ("--max-pairs", "--max-gain")),
        *(pytest.param(["--det"], flag, "gaussian", id=f"det{flag}") for flag in ("--hmin", "--hmax", "--pmin", "--pmax")),
    ],
)
def test_a_sweep_refuses_the_other_modes_flags(capsys, mode, flag, owner):
    # Once ignored or checked in vain: `sweep --det --hmin 5` exited 0, and
    # the Gaussian sweep range-checked --max-pairs and --max-gain, which it
    # never reads.  A value the owning mode would take is refused all the same.
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "2", flag, "5")
    assert (code, doc) == (EXIT_INPUT, None)
    assert err == f"error: {flag} applies to the {owner} sweep only\n"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_without_out_writes_its_csv_then_its_summary_to_stdout(tmp_path, capsys, mode):
    path = tmp_path / "x.csv"
    argv = ["sweep", *mode, "--trials", "3", "--seed", "4"]
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    summary = {**json.loads(capsys.readouterr().out), "out": None}
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == path.read_text() + json.dumps(summary, sort_keys=True, indent=2) + "\n"


def test_a_gaussian_sweep_never_imports_numpy_random():
    # numpy 2 loads numpy.random lazily, and loading it costs a process about
    # 10 ms and 1.7 MB: the sweep streams mix SeedSequence's pool themselves.
    script = (
        "import sys\n"
        "from relaycap.cli import main\n"
        "assert main(['sweep', '--trials', '3']) == 0\n"
        "assert 'numpy.random' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("trial,seed,verdict,")


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_refuses_an_out_file_replaced_while_it_ran(tmp_path, capsys, monkeypatch, mode):
    # Once refused as "No such file or directory", with a file at the path.
    path, other = tmp_path / "x.csv", tmp_path / "other.csv"
    for name in ("_gauss_sweep", "_det_sweep"):
        def replacing(*args, sweep=getattr(cli, name)):
            other.write_text("the replacer's rows\n")
            other.replace(path)
            return sweep(*args)

        monkeypatch.setattr(cli, name, replacing)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert (code, doc) == (EXIT_INPUT, None)
    assert err == f"error: cannot write {path}: the file was replaced while the sweep ran\n"
    assert path.read_text() == "the replacer's rows\n"


def test_a_command_is_looked_up_when_main_runs(capsys, monkeypatch):
    # Once bound into the cached parser: a command wrapped after the first
    # call was never run.
    assert main(["sweep", "--trials", "0"]) == EXIT_OK
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.trials) or 7)
    assert main(["sweep", "--trials", "5"]) == 7 and seen == [5]


def _calls(source: str) -> list[tuple[str | None, str]]:
    """(enclosing def or class, name) of each call of `_open_out`,
    `_write_out` or `_check_seed`, bare or as an attribute."""
    return [
        (guards.innermost(scopes), guards.called(node))
        for node, scopes, _ in guards.walk(source)
        if guards.called(node) in ("_open_out", "_write_out", "_check_seed")
    ]


def test_one_sweep_front_end():
    # Both sweep modes open --out, write their CSV and check a seed in
    # `cmd_sweep`; the row builders only build rows.  `schedule` is the
    # other command that seeds a numpy generator.
    assert _calls(Path(cli.__file__).read_text()) == [
        ("cmd_schedule", "_check_seed"),
        ("cmd_sweep", "_check_seed"), ("cmd_sweep", "_open_out"), ("cmd_sweep", "_write_out"),
    ]
    planted = (
        "def _det_sweep(args):\n"
        "    with cli._open_out(args.out) as out:\n"
        "        _write_out(out, args.out, _DET_CSV_HEADER)"
    )
    assert _calls(planted) == [("_det_sweep", "_open_out"), ("_det_sweep", "_write_out")]


def test_main_leaves_no_parsed_state_between_calls(tmp_path, capsys):
    # The parser is built once per process; a Gaussian sweep run after a
    # --det sweep is Gaussian and writes the bytes of a run on a fresh parser.
    fresh, det, reused = (tmp_path / name for name in ("fresh.csv", "det.csv", "reused.csv"))
    cli._parser.cache_clear()
    assert main(["sweep", "--trials", "30", "--seed", "4", "--out", str(fresh)]) == EXIT_OK
    fresh_summary = capsys.readouterr().out
    assert main(["sweep", "--det", "--trials", "3", "--seed", "4", "--out", str(det)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["mode"] == "deterministic"
    assert main(["sweep", "--trials", "30", "--seed", "4", "--out", str(reused)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "gaussian"
    assert {**summary, "out": None} == {**json.loads(fresh_summary), "out": None}
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.read_text().startswith("trial,seed,verdict,stage,max_alpha_slack,bound_gap,")


def test_region_non_member_report_pinned(tmp_path, capsys):
    # Captured from the brute-force oracle before membership moved to the
    # integer threshold test: same cuts, order, sums and bounds.
    path = tmp_path / "hd.json"
    path.write_text(json.dumps({
        "kind": "deterministic", "pairs": 3, "n_ar": [3, 2, 4], "n_br": [2, 1, 0],
        "n_ra": [2, 1, 3], "n_rb": [3, 2, 1], "duplex": "half", "delta": "2/5",
    }))
    code = main(["region", str(path), "--rates", "1,1/2,1/3,1/2,1,0"])
    expected = (Path(__file__).parent / "data" / "region_non_member.json").read_text()
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().out == expected


PINNED_SCHEDULES = {
    "schedule_fractional": (
        {"kind": "deterministic", "pairs": 3, "n_ar": [3, 2, 4], "n_br": [2, 1, 3],
         "n_ra": [2, 1, 3], "n_rb": [3, 2, 1]},
        "1/2,1/3,1/2,1/4,2/3,1/3",
    ),
    "schedule_integral": (REF_NET, "2,1,1,1"),
    "schedule_half_duplex": (
        {"kind": "deterministic", "pairs": 2, "n_ar": [3, 2], "n_br": [2, 1],
         "n_ra": [2, 1], "n_rb": [3, 2], "duplex": "half", "delta": "2/5"},
        "1/2,1/5,1/5,1/5",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
def test_schedule_report_pinned(tmp_path, capsys, name):
    # Captured before frames became ints and the two time-expansion bodies
    # merged (the integral report before integral tuples went through time
    # expansion with Q = 1): same slots, levels, budgets and decoded payloads.
    network, rates = PINNED_SCHEDULES[name]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network))
    code = main(["schedule", str(path), "--rates", rates, "--simulate", "5"])
    expected = (Path(__file__).parent / "data" / f"{name}.json").read_text()
    assert code == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_ar", [3.9, 2]),
        ("n_ar", [3.0, 2]),
        ("n_br", [True, 1]),
        ("n_ra", ["2", 1]),
        ("pairs", 2.0),
        ("pairs", "2"),
        ("pairs", True),
    ],
)
def test_load_rejects_non_integer_gains(tmp_path, capsys, field, value):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({**REF_NET, field: value}))
    with pytest.raises(InputError):
        load_network(str(path))
    code, doc, _ = run(capsys, "region", str(path), "--rates", "2,1,1,1")
    assert code == EXIT_INPUT and doc is None


def test_schedule_time_expansion_over_budget(det_file, capsys):
    rates = ",".join(f"1/{p}" for p in (13, 17, 19, 29))
    code, _, err = run(capsys, "schedule", det_file, "--rates", rates)
    assert code == EXIT_INFEASIBLE and "budget" in err


def test_schedule_integral_over_budget(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "deterministic", "pairs": 1, "n_ar": [200000],
                                "n_br": [200000], "n_ra": [200000], "n_rb": [200000]}))
    start = time.perf_counter()
    code, doc, err = run(capsys, "schedule", str(path), "--rates", "200000,0")
    assert code == EXIT_INFEASIBLE and doc is None and "step budget" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["schedule", "{det}", "--rates", "2,1,1,1", "--simulate", "-3"], "--simulate"),
        (["sweep", "--det", "--trials", "-4"], "--trials"),
        (["region", "{det}", "--rates", "2,1,1,1", "--restricted"], "--restricted"),
        # Once numpy's "low >= high" and "high <= 0", and accepted with --trials 0.
        (["sweep", "--det", "--max-pairs", "0"], "--max-pairs"),
        (["sweep", "--det", "--max-gain", "-1"], "--max-gain"),
        (["sweep", "--det", "--trials", "0", "--max-pairs", "0"], "--max-pairs"),
        (["sweep", "--det", "--trials", "0", "--max-gain", "-1"], "--max-gain"),
        # Once numpy's "expected non-negative integer".
        (["sweep", "--trials", "2", "--seed", "-1"], "seed must be a non-negative integer"),
        # A trial index is one 32-bit spawn-key word.
        (["sweep", "--trials", str(2**32 + 1)], "trials must be at most 2**32"),
        (["sweep", "--trials", "2", "--hmin", "0"], "h_min must be positive"),
        # Once numpy's bare "expected non-negative integer".
        (["sweep", "--det", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        # Once numpy's "high is out of bounds for int64".
        (["sweep", "--det", "--max-pairs", str(10**20)], f"--max-pairs must be at most 2**63 - 1 (an int64 draw), got {10**20}"),
        (["sweep", "--det", "--max-gain", str(10**20)], f"--max-gain must be at most 2**63 - 1 (an int64 draw), got {10**20}"),
        # Once numpy's bare "expected non-negative integer".
        (["schedule", "{det}", "--rates", "1,1,0,0", "--simulate", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
    ],
)
def test_cli_rejects_invalid_options(det_file, capsys, argv, message):
    code, doc, err = run(capsys, *(a.format(det=det_file) for a in argv))
    assert code == EXIT_INPUT and doc is None
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["region", "gauss-verify"])
@pytest.mark.parametrize("rates", ["nan,4,4,4", "4,inf,4,4", "4,4,-inf,4"])
def test_gaussian_rates_must_be_finite(gauss_file, capsys, command, rates):
    code, doc, err = run(capsys, command, gauss_file, "--rates", rates)
    assert code == EXIT_INPUT and doc is None and "finite" in err


@pytest.mark.parametrize(
    "field,value",
    [("h_ar", [float("nan"), 16.0]), ("h_rb", [16.0, float("inf")]), ("h_br", ["nan", 16.0]),
     ("power", float("nan")), ("power", float("inf")),
     # JSON numbers only, two per magnitude array: no strings, booleans or
     # other shapes, and no integer too large for a float.
     ("h_ar", "16"), ("h_ar", ["16", "8"]), ("h_ra", [True, 16.0]), ("h_rb", 16.0),
     ("h_br", [16.0]), ("h_br", {"a": 16.0, "b": 16.0}), ("h_ar", None),
     ("power", "1"), ("power", True), ("power", [1.0]),
     pytest.param("power", 10**400, id="power-int-too-large"),
     # Finite, but its square overflows: once an OverflowError traceback.
     pytest.param("h_ar", [1e160, 16.0], id="magnitude-square-overflows")],
)
def test_gaussian_file_values_must_be_finite(tmp_path, capsys, field, value):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**GAUSS, field: value}))
    with pytest.raises(InputError):
        load_network(str(path))
    code, doc, _ = run(capsys, "gauss-verify", str(path), "--rates", "4,4,4,4")
    assert code == EXIT_INPUT and doc is None


_DET_NET = DetNetwork(*(tuple(REF_NET[k]) for k in ("n_ar", "n_br", "n_ra", "n_rb")))
_MAGNITUDES = {k: tuple(GAUSS[k]) for k in ("h_ar", "h_br", "h_ra", "h_rb")}
_GAUSS_NET = GaussNetwork(**_MAGNITUDES, power=GAUSS["power"])


def _library_refusal(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize(
    "command,network,rates,call,parsed",
    [
        ("region", "det", "1,1", in_det_cutset, [Fraction(1), Fraction(1)]),
        *(
            (command, "gauss", rates, call, [float(r) for r in rates.split(",")])
            for command, call in (("region", gauss_cutset), ("gauss-verify", verify_constant_gap))
            for rates in ("4,4,4", "4,4,4,4,4", "nan,4,4,4", "4,inf,4,4")
        ),
    ],
)
def test_each_rate_refusal_text_comes_from_the_library(
    det_file, gauss_file, capsys, command, network, rates, call, parsed
):
    # The CLI parses the rates; their count and finiteness are refused once,
    # by the library call the command makes, with that call's text.
    net, path = (_DET_NET, det_file) if network == "det" else (_GAUSS_NET, gauss_file)
    code, doc, err = run(capsys, command, path, "--rates", rates)
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: {_library_refusal(call, net, parsed)}\n"


@pytest.mark.parametrize(
    "field,value",
    [("h_ra", [True, 16.0]), ("h_ar", [None, 16.0]), ("h_br", ["16", 16.0]), ("power", None)],
    ids=["true", "null", "string-in-list", "missing-power"],
)
def test_each_gaussian_file_refusal_text_comes_from_the_library(tmp_path, capsys, field, value):
    # Every value's refusal is GaussNetwork's, behind load_network's path
    # prefix.  A null power is written as a missing one.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({k: v for k, v in {**GAUSS, field: value}.items() if v is not None}))
    refusal = _library_refusal(GaussNetwork, **{**_MAGNITUDES, "power": GAUSS["power"], field: value})
    code, doc, err = run(capsys, "gauss-verify", str(path), "--rates", "4,4,4,4")
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: {path}: bad gaussian network fields ({refusal})\n"


def test_det_sweep_over_the_region_budget_is_infeasible(capsys):
    # Once "Exceeds the limit (4300 digits) for integer string conversion",
    # exit 2: the budget message formatted 3^M - 1 for M up to 100000.
    start = time.perf_counter()
    code, doc, err = run(capsys, "sweep", "--det", "--trials", "1", "--seed", "0", "--max-pairs", "100000")
    assert code == EXIT_INFEASIBLE and doc is None
    assert err.startswith("infeasible: ") and "exceed work budget" in err
    assert time.perf_counter() - start < 5.0


def test_det_sweep_refuses_a_walk_too_large_before_drawing_its_gains(capsys, monkeypatch):
    # Once M = 1604476 gains were drawn and a network built first: 2.2 s and
    # a 157 MB peak before the walk refused it.
    def refused(**gains):
        raise AssertionError("the sweep built a network its walk refuses")

    monkeypatch.setattr(cli, "DetNetwork", refused)
    start = time.perf_counter()
    code, doc, err = run(capsys, "sweep", "--det", "--trials", "1", "--seed", "0", "--max-pairs", "2000000")
    assert (code, doc) == (EXIT_INFEASIBLE, None)
    assert err == "infeasible: the 3208952 or more tests of a 3208952-session walk exceed work budget 250000\n"
    assert time.perf_counter() - start < 0.5
    # The largest --max-pairs an int64 draw takes is drawn, then refused the same way.
    code, doc, err = run(capsys, "sweep", "--det", "--trials", "1", "--max-pairs", str(2**63 - 1))
    assert (code, doc) == (EXIT_INFEASIBLE, None) and "-session walk exceed work budget" in err


def test_schedule_simulation_refuses_an_unbuildable_frame(tmp_path, capsys):
    # A 10^30-level uplink frame: once an OverflowError traceback, exit 1.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**REF_NET, "n_ar": [10**30, 2]}))
    code, doc, err = run(capsys, "schedule", str(path), "--rates", "1,0,0,0", "--simulate", "1")
    assert code == EXIT_INPUT and doc is None
    assert err.startswith(f"error: frames of {10**30} bits")


_NO_N_RB = {k: v for k, v in REF_NET.items() if k != "n_rb"}


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("[1, 2]", "expected a JSON object"),
        (json.dumps(_NO_N_RB), "bad deterministic network fields ('n_rb')"),
        (json.dumps({**REF_NET, "pairs": 3}), "gain arrays must each hold 3 entries"),
        (json.dumps({**REF_NET, "delta": "1/3"}), "'delta' only applies to half duplex"),
        (json.dumps({**REF_NET, "duplex": "half"}), "half duplex requires 'delta'"),
        (json.dumps({**REF_NET, "duplex": "half", "delta": "3/2"}),
         "listen fraction must lie strictly in (0,1), got 3/2"),
        (json.dumps({**REF_NET, "duplex": "half", "delta": "0.5"}), "expected an integer or 'p/q' fraction, got '0.5'"),
        (json.dumps({**REF_NET, "duplex": "quarter"}), "duplex must be 'full' or 'half', got 'quarter'"),
        (json.dumps({**GAUSS, "mystery": 1}), "unknown fields ['mystery']"),
        (json.dumps({**GAUSS, "kind": "quantum"}), "kind must be 'deterministic' or 'gaussian', got 'quantum'"),
        (json.dumps({**REF_NET, "mystery": 1}), "unknown fields ['mystery']"),
        (json.dumps({**GAUSS, "kind": ["gaussian"]}), "kind must be 'deterministic' or 'gaussian', got ['gaussian']"),
    ],
    ids=["invalid-json", "non-object", "missing-field", "short-arrays", "delta-in-full-duplex",
         "half-duplex-without-delta", "delta-three-halves", "delta-decimal", "bad-duplex", "unknown-gaussian-field",
         "bad-kind", "unknown-deterministic-field", "unhashable-kind"],
)
def test_each_file_refusal_exits_2_with_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "n.json"
    path.write_text(text)
    code, doc, err = run(capsys, "region", str(path), "--rates", "1,1,1,1")
    assert (code, doc, err) == (EXIT_INPUT, None, f"error: {path}: {message}\n")


def test_an_unreadable_file_exits_2_with_its_line(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code, doc, err = run(capsys, "region", str(path), "--rates", "1,1,1,1")
    assert (code, doc) == (EXIT_INPUT, None)
    assert err == f"error: cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["schedule", "{gauss}", "--rates", "1,1,1,1"], "schedule requires a deterministic network"),
        (["schedule", "{half}", "--rates", "1,0,0,0", "--chunked"], "--chunked applies to full-duplex networks only"),
        (["gauss-verify", "{det}", "--rates", "4,4,4,4"], "gauss-verify requires a gaussian network"),
        (["region", "{gauss}", "--rates", "x,4,4,4"],
         "gaussian rates must be decimals: could not convert string to float: 'x'"),
    ],
    ids=["schedule-gaussian", "chunked-half-duplex", "gauss-verify-deterministic", "gaussian-rate-x"],
)
def test_each_command_refusal_exits_2_with_its_line(tmp_path, det_file, gauss_file, capsys, argv, message):
    half = tmp_path / "half.json"
    half.write_text(json.dumps({**REF_NET, "duplex": "half", "delta": "1/2"}))
    code, doc, err = run(capsys, *(a.format(det=det_file, gauss=gauss_file, half=half) for a in argv))
    assert (code, doc, err) == (EXIT_INPUT, None, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["region", "{det}", "--rates", "\u0661,1,1,1"], "expected an integer or 'p/q' fraction, got '\u0661'"),
        (["region", "{half}", "--rates", "1,0,0,0"], "{half}: expected an integer or 'p/q' fraction, got '\u0661/2'"),
        (["region", "{gauss}", "--rates", "1_0,4,4,4"], "gaussian rates must be decimals: '1_0' is not an ASCII decimal"),
        (["region", "{gauss}", "--rates", "4,\u0664,4,4"], "gaussian rates must be decimals: '\u0664' is not an ASCII decimal"),
    ],
    ids=["det-rate-arabic-indic-digit", "delta-arabic-indic-digit", "gaussian-rate-underscore",
         "gaussian-rate-arabic-indic-digit"],
)
def test_numbers_are_read_in_ascii_only(tmp_path, det_file, gauss_file, capsys, argv, message):
    # `\d` matches any script's digits and `float` reads them and `_`
    # separators: each of these was once read as a number and answered.
    half = tmp_path / "half.json"
    half.write_text(json.dumps({**REF_NET, "duplex": "half", "delta": "\u0661/2"}))
    code, doc, err = run(capsys, *(a.format(det=det_file, gauss=gauss_file, half=half) for a in argv))
    assert (code, doc, err) == (EXIT_INPUT, None, f"error: {message.format(half=half)}\n")


# Gaussian networks whose reports together cover uplink and downlink cases
# I, II and III, side swaps, a pair swap, clamps, the downlink's internal
# pair swap and a failed uplink allocation.
_SWAPS_AND_CLAMPS = {
    "kind": "gaussian", "h_ar": [4.155423117782181, 11.94809192132981],
    "h_br": [50.82943401311614, 8.611704287674716], "h_ra": [64.11285904857031, 14.42107229073973],
    "h_rb": [16.85227256544783, 22.615423312883163], "power": 16.78566107782534,
}
_UPLINK_II = {
    "kind": "gaussian", "h_ar": [1.1896467682355065, 1.930778435181802],
    "h_br": [3.7547160750709745, 49.34840916204055], "h_ra": [4.222016741986733, 3.0587286603978674],
    "h_rb": [19.97817688024075, 2.056981491287938], "power": 29.74108986887429,
}
_CASE_III = {
    "kind": "gaussian", "h_ar": [21.793177232721572, 1.134814524684768],
    "h_br": [1.3546075277870684, 3.9098955502489687], "h_ra": [27.452536570160966, 19.249224933040058],
    "h_rb": [1.133032321175435, 91.9997060486587], "power": 90.33653970229203,
}
_DOWNLINK_II = {
    "kind": "gaussian", "h_ar": [11.155657159687062, 1.4653861006954505],
    "h_br": [1.8593111622436262, 18.39472087255919], "h_ra": [5.754046429030773, 6.6859580571644],
    "h_rb": [70.92527999789175, 4.945036782876551], "power": 44.705223577722975,
}
_BUDGET_CORNER = {
    "kind": "gaussian", "h_ar": [31.622776601683793, 31.622776601683793],
    "h_br": [31.622776601683793, 31.622776601683793], "h_ra": [1000.0, 1000.0],
    "h_rb": [1000.0, 1000.0], "power": 1.0,
}
_SWAPS_RATES = "5.452652749715098,3.194448351870655,4.089432755365802,5.132022350645021"

PINNED_GAUSSIAN = {
    "gauss_verify_swaps_clamps": (_SWAPS_AND_CLAMPS, ["gauss-verify", "--rates", _SWAPS_RATES], EXIT_OK),
    "gauss_verify_uplink_ii": (_UPLINK_II, [
        "gauss-verify", "--rates",
        "2.715651175756736,3.7810151801070955,4.550790728820813,5.164155306528956"], EXIT_OK),
    "gauss_verify_case_iii": (_CASE_III, [
        "gauss-verify", "--rates",
        "3.951611298866216,4.966414188091564,3.1787515125647503,3.8444687783619447"], EXIT_OK),
    "gauss_verify_downlink_ii": (_DOWNLINK_II, [
        "gauss-verify", "--rates",
        "7.296129149705298,2.656617017739051,2.165610823926282,7.040600208757793"], EXIT_OK),
    "gauss_verify_symmetric": (GAUSS, ["gauss-verify", "--rates", "4,4,4,4"], EXIT_OK),
    "gauss_verify_uplink_allocation": (_BUDGET_CORNER, [
        "gauss-verify", "--rates", "8.95550545190574,2.01,2.011,2.01"], EXIT_INFEASIBLE),
    "region_gaussian_cutset": (_SWAPS_AND_CLAMPS, ["region", "--rates", _SWAPS_RATES], EXIT_OK),
    "region_gaussian_restricted": (_SWAPS_AND_CLAMPS, ["region", "--rates", _SWAPS_RATES, "--restricted"], EXIT_OK),
    "region_gaussian_non_member": (_DOWNLINK_II, ["region", "--rates", "9,2,2,7.5", "--restricted"], EXIT_INFEASIBLE),
}


@pytest.mark.parametrize("name", sorted(PINNED_GAUSSIAN))
def test_gaussian_report_pinned(tmp_path, capsys, name):
    # Captured before the constraint families, preconditions and
    # normalisation moved into one session-ordered table: same exit code,
    # verdicts, cases, swaps, alphas, checks and slacks, byte for byte.
    network, argv, exit_code = PINNED_GAUSSIAN[name]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network))
    code = main([argv[0], str(path), *argv[1:]])
    expected = (Path(__file__).parent / "data" / f"{name}.json").read_text()
    assert code == exit_code
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv,message",
    [
        # The strongest network in range cannot hold (2, 2, 2, 2): refused up front.
        (["--trials", "1", "--hmax", "1.5", "--pmax", "2"], "cannot satisfy"),
        # Possible, but so rarely drawn that the first trial runs out of draws.
        (["--trials", "20", "--hmax", "4", "--pmax", "1"], "trial 0"),
        # Squares of these magnitudes overflow a float: once an OverflowError traceback.
        (["--trials", "3", "--hmax", "1e200", "--pmax", "1e10"], "overflows"),
    ],
)
def test_sweep_refuses_unsampleable_ranges(capsys, argv, message):
    start = time.perf_counter()
    code, doc, err = run(capsys, "sweep", *argv)
    assert code == EXIT_INPUT and doc is None and message in err
    assert time.perf_counter() - start < 5.0


def test_sweep_csv_pinned(tmp_path, capsys):
    # `sweep --trials 300 --seed 5` captured before the same change.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--trials", "300", "--seed", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (Path(__file__).parent / "data" / "sweep_seed5.csv").read_bytes()


def test_sweep_csv_builds_no_record_or_network_per_trial(tmp_path, capsys, monkeypatch):
    # The CLI formats the sweep's columns, and the library returns them: no
    # network is built per trial, beyond SweepConfig's range check.  Trials
    # are independent, so 40 trials give the pinned 300-trial CSV's header
    # and first 40 rows.
    built, check = [], GaussNetwork.__post_init__

    def counted(net):
        built.append(net)
        check(net)

    cfg = SweepConfig(40, 5)
    monkeypatch.setattr(GaussNetwork, "__post_init__", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--trials", "40", "--seed", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    pinned = (Path(__file__).parent / "data" / "sweep_seed5.csv").read_text().splitlines(keepends=True)
    assert out.read_text() == "".join(pinned[:41])
    assert len(built) <= 1
    built.clear()
    cli.gaussian.monte_carlo_gap(cfg)
    run_trial(cfg, 39)
    assert built == []


@pytest.mark.parametrize(
    "seed,digest",
    [
        (0, "22c2daed04eaab0c9af3d8b37628eb647b5931f7858a617e6ef68ad6149118e3"),
        (99, "7a883b8d93340708c916d01d335decf10e8e46276de9929fa6c9f7d100ad0c08"),
    ],
)
def test_sweep_csv_pinned_at_full_size(tmp_path, capsys, seed, digest):
    # sha256 of `sweep --trials 100000 --seed N` as the one-trial-at-a-time
    # sweep wrote it, before the sweep ran as one batch pipeline.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--trials", "100000", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
