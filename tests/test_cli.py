import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from relaycap import cli
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
from relaycap.detnet import DetNetwork, FullDuplex, HalfDuplex
from relaycap.gaussian import GaussNetwork, SweepConfig, run_trial

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


def test_region_bad_rate_arity(det_file, capsys):
    code, _, err = run(capsys, "region", det_file, "--rates", "1,1")
    assert code == EXIT_INPUT and "expected 4 rates" in err


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
    for r in reversed(backwards):
        n = r.net
        cells = (n.h_ar[0], n.h_br[0], n.h_ar[1], n.h_br[1], n.h_ra[0], n.h_rb[0], n.h_ra[1], n.h_rb[1], n.power)
        expected.append(",".join(
            [str(r.trial), "5", "pass" if r.achievable else "fail", r.stage,
             repr(r.max_alpha_excess), repr(r.bound_gap), *map(repr, cells)]
        ))
    assert rows == expected


def test_sweep_zero_trials_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--trials", "0", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial,")


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
    monkeypatch.setattr(cli.gaussian, "monte_carlo_gap", None)  # any sweep work fails
    monkeypatch.setattr(cli, "enumerate_integral_region", None)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("mode", [[], ["--det"]], ids=["gaussian", "det"])
def test_sweep_write_error_is_an_input_error(tmp_path, capsys, monkeypatch, mode):
    # The directory goes away while the sweep runs.
    path = tmp_path / "gone" / "x.csv"
    path.parent.mkdir()
    for owner, name in ((cli.gaussian, "monte_carlo_gap"), (cli, "enumerate_integral_region")):
        def removing(*args, sweep=getattr(owner, name)):
            path.unlink(missing_ok=True)
            path.parent.rmdir()
            return sweep(*args)

        monkeypatch.setattr(owner, name, removing)
    code, doc, err = run(capsys, "sweep", *mode, "--trials", "1", "--out", str(path))
    assert code == EXIT_INPUT and doc is None
    assert err == f"error: cannot write {path}: No such file or directory\n"


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
    # The CLI formats the sweep's columns: no TrialRecord, and no network
    # beyond SweepConfig's range check.  Trials are independent, so 40
    # trials give the pinned 300-trial CSV's header and first 40 rows.
    def refused(*args, **kwargs):
        raise AssertionError("the sweep CLI built a TrialRecord")

    built, check = [], GaussNetwork.__post_init__

    def counted(net):
        built.append(net)
        check(net)

    monkeypatch.setattr(cli.gaussian, "TrialRecord", refused)
    monkeypatch.setattr(GaussNetwork, "__post_init__", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--trials", "40", "--seed", "5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    pinned = (Path(__file__).parent / "data" / "sweep_seed5.csv").read_text().splitlines(keepends=True)
    assert out.read_text() == "".join(pinned[:41])
    assert len(built) <= 1


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
