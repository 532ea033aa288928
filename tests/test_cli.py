"""Command-line behavior: schemas, exit codes, deterministic bytes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from dataclasses import asdict

import pytest

from bountygame import (
    MarketParams,
    ReleaseCurves,
    concentrated_bbp_profit,
    condition1,
    optimal_release_no_bbp,
    profit_without_bbp,
    release_gap_term,
    vendor,
    verification,
)
from bountygame.cli import main

BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"


@pytest.fixture
def baseline_doc():
    return json.loads(BASELINE.read_text())


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_evaluate_baseline(capsys):
    rc, out, err = run_cli(capsys, "evaluate", str(BASELINE))
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["efforts"]["alpha_s"] == 0.125
    assert report["efforts"]["regime"] == "corner"
    assert report["probabilities"]["p_e_s"] == pytest.approx(0.12755102040816327)
    assert report["profit"]["with_bbp"]["total"] == pytest.approx(81.53474489795917)
    assert report["profit"]["without_bbp"]["total"] == pytest.approx(77.77142857142857)
    assert report["notes"] == []


def test_evaluate_without_decision_uses_optimum(capsys, tmp_path, baseline_doc):
    del baseline_doc["decision"]
    del baseline_doc["sweep"]
    rc, out, _ = run_cli(capsys, "evaluate", write_scenario(tmp_path, baseline_doc))
    assert rc == 0
    report = json.loads(out)
    assert report["decision"]["t"] == pytest.approx(2.3827170303205856)
    assert report["decision"]["p_s"] == pytest.approx(0.0, abs=1e-9)
    assert any("decision block absent" in note for note in report["notes"])


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out, err = run_cli(capsys, "evaluate", str(path))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "JSONDecodeError"


@pytest.mark.parametrize(
    "data, fragment",
    [
        (b'{"market": "\xff"}', "can't decode byte 0xff"),
        (b"[" * 100_000, "recursion depth"),
        (b'{"market": ' + b"9" * 5000 + b"}", "4300 digits"),
    ],
    ids=["not-utf8", "deeply-nested", "long-integer"],
)
def test_undecodable_or_deeply_nested_file_is_an_input_error(capsys, tmp_path, data, fragment):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    rc, out, err = run_cli(capsys, "evaluate", str(path))
    assert rc == 2 and out == "" and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ScenarioFormatError" and fragment in payload["detail"]


def test_missing_file_is_an_input_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "evaluate", str(tmp_path / "absent.json"))
    assert rc == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["market"].update(q=1), "unknown keys in 'market'"),
        (lambda d: d["market"].pop("x"), "missing keys in 'market'"),
        (lambda d: d.pop("curves"), "missing required block 'curves'"),
        (lambda d: d.update(extra={}), "unknown top-level keys"),
        (lambda d: d["market"].update(n=3.5), "must be an integer"),
        (lambda d: d["market"].update(c_w=1.0), "c_w > 1"),
        (lambda d: d["curves"].update(K_s0=True), "must be a number"),
        # exp(-lambda * t_max) = exp(1000) is beyond binary64.
        (lambda d: d["curves"].update(lambda_s=-100.0), "lambda_s > 0"),
        (lambda d: d["curves"].update(lambda_ns=-100.0), "lambda_ns > 0"),
    ],
)
def test_schema_violations_exit_2(capsys, tmp_path, baseline_doc, mutate, fragment):
    mutate(baseline_doc)
    rc, out, err = run_cli(capsys, "evaluate", write_scenario(tmp_path, baseline_doc))
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ScenarioFormatError"
    assert fragment in payload["detail"]


@pytest.mark.parametrize(
    "block, key, value, fragment",
    [
        ("decision", "t", 10**400, "t is too large for a float"),
        ("market", "n", 10**400, "n must be at most 2**53 in magnitude"),
        ("market", "n", 2**53 + 1, "n must be at most 2**53 in magnitude"),
    ],
)
def test_oversized_numbers_exit_2(capsys, tmp_path, baseline_doc, block, key, value, fragment):
    baseline_doc[block][key] = value
    rc, out, err = run_cli(capsys, "evaluate", write_scenario(tmp_path, baseline_doc))
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert fragment in payload["detail"]


def test_optimize_baseline(capsys):
    rc, out, _ = run_cli(capsys, "optimize", str(BASELINE))
    assert rc == 0
    report = json.loads(out)
    assert report["no_bbp"]["t"] == pytest.approx(3.146672741666458)
    assert not report["no_bbp"]["boundary"]
    assert report["with_bbp"]["t"] == pytest.approx(2.3827170303205856)
    assert report["with_bbp"]["boundary"]
    assert report["with_bbp"]["t"] < report["no_bbp"]["t"]
    assert report["with_bbp"]["profit"] > report["no_bbp"]["profit"]
    assert report["condition1_at_optimum"]["feasible"]
    assert set(report["optimal_n"]) == {
        "n_closed_form",
        "n_quadratic",
        "n_brute_force",
        "note",
    }
    # The band has already failed by the later no-program optimum.
    assert report["release_gap_at_no_bbp_optimum"] is None


def test_optimize_mode_selects_sections(capsys):
    rc, out, _ = run_cli(capsys, "optimize", str(BASELINE), "--mode", "no-bbp")
    report = json.loads(out)
    assert rc == 0 and "with_bbp" not in report
    rc, out, _ = run_cli(capsys, "optimize", str(BASELINE), "--mode", "with-bbp")
    report = json.loads(out)
    assert rc == 0 and "no_bbp" not in report


def test_optimize_reports_unviable_program_as_data(capsys, tmp_path, baseline_doc):
    baseline_doc["market"]["W"] = 0.0
    baseline_doc["curves"]["K_s0"] = 0.2
    rc, out, _ = run_cli(capsys, "optimize", write_scenario(tmp_path, baseline_doc))
    assert rc == 0
    report = json.loads(out)
    assert report["with_bbp"] is None
    assert report["no_viable_bbp"] is True
    assert report["detail"]
    assert "no_bbp" in report


def test_optimize_reports_release_gap_on_a_release_draw(capsys, tmp_path):
    scen = verification.FeasibleSampler(5).draw_release()
    doc = {"market": asdict(scen.params), "curves": asdict(scen.curves)}
    rc, out, err = run_cli(capsys, "optimize", write_scenario(tmp_path, doc))
    assert rc == 0 and err == ""
    report = json.loads(out)
    t_nb = report["no_bbp"]["t"]
    gap = report["release_gap_at_no_bbp_optimum"]
    assert gap == release_gap_term(scen.params, scen.curves, t_nb)
    assert gap < 0.0 and report["with_bbp"]["t"] < t_nb


# Draw 47 of FeasibleSampler(5) over perfbench's WIDE_RANGES, as the sampler
# drew before it drew proposals in blocks of 64: no program is viable, and
# at t = 0 the zero-bounty probabilities are p_e0 = 2.39 and p_b0 = -1.39,
# so the fallback maximizes the clamped no-program profit.
_CLAMPED_UNVIABLE_MARKET = {
    "n": 1, "l": 7, "m": 1, "c_w": 1.1593198890968566, "c_b": 6.394062789155481,
    "r_s": 9.519750831497198, "W": 1.073208634101177, "TC_s": 112.09090262931633,
    "TC_ns": 3.6191882197452947, "x": 0.7181411257945148,
}
_CLAMPED_UNVIABLE_CURVES = {
    "K_s0": 0.9380700063669855, "lambda_s": 0.3577374467583847,
    "K_ns0": 0.6464350326303836, "lambda_ns": 0.9443080273595152,
    "R0": 611.0496634782775, "a": 1.3397178420252374, "b": 1.081060286901519,
    "t_max": 4.491597284345048,
}


@pytest.mark.parametrize(
    "market, curves",
    [
        ({"W": 0.0}, {"K_s0": 0.2}),
        (_CLAMPED_UNVIABLE_MARKET, _CLAMPED_UNVIABLE_CURVES),
    ],
    ids=["no-prize", "clamped"],
)
def test_auto_decision_falls_back_to_no_program_release(
    capsys, tmp_path, baseline_doc, market, curves
):
    # No release time supports a program, so a scenario without a decision
    # block is evaluated at the no-program optimum with zero bounties.
    baseline_doc["market"].update(market)
    baseline_doc["curves"].update(curves)
    del baseline_doc["decision"]
    path = write_scenario(tmp_path, baseline_doc)
    params = MarketParams(**baseline_doc["market"])
    t_nb = optimal_release_no_bbp(params, ReleaseCurves(**baseline_doc["curves"])).t

    rc, out, err = run_cli(capsys, "evaluate", path)
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["decision"] == {"t": t_nb, "p_s": 0.0, "p_ns": 0.0}
    assert "no viable bounty program anywhere" in report["notes"][0]

    csv_path = tmp_path / "fallback.csv"
    rc, out, err = run_cli(capsys, "sweep", path, "--out", str(csv_path))
    assert rc == 0 and err == ""
    assert "no viable bounty program anywhere" in json.loads(out)["notes"][0]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 81


def test_optimize_at_a_release_horizon_the_scan_used_to_overshoot(
    capsys, tmp_path, baseline_doc
):
    # 6.510518 * 200 / 200 rounds to 6.510518000000001, one step past t_max.
    baseline_doc["curves"]["t_max"] = 6.510518
    rc, out, err = run_cli(capsys, "optimize", write_scenario(tmp_path, baseline_doc))
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert 0.0 <= report["no_bbp"]["t"] <= 6.510518
    assert 0.0 <= report["with_bbp"]["t"] <= 6.510518


def test_optimize_maximizes_clamped_no_program_profit(capsys, tmp_path, baseline_doc):
    # At t = 0 the zero-bounty probabilities are p_e0 = -3.59 and p_b0 = 4.59;
    # the optimum is a stationary time of the clamped profit.
    baseline_doc["market"].update(n=1, m=1, W=20.0, c_b=1.1, r_s=0.0)
    rc, out, err = run_cli(
        capsys, "optimize", write_scenario(tmp_path, baseline_doc), "--mode", "no-bbp"
    )
    assert rc == 0 and err == ""
    no_bbp = json.loads(out)["no_bbp"]
    assert not no_bbp["boundary"]
    assert no_bbp["t"] == pytest.approx(3.5577, abs=1e-4)
    params = MarketParams(**baseline_doc["market"])
    curves = ReleaseCurves(**baseline_doc["curves"])
    ts = [curves.t_max * i / 4000 for i in range(4000)] + [curves.t_max]
    best = max(profit_without_bbp(params, t, curves).total for t in ts)
    assert no_bbp["profit"] >= best - 1e-12 * max(1.0, abs(best))


def test_optimize_reports_release_gap_where_probabilities_clamp(capsys, tmp_path):
    # Draw 27 of FeasibleSampler(5) over perfbench's WIDE_RANGES, as the
    # sampler drew before it drew proposals in blocks of 64. Condition 1
    # holds at the no-program optimum and p_e0 is clamped at 0 there; the
    # gap is the slope of the clamped profit gap (-7.65), which a closed
    # form taking p_e0 unclamped misstated as -3.96.
    market = {
        "n": 2, "l": 18, "m": 7, "c_w": 7.256036883958867, "c_b": 1.492787668882428,
        "r_s": 8.1089559502771, "W": 28.792139341570824, "TC_s": 373.8086447598759,
        "TC_ns": 9.613501978317878, "x": 0.9119315003858692,
    }
    curves = {
        "K_s0": 0.9708255705378549, "lambda_s": 0.0791668361148714,
        "K_ns0": 0.6681207869959535, "lambda_ns": 0.4715006356010783,
        "R0": 836.6766865498847, "a": 4.380712177542465, "b": 2.6408592168986944,
        "t_max": 11.957443985783927,
    }
    doc = {"market": market, "curves": curves}
    rc, out, err = run_cli(capsys, "optimize", write_scenario(tmp_path, doc))
    assert rc == 0 and err == ""
    report = json.loads(out)
    t_nb = report["no_bbp"]["t"]
    params, release = MarketParams(**market), ReleaseCurves(**curves)
    assert condition1(params, release, t_nb).feasible
    assert report["with_bbp"] is not None
    gap = report["release_gap_at_no_bbp_optimum"]
    assert gap == release_gap_term(params, release, t_nb)
    h = 1e-5

    def profit_gap(t):
        return concentrated_bbp_profit(params, release, t) - profit_without_bbp(
            params, t, release
        ).total

    assert gap == pytest.approx((profit_gap(t_nb + h) - profit_gap(t_nb - h)) / (2 * h), rel=1e-6)
    assert gap == pytest.approx(-7.65195, abs=1e-5)


def test_optimize_answers_a_slope_with_two_sign_changes(capsys, tmp_path):
    # Draw 244 of FeasibleSampler(5) over perfbench's WIDE_RANGES, as the
    # sampler drew before it drew proposals in blocks of 64. The
    # no-program slope rises through 0 at t = 0.0191 and falls through 0 at
    # t = 1.3623, whose profit (630.32) beats both endpoints (628.29 at 0).
    market = {
        "n": 3, "l": 13, "m": 2, "c_w": 1.301319208073475, "c_b": 7.319974627218934,
        "r_s": 9.131759088698853, "W": 1.7537196010907685, "TC_s": 106.58818435904323,
        "TC_ns": 7.647386017906985, "x": 0.18715744920269847,
    }
    curves = {
        "K_s0": 0.7094221125190964, "lambda_s": 0.6473455479282128,
        "K_ns0": 0.14021737455040623, "lambda_ns": 0.24862433444396037,
        "R0": 650.3639094933058, "a": 2.580134419778754, "b": 2.977918950031956,
        "t_max": 17.54753027922866,
    }
    doc = {"market": market, "curves": curves}
    rc, out, err = run_cli(capsys, "optimize", write_scenario(tmp_path, doc))
    assert rc == 0 and err == ""
    no_bbp = json.loads(out)["no_bbp"]
    assert no_bbp["boundary"] is False
    assert no_bbp["t"] == pytest.approx(1.3623, abs=1e-4)


def test_profit_form_mismatch_exits_1(capsys, monkeypatch):
    polynomial = vendor._profit_polynomial
    monkeypatch.setattr(
        vendor, "_profit_polynomial", lambda *args: polynomial(*args) + 1.0
    )
    rc, out, err = run_cli(capsys, "evaluate", str(BASELINE))
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "AssumptionViolationError"
    assert "profit forms disagree" in payload["detail"]


def overflow_argv(tmp_path, command, doc):
    argv = [command, write_scenario(tmp_path, doc)]
    return argv + ["--out", str(tmp_path / "out.csv")] if command == "sweep" else argv


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("evaluate", "p_ns", 1e160),
        ("evaluate", "p_ns", 1e300),
        ("evaluate", "p_ns", -1e300),
        ("sweep", "p_ns", 1e160),
        ("sweep", "p_ns", 1e300),
        ("sweep", "p_ns", -1e300),
        # K_s n p_e p_s is beyond binary64: the profit was -inf, printed as -Infinity.
        ("evaluate", "p_s", 1e160),
    ],
)
def test_with_program_profit_overflow_exits_2(
    capsys, tmp_path, baseline_doc, command, key, value
):
    baseline_doc["decision"][key] = value
    rc, out, err = run_cli(capsys, *overflow_argv(tmp_path, command, baseline_doc))
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert f"{key}={value!r}" in payload["detail"]
    assert "overflows binary64" in payload["detail"]
    assert not (tmp_path / "out.csv").exists()


def test_sweep_into_an_overflowing_bounty_exits_2(capsys, tmp_path, baseline_doc):
    baseline_doc["sweep"] = {"path": "decision.p_ns", "from": 0.0, "to": 1e200, "steps": 5}
    rc, out, err = run_cli(capsys, *overflow_argv(tmp_path, "sweep", baseline_doc))
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert "p_ns=2.5e+199" in payload["detail"]
    assert not (tmp_path / "out.csv").exists()


# With TC_s = 1e200 the no-program slope falls from 8.2e199 at t = 0 to -2
# at t_max as an exponential in t, so each Newton step moves t by about
# 1/lambda_s = 1 toward the root near 459.5.
_CRAWL_CURVES = {"lambda_s": 1.0, "t_max": 500.0, "R0": 1e7, "b": 0.0}


def test_optimize_answers_a_no_program_slope_that_newton_crawls(capsys, tmp_path, baseline_doc):
    baseline_doc["market"]["TC_s"] = 1e200
    baseline_doc["curves"].update(_CRAWL_CURVES)
    path = write_scenario(tmp_path, baseline_doc)
    rc, out, err = run_cli(capsys, "optimize", path, "--mode", "no-bbp")
    assert rc == 0 and err == ""
    no_bbp = json.loads(out)["no_bbp"]
    assert no_bbp["t"] == pytest.approx(459.4773488457743, rel=1e-12)
    assert not no_bbp["boundary"] and abs(no_bbp["foc_value"]) <= 1e-9


@pytest.mark.parametrize(
    "market, curves, mode, program",
    [
        # m TC_s is beyond binary64: the no-program slope coefficients were
        # (inf, nan, ...) and optimize printed "foc_value": NaN with exit 0.
        ({"TC_ns": 1e300, "TC_s": 1.7e308}, {}, "both", "no"),
        # (A - TC_s) ** 2 raised a bare OverflowError: a traceback, exit 1.
        ({"TC_s": 1e200}, _CRAWL_CURVES, "with-bbp", "with"),
        # The no-program search ran out of Newton steps first: exit 1.
        ({"TC_s": 1e200}, _CRAWL_CURVES, "both", "with"),
    ],
)
def test_overflowing_release_slope_exits_2(
    capsys, tmp_path, baseline_doc, market, curves, mode, program
):
    baseline_doc["market"].update(market)
    baseline_doc["curves"].update(curves)
    path = write_scenario(tmp_path, baseline_doc)
    rc, out, err = run_cli(capsys, "optimize", path, "--mode", mode)
    assert rc == 2 and out == "" and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "DomainError"
    assert f"the {program}-program release slope overflows binary64" in payload["detail"]
    assert f"TC_s={baseline_doc['market']['TC_s']!r}" in payload["detail"]


def test_sweep_baseline_csv(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    rc, out, _ = run_cli(capsys, "sweep", str(BASELINE), "--out", str(out_a))
    assert rc == 0
    summary = json.loads(out)
    assert summary["rows"] == 81
    assert summary["path"] == "decision.p_s"

    lines = out_a.read_text().splitlines()
    assert lines[0] == (
        "decision.p_s,regime,alpha_s,alpha_ns,beta_ns,mu_s,p_e_s,p_e_ns,p_ne_ns,"
        "p_b_s,profit_with_bbp,profit_without_bbp,p_s_opt,p_ns_opt,bbp_viable,"
        "cond1_lb,cond1_ub,cond1_gap,cond1_feasible,n_closed_form,n_quadratic,"
        "n_brute_force"
    )
    assert len(lines) == 82

    rows = [line.split(",") for line in lines[1:]]
    regimes = {row[1] for row in rows}
    assert regimes == {"corner", "interior"}
    at7 = next(row for row in rows if float(row[0]) == 7.0)
    assert float(row := at7[6]) == float(at7[9]) == pytest.approx(1.0 / 7.0)
    assert {r[14] for r in rows} <= {"0", "1"}

    out_b = tmp_path / "b.csv"
    run_cli(capsys, "sweep", str(BASELINE), "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_over_integer_market_field(capsys, tmp_path, baseline_doc):
    baseline_doc["sweep"] = {"path": "market.m", "from": 1, "to": 5, "steps": 5}
    rc, out, _ = run_cli(capsys, "sweep", write_scenario(tmp_path, baseline_doc),
                         "--out", str(tmp_path / "m.csv"))
    assert rc == 0
    assert json.loads(out)["rows"] == 5

    baseline_doc["sweep"] = {"path": "market.m", "from": 1, "to": 2, "steps": 3}
    rc, _, err = run_cli(capsys, "sweep", write_scenario(tmp_path, baseline_doc),
                         "--out", str(tmp_path / "bad.csv"))
    assert rc == 2
    assert "non-integer" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "sweep, fragment",
    [
        ({"path": "decision.p_s", "from": 0, "to": 1, "steps": 0}, "at least 1"),
        ({"path": "market.volatility", "from": 0, "to": 1, "steps": 2}, "unknown sweep path"),
        (None, "needs a 'sweep' block"),
    ],
)
def test_sweep_input_errors(capsys, tmp_path, baseline_doc, sweep, fragment):
    if sweep is None:
        del baseline_doc["sweep"]
    else:
        baseline_doc["sweep"] = sweep
    rc, _, err = run_cli(capsys, "sweep", write_scenario(tmp_path, baseline_doc),
                         "--out", str(tmp_path / "out.csv"))
    assert rc == 2
    assert fragment in json.loads(err)["detail"]


def test_verify_command_round_trip(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "verify", "--seed", "1", "--draws", "8", "--out", str(report_path)
    )
    assert rc == 0
    assert report_path.read_text() == out
    report = json.loads(out)
    assert report["passed"] and report["seed"] == 1 and report["draws"] == 8

    rc2, out2, _ = run_cli(capsys, "verify", "--seed", "1", "--draws", "8")
    assert rc2 == 0 and out2 == out


def test_verify_negative_seed_exits_2(capsys):
    rc, out, err = run_cli(capsys, "verify", "--seed", "-1", "--draws", "2")
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload == {"error": "DomainError", "detail": "seed must be non-negative, got -1"}


def test_verify_failure_exits_1_with_evidence(capsys, monkeypatch):
    monkeypatch.setattr(verification, "_NORMALIZATION_TOL", -1.0)
    rc, out, _ = run_cli(capsys, "verify", "--seed", "24", "--draws", "5")
    assert rc == 1
    report = json.loads(out)
    assert not report["passed"]
    failures = report["reports"]["identity-suite"]["failures"]
    assert failures and "normalization" in failures[0]["detail"]
    assert "scenario" in failures[0]


# sha256 of the output bytes on scenarios/baseline.json, recorded with
# CPython 3.11 and numpy 2.4 on x86-64 Linux. A change meant to keep every
# result bit-for-bit must leave these alone.
PINNED_SHA256 = {
    "evaluate": "d358145dad5a4b8cb30ca7a4639580bbfea26f789a29c391af9f48425c64d4e5",
    "optimize": "ab9936d29130968bd817a787f2e0932a1c2e9f1d45a8673cc1548db37bc748c2",
    "sweep_csv": "d93ffc454be88f2b919dc20129a35d62079957414d8fd499c176b0aeadb25327",
    "verify": "5243e379a6f0956756cb26e2b2fd55c6f755f650a9d7845eec6f9694277ac211",
}


def test_output_bytes_are_pinned(capsys, tmp_path):
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    digests = {}
    for command in ("evaluate", "optimize"):
        rc, out, _ = run_cli(capsys, command, str(BASELINE))
        assert rc == 0
        digests[command] = sha256(out.encode())
    csv_path = tmp_path / "sweep.csv"
    rc, _, _ = run_cli(capsys, "sweep", str(BASELINE), "--out", str(csv_path))
    assert rc == 0
    digests["sweep_csv"] = sha256(csv_path.read_bytes())
    rc, out, _ = run_cli(capsys, "verify", "--seed", "0", "--draws", "8")
    assert rc == 0
    digests["verify"] = sha256(out.encode())
    assert digests == PINNED_SHA256


def test_verify_bytes_are_pinned_in_a_fresh_interpreter(fresh_python):
    # The suite loads on first use here, not with the package.
    done = fresh_python("-m", "bountygame.cli", "verify", "--seed", "0", "--draws", "8")
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == PINNED_SHA256["verify"]


# The only package modules evaluate, optimize and sweep run.
SCALAR_MODULES = ("errors", "scenario", "hackers", "vendor", "_rootfind", "simulate", "cli")


def test_baseline_commands_do_not_import_thread_pools(tmp_path, baseline_doc, fresh_python):
    # The package uses no thread pool, only the grid oracle, the sampler and
    # simulate need numpy, and only verification reports need statistics;
    # importing any of them would add to the start-up of every scalar command.
    # The verification suite and the ratio contest load on first use, so no
    # package module beyond SCALAR_MODULES may load either. A curves.t_max
    # sweep re-validates every point; without a decision block, evaluate and
    # sweep run the release optimizers first.
    t_max_sweep = dict(
        baseline_doc, sweep={"path": "curves.t_max", "from": 5.0, "to": 15.0, "steps": 5}
    )
    t_max_path = write_scenario(tmp_path, t_max_sweep, "t_max.json")
    no_decision = {key: value for key, value in baseline_doc.items() if key != "decision"}
    auto_path = write_scenario(tmp_path, no_decision, "auto.json")
    calls = [
        ["evaluate", str(BASELINE)],
        ["optimize", str(BASELINE)],
        ["sweep", str(BASELINE), "--out", str(tmp_path / "s.csv")],
        ["sweep", t_max_path, "--out", str(tmp_path / "t.csv")],
        ["evaluate", auto_path],
        ["sweep", auto_path, "--out", str(tmp_path / "a.csv")],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from bountygame.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    assert main({argv!r}) == 0\n" for argv in calls)
        + "lazy = ('concurrent.futures', 'numpy', 'statistics')\n"
        "print(json.dumps([name for name in lazy if name in sys.modules]))\n"
        "print(json.dumps([name for name in sys.modules\n"
        "                  if name.partition('.')[0] == 'bountygame']))\n"
    )
    done = fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    lazy, loaded = map(json.loads, done.stdout.splitlines())
    assert lazy == []
    expected = ["bountygame"] + [f"bountygame.{name}" for name in SCALAR_MODULES]
    assert sorted(loaded) == sorted(expected)
