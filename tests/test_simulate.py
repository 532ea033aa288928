"""Monte Carlo simulator: refusals, determinism, agreement with closed forms."""

from __future__ import annotations

import csv
import importlib
import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bountygame import (
    DomainError,
    InfeasibleScenarioError,
    SimMode,
    equilibrium,
    k_nonsevere,
    k_severe,
    simulate,
    success_probabilities,
)
# The package exports the function ``simulate``, which shadows the module.
simulate_module = importlib.import_module("bountygame.simulate")


def test_rejects_bad_trial_and_seed_arguments(s0_params, s0_curves, s0_decision):
    def run(trials, seed, mode=SimMode.WITH_BBP):
        return simulate(s0_params, s0_decision, s0_curves, trials, seed, mode)

    with pytest.raises(DomainError):
        run(0, 1)
    with pytest.raises(DomainError):
        run(10, -1)
    with pytest.raises(DomainError):
        run(10, 2**64)
    with pytest.raises(DomainError, match="signed 64-bit"):
        run(2**63, 1)
    with pytest.raises(ValueError):
        run(10, 1, "with-bbp")
    # Only integers that are not bools: truncating a float seed would give
    # another seed's bytes, and a float trial count would fail in range().
    for trials, seed in [(10, 1.5), (10, 1.9), (10, True), (True, 1), (1000.0, 1), (10.5, 1)]:
        with pytest.raises(DomainError, match="must be an integer"):
            run(trials, seed)
    # Integer types still pass, up to the largest 64-bit seed (above 2^53,
    # so no float round trip may stand in for the check).
    assert run(np.int64(10), np.uint64(3)).to_json() == run(10, 3).to_json()
    assert run(10, 2**64 - 1).trials == 10
    assert run(2**63 - 1, 1).trials == 2**63 - 1


def test_refuses_infeasible_effort_profile(s0_params, s0_curves, s0_decision):
    with pytest.raises(InfeasibleScenarioError, match="leave"):
        simulate(
            s0_params, replace(s0_decision, p_s=100.0), s0_curves, 10, 1, SimMode.WITH_BBP
        )


def test_refuses_split_effort_regime(s0_params, s0_curves, s0_decision):
    with pytest.raises(InfeasibleScenarioError, match="split-effort"):
        simulate(
            s0_params, replace(s0_decision, p_ns=2.0), s0_curves, 10, 1, SimMode.WITH_BBP
        )


def test_refuses_nonsevere_mass_above_one(s0_params, s0_curves):
    # A high severe bounty keeps the regime concentrated while p_ns = 2.5
    # gives the five non-experts 0.4 win probability each: individually
    # fine, collectively an impossible 2.0.
    from bountygame import VendorDecision

    dec = VendorDecision(t=2.0, p_s=8.0, p_ns=2.5)
    with pytest.raises(InfeasibleScenarioError, match="finder mass exceeds 1"):
        simulate(s0_params, dec, s0_curves, 10, 1, SimMode.WITH_BBP)


def test_with_program_frequencies_match_closed_forms(s0_params, s0_curves, s0_decision):
    trials = 200_000
    out = simulate(s0_params, s0_decision, s0_curves, trials, 1, SimMode.WITH_BBP)
    expected = {
        "freq_severe_ewhh": 0.5 * 3 * 0.12755102040816327,
        "freq_severe_bhh": 0.5 * 4 * 0.15433673469387754,
        "freq_severe_none": 0.5,
        "freq_nonsevere_newhh": 0.8 * 5 * 0.08,
        "freq_nonsevere_user": 0.8 * (1 - 5 * 0.08),
        "freq_nonsevere_none": 0.2,
    }
    for name, p in expected.items():
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(getattr(out, name) - p) <= 3 * se, name
    assert abs(out.mean_profit - 81.53474489795917) <= 3 * out.std_error
    assert out.freq_severe_ewhh + out.freq_severe_bhh + out.freq_severe_none == pytest.approx(
        1.0, abs=1e-12
    )
    assert (
        out.freq_nonsevere_newhh + out.freq_nonsevere_user + out.freq_nonsevere_none
        == pytest.approx(1.0, abs=1e-12)
    )


def test_without_program_frequencies_match_closed_forms(s0_params, s0_curves, s0_decision):
    trials = 200_000
    out = simulate(s0_params, s0_decision, s0_curves, trials, 2, SimMode.WITHOUT_BBP)
    p_ewhh = 0.5 * 3 * (5.0 / 42.0)
    se = (p_ewhh * (1 - p_ewhh) / trials) ** 0.5
    assert abs(out.freq_severe_ewhh - p_ewhh) <= 3 * se
    # Bounties are forced to zero, so no non-expert ever wins.
    assert out.freq_nonsevere_newhh == 0.0
    assert abs(out.mean_profit - 77.77142857142857) <= 3 * out.std_error


def test_identical_bytes_per_seed(s0_params, s0_curves, s0_decision, tmp_path):
    def run(seed, trace_name=None):
        trace_path = str(tmp_path / trace_name) if trace_name else None
        return simulate(
            s0_params, s0_decision, s0_curves, 1000, seed, SimMode.WITH_BBP, trace_path
        ).to_json()

    first = run(42, "first.csv")
    assert run(42, "second.csv") == first
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    # Writing a trace continues the stream after the counts are drawn.
    assert run(42) == first
    assert run(43, "other.csv") != first
    assert (tmp_path / "other.csv").read_bytes() != (tmp_path / "first.csv").read_bytes()


def test_trace_file_has_one_labeled_row_per_trial(
    s0_params, s0_curves, s0_decision, tmp_path
):
    path = tmp_path / "trace.csv"
    simulate(
        s0_params, s0_decision, s0_curves, 50, 5, SimMode.WITH_BBP, trace_path=str(path)
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "severe_event", "nonsevere_event", "cost"]
    body = rows[1:]
    assert len(body) == 50
    assert [int(r[0]) for r in body] == list(range(50))
    for _, severe, nonsevere, cost in body:
        assert severe in {"none", "ewhh", "bhh"}
        assert nonsevere in {"none", "newhh", "user"}
        float(cost)


def _race_constants(params, curves, decision, mode):
    """(K_s, q_e, K_ns, q_ne, cost table by label) from the closed forms."""
    if mode is SimMode.WITH_BBP:
        dec = decision
        cost_e, cost_ne = dec.p_s, dec.p_ns
    else:
        dec = replace(decision, p_s=0.0, p_ns=0.0)
        cost_e, cost_ne = params.x * params.TC_s, 0.0
    probs = success_probabilities(params, dec, curves, equilibrium(params, dec, curves))
    costs = {
        "none": 0.0, "ewhh": cost_e, "bhh": params.TC_s,
        "newhh": cost_ne, "user": params.TC_ns,
    }
    return (
        k_severe(curves, dec.t), params.n * probs.p_e_s,
        k_nonsevere(curves, dec.t), params.l * probs.p_ne_ns,
        costs,
    )


def _trace_rows(path):
    """(trial, severe label, non-severe label, cost) of every trace row."""
    with open(path, newline="") as fh:
        return [(int(i), sev, ns, float(cost)) for i, sev, ns, cost in list(csv.reader(fh))[1:]]


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
def test_trace_rows_match_scalar_rule(s0_params, s0_curves, s0_decision, tmp_path, mode):
    # Every row costs its two labels' costs from the closed forms, and the
    # rows come in the order of independent trials, not grouped by outcome.
    trials, seed = 1000, 9
    path = tmp_path / "trace.csv"
    simulate(s0_params, s0_decision, s0_curves, trials, seed, mode, trace_path=str(path))
    rows = _trace_rows(path)

    ks, q_e, kns, q_ne, costs = _race_constants(s0_params, s0_curves, s0_decision, mode)
    assert [row[0] for row in rows] == list(range(trials))
    for _, severe, nonsevere, cost in rows:
        assert cost == costs[severe] + costs[nonsevere]

    # Adjacent i.i.d. trials differ in outcome with probability 1 - sum(P^2);
    # rows grouped by outcome would change at most 8 times.
    severe_p = np.array([1 - ks, ks * q_e, ks * (1 - q_e)])
    nonsevere_p = np.array([1 - kns, kns * q_ne, kns * (1 - q_ne)])
    expected = (trials - 1) * (1 - np.sum(np.outer(severe_p, nonsevere_p) ** 2))
    changes = sum(a[1:3] != b[1:3] for a, b in zip(rows, rows[1:]))
    assert abs(changes - expected) <= 100


def test_trace_bytes_match_csv_writer(s0_params, s0_curves, s0_decision, tmp_path):
    # The trace is written as preformatted lines, a slice of rows at a time;
    # across slices it must give the bytes csv.writer gives for the same rows,
    # and its label counts must be the aggregate's counts.
    trials, seed, mode = 2 * simulate_module._TRACE_ROWS + 1000, 11, SimMode.WITH_BBP
    path = tmp_path / "trace.csv"
    out = simulate(s0_params, s0_decision, s0_curves, trials, seed, mode, trace_path=str(path))
    rows = _trace_rows(path)
    assert len(rows) == trials

    severe = Counter(row[1] for row in rows)
    nonsevere = Counter(row[2] for row in rows)
    for label in ("ewhh", "bhh", "none"):
        assert getattr(out, f"freq_severe_{label}") == severe[label] / trials
    for label in ("newhh", "user", "none"):
        assert getattr(out, f"freq_nonsevere_{label}") == nonsevere[label] / trials

    costs = _race_constants(s0_params, s0_curves, s0_decision, mode)[4]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["trial", "severe_event", "nonsevere_event", "cost"])
    writer.writerows(
        (i, s, ns, repr(float(costs[s] + costs[ns]))) for i, s, ns, _ in rows
    )
    assert path.read_bytes() == expected.getvalue().encode()


def _patch_races(monkeypatch, ks, kns, p_e_s, p_b_s, p_ne_ns):
    """Make ``simulate`` see these likelihoods and per-hacker win probabilities."""
    monkeypatch.setattr(simulate_module, "k_severe", lambda curves, t: ks)
    monkeypatch.setattr(simulate_module, "k_nonsevere", lambda curves, t: kns)

    def probabilities(*args):
        return replace(success_probabilities(*args), p_e_s=p_e_s, p_b_s=p_b_s, p_ne_ns=p_ne_ns)

    monkeypatch.setattr(simulate_module, "success_probabilities", probabilities)


_SEVERE_FIELDS = ("freq_severe_none", "freq_severe_ewhh", "freq_severe_bhh")
_NONSEVERE_FIELDS = ("freq_nonsevere_none", "freq_nonsevere_newhh", "freq_nonsevere_user")


def test_exact_cells_at_probability_edges(s0_params, s0_curves, s0_decision, monkeypatch):
    # The baseline has 3 experts, 5 non-experts and 4 black hats, so a win
    # probability of 1/3, 1/5 or 1/4 gives a race share q of exactly 1.
    trials = 2**55

    def run(seed=3):
        return simulate(s0_params, s0_decision, s0_curves, trials, seed, SimMode.WITH_BBP)

    # K in {0, 1} and q in {0, 1}: one outcome per race takes every trial.
    # (K, q) -> outcome: no bug, the white hat first, the other finder first.
    cases = {(0.0, 1): 0, (0.0, 0): 0, (1.0, 1): 1, (1.0, 0): 2}
    for (ks, expert_wins), severe in cases.items():
        for (kns, non_expert_wins), nonsevere in cases.items():
            _patch_races(
                monkeypatch, ks, kns,
                p_e_s=expert_wins / 3, p_b_s=(1 - expert_wins) / 4,
                p_ne_ns=non_expert_wins / 5,
            )
            out = run()
            for fields, hit in ((_SEVERE_FIELDS, severe), (_NONSEVERE_FIELDS, nonsevere)):
                assert [getattr(out, f) for f in fields] == [float(k == hit) for k in range(3)]
            assert out.std_error == 0.0

    # K_s * q_e rounded above K_s: the black hat's mass is exactly 0, not
    # negative, and no trial lands there, even at a trial count where the
    # multinomial's leftover would reach a trailing zero cell.
    p_e_s = 0.3333333333333334  # 2 ulps above 1/3: q_e = 1 + 2**-52
    assert 0.7 * (3 * p_e_s) > 0.7
    _patch_races(monkeypatch, 0.7, 0.3, p_e_s=p_e_s, p_b_s=0.0, p_ne_ns=0.08)
    for seed in range(5):
        out = run(seed)
        assert out.freq_severe_bhh == 0.0
        assert out.freq_severe_ewhh + out.freq_severe_none == 1.0


def test_refuses_likelihoods_outside_unit_interval(
    s0_params, s0_curves, s0_decision, monkeypatch
):
    for ks in (1.5, -0.1, float("nan")):
        _patch_races(monkeypatch, ks, 0.8, p_e_s=1 / 3, p_b_s=0.0, p_ne_ns=0.08)
        with pytest.raises(InfeasibleScenarioError, match="must lie in"):
            simulate(s0_params, s0_decision, s0_curves, 10, 1, SimMode.WITH_BBP)
