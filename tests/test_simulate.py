"""Monte Carlo simulator: refusals, determinism, agreement with closed forms."""

from __future__ import annotations

import csv
import importlib
import io
import typing
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
from bountygame.simulate import CHUNK_TRIALS

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


def test_identical_bytes_per_seed_across_chunk_boundary(s0_params, s0_curves, s0_decision):
    trials = CHUNK_TRIALS + 3
    first = simulate(s0_params, s0_decision, s0_curves, trials, 42, SimMode.WITH_BBP)
    second = simulate(s0_params, s0_decision, s0_curves, trials, 42, SimMode.WITH_BBP)
    assert first.to_json() == second.to_json()
    other = simulate(s0_params, s0_decision, s0_curves, trials, 43, SimMode.WITH_BBP)
    assert other.to_json() != first.to_json()


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


def _chunk_uniforms(seed, index, count):
    return np.random.Generator(np.random.SFC64([seed, index])).random((count, 2))


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
def test_trace_rows_match_scalar_rule(s0_params, s0_curves, s0_decision, tmp_path, mode):
    # Regenerate chunk 0's uniforms from the (seed, chunk) stream and
    # classify every trial one at a time, independently of the simulator.
    trials, seed = 1000, 9
    path = tmp_path / "trace.csv"
    simulate(s0_params, s0_decision, s0_curves, trials, seed, mode, trace_path=str(path))
    with open(path, newline="") as fh:
        body = list(csv.reader(fh))[1:]

    ks, q_e, kns, q_ne, costs = _race_constants(s0_params, s0_curves, s0_decision, mode)
    u = _chunk_uniforms(seed, 0, trials)

    # One uniform per race: below K * q the white hat wins, below K the
    # other finder, otherwise there is no bug.
    def race(x, k, q, white, other):
        return white if x < k * q else other if x < k else "none"

    assert len(body) == trials
    for i, (trial, severe, nonsevere, cost) in enumerate(body):
        want_sev = race(u[i, 0], ks, q_e, "ewhh", "bhh")
        want_ns = race(u[i, 1], kns, q_ne, "newhh", "user")
        assert (int(trial), severe, nonsevere) == (i, want_sev, want_ns)
        assert float(cost) == costs[want_sev] + costs[want_ns]


def _serial_reference_rows(params, curves, decision, mode, trials, seed):
    """(severe, non-severe) labels of every trial, chunk by chunk in one thread.

    Each chunk's uniforms are drawn whole from its (seed, chunk) stream.
    """
    ks, q_e, kns, q_ne, _ = _race_constants(params, curves, decision, mode)
    severe_labels = np.array(["none", "ewhh", "bhh"])
    nonsevere_labels = np.array(["none", "newhh", "user"])
    severe, nonsevere = [], []
    for index, first in enumerate(range(0, trials, CHUNK_TRIALS)):
        u = _chunk_uniforms(seed, index, min(CHUNK_TRIALS, trials - first))
        severe.append(severe_labels[(u[:, 0] < ks) * (1 + (u[:, 0] >= ks * q_e))])
        nonsevere.append(nonsevere_labels[(u[:, 1] < kns) * (1 + (u[:, 1] >= kns * q_ne))])
    return np.concatenate(severe), np.concatenate(nonsevere)


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize(
    "trials", [(1 << 14) + 1, (1 << 18) + (1 << 14) + 5, 3 * (1 << 18) + 17]
)
def test_counts_match_serial_whole_chunk_reference(
    s0_params, s0_curves, s0_decision, mode, trials
):
    # Chunks are drawn in sub-blocks and may run on worker threads; the
    # frequencies must still be those of whole-chunk draws in chunk order.
    seed = 77
    out = simulate(s0_params, s0_decision, s0_curves, trials, seed, mode)
    severe, nonsevere = _serial_reference_rows(
        s0_params, s0_curves, s0_decision, mode, trials, seed
    )
    for label in ("ewhh", "bhh", "none"):
        assert getattr(out, f"freq_severe_{label}") == np.count_nonzero(severe == label) / trials
    for label in ("newhh", "user", "none"):
        assert (
            getattr(out, f"freq_nonsevere_{label}")
            == np.count_nonzero(nonsevere == label) / trials
        )


@pytest.mark.parametrize("workers", [1, 4])
def test_same_bytes_whatever_the_worker_count(
    s0_params, s0_curves, s0_decision, monkeypatch, workers
):
    # One worker runs the chunks serially; four exceed the chunk window of
    # a two-core machine. Neither may change a byte of the result.
    def runs():
        trials = 3 * CHUNK_TRIALS + 17
        return [
            simulate(s0_params, s0_decision, s0_curves, trials, 5, mode).to_json()
            for mode in SimMode
        ]

    default = runs()
    monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: workers)
    assert runs() == default


def test_trace_bytes_match_csv_writer(
    s0_params, s0_curves, s0_decision, tmp_path, monkeypatch
):
    # The trace is written as preformatted lines; a three-chunk run on three
    # workers (all chunks in flight at once) must give the bytes csv.writer
    # gives for the same rows.
    monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 3)
    trials, seed, mode = 2 * CHUNK_TRIALS + 1000, 11, SimMode.WITH_BBP
    path = tmp_path / "trace.csv"
    simulate(s0_params, s0_decision, s0_curves, trials, seed, mode, trace_path=str(path))
    severe, nonsevere = _serial_reference_rows(
        s0_params, s0_curves, s0_decision, mode, trials, seed
    )
    costs = _race_constants(s0_params, s0_curves, s0_decision, mode)[4]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["trial", "severe_event", "nonsevere_event", "cost"])
    writer.writerows(
        (i, s, ns, repr(float(costs[s] + costs[ns])))
        for i, (s, ns) in enumerate(zip(severe.tolist(), nonsevere.tolist()))
    )
    assert path.read_bytes() == expected.getvalue().encode()


def test_chunk_codes_at_probability_edges():
    # The thresholds are (K_s, K_s * q_e, K_ns, K_ns * q_ne); 2^14 + 5 trials
    # end in a short sub-block.
    seed, index, count = 31, 2, (1 << 14) + 5
    codes = simulate_module._chunk_codes(seed, index, count, (1.0, 1.0, 0.0, 0.0))
    assert np.all(codes == 3)  # an expert finds the severe bug, no non-severe bug
    codes = simulate_module._chunk_codes(seed, index, count, (1.0, 0.0, 1.0, 1.0))
    assert np.all(codes == 7)  # the black hat, then the non-expert
    # K_s * q_e rounded above K_s: a uniform at or above K_s is still "none",
    # so every trial is an expert find or no severe bug, never a black hat's.
    codes = simulate_module._chunk_codes(seed, index, count, (0.5, 0.5 + 1e-12, 0.5, 0.25))
    u = _chunk_uniforms(seed, index, count)
    assert np.array_equal(codes // 3, (u[:, 0] < 0.5).astype(np.uint8))
    assert np.array_equal(codes % 3, (u[:, 1] < 0.5) * (1 + (u[:, 1] >= 0.25)))


def test_chunk_streams_differ_by_seed_and_chunk():
    # A key that ignored the chunk index would repeat chunk 0's draws in
    # every later chunk.
    seed, count, thresholds = 5, 64, (0.5, 0.25, 0.5, 0.25)
    keys = [(seed, 0), (seed, 1), (seed + 1, 0)]
    first_rows = [tuple(_chunk_uniforms(s, index, 1)[0]) for s, index in keys]
    codes = [simulate_module._chunk_codes(s, index, count, thresholds) for s, index in keys]
    assert len(set(first_rows)) == 3
    assert len({c.tobytes() for c in codes}) == 3


def test_chunk_codes_annotations_resolve():
    # numpy is imported for type checkers only, so get_type_hints needs it
    # as a local name; every other annotation resolves from the module.
    hints = typing.get_type_hints(simulate_module._chunk_codes, localns={"np": np})
    assert hints["thresholds"] == tuple[float, float, float, float]
    assert hints["return"] is np.ndarray
