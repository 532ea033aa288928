"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Every criterion runs against independent oracles (grid searches, finite
differences, raw Monte Carlo) at the stated tolerances. A criterion both
prints its verdict, so a plain ``pytest tests/test_acceptance.py -q`` reads
as a checklist, and asserts it, so the gate fails loudly.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bountygame import (
    FeasibleSampler,
    HackerType,
    SimMode,
    best_response_oracle,
    condition1,
    equilibrium,
    identity_suite,
    optimal_release_no_bbp,
    optimal_whh_count,
    ratio_sensitivities,
    simulate,
    solve_ratio_equilibrium,
    verify_proposition_1,
    verify_proposition_2,
    verify_proposition_3,
)
from bountygame import vendor
from bountygame.cli import main as cli_main
from bountygame.vendor import (
    _bbp_breakdown,
    concentrated_bbp_profit,
    profit_without_bbp,
)

BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"


def _verdict(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label} ({detail})")
    assert ok, f"criterion {number}: {label}: {detail}"


def test_criterion_01_efforts_match_grid_oracle(capsys, s0_params):
    start = time.perf_counter()
    sampler = FeasibleSampler(1001)
    worst = 0.0
    for scen in sampler.draws("basic", 1000):
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        e_s, e_ns = best_response_oracle(
            scen.params, scen.decision, scen.curves, profile, HackerType.EWHH
        )
        beta = best_response_oracle(
            scen.params, scen.decision, scen.curves, profile, HackerType.NEWHH
        )
        mu = best_response_oracle(
            scen.params, scen.decision, scen.curves, profile, HackerType.BHH
        )
        worst = max(
            worst,
            abs(e_s - profile.alpha_s),
            abs(e_ns - profile.alpha_ns),
            abs(beta - profile.beta_ns),
            abs(mu - profile.mu_s),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 0.001 and elapsed < 120.0
    _verdict(
        capsys, 1, "closed-form efforts match the best-response grid oracle",
        ok, f"1000 draws, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_severe_race_normalizes(capsys):
    report = identity_suite(FeasibleSampler(1002), 1000)
    ok = report.passed and report.draws_tested == 1000
    _verdict(
        capsys, 2, "severe race normalizes to 1e-12 plus algebraic identities",
        ok, f"1000 draws, min slack {report.min_margin:.3f}, "
            f"{len(report.failures)} failures",
    )


def test_criterion_03_bounty_monotonicity_and_crossing(capsys, tmp_path):
    grid = [20.0 * i / 49 for i in range(50)]
    report = verify_proposition_1(FeasibleSampler(1003), 1000, grid)

    out = tmp_path / "figure1.csv"
    rc = cli_main(["sweep", str(BASELINE), "--out", str(out)])
    capsys.readouterr()  # swallow the sweep summary; the verdict line follows
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    crossing = None
    for a, b in zip(rows, rows[1:]):
        da = float(a[6]) - float(a[9])
        db = float(b[6]) - float(b[9])
        if da < 0.0 <= db:
            pa, pb = float(a[0]), float(b[0])
            crossing = pa + (pb - pa) * (-da) / (db - da)
            break
    ok = (
        report.passed
        and report.draws_tested == 1000
        and rc == 0
        and crossing is not None
        and abs(crossing - 7.0) <= 1e-9
    )
    _verdict(
        capsys, 3, "expert odds rise and black hat odds fall in the severe bounty",
        ok, f"1000 draws x 50 grid points, 0 violations, "
            f"figure crossing at p_s = {crossing!r}",
    )


def test_criterion_04_program_beats_no_program(capsys):
    report = verify_proposition_2(FeasibleSampler(1004), 300)
    ok = report.passed and report.draws_tested == 300 and report.min_margin > 0.0
    _verdict(
        capsys, 4, "viable program profit beats no-program profit, decomposed",
        ok, f"300 draws tested ({report.excluded} excluded), "
            f"min gap {report.min_margin:.3e}",
    )


def test_criterion_05_program_vendor_releases_earlier(capsys):
    report = verify_proposition_3(FeasibleSampler(1005), 300)

    sampler = FeasibleSampler(1006)
    h = 1e-4
    compared = attempted = 0
    worst_rel = 0.0
    for scen in sampler.draws("release", 25):
        params, curves = scen.params, scen.curves
        t_bbp = scen.decision.t
        t_nb = optimal_release_no_bbp(params, curves).t
        attempted += 2

        fd = (
            profit_without_bbp(params, t_bbp + h, curves).total
            - profit_without_bbp(params, t_bbp - h, curves).total
        ) / (2 * h)
        analytic = vendor._slope(curves, vendor._no_bbp_coefficients(params)[0], t_bbp)
        worst_rel = max(worst_rel, abs(analytic - fd) / max(abs(analytic), 1e-6))
        compared += 1

        if (
            condition1(params, curves, t_nb - h).feasible
            and condition1(params, curves, t_nb + h).feasible
        ):
            fd = (
                concentrated_bbp_profit(params, curves, t_nb + h)
                - concentrated_bbp_profit(params, curves, t_nb - h)
            ) / (2 * h)
            analytic = vendor._slope(curves, vendor._bbp_coefficients(params), t_nb)
            worst_rel = max(worst_rel, abs(analytic - fd) / max(abs(analytic), 1e-6))
            compared += 1

    ok = (
        report.passed
        and report.draws_tested == 300
        and report.min_margin > 0.0
        and compared >= 0.9 * attempted
        and worst_rel <= 1e-4
    )
    _verdict(
        capsys, 5, "with a program the vendor releases earlier, slopes checked",
        ok, f"300 orderings, min time gap {report.min_margin:.3e}; "
            f"{compared}/{attempted} slope pairs, worst rel err {worst_rel:.2e}",
    )


def test_criterion_06_optimal_bounties_match_grid_max(capsys):
    sampler = FeasibleSampler(1007)
    worst_steps = 0.0
    sep_worst = 0.0
    for scen in sampler.draws("bbp", 200):
        params, curves = scen.params, scen.curves
        t, ps_star, pns_star = scen.decision.t, scen.decision.p_s, scen.decision.p_ns
        ks = curves.k_severe(t)

        def profit(p_s, p_ns):
            return _bbp_breakdown(params, curves, t, ks, p_s, p_ns).total

        ps_grid = np.linspace(0.0, 2.0 * ps_star, 401)
        pns_grid = np.linspace(0.0, 2.0 * pns_star, 81)
        f_vals = np.array([profit(p, pns_star) for p in ps_grid])
        g_vals = np.array([profit(ps_star, q) for q in pns_grid])
        base = profit(ps_star, pns_star)
        surface = f_vals[:, None] + g_vals[None, :] - base
        i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)

        # The bounty dimensions do not interact; spot-check that the outer
        # sum reproduces direct evaluations before trusting its argmax.
        for a, b in ((0, 0), (100, 40), (400, 80)):
            direct = profit(ps_grid[a], pns_grid[b])
            gap = abs(direct - (f_vals[a] + g_vals[b] - base))
            sep_worst = max(sep_worst, gap / max(1.0, abs(direct)))

        step_s = ps_grid[1] - ps_grid[0]
        step_ns = pns_grid[1] - pns_grid[0]
        worst_steps = max(
            worst_steps,
            abs(ps_grid[i] - ps_star) / step_s,
            abs(pns_grid[j] - pns_star) / step_ns,
        )
    ok = worst_steps <= 1.0 + 1e-9 and sep_worst <= 1e-9
    _verdict(
        capsys, 6, "closed-form optimal bounties sit on the 2-D grid maximum",
        ok, f"200 draws, worst offset {worst_steps:.3f} grid steps, "
            f"separability gap {sep_worst:.1e}",
    )


def test_criterion_07_feasibility_band_never_empty(capsys):
    sampler = FeasibleSampler(1008)
    violations = 0
    min_width = float("inf")
    for scen in sampler.draws("raw", 10_000):
        band = condition1(scen.params, scen.curves, scen.decision.t)
        width = band.ub - band.lb
        min_width = min(min_width, width)
        if width <= 0.0:
            violations += 1
    ok = violations == 0
    _verdict(
        capsys, 7, "feasibility band upper bound exceeds lower bound",
        ok, f"10000 draws, {violations} exceptions, min width {min_width:.6f}",
    )


def test_criterion_08_expert_count_candidates(capsys, s0_params, s0_curves):
    exact = True
    previous = None
    increasing = True
    below_m = True
    for m in range(1, 11):
        report = optimal_whh_count(replace(s0_params, m=m), s0_curves, 2.0)
        exact = exact and report.n_quadratic == (m + 1) / 2
        if m >= 2:
            below_m = below_m and report.n_closed_form < m
            if previous is not None:
                increasing = increasing and report.n_closed_form > previous
            previous = report.n_closed_form
    big = optimal_whh_count(replace(s0_params, m=20), s0_curves, 2.0)
    documented = "not a root" in big.note and "(m+1)/2" in big.note
    ok = exact and below_m and increasing and big.n_brute_force >= 1 and documented
    _verdict(
        capsys, 8, "expert head-count candidates behave and disagree as documented",
        ok, f"quadratic exact m=1..10: {exact}, closed form < m and rising: "
            f"{below_m and increasing}, m=20 brute force {big.n_brute_force}",
    )


def test_criterion_09_ratio_contest_solver(capsys):
    sampler = FeasibleSampler(1009)
    worst_residual = 0.0
    signs_ok = True
    compared = 0
    worst_rel = 0.0
    for scen in sampler.draws("ratio", 1000):
        params, dec, curves = scen.params, scen.decision, scen.curves
        eq = solve_ratio_equilibrium(params, dec, curves)
        worst_residual = max(worst_residual, eq.max_residual)
        sens = ratio_sensitivities(params, dec, curves, eq)
        signs_ok = signs_ok and sens.dalpha_dps > 0.0 and sens.dmu_dps < 0.0

        h = 1e-5 * max(1.0, dec.p_s)
        if dec.p_s - h <= 0.0:
            continue
        guess = (eq.alpha_s, eq.mu_s)
        hi = solve_ratio_equilibrium(params, replace(dec, p_s=dec.p_s + h), curves, guess)
        lo = solve_ratio_equilibrium(params, replace(dec, p_s=dec.p_s - h), curves, guess)
        fd_alpha = (hi.alpha_s - lo.alpha_s) / (2 * h)
        fd_mu = (hi.mu_s - lo.mu_s) / (2 * h)
        worst_rel = max(
            worst_rel,
            abs(sens.dalpha_dps - fd_alpha) / max(abs(sens.dalpha_dps), 1e-8),
            abs(sens.dmu_dps - fd_mu) / max(abs(sens.dmu_dps), 1e-8),
        )
        compared += 1
    ok = (
        worst_residual <= 1e-10
        and signs_ok
        and compared >= 990
        and worst_rel <= 1e-3
    )
    _verdict(
        capsys, 9, "ratio-contest equilibria solve and respond to the bounty",
        ok, f"1000 draws, worst residual {worst_residual:.2e}, "
            f"{compared} slope pairs, worst rel err {worst_rel:.2e}",
    )


def test_criterion_10_monte_carlo_agrees(capsys, s0_params, s0_curves, s0_decision):
    trials = 1_000_000
    start = time.perf_counter()
    first = simulate(s0_params, s0_decision, s0_curves, trials, 1, SimMode.WITH_BBP)
    elapsed = time.perf_counter() - start
    again = simulate(s0_params, s0_decision, s0_curves, trials, 1, SimMode.WITH_BBP)
    without = simulate(s0_params, s0_decision, s0_curves, trials, 1, SimMode.WITHOUT_BBP)

    p_with = 0.5 * 3 * 0.12755102040816327
    p_without = 0.5 * 3 * (5.0 / 42.0)
    z_with = abs(first.freq_severe_ewhh - p_with) / (
        (p_with * (1 - p_with) / trials) ** 0.5
    )
    z_without = abs(without.freq_severe_ewhh - p_without) / (
        (p_without * (1 - p_without) / trials) ** 0.5
    )
    deterministic = first.to_json() == again.to_json()
    ok = z_with <= 3.0 and z_without <= 3.0 and deterministic and elapsed < 30.0
    _verdict(
        capsys, 10, "one million simulated races agree with the closed forms",
        ok, f"z = {z_with:.2f} with program, {z_without:.2f} without, "
            f"identical bytes {deterministic}, {elapsed:.2f}s",
    )
