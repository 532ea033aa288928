"""Ratio-contest severe race: solver, sensitivities, existence guards."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from bountygame import (
    DomainError,
    MarketParams,
    VendorDecision,
    k_severe,
    ratio_sensitivities,
    solve_ratio_equilibrium,
)
from bountygame.verification import FeasibleSampler


def test_baseline_solve_converges(s0_params, s0_curves, s0_decision):
    eq = solve_ratio_equilibrium(s0_params, s0_decision, s0_curves)
    assert eq.converged
    assert eq.max_residual <= 1e-10
    assert eq.alpha_s > 0.0 and eq.mu_s > 0.0


def test_symmetric_market_has_closed_form(s0_curves):
    # Equal costs and equal prizes collapse both first-order conditions to
    # alpha = mu = sqrt(K_s V / ((n+m) c)). With V = 5, c = 2, K_s = 0.5,
    # n + m = 5 that is exactly 0.5.
    params = MarketParams(
        n=2, l=5, m=3, c_w=2.0, c_b=2.0,
        r_s=1.0, W=5.0, TC_s=40.0, TC_ns=1.0, x=0.5,
    )
    dec = VendorDecision(t=2.0, p_s=4.0, p_ns=0.5)
    eq = solve_ratio_equilibrium(params, dec, s0_curves)
    assert eq.alpha_s == pytest.approx(0.5, abs=1e-10)
    assert eq.mu_s == pytest.approx(0.5, abs=1e-10)


def test_initial_guess_reaches_same_point(s0_params, s0_curves, s0_decision):
    base = solve_ratio_equilibrium(s0_params, s0_decision, s0_curves)
    seeded = solve_ratio_equilibrium(
        s0_params, s0_decision, s0_curves, initial_guess=(0.9, 0.9)
    )
    assert seeded.alpha_s == pytest.approx(base.alpha_s, rel=1e-9)
    assert seeded.mu_s == pytest.approx(base.mu_s, rel=1e-9)
    with pytest.raises(DomainError):
        solve_ratio_equilibrium(
            s0_params, s0_decision, s0_curves, initial_guess=(0.0, 0.5)
        )


def test_sensitivity_signs_and_finite_differences(s0_params, s0_curves, s0_decision):
    eq = solve_ratio_equilibrium(s0_params, s0_decision, s0_curves)
    sens = ratio_sensitivities(s0_params, s0_decision, s0_curves, eq)
    assert sens.det > 0.0
    assert sens.dalpha_dps > 0.0
    assert sens.dmu_dps < 0.0

    h = 1e-5 * max(1.0, s0_decision.p_s)
    up = solve_ratio_equilibrium(s0_params, replace(s0_decision, p_s=s0_decision.p_s + h), s0_curves)
    dn = solve_ratio_equilibrium(s0_params, replace(s0_decision, p_s=s0_decision.p_s - h), s0_curves)
    fd_alpha = (up.alpha_s - dn.alpha_s) / (2.0 * h)
    fd_mu = (up.mu_s - dn.mu_s) / (2.0 * h)
    assert sens.dalpha_dps == pytest.approx(fd_alpha, rel=1e-3)
    assert sens.dmu_dps == pytest.approx(fd_mu, rel=1e-3)


def test_residuals_small_over_seeded_draws():
    sampler = FeasibleSampler(733)
    for _ in range(100):
        scen = sampler.draw_ratio()
        eq = solve_ratio_equilibrium(scen.params, scen.decision, scen.curves)
        assert eq.converged
        assert eq.max_residual <= 1e-10


def test_one_on_one_is_degenerate(s0_params, s0_curves, s0_decision):
    with pytest.raises(DomainError):
        solve_ratio_equilibrium(
            replace(s0_params, n=1, m=1), s0_decision, s0_curves
        )


def test_single_expert_existence_condition(s0_curves):
    # n = 1 needs m c_w W > c_b (r_s + p_s); make the white prize too rich.
    params = MarketParams(
        n=1, l=5, m=2, c_w=2.0, c_b=2.0,
        r_s=1.0, W=1.0, TC_s=40.0, TC_ns=1.0, x=0.5,
    )
    rich = VendorDecision(t=2.0, p_s=10.0, p_ns=0.5)
    with pytest.raises(DomainError):
        solve_ratio_equilibrium(params, rich, s0_curves)
    # Shrink the severe bounty and the equilibrium exists again.
    ok = VendorDecision(t=2.0, p_s=0.5, p_ns=0.5)
    eq = solve_ratio_equilibrium(params, ok, s0_curves)
    assert eq.converged


def test_zero_prizes_rejected(s0_params, s0_curves, s0_decision):
    with pytest.raises(DomainError):
        solve_ratio_equilibrium(
            replace(s0_params, r_s=0.0), replace(s0_decision, p_s=0.0), s0_curves
        )
    with pytest.raises(DomainError):
        solve_ratio_equilibrium(replace(s0_params, W=0.0), s0_decision, s0_curves)


@pytest.mark.parametrize(
    "market, message",
    [
        (dict(n=1, m=3, c_w=1.7, c_b=2.0, W=0.431372549019608), "with n=1"),
        (dict(n=2, m=1, c_w=1.7, c_b=1.3, W=1.6823529411764706), "with m=1"),
    ],
)
def test_existence_boundary_within_rounding(s0_curves, market, message):
    # Both markets pass the existence check, yet the rounded linear
    # coefficient of the ratio quadratic leaves no positive root.
    params = MarketParams(l=5, r_s=0.1, TC_s=40.0, TC_ns=1.0, x=0.5, **market)
    dec = VendorDecision(t=2.0, p_s=1.0, p_ns=0.5)
    with pytest.raises(DomainError, match=message):
        solve_ratio_equilibrium(params, dec, s0_curves)


def test_stiff_single_expert_market_solves_to_rounding(s0_curves):
    # mu / alpha is about 1e-5 here, a stiff market for iterative schemes.
    # Both first-order conditions must hold to rounding, measured exactly.
    params = MarketParams(
        n=1, l=5, m=60, c_w=3.2276936140751733, c_b=1.6680222058731522,
        r_s=60.45441693909165, W=0.6105330373652458, TC_s=40.0, TC_ns=1.0, x=0.5,
    )
    dec = VendorDecision(t=3.1893556012880158, p_s=10.387514663820074, p_ns=0.5)
    eq = solve_ratio_equilibrium(params, dec, s0_curves)
    n, m = params.n, params.m
    big_n, kappa = n + m, n + m - 1
    ks = Fraction(k_severe(s0_curves, dec.t))
    q_w = ks * (Fraction(params.r_s) + Fraction(dec.p_s)) / big_n
    q_b = ks * Fraction(params.W) / big_n
    alpha, mu = Fraction(eq.alpha_s), Fraction(eq.mu_s)
    white = Fraction(params.c_w) * alpha
    black = Fraction(params.c_b) * mu
    r_white = (q_w * kappa / ((n - 1) * alpha + m * mu) - white) / white
    r_black = (q_b * kappa / (n * alpha + (m - 1) * mu) - black) / black
    assert abs(r_white) <= 1e-15
    assert abs(r_black) <= 1e-15


def test_converged_is_relative_near_the_existence_boundary(s0_curves):
    # Just inside the n = 1 boundary alpha is about 4.6e6, so rounding
    # leaves an absolute white hat residual near 1.9e-9, while relative to
    # c_w alpha it is about 1.3e-16: the point solves both conditions.
    params = MarketParams(
        n=1, l=5, m=2, c_w=3.2, c_b=2.0,
        r_s=0.1, W=0.3437500000000009, TC_s=40.0, TC_ns=1.0, x=0.5,
    )
    dec = VendorDecision(t=2.0, p_s=1.0, p_ns=0.5)
    eq = solve_ratio_equilibrium(params, dec, s0_curves)
    assert eq.alpha_s > 1e6
    assert eq.max_residual > 1e-10
    assert abs(eq.residuals[0]) <= 1e-15 * params.c_w * eq.alpha_s
    assert abs(eq.residuals[1]) <= 1e-15 * params.c_b * eq.mu_s
    assert eq.converged
