"""Hacker-stage equilibria, success probabilities, and the grid oracle."""

from __future__ import annotations

import typing
from dataclasses import replace

import numpy as np
import pytest

from bountygame import (
    DomainError,
    HackerType,
    Regime,
    best_response_oracle,
    corner_equilibrium,
    equilibrium,
    focal_payoff,
    interior_equilibrium,
    optimal_bounties,
    select_regime,
    solve_ratio_equilibrium,
    success_probabilities,
)
from bountygame import hackers
from bountygame.verification import FeasibleSampler


def test_baseline_corner_efforts_exact(s0_params, s0_curves, s0_decision):
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    assert profile.regime is Regime.CORNER
    assert profile.feasible
    # K_s = 0.5 exactly at t = 2, so these are exact float identities.
    assert profile.alpha_s == 0.125
    assert profile.alpha_ns == 0.0
    assert profile.beta_ns == 0.08
    assert profile.mu_s == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_baseline_success_probabilities_exact(s0_params, s0_curves, s0_decision):
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    probs = success_probabilities(s0_params, s0_decision, s0_curves, profile)
    assert probs.p_e_s == pytest.approx(0.12755102040816327, abs=1e-15)
    assert probs.p_b_s == pytest.approx(0.15433673469387754, abs=1e-15)
    assert probs.p_ne_ns == 0.08
    assert probs.p_e_ns == 0.0
    assert probs.clipped == ()
    assert not probs.any_clipped


def test_baseline_normalization_exact(s0_params, s0_curves, s0_decision):
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    probs = success_probabilities(s0_params, s0_decision, s0_curves, profile)
    total = s0_params.n * probs.p_e_s + s0_params.m * probs.p_b_s
    assert total == pytest.approx(1.0, abs=1e-15)


def test_regime_selection_boundary(s0_params, s0_curves, s0_decision):
    # At t = 2: E_s / c_w = 0.5 * 3.5 / (7 * 2) = 0.125 and
    # E_ns = 0.8 * p_ns / 8 = 0.1 * p_ns, so the boundary sits at p_ns = 1.25.
    assert select_regime(s0_params, s0_decision, s0_curves) is Regime.CORNER
    high = replace(s0_decision, p_ns=1.3)
    assert select_regime(s0_params, high, s0_curves) is Regime.INTERIOR
    # Exact tie goes to the interior family.
    tie = replace(s0_decision, p_ns=1.25)
    assert select_regime(s0_params, tie, s0_curves) is Regime.INTERIOR


def test_interior_efforts_hand_computed(s0_params, s0_curves, s0_decision):
    # p_ns = 2: E_s = 0.25, E_ns = 0.2, c_w - 1 = 1.
    dec = replace(s0_decision, p_ns=2.0)
    profile = equilibrium(s0_params, dec, s0_curves)
    assert profile.regime is Regime.INTERIOR
    assert profile.alpha_s == pytest.approx(0.05, abs=1e-15)
    assert profile.alpha_ns == pytest.approx(0.15, abs=1e-15)
    assert profile.beta_ns == pytest.approx(0.2, abs=1e-15)
    assert profile.mu_s == pytest.approx(2.0 / 7.0, abs=1e-15)


def test_equilibrium_dispatches_on_regime(s0_params, s0_curves, s0_decision):
    dec = replace(s0_decision, p_ns=2.0)
    assert equilibrium(s0_params, dec, s0_curves) == interior_equilibrium(
        s0_params, dec, s0_curves
    )
    assert equilibrium(s0_params, s0_decision, s0_curves) == corner_equilibrium(
        s0_params, s0_decision, s0_curves
    )


def test_efforts_never_clamped_but_flagged(s0_params, s0_curves, s0_decision):
    dec = replace(s0_decision, p_s=100.0)
    profile = corner_equilibrium(s0_params, dec, s0_curves)
    # alpha_s = 0.5 * 101 / (7 * 2) is far above 1 and reported as is.
    assert profile.alpha_s > 3.0
    assert not profile.feasible


def test_probabilities_clip_and_break_normalization(s0_params, s0_curves, s0_decision):
    dec = replace(s0_decision, p_s=100.0)
    profile = corner_equilibrium(s0_params, dec, s0_curves)
    probs = success_probabilities(s0_params, dec, s0_curves, profile)
    assert probs.p_b_s == 0.0
    assert "p_b_s" in probs.clipped
    total = s0_params.n * probs.p_e_s + s0_params.m * probs.p_b_s
    # Pre-clamp the race sums to 1 exactly; zeroing the negative black hat
    # mass leaves the expert side holding more than the whole race.
    assert total > 1.0


def test_normalization_property_over_seeded_draws():
    sampler = FeasibleSampler(101)
    for _ in range(200):
        scen = sampler.draw_basic()
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        probs = success_probabilities(scen.params, scen.decision, scen.curves, profile)
        assert probs.clipped == ()
        total = scen.params.n * probs.p_e_s + scen.params.m * probs.p_b_s
        assert total == pytest.approx(1.0, abs=1e-12)


def test_focal_payoff_peaks_at_equilibrium(s0_params, s0_curves, s0_decision):
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    own = focal_payoff(
        s0_params, s0_decision, s0_curves, profile, HackerType.EWHH,
        (profile.alpha_s, profile.alpha_ns),
    )
    for d_s in (-0.05, -0.01, 0.01, 0.05):
        for d_ns in (0.0, 0.02):
            e_s = profile.alpha_s + d_s
            e_ns = profile.alpha_ns + d_ns
            if not (0.0 <= e_s <= 1.0 and 0.0 <= e_ns <= 1.0):
                continue
            deviated = focal_payoff(
                s0_params, s0_decision, s0_curves, profile,
                HackerType.EWHH, (e_s, e_ns),
            )
            assert deviated <= own + 1e-12
    own_b = focal_payoff(
        s0_params, s0_decision, s0_curves, profile, HackerType.BHH, profile.mu_s
    )
    for d in (-0.1, -0.01, 0.01, 0.1):
        deviated = focal_payoff(
            s0_params, s0_decision, s0_curves, profile, HackerType.BHH,
            profile.mu_s + d,
        )
        assert deviated <= own_b + 1e-12


def test_focal_payoff_shape_errors(s0_params, s0_curves, s0_decision):
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    with pytest.raises(DomainError):
        focal_payoff(
            s0_params, s0_decision, s0_curves, profile, HackerType.EWHH, 0.1
        )
    with pytest.raises(DomainError):
        focal_payoff(
            s0_params, s0_decision, s0_curves, profile, HackerType.BHH, (0.1, 0.2)
        )


@pytest.mark.parametrize("p_ns", [0.5, 2.0])
def test_oracle_agrees_with_closed_forms(s0_params, s0_curves, s0_decision, p_ns):
    dec = replace(s0_decision, p_ns=p_ns)
    profile = equilibrium(s0_params, dec, s0_curves)
    e_s, e_ns = best_response_oracle(
        s0_params, dec, s0_curves, profile, HackerType.EWHH
    )
    assert e_s == pytest.approx(profile.alpha_s, abs=0.001)
    assert e_ns == pytest.approx(profile.alpha_ns, abs=0.001)
    beta = best_response_oracle(s0_params, dec, s0_curves, profile, HackerType.NEWHH)
    assert beta == pytest.approx(profile.beta_ns, abs=0.001)
    mu = best_response_oracle(s0_params, dec, s0_curves, profile, HackerType.BHH)
    assert mu == pytest.approx(profile.mu_s, abs=0.001)


def test_oracle_grid_edges(s0_params, s0_curves, s0_decision):
    # A zero prize leaves only the effort cost, so the first grid point
    # wins; a prize whose unconstrained optimum lies above 1 pins the
    # argmax to the last point.
    for p_ns, want in ((0.0, 0.0), (20.0, 1.0)):
        dec = replace(s0_decision, p_ns=p_ns)
        profile = corner_equilibrium(s0_params, dec, s0_curves)
        assert best_response_oracle(
            s0_params, dec, s0_curves, profile, HackerType.NEWHH
        ) == want
    rich = replace(s0_params, r_s=100.0)
    profile = corner_equilibrium(rich, s0_decision, s0_curves)
    assert profile.alpha_s > 1.0
    assert best_response_oracle(
        rich, s0_decision, s0_curves, profile, HackerType.EWHH
    ) == (1.0, 0.0)


@pytest.fixture(scope="module")
def basic_draws():
    sampler = FeasibleSampler(505)
    draws = []
    for _ in range(50):
        scen = sampler.draw_basic()
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        draws.append((scen.params, scen.decision, scen.curves, profile))
    return draws


def _full_grid_expert_argmax(params, dec, curves, profile):
    grid = np.arange(1001, dtype=np.float64) * 0.001
    payoff = focal_payoff(
        params, dec, curves, profile, HackerType.EWHH, (grid[:, None], grid[None, :])
    )
    i, j = np.unravel_index(np.argmax(payoff), payoff.shape)
    return float(grid[i]), float(grid[j])


def _off_equilibrium_draws(ranges, count=25):
    # Raw wide-range markets against random efforts, most of them far from
    # any equilibrium, so the winner often sits on an edge of the grid.
    sampler = FeasibleSampler(5, ranges=ranges)
    rng = np.random.default_rng(77)
    draws = []
    for scen in sampler.draws("raw", count):
        alpha_s, alpha_ns, beta_ns, mu_s = rng.uniform(0.0, 1.5, 4).tolist()
        others = hackers.EffortProfile(
            alpha_s, alpha_ns, beta_ns, mu_s, Regime.INTERIOR, feasible=False
        )
        draws.append((scen.params, scen.decision, scen.curves, others))
    return draws


def test_blocked_expert_oracle_matches_full_grid(monkeypatch, basic_draws, wide_ranges):
    # The expert oracle searches only the rows and columns that can hold the
    # maximum, a block of rows at a time; the winner must be the first argmax
    # of focal_payoff over the whole grid, also when the last block is short
    # (1001 = 31 * 32 + 9 rows), and at profiles off the equilibrium.
    for params, dec, curves, profile in basic_draws + _off_equilibrium_draws(wide_ranges):
        want = _full_grid_expert_argmax(params, dec, curves, profile)
        for rows in (1, 7, 32, 2000):
            monkeypatch.setattr(hackers, "_ORACLE_BLOCK_ROWS", rows)
            got = best_response_oracle(params, dec, curves, profile, HackerType.EWHH)
            assert got == want, rows


def _patch_groups(monkeypatch, severe_at, nonsevere_at):
    """Payoff groups that are -1 off the given {grid index: value} entries."""

    def groups(*args):
        severe, nonsevere = np.full(np.shape(args[-2]), -1.0), np.full(np.shape(args[-1]), -1.0)
        for group, entries in ((severe, severe_at), (nonsevere, nonsevere_at)):
            for k, value in entries.items():
                group.flat[k] = value
        return severe, nonsevere

    monkeypatch.setattr(hackers, "_ewhh_payoff_groups", groups)


@pytest.mark.parametrize("block_rows", [1, 7, 32])
def test_blocked_expert_oracle_breaks_ties_row_major(
    monkeypatch, s0_params, s0_curves, s0_decision, block_rows
):
    # Flat payoff groups leave only the cross term -e_s * e_ns, which is
    # zero along the whole first row and first column: every block has a
    # tied maximum, and the first grid point must still win.
    monkeypatch.setattr(hackers, "_ORACLE_BLOCK_ROWS", block_rows)
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    args = (s0_params, s0_decision, s0_curves, profile, HackerType.EWHH)
    _patch_groups(monkeypatch, {}, {})
    assert best_response_oracle(*args) == (0.0, 0.0)
    # Severe maximum on rows 5 and 40 (different blocks), non-severe maximum
    # on columns 0 and 600: cells (5, 0) and (40, 0) tie, and every bound of
    # the kept rows and columns equals the maximum.
    _patch_groups(monkeypatch, {5: 2.0, 40: 2.0}, {0: 1.0, 600: 1.0})
    assert best_response_oracle(*args) == (5 * 0.001, 0.0)
    assert _full_grid_expert_argmax(*args[:4]) == (5 * 0.001, 0.0)
    # Severe maximum on rows 0 and 40, non-severe maximum on columns 9 and
    # 600: cells (0, 9) and (0, 600) tie.
    _patch_groups(monkeypatch, {0: 2.0, 40: 2.0}, {9: 1.0, 600: 1.0})
    assert best_response_oracle(*args) == (0.0, 9 * 0.001)
    assert _full_grid_expert_argmax(*args[:4]) == (0.0, 9 * 0.001)


def test_expert_oracle_seed_row_rounds_like_the_grid(
    monkeypatch, s0_params, s0_curves, s0_decision
):
    # Row 500 (e_s = 0.5) holds the largest severe group. Its payoff at
    # column 1000 is fl(fl(1.5 + 0.5 + 2**-52) - 0.5) = 1.5, a tie with
    # column 0 that column 0 wins; grouped as 1.5 + (0.5 + 2**-52 - 0.5) it
    # would read 1.5 + 2**-52, above every payoff the grid attains, and
    # would exclude the winning column.
    _patch_groups(monkeypatch, {500: 1.5}, {0: 0.0, 1000: 0.5 + 2.0**-52})
    profile = equilibrium(s0_params, s0_decision, s0_curves)
    args = (s0_params, s0_decision, s0_curves, profile)
    assert best_response_oracle(*args, HackerType.EWHH) == (0.5, 0.0)
    assert _full_grid_expert_argmax(*args) == (0.5, 0.0)


@pytest.mark.parametrize("focal_type", list(HackerType))
@pytest.mark.parametrize("field", ["alpha_s", "alpha_ns", "beta_ns", "mu_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_oracle_rejects_non_finite_profiles(
    s0_params, s0_curves, s0_decision, focal_type, field, value
):
    profile = replace(equilibrium(s0_params, s0_decision, s0_curves), **{field: value})
    with pytest.raises(DomainError, match="must be finite"):
        best_response_oracle(s0_params, s0_decision, s0_curves, profile, focal_type)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mu_s, beta_ns", [(1e300, 0.08), (-1e300, 0.08), (-1e300, 1e300)])
def test_expert_oracle_rejects_an_overflowing_payoff(
    s0_params, s0_curves, s0_decision, mu_s, beta_ns
):
    # Finite inputs whose payoff groups overflow: severe to -inf or +inf,
    # and in the last case non-severe to -inf as well, so that the grid's
    # payoffs are inf - inf = nan. No payoff is finite, so there is no
    # maximum to report.
    huge = replace(s0_decision, p_s=1e300, p_ns=1e300)
    profile = replace(
        equilibrium(s0_params, s0_decision, s0_curves), mu_s=mu_s, beta_ns=beta_ns
    )
    with pytest.raises(DomainError, match="not finite"):
        best_response_oracle(s0_params, huge, s0_curves, profile, HackerType.EWHH)


def test_single_population_markets(s0_params, s0_curves, s0_decision):
    # l = 1: the lone non-expert races only the clock, contest average 0.
    solo = replace(s0_params, l=1)
    profile = equilibrium(solo, s0_decision, s0_curves)
    assert profile.beta_ns == pytest.approx(0.8 * 0.5 / 1.0, abs=1e-15)
    probs = success_probabilities(solo, s0_decision, s0_curves, profile)
    assert probs.p_ne_ns == pytest.approx(0.4, abs=1e-15)


def test_market_guards(s0_params, s0_curves, s0_decision):
    # c_w must exceed 1 (the interior family divides by c_w - 1) and the
    # guard applies uniformly to both families.
    with pytest.raises(DomainError):
        corner_equilibrium(replace(s0_params, c_w=1.0), s0_decision, s0_curves)
    with pytest.raises(DomainError):
        interior_equilibrium(replace(s0_params, m=0), s0_decision, s0_curves)


def test_market_guard_requires_c_b_above_one(s0_params, s0_curves, s0_decision):
    # One guard serves the hacker, vendor and ratio stages, with the same
    # c_b > 1 rule that ``validate`` applies.
    edge = replace(s0_params, c_b=1.0)
    with pytest.raises(DomainError, match="c_b must exceed 1"):
        equilibrium(edge, s0_decision, s0_curves)
    with pytest.raises(DomainError, match="c_b must exceed 1"):
        optimal_bounties(edge, s0_curves, s0_decision.t)
    with pytest.raises(DomainError, match="c_b must exceed 1"):
        solve_ratio_equilibrium(edge, s0_decision, s0_curves)


def test_payoff_group_annotations_resolve():
    # numpy is imported for type checkers only, so get_type_hints needs it
    # as a local name; every other annotation resolves from the module.
    hints = typing.get_type_hints(hackers._ewhh_payoff_groups, localns={"np": np})
    assert hints["e_s"] == hints["e_ns"] == float | np.ndarray
    assert hints["return"] == tuple[float | np.ndarray, float | np.ndarray]
    assert hints["others"] is hackers.EffortProfile
