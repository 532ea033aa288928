"""Vendor stage: bounties, feasibility band, profits, release timing."""

from __future__ import annotations

import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from bountygame import (
    DomainError,
    FeasibilityWarning,
    InfeasibleScenarioError,
    MarketParams,
    ReleaseCurves,
    VendorDecision,
    concentrated_bbp_profit,
    condition1,
    corner_equilibrium,
    optimal_bounties,
    optimal_release_no_bbp,
    optimal_release_with_bbp,
    optimal_whh_count,
    profit_decomposition_check,
    profit_with_bbp,
    profit_without_bbp,
    release_gap_term,
    success_probabilities,
    validate,
)
from bountygame import vendor
from bountygame._rootfind import newton_bisect
from bountygame.hackers import _corner_severe_probs
from bountygame.verification import FeasibleSampler


def test_baseline_optimal_bounties(s0_params, s0_curves):
    ob = optimal_bounties(s0_params, s0_curves, 2.0)
    assert ob.p_s == pytest.approx(2.5, abs=1e-12)
    assert ob.p_ns == pytest.approx(0.5, abs=1e-15)
    assert ob.bbp_viable


def test_baseline_condition1_band(s0_params, s0_curves):
    band = condition1(s0_params, s0_curves, 2.0)
    # base = 42 / (4 * 0.5) = 21, TC_s / c_w = 20, second lb branch is -57.
    assert band.lb == pytest.approx(1.0, abs=1e-12)
    assert band.ub == pytest.approx(41.0, abs=1e-12)
    assert band.gap_value == pytest.approx(3.5, abs=1e-15)
    assert band.feasible


def test_negative_optimal_bounty_reported_not_clamped(s0_params, s0_curves):
    # By t = 3 the severity likelihood has decayed enough that
    # p_s* = 19.5 + 4 - base(t) turns negative.
    ob = optimal_bounties(s0_params, s0_curves, 3.0)
    assert ob.p_s < 0.0
    assert not ob.bbp_viable


def test_baseline_profit_with_bbp_breakdown(s0_params, s0_curves, s0_decision):
    got = profit_with_bbp(s0_params, s0_decision, s0_curves)
    assert got.revenue == 95.0
    assert got.bhh_exploit_cost == pytest.approx(0.5 * 4 * 0.15433673469387754 * 40, abs=1e-12)
    assert got.severe_bounty_cost == pytest.approx(0.5 * 3 * 0.12755102040816327 * 2.5, abs=1e-12)
    assert got.nonsevere_bounty_cost == pytest.approx(0.4 * 0.4, abs=1e-12)
    assert got.user_discovery_cost == pytest.approx(0.8 * 1.0 * 0.6, abs=1e-12)
    assert got.uncoordinated_disclosure_cost == 0.0
    assert got.total == pytest.approx(81.53474489795917, abs=1e-9)


def test_baseline_profit_without_bbp_breakdown(s0_params, s0_curves):
    got = profit_without_bbp(s0_params, 2.0, s0_curves)
    p_e0 = 5.0 / 42.0
    p_b0 = 0.16071428571428573
    assert got.bhh_exploit_cost == pytest.approx(0.5 * 4 * p_b0 * 40, abs=1e-12)
    assert got.uncoordinated_disclosure_cost == pytest.approx(
        0.5 * 3 * p_e0 * 0.5 * 40, abs=1e-12
    )
    assert got.user_discovery_cost == pytest.approx(0.8, abs=1e-15)
    assert got.severe_bounty_cost == 0.0
    assert got.nonsevere_bounty_cost == 0.0
    assert got.total == pytest.approx(77.77142857142857, abs=1e-9)


def test_baseline_program_margin_decomposes(s0_params, s0_curves):
    margin = (
        concentrated_bbp_profit(s0_params, s0_curves, 2.0)
        - profit_without_bbp(s0_params, 2.0, s0_curves).total
    )
    competitive = 12 * 0.25 * 6.25 / (6 * 49 * 2.0)
    nonsevere = (0.8 * 0.5) ** 2
    disclosure = 3 * 0.5 * 0.5 * 40 * (5.0 / 42.0)
    assert margin == pytest.approx(competitive + nonsevere + disclosure, abs=1e-9)
    assert abs(profit_decomposition_check(s0_params, s0_curves, 2.0)) <= 1e-9


def test_profit_at_optimal_bounties_beyond_binary64_is_a_domain_error(s0_params, s0_curves):
    # p_ns* = TC_ns / 2, so (K_ns p_ns*)^2 is beyond binary64; float ** raised.
    params = replace(s0_params, TC_ns=1e160, TC_s=1e161)
    for call in (concentrated_bbp_profit, profit_decomposition_check):
        with pytest.raises(DomainError, match="p_ns=5e[+]159 overflows binary64"):
            call(params, s0_curves, 2.0)


def test_profit_warns_outside_its_regime(s0_params, s0_curves, s0_decision):
    with pytest.warns(FeasibilityWarning):
        profit_with_bbp(s0_params, replace(s0_decision, p_ns=2.0), s0_curves)
    with pytest.warns(FeasibilityWarning):
        profit_with_bbp(s0_params, replace(s0_decision, p_s=100.0), s0_curves)


def test_profit_without_bbp_clamps_probabilities(s0_params, s0_curves):
    # One expert against one black hat with a huge exploit prize pushes the
    # zero-bounty probabilities past their clamps: p_b0 -> 1, p_e0 -> 0.
    params = replace(s0_params, n=1, m=1, W=20.0, c_b=1.1, r_s=0.0)
    got = profit_without_bbp(params, 0.0, s0_curves)
    ks = 0.9
    assert got.bhh_exploit_cost == pytest.approx(ks * 1 * 1.0 * 40, abs=1e-12)
    assert got.uncoordinated_disclosure_cost == 0.0
    assert got.total == pytest.approx(100.0 - 36.0 - 0.95, abs=1e-12)


def _profit_form_gap_in_units(params, curves, t, p_s, p_ns):
    """|polynomial - breakdown total| in units of 2**-52 times the breakdown's absolute sum."""
    got = profit_with_bbp(params, VendorDecision(t=t, p_s=p_s, p_ns=p_ns), curves)
    terms = (
        got.revenue,
        got.bhh_exploit_cost,
        got.severe_bounty_cost,
        got.nonsevere_bounty_cost,
        got.user_discovery_cost,
    )
    gap = abs(vendor._profit_polynomial(params, curves, t, p_s, p_ns) - got.total)
    return gap / (2.0**-52 * sum(map(abs, terms)))


@pytest.mark.filterwarnings("ignore::bountygame.FeasibilityWarning")
def test_profit_forms_agree_to_rounding_on_the_scale_of_their_terms(
    s0_params, s0_curves, wide_ranges
):
    # The breakdown's total and the polynomial the release optimizer climbs
    # are one profit: they differ by rounding, which scales with the terms
    # that cancel, not with the total. At each raw draw's decision and at
    # its optimal bounties; 2.94 units at most on these 36,000 points.
    worst = checked = 0
    for ranges in (None, wide_ranges, {"t_max": (1.0, 30.0)}):
        for seed in (11, 12):
            for scen in FeasibleSampler(seed, ranges=ranges).draws("raw", 3000):
                params, curves, dec = scen.params, scen.curves, scen.decision
                bounties = optimal_bounties(params, curves, dec.t)
                for p_s, p_ns in ((dec.p_s, dec.p_ns), (bounties.p_s, bounties.p_ns)):
                    units = _profit_form_gap_in_units(params, curves, dec.t, p_s, p_ns)
                    assert units <= 8.0, (p_s, p_ns, asdict(scen))
                    worst = max(worst, units)
                    checked += 1
    assert checked == 36_000 and worst > 0.0
    # Costs near 1.3e11 cancel to a total of -2.5e6: the forms differ by
    # more than 1e-12 of the total, but by 0.27 units of the terms' scale.
    params = replace(s0_params, TC_s=5e6)
    assert _profit_form_gap_in_units(params, s0_curves, 2.0, 5e6, 0.5) <= 8.0


def test_severe_probability_crossing_at_hand_value(s0_params, s0_curves):
    # The two race probabilities cross where the cost-adjusted prizes are
    # equal: p_s = c_w W / c_b - r_s = 7, both sides landing on 1/7.
    dec = VendorDecision(t=2.0, p_s=7.0, p_ns=0.0)
    probs = success_probabilities(
        s0_params, dec, s0_curves, corner_equilibrium(s0_params, dec, s0_curves)
    )
    assert probs.p_e_s == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert probs.p_b_s == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_release_without_program_interior_optimum(s0_params, s0_curves):
    nb = optimal_release_no_bbp(s0_params, s0_curves)
    assert not nb.boundary
    assert 0.0 < nb.t < s0_curves.t_max
    assert abs(nb.foc_value) <= 1e-6
    assert nb.profit == pytest.approx(
        profit_without_bbp(s0_params, nb.t, s0_curves).total, abs=1e-12
    )
    for dt in (-0.5, -0.05, 0.05, 0.5):
        assert (
            profit_without_bbp(s0_params, nb.t + dt, s0_curves).total
            <= nb.profit + 1e-12
        )


def test_release_with_program_stops_at_viability_edge(s0_params, s0_curves):
    # At the baseline the concentrated profit is still rising when the
    # bounty program stops being viable, so the optimum pins to the edge
    # of the feasibility band and is flagged as a boundary solution.
    bbp = optimal_release_with_bbp(s0_params, s0_curves)
    nb = optimal_release_no_bbp(s0_params, s0_curves)
    assert bbp.boundary
    assert bbp.t < nb.t
    assert bbp.profit > nb.profit
    assert bbp.p_s == pytest.approx(0.0, abs=1e-9)
    assert bbp.p_ns == pytest.approx(0.5, abs=1e-12)
    # Condition 1 is strict, so the supremum at the edge is never attained:
    # t is the last float at which the band still holds.
    assert condition1(s0_params, s0_curves, bbp.t).feasible
    assert not condition1(
        s0_params, s0_curves, math.nextafter(bbp.t, s0_curves.t_max)
    ).feasible


def test_release_boundary_at_zero_when_waiting_never_pays(s0_params, s0_curves):
    # Negligible bug costs leave only the falling revenue, so release now.
    params = replace(s0_params, TC_s=2.0, TC_ns=0.5)
    curves = replace(s0_curves, K_s0=0.2, K_ns0=0.2)
    nb = optimal_release_no_bbp(params, curves)
    assert nb.boundary
    assert nb.t == 0.0


def _no_program_grid_max(params, curves, points=4001):
    ts = [curves.t_max * i / (points - 1) for i in range(points - 1)] + [curves.t_max]
    return max(profit_without_bbp(params, t, curves).total for t in ts)


def test_release_without_program_maximizes_clamped_profit(s0_params, s0_curves):
    # The market of the clamping test above: p_e0 stays clamped at 0 and
    # p_b0 at 1 until t is about 7, so the optimum is a stationary time of
    # the clamped piece, where the unclamped slope would mislead.
    params = replace(s0_params, n=1, m=1, W=20.0, c_b=1.1, r_s=0.0)
    nb = optimal_release_no_bbp(params, s0_curves)
    assert not nb.boundary
    assert nb.t == pytest.approx(3.5577, abs=1e-4)
    assert abs(nb.foc_value) <= 1e-6
    best = _no_program_grid_max(params, s0_curves)
    assert nb.profit >= best - 1e-12 * max(1.0, abs(best))
    h = 1e-5
    coefficients = vendor._no_bbp_coefficients(params)[0]
    for t in (1.0, nb.t):
        fd = (
            profit_without_bbp(params, t + h, s0_curves).total
            - profit_without_bbp(params, t - h, s0_curves).total
        ) / (2 * h)
        slope = vendor._slope(s0_curves, coefficients, t)
        assert slope == pytest.approx(fd, rel=1e-6, abs=1e-9)


# Wide draw 205: p_e0 falls to 0 at t = 12.7152, where the profit slope
# jumps from +0.38 to -0.24.
_CLAMP_KINK = (
    MarketParams(
        n=1, l=14, m=2, c_w=1.8825800582010659, c_b=4.43602513828222,
        r_s=0.3623841363948732, W=27.78597296351604, TC_s=201.1910709711571,
        TC_ns=6.681624262390019, x=0.3475547571331985,
    ),
    ReleaseCurves(
        K_s0=0.9798644550097673, lambda_s=0.053841611976056136,
        K_ns0=0.6615173058829529, lambda_ns=0.9552250015527615,
        R0=921.185731354737, a=6.260516567868017, b=0.03914299492914486,
        t_max=22.198874504035487,
    ),
)


def test_release_without_program_stops_on_a_clamp_kink():
    # The maximum sits on the kink, with no stationary time.
    params, curves = _CLAMP_KINK
    nb = optimal_release_no_bbp(params, curves)
    assert not nb.boundary
    assert nb.foc_value != 0.0
    assert nb.t == pytest.approx(12.7152, abs=1e-4)
    p_e0, _ = _corner_severe_probs(params, curves.k_severe(nb.t), 0.0)
    assert p_e0 == pytest.approx(0.0, abs=1e-12)
    best = _no_program_grid_max(params, curves)
    assert nb.profit >= best - 1e-12 * max(1.0, abs(best))


def test_release_optimizers_cover_wide_release_horizons(wide_ranges):
    # Unpinned t_max: scans used to overshoot it by one rounding step (a
    # DomainError on these validated draws fails the test), and clamped
    # zero-bounty probabilities used to yield a no-program optimum below
    # the grid maximum (by 0.04% on long draw 105 of this sampler, as it
    # drew before it drew proposals in blocks of 64); every draw must have a
    # no-program optimum that reaches the grid maximum. On 3 of the 52
    # feasible long draws here the with-program slope turns from negative to
    # positive somewhere; comparing every falling root with both ends of
    # the feasible interval must still reach the grid maximum. The wide box
    # gives 50 feasible draws.
    for ranges in ({"t_max": (1.0, 30.0)}, wide_ranges):
        checked = with_program = 0
        for scen in FeasibleSampler(77, ranges=ranges).draws("raw", 120):
            params, curves = scen.params, scen.curves
            try:
                bbp = optimal_release_with_bbp(params, curves)
            except InfeasibleScenarioError:
                pass
            else:
                lo, hi = vendor._feasible_interval(params, curves)
                ts = [lo + (hi - lo) * i / 2000 for i in range(2000)] + [hi]
                best = max(concentrated_bbp_profit(params, curves, t) for t in ts)
                assert bbp.profit >= best - 1e-12 * max(1.0, abs(best)), asdict(scen)
                with_program += 1
            nb = optimal_release_no_bbp(params, curves)
            ts = [curves.t_max * i / 2000 for i in range(2000)] + [curves.t_max]
            best = max(profit_without_bbp(params, t, curves).total for t in ts)
            assert nb.profit >= best - 1e-12 * max(1.0, abs(best)), asdict(scen)
            checked += 1
        assert checked == 120 and with_program >= 50


# Default raw draw 172 of FeasibleSampler(11). The feasible interval is
# [0, 2.47520]; the with-program slope is negative at 0, rises through 0 at
# t = 0.8552 and falls through 0 at t = 2.47020 (profit 154.0075), below the
# profit 154.42214 of the start t = 0.
_END_BEATS_ROOT = (
    MarketParams(
        n=2, l=9, m=2, c_w=2.98981941823198, c_b=1.6659192161508538,
        r_s=3.941617998518614, W=0.4757563740756554, TC_s=185.6288001335417,
        TC_ns=2.4355131201084506, x=0.7940884246015059,
    ),
    ReleaseCurves(
        K_s0=0.2613910445520358, lambda_s=0.39522667661090005,
        K_ns0=0.5193841172444416, lambda_ns=0.2673745948872084,
        R0=172.2785266812695, a=3.472614402007261, b=0.053086445247655156,
        t_max=10.0,
    ),
)


def test_release_picks_the_best_of_several_peaks():
    # The profit peaks at the start and at the falling root; the start wins.
    # (Of several falling roots the best wins: see _CLAMP_JUMP below.)
    params, curves = _END_BEATS_ROOT
    lo, hi = vendor._feasible_interval(params, curves)
    assert lo == 0.0 and hi == pytest.approx(2.47520, abs=1e-5)

    coefficients = vendor._bbp_coefficients(params)

    def slope(t):
        return vendor._slope(curves, coefficients, t)

    assert slope(lo) < 0.0 < slope(2.4) and slope(hi) < 0.0
    terms = vendor._slope_terms(curves, coefficients, lo)
    root = newton_bisect(
        slope, 2.4, hi, slope(2.4), slope(hi),
        ftol=vendor._FOC_TOL, fprime=lambda t: vendor._exp_sum(terms, t),
    )
    assert root == pytest.approx(2.47020, abs=1e-5)
    assert concentrated_bbp_profit(params, curves, root) == pytest.approx(154.0075, abs=1e-4)
    bbp = optimal_release_with_bbp(params, curves)
    assert (bbp.t, bbp.boundary) == (0.0, True)
    assert bbp.profit == pytest.approx(154.42214, abs=1e-5)
    ts = [lo + (hi - lo) * i / 2000 for i in range(2000)] + [hi]
    best = max(concentrated_bbp_profit(params, curves, t) for t in ts)
    assert bbp.profit >= best - 1e-12 * max(1.0, abs(best))


def test_release_ties_go_to_the_first_candidate(monkeypatch, s0_params, s0_curves):
    # Roots come before 0, and 0 before t_max, so on equal profits a root
    # beats an endpoint and 0 beats t_max.
    root = optimal_release_no_bbp(s0_params, s0_curves).t
    flat = vendor.profit_without_bbp(s0_params, 0.0, s0_curves)
    monkeypatch.setattr(vendor, "profit_without_bbp", lambda *args: flat)
    nb = optimal_release_no_bbp(s0_params, s0_curves)
    assert (nb.t, nb.boundary) == (root, False)
    # The slope is positive on all of [0, 2], so the endpoints are the only
    # candidates.
    nb = optimal_release_no_bbp(s0_params, replace(s0_curves, t_max=2.0))
    assert (nb.t, nb.boundary) == (0.0, True)


# Wide draw 47: p_b0 = -1.39 at t = 0, so the slope is clamped there; the
# clamp ends inside [0, t_max], before the optimum.
_CLAMPED_AT_ZERO = (
    MarketParams(
        n=1, l=7, m=1, c_w=1.1593198890968566, c_b=6.394062789155481,
        r_s=9.519750831497198, W=1.073208634101177, TC_s=112.09090262931633,
        TC_ns=3.6191882197452947, x=0.7181411257945148,
    ),
    ReleaseCurves(
        K_s0=0.9380700063669855, lambda_s=0.3577374467583847,
        K_ns0=0.6464350326303836, lambda_ns=0.9443080273595152,
        R0=611.0496634782775, a=1.3397178420252374, b=1.081060286901519,
        t_max=4.491597284345048,
    ),
)
# Wide draw 244: the slope is negative at t = 0 and rises through 0 at
# t = 0.0191 before it falls through 0 at t = 1.3623.
_RISING_THEN_FALLING = (
    MarketParams(
        n=3, l=13, m=2, c_w=1.301319208073475, c_b=7.319974627218934,
        r_s=9.131759088698853, W=1.7537196010907685, TC_s=106.58818435904323,
        TC_ns=7.647386017906985, x=0.18715744920269847,
    ),
    ReleaseCurves(
        K_s0=0.7094221125190964, lambda_s=0.6473455479282128,
        K_ns0=0.14021737455040623, lambda_ns=0.24862433444396037,
        R0=650.3639094933058, a=2.580134419778754, b=2.977918950031956,
        t_max=17.54753027922866,
    ),
)
# Default raw draw 80 of FeasibleSampler(11): on the feasible interval
# (0.1666, 4.7229) the with-program slope rises through 0 near t = 0.36
# and falls through 0 near t = 2.94.
_PROGRAM_RISING_THEN_FALLING = (
    MarketParams(
        n=2, l=20, m=3, c_w=4.095000462301132, c_b=4.143120530454694,
        r_s=1.6871951147168303, W=4.752093734721361, TC_s=176.8020127341922,
        TC_ns=2.5975664976719313, x=0.38758255745326786,
    ),
    ReleaseCurves(
        K_s0=0.6618229006168368, lambda_s=0.3117290181149422,
        K_ns0=0.9735546985088879, lambda_ns=0.39364317547981154,
        R0=218.05555290549793, a=1.289563017873698, b=1.9658254813059337,
        t_max=10.0,
    ),
)
# Default raw draw 1531 of FeasibleSampler(11), and long raw draw 1125 of
# the same seed, which differs only in t_max. p_e0 < 0 and p_b0 > 1 until
# t = 4.2593, where both clamps end and the slope jumps from -1.12 to
# +0.29. The best root, t = 3.7387, falls before the jump; a search with
# one cut at the jump itself, where the slope reads +0.29, misses it and
# answers the root t = 4.3567 past the jump (profit 331.158, not 331.438).
_CLAMP_JUMP = (
    MarketParams(
        n=1, l=3, m=1, c_w=1.7238326941737026, c_b=2.754926261734245,
        r_s=0.7815976813255865, W=16.730997979474324, TC_s=69.01530944695875,
        TC_ns=0.15902747320721644, x=0.5112571346888608,
    ),
    ReleaseCurves(
        K_s0=0.9668018697015881, lambda_s=0.23463029287548703,
        K_ns0=0.8533779346007984, lambda_ns=0.3999121819383831,
        R0=378.7183311223613, a=3.905603619014245, b=0.7003393754142073,
        t_max=10.0,
    ),
)


def test_release_without_program_sees_a_rising_then_falling_slope():
    # Two sign changes; only the falling one is a peak, and it beats both
    # endpoints.
    params, curves = _RISING_THEN_FALLING
    assert vendor._slope(curves, vendor._no_bbp_coefficients(params)[0], 0.0) < 0.0
    nb = optimal_release_no_bbp(params, curves)
    assert not nb.boundary
    assert nb.t == pytest.approx(1.3623, abs=1e-4)
    assert nb.profit > profit_without_bbp(params, 0.0, curves).total
    best = _no_program_grid_max(params, curves)
    assert nb.profit >= best - 1e-12 * max(1.0, abs(best))


def test_release_without_program_past_a_clamp_at_zero():
    params, curves = _CLAMPED_AT_ZERO
    assert _corner_severe_probs(params, curves.k_severe(0.0), 0.0)[1] < 0.0
    nb = optimal_release_no_bbp(params, curves)
    assert not nb.boundary
    assert nb.t == pytest.approx(3.9227, abs=1e-4)
    assert _corner_severe_probs(params, curves.k_severe(nb.t), 0.0)[1] > 0.0
    best = _no_program_grid_max(params, curves)
    assert nb.profit >= best - 1e-12 * max(1.0, abs(best))


def test_release_without_program_finds_the_root_before_a_clamp_jump():
    for t_max in (10.0, 9.351725657687924):
        params, curves = _CLAMP_JUMP[0], replace(_CLAMP_JUMP[1], t_max=t_max)
        nb = optimal_release_no_bbp(params, curves)
        assert not nb.boundary
        assert nb.t == pytest.approx(3.7387, abs=1e-4)
        assert nb.profit == pytest.approx(331.438, abs=1e-3)
        best = _no_program_grid_max(params, curves)
        assert nb.profit >= best - 1e-12 * max(1.0, abs(best))


def test_program_release_sees_a_rising_then_falling_slope():
    params, curves = _PROGRAM_RISING_THEN_FALLING
    lo, hi = vendor._feasible_interval(params, curves)
    ts = [lo + (hi - lo) * i / 4000 for i in range(4000)] + [hi]
    coefficients = vendor._bbp_coefficients(params)
    slopes = [vendor._slope(curves, coefficients, t) for t in ts]
    assert slopes[0] < 0.0
    assert sum((a > 0.0) != (b > 0.0) for a, b in zip(slopes, slopes[1:])) == 2
    bbp = optimal_release_with_bbp(params, curves)
    assert not bbp.boundary
    assert bbp.t == pytest.approx(2.9427, abs=1e-4)
    best = max(concentrated_bbp_profit(params, curves, t) for t in ts)
    assert bbp.profit >= best - 1e-12 * max(1.0, abs(best))


def _slope_scan(curves, coefficients, k_edges, ts):
    """``vendor._slope`` at each of ``ts`` as one numpy expression, its terms added in order.

    The coefficients are constant in K_s between the ``k_edges`` where they
    jump, so each piece's are read once, at its first point of the scan.
    """
    ks = curves.K_s0 * np.exp(-curves.lambda_s * ts)
    kns = curves.K_ns0 * np.exp(-curves.lambda_ns * ts)
    _, firsts, piece = np.unique(
        np.searchsorted(np.sort(k_edges), ks), return_index=True, return_inverse=True
    )
    s1, s2, ns1, ns2 = np.array([coefficients(float(ks[i])) for i in firsts])[piece].T
    return (
        -curves.a
        - curves.b * ts
        + curves.lambda_s * ks * (s1 + s2 * ks)
        + curves.lambda_ns * kns * (ns1 + ns2 * kns)
    )


def test_release_search_roots_every_falling_bracket_of_a_dense_scan(monkeypatch, wide_ranges):
    # Each cell of a 2,001-point scan of the slope where it falls through 0
    # must hold a root that the optimizer refined; the roots are recorded
    # from its calls of newton_bisect to the slope tolerance, which leaves
    # out the cut search's zeros (ftol 0).
    roots = []

    def recorded(*args, **kwargs):
        root = newton_bisect(*args, **kwargs)
        if kwargs["ftol"] == vendor._FOC_TOL:
            roots.append(root)
        return root

    monkeypatch.setattr(vendor, "newton_bisect", recorded)
    falling = 0
    for ranges in (wide_ranges, {"t_max": (1.0, 30.0)}):
        for scen in FeasibleSampler(5, ranges=ranges).draws("raw", 1000):
            params, curves = scen.params, scen.curves
            nb_coefficients, k_edges = vendor._no_bbp_coefficients(params)
            searches = [(optimal_release_no_bbp, nb_coefficients, k_edges, (0.0, curves.t_max))]
            interval = vendor._feasible_interval(params, curves)
            if interval is not None:
                bbp_coefficients = vendor._bbp_coefficients(params)
                searches.append((optimal_release_with_bbp, bbp_coefficients, [], interval))
            for optimizer, coefficients, edges, (lo, hi) in searches:
                roots.clear()
                optimizer(params, curves)
                ts = np.append(lo + (hi - lo) * np.arange(2000) / 2000, hi)
                values = _slope_scan(curves, coefficients, edges, ts)
                for i in np.flatnonzero((values[:-1] > 0.0) & (values[1:] < 0.0)):
                    a, b = ts[i], ts[i + 1]
                    falling += 1
                    assert any(a <= r <= b for r in roots), (a, b, roots, asdict(scen))
    # 1,747 falling cells on these draws.
    assert falling >= 1500


def _slope_calls_per_answer(monkeypatch, optimizer):
    slope = vendor._slope
    calls = answered = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return slope(*args)

    monkeypatch.setattr(vendor, "_slope", counted)
    for scen in FeasibleSampler(11).draws("raw", 400):
        try:
            optimizer(scen.params, scen.curves)
        except InfeasibleScenarioError:
            continue
        answered += 1
    return calls, answered


def test_program_release_makes_few_slope_evaluations(monkeypatch):
    # A count, not a timing: on these draws the grid search this replaced
    # made 29.0 slope evaluations per answered call, and the exact search
    # with Newton on the analytic derivative makes 3.72.
    calls, answered = _slope_calls_per_answer(monkeypatch, optimal_release_with_bbp)
    assert answered >= 150
    assert calls <= 10 * answered


def test_no_program_release_makes_few_slope_evaluations(monkeypatch):
    # A count, not a timing: on these draws Newton with a central-difference
    # slope made 15.37 slope evaluations per call, and with the analytic
    # derivative it makes 7.14.
    calls, answered = _slope_calls_per_answer(monkeypatch, optimal_release_no_bbp)
    assert answered == 400
    assert calls <= 12 * answered


def test_exp_sum_zeros_closer_than_a_grid_cell_are_both_found():
    # (e^-t - e^-5.01)(e^-t - e^-5.02) has zeros 0.01 apart, inside one
    # cell of a 201-point grid of [0, 10]; one exponent is split in two and
    # a zero term added, which the search merges and drops.
    e1, e2 = math.exp(-5.01), math.exp(-5.02)
    terms = [(2.0, 1.0), (1.0, -e1), (1.0, -e2), (0.0, e1 * e2), (3.0, 0.0)]
    zeros = vendor._exp_sum_sign_changes(terms, 0.0, 10.0)
    assert zeros == pytest.approx([5.01, 5.02], abs=1e-9)
    assert vendor._exp_sum_sign_changes(terms, 5.015, 10.0) == pytest.approx([5.02], abs=1e-9)
    assert vendor._exp_sum_sign_changes(terms, 0.0, 5.0) == []


def test_exp_sum_zeros_in_a_narrow_interval_far_from_zero(monkeypatch):
    # Near t = 10 half a float spacing exceeds 1e-12 of these intervals, so
    # each zero must be refined to float precision; the exp budget turns a
    # refinement that never stops into a failure.
    exp, calls = math.exp, 0

    def budgeted(x):
        nonlocal calls
        calls += 1
        assert calls < 10_000, "the zero refinement does not stop"
        return exp(x)

    e1, e2 = exp(-9.99993), exp(-9.99997)
    one_zero = [(0.0, -exp(-9.99995)), (1.0, 1.0)]
    two_zeros = [(2.0, 1.0), (1.0, -e1 - e2), (0.0, e1 * e2)]
    monkeypatch.setattr(math, "exp", budgeted)
    zeros = vendor._exp_sum_sign_changes(one_zero, 9.99991, 10.0)
    assert zeros == pytest.approx([9.99995], abs=1e-12)
    zeros = vendor._exp_sum_sign_changes(two_zeros, 9.99991, 10.0)
    assert zeros == pytest.approx([9.99993, 9.99997], abs=1e-10)


def test_exp_sum_zeros_match_a_dense_sign_scan():
    rng = random.Random(21)
    found = 0
    for _ in range(400):
        count = rng.randint(2, 5)
        terms = [(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0)) for _ in range(count)]
        if all(c > 0.0 for _, c in terms) or all(c < 0.0 for _, c in terms):
            continue
        hi = rng.uniform(1.0, 10.0)
        zeros = vendor._exp_sum_sign_changes(terms, 0.0, hi)
        coefficients = [c for _, c in sorted(terms)]
        changes = sum((a > 0.0) != (b > 0.0) for a, b in zip(coefficients, coefficients[1:]))
        assert len(zeros) <= changes, terms
        assert zeros == sorted(zeros) and all(0.0 < z < hi for z in zeros), terms
        # The scan adds the terms in list order, as vendor._exp_sum does.
        ts = hi * np.arange(4001) / 4000
        total = np.zeros_like(ts)
        for mu, c in terms:
            total = total + c * np.exp(-mu * ts)
        signs = total > 0.0
        cells = [(ts[i], ts[i + 1]) for i in np.flatnonzero(signs[1:] != signs[:-1])]
        assert len(zeros) == len(cells), terms
        for (a, b), z in zip(cells, zeros):
            assert a - 1e-9 * hi <= z <= b + 1e-9 * hi, terms
        found += len(zeros)
    assert found >= 100


def test_exp_sum_finds_the_known_zeros_of_products():
    # prod_i (e^(-lam t) - e^(-lam z_i)) is a sum in e^(-k lam t), k = 0..d,
    # whose zeros are the z_i: up to four, at least 0.01 apart.
    rng = random.Random(5)
    for _ in range(200):
        lam = rng.uniform(0.2, 2.0)
        zs = sorted(rng.uniform(0.1, 9.9) for _ in range(rng.randint(1, 4)))
        if any(b - a < 0.01 for a, b in zip(zs, zs[1:])):
            continue
        poly = [1.0]  # coefficients of x^0, x^1, ... with x = e^(-lam t)
        for z in zs:
            root = math.exp(-lam * z)
            poly = [a - root * b for a, b in zip([0.0, *poly], [*poly, 0.0])]
        terms = [(k * lam, c) for k, c in enumerate(poly)]
        assert vendor._exp_sum_sign_changes(terms, 0.0, 10.0) == pytest.approx(zs, abs=1e-8)


def test_no_viable_program_anywhere_is_structured(s0_params, s0_curves):
    params = replace(s0_params, W=0.0)
    curves = replace(s0_curves, K_s0=0.2)
    band = condition1(params, curves, 0.0)
    assert not band.feasible
    with pytest.raises(InfeasibleScenarioError, match="never exceeds the lower"):
        optimal_release_with_bbp(params, curves)


def test_no_viable_program_names_the_upper_bound(s0_params, s0_curves):
    # A black-hat prize this large keeps the gap above ub = A/K_s(t) + r
    # until K_s(2) = 0.5, the end of this horizon.
    params = replace(s0_params, W=200.0)
    curves = replace(s0_curves, t_max=2.0)
    for t in (0.0, 1.0, 2.0):
        band = condition1(params, curves, t)
        assert band.gap_value >= band.ub
    with pytest.raises(InfeasibleScenarioError, match="never falls below the upper"):
        optimal_release_with_bbp(params, curves)


def test_feasible_window_narrower_than_a_scan_step_is_found(s0_params, s0_curves):
    # Condition 1 holds for (r - gap)/B < 1/K_s(t) < (gap + r)/A. Putting
    # the gap just inside r(A - B)/(A + B) brings the two edges within
    # 6e-6 of each other in t, around t = 4.0123, so an evenly spaced scan
    # of [0, t_max] would need millions of points to land in the window.
    n, m, c_w = s0_params.n, s0_params.m, s0_params.c_w
    big_n = n + m
    a_slope = big_n * (big_n - 1) / m
    b_slope = (2 * m + n) * big_n * (big_n - 1) / (m * n)
    r = 200.0 / c_w
    gap = r * (a_slope - b_slope) / (a_slope + b_slope) * (1.0 - 1e-6)
    params = replace(
        s0_params,
        TC_s=200.0, W=1.0, r_s=c_w * (1.0 / s0_params.c_b - gap)
    )
    curves = replace(
        s0_curves,
        K_s0=math.exp(s0_curves.lambda_s * 4.0123) / ((gap + r) / a_slope)
    )
    assert validate(params, curves).passed

    interval = vendor._feasible_interval(params, curves)
    assert interval is not None
    lo, hi = interval
    assert 0.0 < lo < hi < curves.t_max
    assert hi - lo < 1e-5
    assert condition1(params, curves, lo).feasible
    assert condition1(params, curves, hi).feasible
    assert not condition1(params, curves, math.nextafter(lo, 0.0)).feasible
    assert not condition1(params, curves, math.nextafter(hi, curves.t_max)).feasible
    assert lo <= optimal_release_with_bbp(params, curves).t <= hi


def test_feasible_interval_ends_are_the_last_feasible_floats(wide_ranges):
    # Each end passes condition 1 and the next float outward fails it,
    # unless the end is 0 or t_max.
    feasible = 0
    for scen in FeasibleSampler(11, ranges=wide_ranges).draws("raw", 300):
        params, curves = scen.params, scen.curves
        interval = vendor._feasible_interval(params, curves)
        if interval is None:
            continue
        feasible += 1
        for end, outward in zip(interval, (0.0, curves.t_max)):
            assert condition1(params, curves, end).feasible, asdict(scen)
            if end != outward:
                beyond = math.nextafter(end, outward)
                assert not condition1(params, curves, beyond).feasible, asdict(scen)
    assert feasible >= 100


def _bisected_edge(ok, inside, estimate, end, step):
    """The reference edge search: a bisection from a bracket of ``step`` around the estimate.

    Falls back to ``inside`` or ``end`` where the edge lies outside the
    bracket and stops when its two ends are adjacent floats; with step
    1e-9 t_max it was ``_feasible_edge`` before the galloping search.
    """
    toward = 1.0 if end > inside else -1.0
    bad = estimate + toward * step
    if toward * (bad - end) >= 0.0:
        bad = end
    if ok(bad):
        if bad == end or ok(end):
            return end
        good, bad = bad, end
    else:
        good = estimate - toward * step
        if toward * (good - inside) <= 0.0 or not ok(good):
            good = inside
    while True:
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            return good
        if ok(mid):
            good = mid
        else:
            bad = mid


@pytest.mark.parametrize("box", ["default", "wide", "long"])
def test_feasible_edge_search_matches_the_bisection(monkeypatch, wide_ranges, box):
    # On raw draws, the galloping search ends each feasible interval on the
    # float the bisection found, with a small share of its band evaluations.
    ranges = {"default": None, "wide": wide_ranges, "long": {"t_max": (1.0, 30.0)}}[box]
    band = vendor._feasibility_band
    calls = {"gallop": 0, "bisect": 0}

    def counted(search):
        def evaluate(*args):
            calls[search] += 1
            return band(*args)

        return evaluate

    intervals = inner_ends = 0
    for seed in (11, 12, 13):
        for scen in FeasibleSampler(seed, ranges=ranges).draws("raw", 300):
            params, curves = scen.params, scen.curves
            step = 1e-9 * curves.t_max
            with monkeypatch.context() as patch:
                patch.setattr(vendor, "_feasibility_band", counted("gallop"))
                got = vendor._feasible_interval(params, curves)
                patch.setattr(vendor, "_feasibility_band", counted("bisect"))
                patch.setattr(
                    vendor, "_feasible_edge",
                    lambda ok, inside, estimate, end: _bisected_edge(
                        ok, inside, estimate, end, step
                    ),
                )
                want = vendor._feasible_interval(params, curves)
            assert got == want, asdict(scen)
            if got is not None:
                intervals += 1
                inner_ends += (got[0] > 0.0) + (got[1] < curves.t_max)
    assert intervals >= 300 and inner_ends >= 50
    assert 3 * calls["gallop"] < calls["bisect"]


@pytest.mark.parametrize("floats_off", [0, 1, -1, 1000, -1000, 2**20 + 3, -(2**20 + 3)])
@pytest.mark.parametrize("edge, end", [(7.3, 10.0), (2.9, 0.0)])
def test_feasible_edge_gallops_from_the_estimate(edge, end, floats_off):
    # The band holds from inside = 5 to the edge. An estimate k floats off
    # the edge, on either side, finds it in at most 2 log2(k) + 2 calls.
    calls = []

    def ok(t):
        calls.append(t)
        return t <= edge if end > edge else t >= edge

    estimate = edge + floats_off * math.ulp(edge)
    assert vendor._feasible_edge(ok, 5.0, estimate, end) == edge
    assert len(calls) <= 2 * abs(floats_off).bit_length() + 2


@pytest.mark.parametrize(
    "estimate, end", [(0.0, 0.0), (1e-3, 0.0), (10.0, 10.0), (9.999, 10.0), (12.0, 10.0)]
)
def test_feasible_edge_reaches_zero_and_t_max(estimate, end):
    # A band that holds up to the end returns the end itself, also from an
    # estimate short of it or beyond it.
    assert vendor._feasible_edge(lambda t: True, 5.0, estimate, end) == end


@pytest.mark.parametrize("lambda_s", [0.0, -0.1])
def test_release_optimizers_refuse_a_severity_that_does_not_fall(s0_params, s0_curves, lambda_s):
    # validate refuses these curves; the optimizers, which read the time
    # K_s takes to fall from lambda_s, raise DomainError rather than divide
    # by zero or answer on a misread interval.
    curves = replace(s0_curves, lambda_s=lambda_s)
    assert "lambda_s > 0" in validate(s0_params, curves).failures
    for optimizer in (optimal_release_no_bbp, optimal_release_with_bbp):
        with pytest.raises(DomainError, match="lambda_s"):
            optimizer(s0_params, curves)


@pytest.mark.parametrize("K_s0", [0.0, -0.5])
def test_release_optimizers_refuse_a_severity_likelihood_that_is_not_positive(
    s0_params, s0_curves, K_s0
):
    # validate refuses these curves; with no feasible interval the program
    # optimizer describes the band in u = 1/K_s, and must not divide by zero.
    curves = replace(s0_curves, K_s0=K_s0)
    assert "K_s0 in (0, 1]" in validate(s0_params, curves).failures
    for optimizer in (optimal_release_no_bbp, optimal_release_with_bbp):
        with pytest.raises(DomainError, match=r"K_s\(t\) must be positive"):
            optimizer(s0_params, curves)


def test_analytic_release_slopes_match_finite_differences(s0_params, s0_curves):
    h = 1e-5
    nb_coefficients = vendor._no_bbp_coefficients(s0_params)[0]
    conc_coefficients = vendor._bbp_coefficients(s0_params)
    for t in (0.5, 1.0, 2.0):
        nb_slope = vendor._slope(s0_curves, nb_coefficients, t)
        conc_slope = vendor._slope(s0_curves, conc_coefficients, t)
        fd_nb = (
            profit_without_bbp(s0_params, t + h, s0_curves).total
            - profit_without_bbp(s0_params, t - h, s0_curves).total
        ) / (2 * h)
        assert nb_slope == pytest.approx(fd_nb, rel=1e-6)
        fd_conc = (
            concentrated_bbp_profit(s0_params, s0_curves, t + h)
            - concentrated_bbp_profit(s0_params, s0_curves, t - h)
        ) / (2 * h)
        assert conc_slope == pytest.approx(fd_conc, rel=1e-6)
        gap = release_gap_term(s0_params, s0_curves, t)
        assert gap == pytest.approx(conc_slope - nb_slope, rel=1e-9)
        assert gap < 0.0


# Wide raw draw 2735 of FeasibleSampler(13): the program releases later,
# at t = 2.1407 against 2.1038, and at the no-program optimum p_e0 = -0.59
# is clamped at 0.
_LATER_WITH_PROGRAM = (
    MarketParams(
        n=1, l=11, m=1, c_w=5.666369070705773, c_b=1.7319526130540508,
        r_s=7.183824551755369, W=39.60380369449411, TC_s=82.96064811910708,
        TC_ns=8.927956822138484, x=0.47097314280363906,
    ),
    ReleaseCurves(
        K_s0=0.6235961913479, lambda_s=0.5360667468449906,
        K_ns0=0.19807462205417165, lambda_ns=0.5150834376179564,
        R0=679.1243121320183, a=6.120493705002187, b=1.5049113492000488,
        t_max=13.525755012056345,
    ),
)


def test_release_gap_agrees_with_a_later_program_release():
    # A closed form taking p_e0 unclamped read -7.7556 here.
    params, curves = _LATER_WITH_PROGRAM
    t_nb = optimal_release_no_bbp(params, curves).t
    assert optimal_release_with_bbp(params, curves).t > t_nb
    assert _corner_severe_probs(params, curves.k_severe(t_nb), 0.0)[0] < 0.0
    h = 1e-5

    def profit_gap(t):
        return concentrated_bbp_profit(params, curves, t) - profit_without_bbp(
            params, t, curves
        ).total

    gap = release_gap_term(params, curves, t_nb)
    assert gap == pytest.approx((profit_gap(t_nb + h) - profit_gap(t_nb - h)) / (2 * h), rel=1e-6)
    assert gap == pytest.approx(0.22530, abs=1e-5)


@pytest.mark.parametrize(
    "market, curves, t, message",
    [
        ({}, {}, -0.1, "outside"),
        ({}, {}, 11.0, "outside"),
        ({}, {"K_s0": 0.0}, 2.0, r"K_s\(t\) must be positive"),
        ({"n": 0}, {}, 2.0, "at least one hacker"),
    ],
)
def test_release_gap_checks_its_inputs(s0_params, s0_curves, market, curves, t, message):
    # The slopes read K_s and K_ns unchecked, so the witness checks t, K_s
    # and the market before it reads them.
    with pytest.raises(DomainError, match=message):
        release_gap_term(replace(s0_params, **market), replace(s0_curves, **curves), t)


@pytest.mark.parametrize("box", ["default", "wide", "long"])
def test_slope_coefficients_match_finite_differences(wide_ranges, box):
    # The one coefficient form of each slope, for both optimizers, at random
    # times away from the no-program clamp edges: its derivative terms match
    # a central difference of the slope, and the slope a central difference
    # of the profit it differentiates. Where a program is feasible, the
    # release gap matches a central difference of the profit gap.
    ranges = {"default": None, "wide": wide_ranges, "long": {"t_max": (1.0, 30.0)}}[box]
    rng = random.Random(8)
    h = 1e-5
    checked = gaps = 0
    for scen in FeasibleSampler(5, ranges=ranges).draws("raw", 200):
        params, curves = scen.params, scen.curves
        k_edges = vendor._no_bbp_coefficients(params)[1]
        edges = [vendor._severe_decay_time(curves, curves.K_s0 / k) for k in k_edges]

        def no_bbp_profit(t):
            return profit_without_bbp(params, t, curves).total

        def bbp_profit(t):
            return concentrated_bbp_profit(params, curves, t)

        slopes = [
            (lambda: vendor._no_bbp_coefficients(params)[0], 0.0, curves.t_max, no_bbp_profit),
        ]
        interval = vendor._feasible_interval(params, curves)
        if interval is not None:
            slopes.append((lambda: vendor._bbp_coefficients(params), *interval, bbp_profit))
        for build, lo, hi, profit in slopes:
            coefficients = build()

            def prime(t):
                return vendor._slope(curves, coefficients, t)

            for _ in range(3):
                t = rng.uniform(lo + 2 * h, hi - 2 * h)
                if any(abs(t - edge) < 4 * h for edge in edges):
                    continue
                checked += 1
                slope = prime(t)
                # Coefficients built once per draw give the slope of fresh ones.
                assert slope == vendor._slope(curves, build(), t)
                fd = (profit(t + h) - profit(t - h)) / (2 * h)
                scale = max(1.0, abs(profit(t)))
                assert slope == pytest.approx(fd, rel=1e-6, abs=1e-8 * scale), asdict(scen)
                fd = (prime(t + h) - prime(t - h)) / (2 * h)
                terms = vendor._slope_terms(curves, coefficients, t)
                assert vendor._exp_sum(terms, t) == pytest.approx(
                    fd, rel=1e-6, abs=1e-8 * max(1.0, abs(slope))
                ), asdict(scen)
                if profit is bbp_profit:
                    gap = release_gap_term(params, curves, t)
                    fd = (
                        bbp_profit(t + h) - no_bbp_profit(t + h)
                        - bbp_profit(t - h) + no_bbp_profit(t - h)
                    ) / (2 * h)
                    assert gap == pytest.approx(fd, rel=1e-6, abs=1e-8 * scale), asdict(scen)
                    gaps += 1
    assert checked >= 700 and gaps >= 200


def test_optimal_whh_count_report(s0_params, s0_curves):
    report = optimal_whh_count(s0_params, s0_curves, 2.0)
    assert report.n_quadratic == 2.5
    assert report.n_closed_form == pytest.approx(
        math.sqrt(9 * 16 - 10 * 4 + 1) / 4.0 - 3.0 / 4.0, abs=1e-12
    )
    assert report.n_brute_force == 16  # monotone profit in n; hits the 4m cap
    assert "not a root" in report.note
    assert "(m+1)/2" in report.note
