"""Rejection sampler and the batch verifiers built on it."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest

from bountygame import (
    DomainError,
    FeasibleSampler,
    Regime,
    condition1,
    corner_equilibrium,
    equilibrium,
    identity_suite,
    optimal_bounties,
    optimal_release_no_bbp,
    optimal_release_with_bbp,
    run_full_suite,
    solve_ratio_equilibrium,
    success_probabilities,
    verify_proposition_1,
    verify_proposition_2,
    verify_proposition_3,
)
from bountygame import verification as verification_module
from bountygame.hackers import _regime_boundary_p_ns
from bountygame.scenario import MarketParams, ReleaseCurves, VendorDecision, validate
from bountygame.verification import DEFAULT_RANGES, SampledScenario


def test_same_seed_reproduces_draws():
    a = [asdict(s) for s in FeasibleSampler(5).draws("basic", 5)]
    b = [asdict(s) for s in FeasibleSampler(5).draws("basic", 5)]
    assert a == b
    c = [asdict(s) for s in FeasibleSampler(6).draws("basic", 5)]
    assert a != c


def _reference_proposals(seed, ranges, count):
    """Proposals rebuilt from whole blocks drawn in the documented order."""
    rng = np.random.Generator(np.random.Philox(seed))
    ranged = ("c_w", "c_b", "r_s", "W", "TC_s", "TC_ns", "x")
    ranged += ("K_s0", "lambda_s", "K_ns0", "lambda_ns", "R0", "a", "b", "t_max")
    made = 0
    while made < count:
        counts = [
            rng.integers(int(ranges[name][0]), int(ranges[name][1]) + 1, size=64)
            for name in ("n", "l", "m")
        ]
        doubles = rng.random((64, 19))
        for k in range(min(64, count - made)):
            u = doubles[k]
            fields = {
                name: ranges[name][0] + (ranges[name][1] - ranges[name][0]) * float(u[i])
                for i, name in enumerate(ranged)
            }
            params = MarketParams(
                **{name: int(c[k]) for name, c in zip(("n", "l", "m"), counts)},
                **{name: fields[name] for name in ranged[:7]},
            )
            curves = ReleaseCurves(**{name: fields[name] for name in ranged[7:]})
            t = curves.t_max * float(u[15])
            p_s = 10.0 * float(u[16])
            boundary = _regime_boundary_p_ns(
                params, curves.k_severe(t), curves.k_nonsevere(t), p_s
            )
            coin, factor = float(u[17]), float(u[18])
            p_ns = boundary * (factor if coin < 0.5 else 1.0 + factor)
            yield SampledScenario(params, curves, VendorDecision(t=t, p_s=p_s, p_ns=p_ns))
            made += 1


def test_proposals_follow_the_documented_draw_order(wide_ranges):
    # 300 = 4 * 64 + 44, so the comparison crosses four block refills.
    for ranges in (None, wide_ranges):
        sampler = FeasibleSampler(7, ranges=ranges)
        reference = _reference_proposals(7, dict(DEFAULT_RANGES, **(ranges or {})), 300)
        for k, want in enumerate(reference):
            assert asdict(sampler._propose()) == asdict(want), k
        assert sampler.proposals == 300


def test_proposals_count_the_proposals_used():
    # One raw draw uses the block's proposals up to the first valid one; the
    # rest of the 64 drawn ahead are not counted.
    sampler = FeasibleSampler(7)
    drawn = sampler.draw_raw()
    for used, scen in enumerate(_reference_proposals(7, DEFAULT_RANGES, 64), start=1):
        if validate(scen.params, scen.curves).passed:
            break
    assert asdict(drawn) == asdict(scen)
    assert sampler.proposals == used < 64


@pytest.mark.parametrize("seed", [-1, True, 2.5, np.float64(3.0), "7"])
def test_sampler_refuses_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(DomainError, match="seed"):
        FeasibleSampler(seed)


@pytest.mark.parametrize(
    "ranges, message",
    [
        ({"n": (5, 1)}, "inverted"),
        ({"c_w": (5.0, 1.1)}, "inverted"),
        ({"c_w": ("a", 2)}, "numeric"),
        ({"c_w": (1.1, "5")}, "numeric"),
        ({"c_w": (True, 2.0)}, "numeric"),
        ({"n": (1, True)}, "numeric"),
        ({"c_w": (1.1, math.inf)}, "finite"),
        ({"W": (math.nan, 2.0)}, "finite"),
        ({"n": (1.5, 3)}, "integer"),
        ({"m": (1, math.inf)}, "finite"),
        ({"c_w": 2.0}, "pair"),
        ({"c_w": (1.1, 2.0, 3.0)}, "pair"),
        ({"t_max": (10, 10)}, None),
        ({"n": (1, 1)}, None),
        ({"n": (1.0, 3.0), "c_w": (np.float64(1.5), np.int64(3))}, None),
        ({"c_w": [1.5, 3.0]}, None),
        ({"n": (0, 0)}, "no count of at least 1"),
        ({"m": (-3, 0)}, "no count of at least 1"),
        ({"l": (0, 5)}, None),
    ],
)
def test_sampler_checks_its_ranges(ranges, message):
    if message is None:
        sampler = FeasibleSampler(3, ranges=ranges)
        assert sampler.draw_raw() is not None
        return
    with pytest.raises(DomainError, match=message):
        FeasibleSampler(3, ranges=ranges)


def test_integer_bounds_of_float_fields_sample_as_floats():
    def digest(ranges):
        # The dicts asdict gives, without its deep copy: the same repr.
        sampler = FeasibleSampler(8, ranges=ranges)
        proposals = [
            {"params": vars(s.params), "curves": vars(s.curves), "decision": vars(s.decision)}
            for s in (sampler._propose() for _ in range(20_000))
        ]
        return hashlib.sha256(repr(proposals).encode()).hexdigest()

    # Recorded with CPython 3.11 and numpy 2.4 on x86-64 Linux, before the
    # sampler checked its ranges.
    pinned = "190ed546931ae1920d5a0719889048e0000cb0ef304c215dfa605df588973a6b"
    assert digest({"R0": (50, 500), "a": (1, 3)}) == pinned
    assert digest({"R0": (50.0, 500.0), "a": (1.0, 3.0)}) == pinned


def test_sampler_ranged_fields_follow_the_value_types_field_order():
    # The sampler builds MarketParams and ReleaseCurves positionally from
    # its ranged doubles.
    names = [f.name for f in fields(MarketParams)][3:] + [f.name for f in fields(ReleaseCurves)]
    assert list(verification_module._RANGED_FIELDS) == names


def test_unknown_tier_and_range_key_are_rejected():
    with pytest.raises(DomainError, match="tier"):
        list(FeasibleSampler(1).draws("fancy", 1))
    with pytest.raises(DomainError):
        FeasibleSampler(1, ranges={"volatility": (0.0, 1.0)})


@pytest.mark.parametrize(
    "count, fragment",
    [(True, "integer"), (-1, "non-negative"), (2.5, "integer"), ("2", "integer")],
)
def test_draw_count_is_checked_at_the_call(count, fragment):
    with pytest.raises(DomainError, match=fragment):
        FeasibleSampler(1).draws("basic", count)


def test_zero_draws_yield_nothing():
    sampler = FeasibleSampler(1)
    assert list(sampler.draws("basic", 0)) == [] and sampler.proposals == 0


def test_basic_tier_honors_its_filters():
    sampler = FeasibleSampler(11)
    regimes = set()
    for scen in sampler.draws("basic", 40):
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        assert profile.feasible
        probs = success_probabilities(scen.params, scen.decision, scen.curves, profile)
        assert not probs.any_clipped
        assert condition1(scen.params, scen.curves, scen.decision.t).feasible
        regimes.add(profile.regime)
    assert regimes == {Regime.CORNER, Regime.INTERIOR}


def test_bbp_tier_sits_at_its_own_optimum():
    sampler = FeasibleSampler(12)
    for scen in sampler.draws("bbp", 10):
        ob = optimal_bounties(scen.params, scen.curves, scen.decision.t)
        assert ob.bbp_viable
        assert scen.decision.p_s == ob.p_s
        assert scen.decision.p_ns == ob.p_ns
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        assert profile.regime is Regime.CORNER


def test_release_tier_gives_interior_optima_on_both_sides():
    sampler = FeasibleSampler(13)
    for scen in sampler.draws("release", 5):
        nb = optimal_release_no_bbp(scen.params, scen.curves)
        bbp = optimal_release_with_bbp(scen.params, scen.curves)
        assert not nb.boundary
        assert not bbp.boundary
        assert 0.0 < bbp.t < scen.curves.t_max
        assert scen.decision.t == bbp.t


def test_ratio_tier_satisfies_existence():
    sampler = FeasibleSampler(14)
    for scen in sampler.draws("ratio", 10):
        eq = solve_ratio_equilibrium(scen.params, scen.decision, scen.curves)
        assert eq.max_residual <= 1e-10


def test_sampler_cap_is_an_explicit_error(monkeypatch):
    monkeypatch.setattr(verification_module, "_MAX_PROPOSALS", 64)
    sampler = FeasibleSampler(1, ranges={"n": (1, 1), "m": (1, 1)})
    with pytest.raises(RuntimeError, match="ranges too tight"):
        sampler.draw_ratio()


def test_sampler_builds_a_decision_only_for_a_valid_market(monkeypatch):
    # K_ns(t) underflows to 0 on some of these markets, which validate
    # refuses; the regime boundary behind p_ns divides by it.
    sampler = FeasibleSampler(1, ranges={"lambda_ns": (10.0, 50.0), "t_max": (20.0, 20.0)})
    assert len(list(sampler.draws("raw", 10))) == 10
    monkeypatch.setattr(verification_module, "_MAX_PROPOSALS", 500)
    for tier in ("raw", "basic"):
        with pytest.raises(RuntimeError, match="no feasible draw"):
            list(FeasibleSampler(1, ranges={"K_ns0": (0.0, 0.0)}).draws(tier, 1))


@pytest.mark.parametrize("box", ["default", "wide", "long"])
def test_condition1_screen_leaves_every_tier_unchanged(monkeypatch, wide_ranges, box):
    ranges = {"default": None, "wide": wide_ranges, "long": {"t_max": (1.0, 30.0)}}[box]

    def run():
        out = []
        for tier in ("raw", "basic", "bbp", "release", "ratio"):
            for seed in (0, 1):
                sampler = FeasibleSampler(seed, ranges=ranges)
                draws = [asdict(scen) for scen in sampler.draws(tier, 6)]
                out.append((tier, seed, draws, sampler.proposals))
        return out

    def scalar_screen(row):
        # The reference the screen replaces: condition 1 at the proposal's t
        # on the built market, for markets that pass validate.
        params, curves = FeasibleSampler._market(row)
        if not validate(params, curves).passed:
            return False
        return condition1(params, curves, curves.t_max * row[4][0]).feasible

    screened = run()
    monkeypatch.setattr(verification_module, "_condition1_screen", scalar_screen)
    assert run() == screened


def test_condition1_screen_rejects_only_where_condition1_fails():
    # The box holds invalid markets too: c_w <= 1, K_s0 near 0, rising
    # K_s and no black hats.
    ranges = {"c_w": (0.5, 2.0), "K_s0": (0.0, 1.0), "lambda_s": (-0.1, 1.0), "m": (0, 3)}
    sampler = FeasibleSampler(21, ranges=ranges)
    rows = [sampler._next_row() for _ in range(4000)]
    # Rows that would divide by zero or overflow: K_s(t) = 0, K_s(t_max)
    # beyond binary64, c_w = 0, no experts, no black hats.
    n, l, m, ranged, rest = rows[0]
    for name, value in (("K_s0", 0.0), ("lambda_s", -1000.0), ("c_w", 0.0)):
        bent = list(ranged)
        bent[verification_module._RANGED_FIELDS.index(name)] = value
        rows.append((n, l, m, bent, [1.0, *rest[1:]]))
    rows += [(0, l, m, ranged, rest), (n, l, 0, ranged, rest)]
    valid = feasible = 0
    for row in rows:
        passed = verification_module._condition1_screen(row)
        params, curves = FeasibleSampler._market(row)
        if not validate(params, curves).passed:
            continue
        valid += 1
        t = curves.t_max * row[4][0]
        assert passed == condition1(params, curves, t).feasible, row
        feasible += passed
    assert 1000 < valid < len(rows) and feasible > 100


def test_proposition_1_validates_its_grid():
    sampler = FeasibleSampler(2)
    with pytest.raises(DomainError, match="at least 10"):
        verify_proposition_1(sampler, 1, [0.0, 1.0, 2.0])
    with pytest.raises(DomainError, match="strictly increasing"):
        verify_proposition_1(sampler, 1, [0.0, 1.0, 1.0] + list(range(2, 10)))
    with pytest.raises(DomainError, match="draws"):
        verify_proposition_1(sampler, 0, [float(i) for i in range(10)])
    # The last entry keeps the grid strictly increasing (or is a nan, which
    # no comparison sees), so only the finiteness check can refuse it, and
    # it does so before any draw.
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            verify_proposition_1(sampler, 1, [float(i) for i in range(9)] + [bad])
    assert sampler.proposals == 0


@pytest.mark.parametrize("draws", [2.5, True, np.float64(3.0), "3"])
def test_verifiers_refuse_non_integer_draws(draws):
    grid = [float(i) for i in range(10)]
    runs = (
        lambda: verify_proposition_1(FeasibleSampler(2), draws, grid),
        lambda: verify_proposition_2(FeasibleSampler(2), draws),
        lambda: verify_proposition_3(FeasibleSampler(2), draws),
        lambda: identity_suite(FeasibleSampler(2), draws),
        lambda: run_full_suite(2, draws),
    )
    for run in runs:
        with pytest.raises(DomainError, match="draws must be an integer"):
            run()


def _closed_form_sweep(params, curves, decision, grid):
    """Proposition 1's sweep rebuilt point by point from the public closed forms."""
    alphas, p_es, p_bs, clip_e, clip_b = [], [], [], [], []
    for p_s in grid:
        dec = VendorDecision(t=decision.t, p_s=p_s, p_ns=decision.p_ns)
        profile = corner_equilibrium(params, dec, curves)
        probs = success_probabilities(params, dec, curves, profile)
        alphas.append(profile.alpha_s)
        p_es.append(probs.p_e_s)
        p_bs.append(probs.p_b_s)
        clip_e.append("p_e_s" in probs.clipped)
        clip_b.append("p_b_s" in probs.clipped)
    return alphas, p_es, p_bs, clip_e, clip_b


def test_proposition_1_sweep_equals_the_closed_forms(s0_curves, s0_decision):
    sweep = verification_module._proposition_1_sweep
    grid = [20.0 * i / 49 for i in range(50)]
    clamped_b = 0
    for scen in FeasibleSampler(21).draws("basic", 200):
        got = sweep(scen.params, scen.curves, scen.decision.t, grid)
        want = _closed_form_sweep(scen.params, scen.curves, scen.decision, grid)
        # repr tells -0.0 from 0.0 and shows nan, so this is bit-for-bit.
        assert repr(got) == repr(want)
        clamped_b += any(got[4])
    assert clamped_b > 0

    # One expert against one black hat with no black hat prize: K_s(2) g
    # passes 2 near p_s = 4.4, so p_e_s clamps at 1 from there on.
    params = MarketParams(
        n=1, l=1, m=1, c_w=1.1, c_b=2.0, r_s=0.0, W=0.0, TC_s=40.0, TC_ns=1.0, x=0.5
    )
    got = sweep(params, s0_curves, s0_decision.t, grid)
    assert repr(got) == repr(_closed_form_sweep(params, s0_curves, s0_decision, grid))
    assert not got[3][0] and got[3][-1]


@pytest.mark.parametrize(
    "helper, fake, detail",
    [
        (
            "_corner_alpha_s",
            lambda params, ks, p_s: 0.5,
            "alpha_s not strictly increasing at step 0",
        ),
        (
            "_corner_severe_probs",
            lambda params, ks, p_s: (0.5, 0.5 - 0.01 * p_s),
            "p_e_s not strictly increasing at step 0",
        ),
        (
            "_corner_severe_probs",
            lambda params, ks, p_s: (0.01 * p_s, 0.5),
            "p_b_s not strictly decreasing at step 0",
        ),
        (
            "_corner_severe_probs",
            lambda params, ks, p_s: (1.5 - p_s, 0.5),
            "p_e_s decreases across a clamped step 0",
        ),
        (
            "_corner_severe_probs",
            lambda params, ks, p_s: (0.1 + 0.01 * p_s, p_s - 0.5),
            "p_b_s increases across a clamped step 0",
        ),
        pytest.param(
            "_corner_severe_probs",
            lambda params, ks, p_s: (_clamped_step_p_e(p_s, 5e-15), 0.5 - 0.01 * p_s),
            "p_e_s decreases across a clamped step 0",
            id="p_e_s falls by 5e-15 across a clamped step",
        ),
    ],
)
def test_proposition_1_names_the_failing_step(monkeypatch, helper, fake, detail):
    monkeypatch.setattr(verification_module, helper, fake)
    report = verify_proposition_1(FeasibleSampler(21), 2, [float(i) for i in range(10)])
    assert not report.passed and report.draws_tested == 2
    assert report.min_margin == 0.0
    assert [f["detail"] for f in report.failures] == [detail] * 2
    assert all("scenario" in f for f in report.failures)


def _clamped_step_p_e(p_s: float, drop: float) -> float:
    """An expert win probability clamped to 1 except at p_s = 1, where it is 1 - drop.

    Step 0 then falls by ``drop`` from a clamped point; every later step
    rises or stays clamped.
    """
    return 1.0 - drop if p_s == 1.0 else 1.5


def test_proposition_1_allows_rounding_across_a_clamped_step(monkeypatch):
    monkeypatch.setattr(
        verification_module,
        "_corner_severe_probs",
        lambda params, ks, p_s: (_clamped_step_p_e(p_s, 5e-16), 0.5 - 0.01 * p_s),
    )
    report = verify_proposition_1(FeasibleSampler(21), 2, [float(i) for i in range(10)])
    assert report.passed and report.draws_tested == 2 and report.min_margin > 0.0


def test_proposition_reports_pass_on_modest_populations():
    grid = [20.0 * i / 49 for i in range(50)]
    r1 = verify_proposition_1(FeasibleSampler(21), 30, grid)
    assert r1.passed and r1.draws_tested == 30 and r1.min_margin > 0.0
    r2 = verify_proposition_2(FeasibleSampler(22), 30)
    assert r2.passed and r2.draws_tested == 30
    assert r2.min_margin > 0.0  # profit gap is strictly positive
    r3 = verify_proposition_3(FeasibleSampler(23), 10)
    assert r3.passed and r3.draws_tested == 10 and r3.min_margin > 0.0
    ident = identity_suite(FeasibleSampler(24), 30)
    assert ident.passed and ident.min_margin > 0.0
    shape = asdict(r1)
    assert set(shape) == {
        "id",
        "draws_tested",
        "excluded",
        "failures",
        "passed",
        "min_margin",
        "median_margin",
    }


def test_identity_suite_reports_a_violated_tolerance(monkeypatch):
    monkeypatch.setattr(verification_module, "_NORMALIZATION_TOL", -1.0)
    report = identity_suite(FeasibleSampler(27), 5)
    assert not report.passed
    assert report.failures
    assert "normalization" in report.failures[0]["detail"]


@pytest.mark.parametrize(
    "verifier, name, value",
    [
        (
            functools.partial(verify_proposition_1, bounty_grid=[float(i) for i in range(10)]),
            "_corner_alpha_s",
            lambda params, ks, p_s: 0.5,
        ),
        (verify_proposition_2, "profit_decomposition_check", lambda params, curves, t: 1.0),
        (verify_proposition_3, "release_gap_term", lambda params, curves, t: 1.0),
        (identity_suite, "_NORMALIZATION_TOL", -1.0),
        (
            verification_module._condition1_band,
            "condition1",
            lambda params, curves, t: SimpleNamespace(lb=1.0, ub=1.0),
        ),
    ],
    ids=["proposition-1", "proposition-2", "proposition-3", "identity-suite", "condition-1-band"],
)
def test_every_report_counts_its_failing_draws(monkeypatch, verifier, name, value):
    # Every tested draw fails: each still counts in draws_tested, is
    # recorded with its scenario, and gives a margin of at most 0.
    monkeypatch.setattr(verification_module, name, value)
    draws = 3
    report = verifier(FeasibleSampler(31), draws)
    assert not report.passed
    assert report.draws_tested == draws and len(report.failures) == draws
    assert report.min_margin <= 0.0
    assert all(set(f) == {"detail", "scenario"} for f in report.failures)


def test_full_suite_is_deterministic_and_green():
    first = run_full_suite(seed=3, draws=20)
    second = run_full_suite(seed=3, draws=20)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["passed"]
    assert set(first["reports"]) == {
        "proposition-1",
        "proposition-2",
        "proposition-3",
        "identity-suite",
        "condition-1-band",
    }
    for report in first["reports"].values():
        assert report["passed"]
        assert not report["failures"]


# sha256 of json.dumps(run_full_suite(seed, 4), sort_keys=True), recorded
# with CPython 3.11 and numpy 2.4 on x86-64 Linux. Each suite runs all five
# sampler tiers; a change meant to keep every result bit-for-bit must leave
# these alone.
PINNED_SUITE_SHA256 = {
    5: "545a63e0cc8fbc07575d3a6fbd841e25ec23c174f65245535608b6550ca71f28",
    10: "33cf9e5c6c8bb3bc9a7944d240b1141ac251f1304a02c82fbc8e25e715aa9948",
    15: "8e466d2226c17497b81872e1ffcd6cc1114c11bad9684b536482c15db7360816",
    20: "246cf76f0e471f0ebc5258517b86dadc9106f324453236423cd0248b35c3a3ce",
    25: "05300983864d086b8d5d9f68dbf02f7ada2f1c9cc85f5aecfb4ab29a2f2944ed",
    30: "2e4141f050947a9383d8599326b81f17e8d6b4925db6085786c0724ffab3d314",
    35: "e6870110e6da73b4eb1c3491928b15821b80619888e458d3aa76d783f2a333c5",
    40: "e42a69c06b8ba045ee17c0da680e512fd449b82431a86889322ab5838b88fe13",
    45: "2757dc7ff338251e3d85ac658aa744cf1bb750c5826dcb9ecf4a6c51e926ae67",
    50: "8a69c7af7a761290dfb92e2c4745d4f2dd2ad33524d99b276f8ff0a4ef9a9c83",
    55: "28e7806ec10bcb3be276d20ea4fbe3ab140a805b58836cbcbb688fafe55f1fe4",
    60: "bf82482838b2c38c88dd921bccc7f3ff69b51df56d56ad58ff677772526d53bb",
    65: "8a1585b0526272fba0c5338feeebd98c2fcf2268bf1ecc8322bd9e754c16f190",
    70: "6e47d08c006d7369cb586b7de6654b5fa5439714b0048f1fd6121cf1b98fc89c",
    75: "a13b29dca13eee60f5573b4daaea057402cd7b563787b65acfef72633db01cde",
    80: "3e4c75ba730e6f60674021c6a23ef7f1e20da34f5f6cfd47e2064d4c0f99797d",
    85: "d1dbbfd75eb8e19450c2499bd1ed22b6f98288cb0f23e083035384a4725761b9",
    90: "410ca632b197a05c8407f4e1143b8319ddf29c259bb259e656d12cfa4f6f48bd",
    95: "dd1e7ee321820ece931b618914736e84a7c4689143cdecc5735bf34829688f8f",
    100: "959d5b933a5cefecad061e1fb8c02998f245280b779e375d6df0d5f537743999",
    105: "afd5000b5520d68e83384218bd755675332127575181b6e7cad1015c1cb63e8a",
    110: "ee07891b7e8fb90814924dd5afee6ff8c20e9a9a1170e86df4fc198976d8c521",
    115: "57c306675a3838ac862cfe593d7c288c2994677fb40322684ab20dc65a7404a1",
    120: "a74e2795a1c4f5542dfcc734bdcf54585f4f31982f8c3f8773b3b6d9128da5a0",
}


def test_full_suite_bytes_are_pinned():
    digests = {
        seed: hashlib.sha256(
            json.dumps(run_full_suite(seed, 4), sort_keys=True).encode()
        ).hexdigest()
        for seed in PINNED_SUITE_SHA256
    }
    assert digests == PINNED_SUITE_SHA256
