"""Rejection sampler and the batch verifiers built on it."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

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


def test_unknown_tier_and_range_key_are_rejected():
    with pytest.raises(DomainError, match="tier"):
        list(FeasibleSampler(1).draws("fancy", 1))
    with pytest.raises(DomainError):
        FeasibleSampler(1, ranges={"volatility": (0.0, 1.0)})


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
    ],
)
def test_proposition_1_names_the_failing_step(monkeypatch, helper, fake, detail):
    monkeypatch.setattr(verification_module, helper, fake)
    report = verify_proposition_1(FeasibleSampler(21), 2, [float(i) for i in range(10)])
    assert not report.passed and report.draws_tested == 2
    assert report.min_margin == 0.0
    assert [f["detail"] for f in report.failures] == [detail] * 2
    assert all("scenario" in f for f in report.failures)


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
    5: "f9210526f2aba89de20687e202e8dc2731b5dd63e04bf1a38ab6f60127024e5a",
    10: "9fe79ca006576c91fa0884bf883f1b4102823383dfb758f61c39f7244c22d0f3",
    15: "810242338de7138ed0212323d51b39625c33ccd4d031d67e96e9e790d4e46737",
    20: "8a822dcfc5595d3305ebd49e11e3a7dc089fac047adc08849e9527b20ed0d259",
    25: "4431e48905ba31b4a984497852a0a771d3f40eec37a76c86b41ff0d984c22e0b",
    30: "cf97062fdc01ebd98cfeaab91a48f6113d868d9d17bd3299c3683056d0f6f44d",
    35: "d5bcb49665ca35ab6fc2f4720122c490a591c1772296781e6e488a11a7894626",
    40: "7e94ee3967e253497dfc6d502ff13c5cc08da40152f64e68e0ce5489e2c839c8",
    45: "b1e417656b0e53bbcaf7a3ea46491f334fa0348f08f8ce7d4d32210d1dfc90bf",
    50: "d3e28146a40b92a40e226b8a8e1113138964ca91103e0da80acdc31fbfde4f3f",
    55: "35e494eafe079a804ef7414d5b9cd4b34eb15ed3d59633f79e5e2ecb940844b1",
    60: "fc5d7781c3b6778d24b81e0b76665e2850fa167fdd4efa6e16f519632505b637",
    65: "34a431645f119be6b292dff77bcb3d267c19d7f7c68e7a154bc6cf3595dea3ed",
    70: "772af9e54b24a7248cd96b79d80a502f25507732e2018b664cb472c6755d5503",
    75: "0f905fd16e0e84760c6b2232090e5fb5790cc4210f2de2ffb24e7d6cab2e8645",
    80: "8e0bc05835e594e5a676b172f12a880547ff5db78e2167ce59264b1e62157d8e",
    85: "06b8e0c39eed6e4ff527946a094af7dcf6e1d135c741360244d9107545134176",
    90: "6042865f39675b6d10ea637957914949fb2b15af8c59109bc87ba0579511e93f",
    95: "bdafa1bfc253af523598551eadfed8a1ab33579b29ac8d123b263e1a2e1c60fc",
    100: "31e99504903903a30ef34c602a0a0023970e5db02e377e6837a29990561236e0",
    105: "3a57f4107319d0d22426cc333acd14f9d9852d2c0830cfb72285aa5f8e54d3b8",
    110: "98d0fba6bd9d9972f19c3aa878985b25c8e646fdb4f1b962fd589dd328b6bc33",
    115: "81a2029188888772299bb9342300711848fdecfd9feff687088056b293d11052",
    120: "24b632ee4439538a168956927e4ea41918cd76b561aa0bdf34b9781a56d05c7b",
}


def test_full_suite_bytes_are_pinned():
    digests = {
        seed: hashlib.sha256(
            json.dumps(run_full_suite(seed, 4), sort_keys=True).encode()
        ).hexdigest()
        for seed in PINNED_SUITE_SHA256
    }
    assert digests == PINNED_SUITE_SHA256
