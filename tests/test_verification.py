"""Rejection sampler and the batch verifiers built on it."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from bountygame import (
    DomainError,
    FeasibleSampler,
    Regime,
    condition1,
    equilibrium,
    figure1_sweep,
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
from bountygame.scenario import MarketParams, ReleaseCurves, VendorDecision
from bountygame.verification import DEFAULT_RANGES, SampledScenario


def test_same_seed_reproduces_draws():
    a = [asdict(s) for s in FeasibleSampler(5).draws("basic", 5)]
    b = [asdict(s) for s in FeasibleSampler(5).draws("basic", 5)]
    assert a == b
    c = [asdict(s) for s in FeasibleSampler(6).draws("basic", 5)]
    assert a != c


def _reference_proposals(seed, ranges, count):
    """Proposals rebuilt from scalar draws in the sampler's documented order."""
    rng = np.random.Generator(np.random.Philox(seed))

    def integer(name):
        lo, hi = ranges[name]
        return int(rng.integers(int(lo), int(hi) + 1))

    def uniform(name):
        lo, hi = ranges[name]
        return lo + (hi - lo) * rng.random()

    for _ in range(count):
        counts = {name: integer(name) for name in ("n", "l", "m")}
        market = {name: uniform(name) for name in ("c_w", "c_b", "r_s", "W", "TC_s", "TC_ns", "x")}
        params = MarketParams(**counts, **market)
        curves = ReleaseCurves(
            **{
                name: uniform(name)
                for name in ("K_s0", "lambda_s", "K_ns0", "lambda_ns", "R0", "a", "b", "t_max")
            }
        )
        t = curves.t_max * rng.random()
        p_s = 10.0 * rng.random()
        boundary = _regime_boundary_p_ns(params, curves.k_severe(t), curves.k_nonsevere(t), p_s)
        coin, factor = rng.random(), rng.random()
        p_ns = boundary * (factor if coin < 0.5 else 1.0 + factor)
        yield SampledScenario(params, curves, VendorDecision(t=t, p_s=p_s, p_ns=p_ns))


def test_proposals_follow_the_documented_draw_order(wide_ranges):
    for ranges in (None, wide_ranges):
        sampler = FeasibleSampler(7, ranges=ranges)
        reference = _reference_proposals(7, dict(DEFAULT_RANGES, **(ranges or {})), 300)
        for k, want in enumerate(reference):
            assert asdict(sampler._propose()) == asdict(want), k
        assert sampler.proposals == 300


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
    monkeypatch.setattr(verification_module, "_NORMALIZATION_TOL", 1e-30)
    report = identity_suite(FeasibleSampler(27), 5)
    assert not report.passed
    assert report.failures
    assert "normalization" in report.failures[0]["detail"]


def test_figure1_sweep_is_affine_and_crosses(s0_params, s0_curves):
    grid = [0.5 * i for i in range(29)]  # unclipped for the baseline market
    rows = figure1_sweep(s0_params, s0_curves, 2.0, grid)
    assert [r["p_s"] for r in rows] == grid
    for series in ("p_e_s", "p_b_s"):
        vals = [r[series] for r in rows]
        second_diffs = [
            (vals[i + 2] - vals[i + 1]) - (vals[i + 1] - vals[i])
            for i in range(len(vals) - 2)
        ]
        assert max(abs(d) for d in second_diffs) < 1e-14
    at7 = rows[14]
    assert at7["p_s"] == 7.0
    assert at7["p_e_s"] == pytest.approx(1.0 / 7.0, abs=1e-15)
    assert at7["p_b_s"] == pytest.approx(1.0 / 7.0, abs=1e-15)


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
    5: "5a3056372e20657f2b269645cea6f1ae7a8a42869283679cd8e448a36d48f92a",
    10: "4d0426f4722367b12350f489ea9a4998705f3f2e13f7402621e76c0ac1518dc1",
    15: "2349000ef481f7c2a524a7430312b98cb8f88db73c4496e8ffc7eaeb75c3d068",
    20: "ea0729b487d000e3a3c770998b95cd4c82a8eb77629dd8a233c85ccb5ccb041d",
    25: "5ad132581d31847ceea821f09b3b877939347d92c4b6231b825443a2fac6eefd",
    30: "af3695b78f6a3a89b42fc7b5a4daa4d47e0046fc7b27c47733536759dcfeb0aa",
    35: "c3dd76e36adc9a218809411cfccd2f883a9f18f496b7eea7f70dfcaa2b7beb8a",
    40: "8e87bd58796323d1601fdab6b25774106d42e9e6587206ead21178164ab1b3a7",
    45: "ffcc53d3ce2be4f2b4c949cdfd3f59aa2b1dc69e24ae8b3f2420a7e5341cded0",
    50: "7e1a8d9616fa1066bd86377816064e394b9ffc1b1c6b85d9bc33d286bab6e7ca",
    55: "cf890a98c8879e7a80c21f1f65aa2757b27ceffb82f472a12d2f2ef5954cafe8",
    60: "a6bb81b04ec9d5effe445902784a2b8079eaf66d274fac20cf2a0c1e5b8a4cc2",
    65: "1e40f8f5df07aa334642269d69d9aba7d06432d0673da78d4256453dde2a80c0",
    70: "b9718fab5c7d3e471d6aaa58e8f49d5513cfff72d41ac38964e711d594358233",
    75: "2d33aa524b040f8c5405526773bed73e278a56f5b595dd37de2e23984ef5bd82",
    80: "95af8f53d8ec5c0124b1759894334a18d69e6b85b985bd2b92b6d06e64f74116",
    85: "c7f68c6d9e1e8f1cda68dab200f70844bb41852b4e265ecd17ed2df6502a2ce7",
    90: "341eaef34a36b2e3dd0cdadf1238495af86f5ca5fe564f111052c3afe4fcb2be",
    95: "f140613678cbc69369e64bbbd13d5c6348c96279090046fdc1da83131918a83f",
    100: "0662fce6abec286a317d0ec1ee7bc899e5c950240a741a33506ace1a880cdce6",
    105: "6290ce5a716913f31b513fd32d5a971f28d53b2c8b52fbda23bded3127787d40",
    110: "6a4b9ca4339624c65cb14053aa0c5238495f76f1712fe9b1069466278acc1cec",
    115: "b8ef79b5d9c3e4501a2ae59b5207dabd2e33fa9d32da7bc41e7a2660a88583d1",
    120: "535b155896472f7e3a36dff927deb286849016522718254dc960de78999f3528",
}


def test_full_suite_bytes_are_pinned():
    digests = {
        seed: hashlib.sha256(
            json.dumps(run_full_suite(seed, 4), sort_keys=True).encode()
        ).hexdigest()
        for seed in PINNED_SUITE_SHA256
    }
    assert digests == PINNED_SUITE_SHA256
