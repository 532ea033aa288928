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
    5: "ef2adeac88f791fb53a8669222dcb95d3388fb5e2e3cbfb394709a5ff3990056",
    10: "d8f36e55b436a0ad9f1769ca51dbf988187a96a666a2b1486e8a293c3b7cc6da",
    15: "746625c526445209dc57a8c15e8c1ef827705578c080316e9e258171ddb9d1a1",
    20: "a7cd72d521eb95097a7a4f353f6d3187b1779189b3f96af232d69797f00c25a7",
    25: "f2cc291198a79d036c86c5192415e370022a059b9c92e1555375c419ffd880d6",
    30: "652fe1b5c760026513a676578c83582fd3bd8734c68a40018c4501b83a7a9d05",
    35: "13e04dc8992003ecef372a0f824df3a3eb2d56bebbd2fece28e84c2c173c8158",
    40: "954052155b0e86c0d116984b56ff753fb2108254ff205f7c7eef0511960e9fe5",
    45: "de0b2cebda1d4a2ce804bb1b2f2e920522bbcdfc5d7dec54ee5650fc3cad4705",
    50: "25a3e3c5f00c4ad647b58bd26c491ebe156fb6da48693b633d40bc75937eda42",
    55: "decaf5ceb18c77dab682446f17a4f236e59fb15940d4dedd53730c3052dc1e75",
    60: "8477cc47e67388acf2f9f1b3620698f7fc701b87e8f66ee7ad1796b7c7d8bb13",
    65: "58264c89ad784605bd74b88b2f3bb8c36294071cadad6b193b7d94178c216fe7",
    70: "0a496af4091546ce7fc5d2a991790c47eec7d832b959af351f7c35eb3705963c",
    75: "f12b5ad0aafc10ad619bbece9e4d19291ce81decb3f3be27413ceb6d7a39cc77",
    80: "d3e458e44618d0ecdc5a682b772a064240583b33250e3c975c09887442f78a2c",
    85: "0f1dee46602fb322fec9a7211c7a5c3d234a9e28e807da329a37848b00764fc2",
    90: "bdcb7570ab7295218af9124fe1da08874d3759644d28ef0e01106c00c1b164db",
    95: "365cd7e3730a9d4be0b987442f62d2de9428df7f57a2d8b1c410fcd9a0da7b45",
    100: "3686d13e0a9d858992f3fbe89751f168fddeb1ef8b7be0dac1aba9688f0b138d",
    105: "b2ce8b03a27049790973d3482f0479c055a7d2dc0c7155e5db3ec599d0a1a196",
    110: "c79857e9b5023b2e2d0e617ce412ab234a0ab5a7ee73fd388b4d5ea78857e9e2",
    115: "8513a67587d980a51f13c5e868bdd93d3cb7988c0a24af5b5d0c66858049b00c",
    120: "131fa5d2acc4010d0d27839d7f7ab40687e24cb8cda06e8e2d70b919f899f556",
}


def test_full_suite_bytes_are_pinned():
    digests = {
        seed: hashlib.sha256(
            json.dumps(run_full_suite(seed, 4), sort_keys=True).encode()
        ).hexdigest()
        for seed in PINNED_SUITE_SHA256
    }
    assert digests == PINNED_SUITE_SHA256
