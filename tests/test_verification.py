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
        sampler = FeasibleSampler(8, ranges=ranges)
        proposals = [asdict(sampler._propose()) for _ in range(20_000)]
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
    5: "72e6830a02a3a7dac85dc82ec74813aded21d4b2ffb6288c142b5455202fe727",
    10: "33cf9e5c6c8bb3bc9a7944d240b1141ac251f1304a02c82fbc8e25e715aa9948",
    15: "bcea28313970e47f4a36f3ae263671d3abdd66bb270ddec558705aad9fe29a41",
    20: "6523253d4a62d1b1d434fae4efb067b80e70895ecb0b369513d50fb69ce17db0",
    25: "5a4021c0340eb00fdccf29395f9aac0940f86c7c527f85919565f2c69fabf2e4",
    30: "eed5f7c66947ace62ba90427ce14e64f637db2888a227328b71061713ad9d2e7",
    35: "b52e074346047e5f604ccceba4472b32738e99618b6f02d43f609d7a1a6b3156",
    40: "e42a69c06b8ba045ee17c0da680e512fd449b82431a86889322ab5838b88fe13",
    45: "9533aec54947745d6fc4a795da0418e6170f3cde4438a6805006b251c39aa25b",
    50: "cb9b258f268cdd2298d740529842139cb60d59878cf95a13a31b4b6c07b2a17b",
    55: "153a58c6980640b7b880207a2db0b3371297ad6e87fa89a934acc9fdcc7080c9",
    60: "da7ebac6786196219ae14f2651604fcff1a14626d5567ed3779cf7d92a4ccff3",
    65: "a32099317b2df648a83759d87f50000653c00b3faf9e6e191cf5669766bb085a",
    70: "cd9e9d7745685f08ca17b1f2e6dd13a9dd1c27a89de185e1ad104aabd7190f53",
    75: "0c1ec35e6a104a8867551f036f31a3b763f0373e3c66248207996c7949d9aaaa",
    80: "4955900b8318b645db9b9a1f783a74beac1dd2025ce861180b89ccfe66fe2152",
    85: "da8d8adb869d293abb59873fa6580e1796d29b55666848ffc92dcedde7e4d00c",
    90: "9ce0ae95a1708f88ed15e9959ed12db677361040bf57045c07a28e2d0b6739f5",
    95: "7346dea41d3e249fc1c1304b199b09512e90b4bb41f2312d91a9e53e8aa9351e",
    100: "7e9aad26b620bfcdef9186d57251e45090a708126409f5347873a0ec2a723fb9",
    105: "2f4ccc2b322efeacddee63d8e0aed24b2870e8cd1f895a56e54eb3946def1b25",
    110: "932d17da5fff66b8b77f519a869bbe5e86be08fed25cc90e2f928daf8260ae6e",
    115: "cacf0955e4d0a1b6447ec0431037d65946c962f1eb127b84e0f8e01398552656",
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
