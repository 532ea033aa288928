"""Parameter containers, curve family, and the scenario validator."""

from __future__ import annotations

import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from bountygame import scenario
from bountygame import (
    DomainError,
    MarketParams,
    ReleaseCurves,
    VendorDecision,
    k_nonsevere,
    k_severe,
    revenue,
    validate,
)


def test_s0_is_valid(s0_params, s0_curves):
    report = validate(s0_params, s0_curves)
    assert report.passed
    assert report.failures == ()


def test_curve_values_at_baseline_time(s0_curves):
    assert k_severe(s0_curves, 2.0) == 0.5
    assert k_nonsevere(s0_curves, 2.0) == 0.8
    assert revenue(s0_curves, 2.0) == 100.0 - 4.0 - 1.0


def test_curve_ops_reject_out_of_domain_times(s0_curves):
    with pytest.raises(DomainError):
        k_severe(s0_curves, -0.1)
    with pytest.raises(DomainError):
        k_nonsevere(s0_curves, 10.5)
    with pytest.raises(DomainError):
        revenue(s0_curves, math.nan)


def test_replace_returns_new_frozen_instance(s0_params, s0_decision):
    bumped = replace(s0_params, n=4)
    assert bumped.n == 4 and s0_params.n == 3
    with pytest.raises(Exception):
        s0_params.n = 9  # frozen
    assert replace(s0_decision, p_s=0.0).p_s == 0.0


def test_asdict_round_trips(s0_params, s0_curves, s0_decision):
    assert MarketParams(**asdict(s0_params)) == s0_params
    assert ReleaseCurves(**asdict(s0_curves)) == s0_curves
    assert VendorDecision(**asdict(s0_decision)) == s0_decision


@pytest.mark.parametrize(
    "patch, expected",
    [
        ({"n": 0}, "n >= 1"),
        ({"c_w": 1.0}, "c_w > 1"),
        ({"c_b": 0.5}, "c_b > 1"),
        ({"x": 1.0}, "x in (0, 1)"),
        ({"TC_ns": 0.0}, "TC_ns > 0"),
        ({"TC_s": 0.5}, "TC_s > TC_ns"),
        ({"r_s": -1.0}, "r_s >= 0"),
        ({"W": -2.0}, "W >= 0"),
    ],
)
def test_validate_flags_market_violations(s0_params, s0_curves, patch, expected):
    report = validate(replace(s0_params, **patch), s0_curves)
    assert not report.passed
    assert expected in report.failures


@pytest.mark.parametrize(
    "patch, expected",
    [
        ({"K_s0": 0.0}, "K_s0 in (0, 1]"),
        ({"K_s0": 1.5}, "K_s0 in (0, 1]"),
        ({"lambda_ns": -0.1}, "lambda_ns > 0"),
        ({"R0": 0.0}, "R0 > 0"),
        ({"a": 0.0}, "a > 0"),
        ({"b": -1.0}, "b >= 0"),
        # exp(-lambda * t_max) = exp(1000) is beyond binary64.
        ({"lambda_s": -100.0}, "K_s(t) in (0, 1]"),
        ({"lambda_ns": -100.0}, "K_ns(t) in (0, 1]"),
    ],
)
def test_validate_flags_curve_violations(s0_params, s0_curves, patch, expected):
    report = validate(s0_params, replace(s0_curves, **patch))
    assert not report.passed
    assert expected in report.failures


@pytest.mark.parametrize(
    "tc_s, passed, warnings",
    [
        (5.0, True, ("TC_s >> TC_ns",)),
        (10.0, True, ()),
        (40.0, True, ()),  # the baseline
        (1.0, False, ()),
    ],
)
def test_validate_warns_on_a_mild_cost_asymmetry(s0_params, s0_curves, tc_s, passed, warnings):
    # TC_ns is 1, so TC_s is the asymmetry ratio; below 10 it is too mild
    # for the model's TC_s >> TC_ns but not a failure.
    report = validate(replace(s0_params, TC_s=tc_s), s0_curves)
    assert report.passed is passed
    assert report.warnings == warnings
    assert ("TC_s > TC_ns" in report.failures) is not passed


_SIGN_FAILURES = {
    "K_s0 in (0, 1]", "lambda_s > 0", "K_ns0 in (0, 1]", "lambda_ns > 0",
    "R0 > 0", "a > 0", "b >= 0",
}


# Number of sample points for the numeric curve-shape check.
SHAPE_GRID_POINTS = 160


def _grid_shape_failures(curves: ReleaseCurves) -> list[str]:
    """Shape failures of any curve set, from finite differences on a grid."""
    import numpy as np

    failures: list[str] = []
    grid = np.linspace(0.0, curves.t_max, SHAPE_GRID_POINTS)
    rev = np.array([curves.revenue(t) for t in grid])

    for name, curve in (("K_s", curves.k_severe), ("K_ns", curves.k_nonsevere)):
        try:
            vals = np.array([curve(t) for t in grid])
        except OverflowError:
            # A value beyond binary64 is outside (0, 1].
            failures.append(f"{name}(t) in (0, 1]")
            continue
        scale = max(1.0, float(np.max(np.abs(vals))))
        tol = 1e-12 * scale
        if np.any(vals <= 0.0) or np.any(vals > 1.0 + tol):
            failures.append(f"{name}(t) in (0, 1]")
        d1 = np.diff(vals)
        if not np.all(d1 < 0.0):
            failures.append(f"{name}'(t) < 0")
        if not np.all(np.diff(d1) >= -tol):
            failures.append(f"{name}''(t) >= 0")

    rev_scale = max(1.0, float(np.max(np.abs(rev))))
    rev_tol = 1e-12 * rev_scale
    d1 = np.diff(rev)
    if not np.all(d1 < 0.0):
        failures.append("R'(t) < 0")
    if not np.all(np.diff(d1) <= rev_tol):
        failures.append("R''(t) <= 0")
    if not rev[-1] > 0.0:
        failures.append("R(t_max) > 0")
    return failures


def test_validate_built_in_family_agrees_with_grid(s0_params):
    # validate decides the curve shape from the closed forms; the reference
    # above, independent of them, samples values and first and second
    # finite differences on a grid. Wherever the parameter signs are valid
    # the two must report the same failures. With invalid signs only the
    # verdict must match: the grid then names derivative failures from
    # finite differences, which can differ (R' at grid midpoints, say).
    rng = random.Random(2024)
    sign_valid = 0
    for _ in range(2000):
        fields = dict(
            K_s0=rng.uniform(-0.5, 1.5), lambda_s=rng.uniform(-0.5, 1.0),
            K_ns0=rng.uniform(-0.5, 1.5), lambda_ns=rng.uniform(-0.5, 1.0),
            R0=rng.uniform(-20.0, 200.0), a=rng.uniform(-2.0, 5.0),
            b=rng.uniform(-1.0, 2.0), t_max=rng.uniform(0.1, 30.0),
        )
        curves = ReleaseCurves(**fields)
        closed = validate(s0_params, curves)
        grid = _grid_shape_failures(curves)
        sign_failures = _SIGN_FAILURES & set(closed.failures)
        assert closed.passed == (not sign_failures and not grid), fields
        if not sign_failures:
            sign_valid += 1
            assert list(closed.failures) == grid, fields
    assert sign_valid >= 50


def test_validate_accepts_a_tiny_decay_rate(s0_params, s0_curves):
    # exp(-1e-17 t) rounds to 1, so K_ns is flat in binary64 and a grid of
    # finite differences reads K_ns' = 0; the rate itself is valid.
    report = validate(s0_params, replace(s0_curves, lambda_ns=1e-17))
    assert report.passed, report.failures


def test_nonfinite_parameters_rejected_at_construction():
    with pytest.raises(DomainError):
        VendorDecision(t=math.inf, p_s=0.0, p_ns=0.0)
    with pytest.raises(DomainError):
        MarketParams(
            n=3, l=5, m=4, c_w=math.nan, c_b=2.0,
            r_s=1.0, W=8.0, TC_s=40.0, TC_ns=1.0, x=0.5,
        )


def test_oversized_numbers_raise_domain_error(s0_params):
    with pytest.raises(DomainError, match="t is too large for a float"):
        VendorDecision(t=10**400, p_s=0.0, p_ns=0.0)
    # 2^53 + 1 is an integer, but no float holds it.
    for n in (10**400, 2**53 + 1, -(2**53) - 1, 1e300):
        with pytest.raises(DomainError, match=r"n must be at most 2\*\*53 in magnitude"):
            replace(s0_params, n=n)
    assert replace(s0_params, n=2**53).n == 2**53


_BASE_FIELDS = {
    MarketParams: dict(
        n=3, l=5, m=4, c_w=2.0, c_b=2.0, r_s=1.0, W=8.0, TC_s=40.0, TC_ns=1.0, x=0.5
    ),
    ReleaseCurves: dict(
        K_s0=0.9, lambda_s=0.3, K_ns0=0.95, lambda_ns=0.09, R0=100.0, a=2.0, b=0.5,
        t_max=10.0,
    ),
    VendorDecision: dict(t=2.0, p_s=2.5, p_ns=0.5),
}
_COUNT_FIELDS = ("n", "l", "m")

# Each variant maps (is_count, base value) to the value put in one field.
_FIELD_VARIANTS = {
    "exact": lambda count, v: v,
    "numpy": lambda count, v: np.int64(v) if count else np.float64(v),
    "float-counts": lambda count, v: float(v) if count else v,
    "int-floats": lambda count, v: v if count else int(v),
    "bool": lambda count, v: True,
    "nan": lambda count, v: math.nan,
    "inf": lambda count, v: math.inf,
    "-inf": lambda count, v: -math.inf,
    "oversized-int": lambda count, v: 10**400,
    "2**53+1": lambda count, v: 2**53 + 1,
}


def _per_field(kwargs):
    """The fields the per-field path gives: each coerced on its own, in order."""
    return {
        name: (
            scenario._require_count if name in _COUNT_FIELDS else scenario._require_finite
        )(name, value)
        for name, value in kwargs.items()
    }


def _assert_matches_per_field(cls, kwargs):
    try:
        want = _per_field(kwargs)
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            cls(**kwargs)
        assert str(raised.value) == str(exc)
        return
    built = cls(**kwargs)
    got = [getattr(built, name) for name in kwargs]
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want.values()]


@pytest.mark.parametrize("variant", list(_FIELD_VARIANTS))
def test_construction_matches_per_field_path(variant):
    # Exact types take the fast path; every other input must give the same
    # values and types, or the same DomainError, as coercing field by field.
    make = _FIELD_VARIANTS[variant]
    for cls, base in _BASE_FIELDS.items():
        for name, value in base.items():
            _assert_matches_per_field(cls, {**base, name: make(name in _COUNT_FIELDS, value)})


def test_finite_fields_whose_sum_overflows_construct():
    kwargs = {**_BASE_FIELDS[MarketParams], "c_w": 1e308, "TC_s": 1e308}
    assert math.isinf(sum(kwargs.values()))
    _assert_matches_per_field(MarketParams, kwargs)
    assert MarketParams(**kwargs).TC_s == 1e308


def test_release_curves_refuse_subclasses():
    # The optimizers read the curve parameters, so a subclass overriding a
    # curve would be solved as the family it overrides.
    with pytest.raises(TypeError, match="cannot be subclassed"):

        class WavyRevenue(ReleaseCurves):
            def revenue(self, t: float) -> float:
                return super().revenue(t) + math.sin(3.0 * t)


def test_t_max_must_be_positive(s0_curves):
    with pytest.raises(DomainError):
        replace(s0_curves, t_max=0.0)
