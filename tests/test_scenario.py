"""Parameter containers, curve family, and the scenario validator."""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace

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
    # An empty subclass takes the grid path instead of the closed forms;
    # both must report the violation rather than raise.
    class GridChecked(ReleaseCurves):
        pass

    for curves in (replace(s0_curves, **patch), GridChecked(**{**asdict(s0_curves), **patch})):
        report = validate(s0_params, curves)
        assert not report.passed
        assert expected in report.failures


def test_validate_checks_curve_shape_numerically(s0_params, s0_curves):
    # Revenue must fall over the horizon; a large enough negative "a"
    # cannot even be constructed, so break the shape through b instead:
    # a tiny a with b = 0 keeps R' = -a < 0, still valid. Violate the
    # likelihood shape instead via a curve subclass with growing K_s.
    class GrowingSeverity(ReleaseCurves):
        def k_severe(self, t: float) -> float:
            return min(1.0, self.K_s0 * math.exp(+self.lambda_s * t) / 20.0)

    bad = GrowingSeverity(**asdict(s0_curves))
    report = validate(s0_params, bad)
    assert not report.passed
    assert any("K_s" in f for f in report.failures)


_SIGN_FAILURES = {
    "K_s0 in (0, 1]", "lambda_s > 0", "K_ns0 in (0, 1]", "lambda_ns > 0",
    "R0 > 0", "a > 0", "b >= 0",
}


def test_validate_built_in_family_agrees_with_grid(s0_params):
    # The built-in family is checked from its closed forms; an empty
    # subclass takes the grid path. Wherever the parameter signs are valid
    # the two must report the same failures. With invalid signs only the
    # verdict must match: the grid then names derivative failures from
    # finite differences, which can differ (R' at grid midpoints, say).
    class GridChecked(ReleaseCurves):
        pass

    rng = random.Random(2024)
    sign_valid = 0
    for _ in range(2000):
        fields = dict(
            K_s0=rng.uniform(-0.5, 1.5), lambda_s=rng.uniform(-0.5, 1.0),
            K_ns0=rng.uniform(-0.5, 1.5), lambda_ns=rng.uniform(-0.5, 1.0),
            R0=rng.uniform(-20.0, 200.0), a=rng.uniform(-2.0, 5.0),
            b=rng.uniform(-1.0, 2.0), t_max=rng.uniform(0.1, 30.0),
        )
        closed = validate(s0_params, ReleaseCurves(**fields))
        grid = validate(s0_params, GridChecked(**fields))
        assert closed.passed == grid.passed, fields
        if not _SIGN_FAILURES & set(closed.failures):
            sign_valid += 1
            assert closed.failures == grid.failures, fields
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


def test_subclass_fields_are_checked():
    @dataclass(frozen=True)
    class TaggedCurves(ReleaseCurves):
        tag: float = 0.0

    assert TaggedCurves(**_BASE_FIELDS[ReleaseCurves], tag=1).tag == 1.0
    with pytest.raises(DomainError, match="tag must be finite"):
        TaggedCurves(**_BASE_FIELDS[ReleaseCurves], tag=math.nan)


def test_t_max_must_be_positive(s0_curves):
    with pytest.raises(DomainError):
        replace(s0_curves, t_max=0.0)
