"""Domain types, parameter validation, and time-dependent release curves.

The market is populated by three hacker types: n expert white hats, l
non-expert white hats, and m black hats. The vendor picks a release time t
and a pair of bounties (p_s, p_ns). Everything downstream reads the
residual-bug likelihood curves K_s(t), K_ns(t) and the revenue curve R(t)
from ``ReleaseCurves``, the one curve family: the optimizers use its
parameters as well as its methods, so it refuses subclasses.

The value types are frozen dataclasses: copy them with
``dataclasses.replace`` and serialize them with ``dataclasses.asdict``.
Construction only checks structure (finite numbers, integral counts of at
most 2**53 in magnitude), coercing each field to ``float`` or ``int``. It
skips the per-field coercion only when the instance is of the exact class
and every field already has its exact type (``int`` counts, ``float``
elsewhere) with finite floats; any other input takes the per-field path
and its messages. The economic assumptions are enforced by ``validate``,
which returns a report instead of raising so that callers can inspect
every violated condition at once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = [
    "MarketParams",
    "ReleaseCurves",
    "VendorDecision",
    "ValidationReport",
    "validate",
    "k_severe",
    "k_nonsevere",
    "revenue",
]

# Counts enter float arithmetic, which holds every integer up to 2**53
# exactly.
_MAX_COUNT = 2**53


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for a float (beyond 1.8e308)") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_int(name: str, value) -> int:
    """``value`` as an int; bools and non-integral types are refused."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _require_count(name: str, value) -> int:
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        number = _require_finite(name, value)
        if not number.is_integer():
            raise DomainError(f"{name} must be an integer, got {value!r}") from None
        count = int(number)
    if abs(count) > _MAX_COUNT:
        raise DomainError(
            f"{name} must be at most 2**53 in magnitude, beyond which floats skip integers"
        )
    return count


@dataclass(frozen=True)
class MarketParams:
    """Market primitives: hacker counts, effort costs, rewards, and losses.

    n, l, m
        Counts of expert white hats, non-expert white hats, and black hats.
    c_w, c_b
        Severity-adjusted effort cost multipliers (both must exceed 1 for
        the closed forms to be well defined).
    r_s
        Reputational gain to an expert white hat for the first severe find.
    W
        Black-hat illicit gain from the first severe exploit.
    TC_s
        Vendor loss when a black hat finds a severe bug first.
    TC_ns
        Vendor loss when a user finds a non-severe bug.
    x
        Fraction of TC_s incurred on uncoordinated disclosure, in (0, 1).
    """

    n: int
    l: int
    m: int
    c_w: float
    c_b: float
    r_s: float
    W: float
    TC_s: float
    TC_ns: float
    x: float

    def __post_init__(self):
        n, l, m = self.n, self.l, self.m
        c_w, c_b, r_s, W, TC_s, TC_ns, x = (
            self.c_w, self.c_b, self.r_s, self.W, self.TC_s, self.TC_ns, self.x
        )
        # A nan or an infinity makes the sum non-finite; a finite sum that
        # overflows only sends valid fields down the per-field path.
        if (
            type(self) is MarketParams
            and type(n) is type(l) is type(m) is int
            and type(c_w) is type(c_b) is type(r_s) is type(W) is float
            and type(TC_s) is type(TC_ns) is type(x) is float
            and max(abs(n), abs(l), abs(m)) <= _MAX_COUNT
            and math.isfinite(c_w + c_b + r_s + W + TC_s + TC_ns + x)
        ):
            return
        for name in ("n", "l", "m"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        for name in ("c_w", "c_b", "r_s", "W", "TC_s", "TC_ns", "x"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


def _likelihood(k0: float, rate: float, t: float) -> float:
    """K0 exp(-lambda t): both likelihood curves, from plain numbers."""
    return k0 * math.exp(-rate * t)


@dataclass(frozen=True)
class ReleaseCurves:
    """Built-in parametric curve family.

    K_s(t) = K_s0 * exp(-lambda_s * t) and likewise for K_ns; the revenue
    curve is the concave quadratic R(t) = R0 - a*t - (b/2)*t**2. These are
    the simplest families satisfying the shape constraints: likelihoods
    decay with slowing rate, revenue falls and falls faster the longer the
    release is delayed. Subclasses are refused: the optimizers read these
    parameters, so an overridden curve would not be the one they solve.
    """

    K_s0: float
    lambda_s: float
    K_ns0: float
    lambda_ns: float
    R0: float
    a: float
    b: float
    t_max: float = 10.0

    def __init_subclass__(cls, **kwargs):
        raise TypeError("ReleaseCurves cannot be subclassed: the optimizers read its parameters")

    def __post_init__(self):
        K_s0, lambda_s, K_ns0, lambda_ns, R0, a, b, t_max = (
            self.K_s0, self.lambda_s, self.K_ns0, self.lambda_ns,
            self.R0, self.a, self.b, self.t_max,
        )
        if not (
            type(K_s0) is type(lambda_s) is type(K_ns0) is type(lambda_ns) is float
            and type(R0) is type(a) is type(b) is type(t_max) is float
            and math.isfinite(K_s0 + lambda_s + K_ns0 + lambda_ns + R0 + a + b + t_max)
        ):
            for f in fields(self):
                object.__setattr__(self, f.name, _require_finite(f.name, getattr(self, f.name)))
        if self.t_max <= 0.0:
            raise DomainError(f"t_max must be positive, got {self.t_max}")

    def k_severe(self, t: float) -> float:
        return _likelihood(self.K_s0, self.lambda_s, t)

    def k_nonsevere(self, t: float) -> float:
        return _likelihood(self.K_ns0, self.lambda_ns, t)

    def revenue(self, t: float) -> float:
        return self.R0 - self.a * t - 0.5 * self.b * t * t


@dataclass(frozen=True)
class VendorDecision:
    """Stage-1 choice triple: release time t and bounties p_s, p_ns."""

    t: float
    p_s: float
    p_ns: float

    def __post_init__(self):
        t, p_s, p_ns = self.t, self.p_s, self.p_ns
        if (
            type(self) is VendorDecision
            and type(t) is type(p_s) is type(p_ns) is float
            and math.isfinite(t + p_s + p_ns)
        ):
            return
        for name in ("t", "p_s", "p_ns"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of ``validate``: hard failures and soft warnings."""

    passed: bool
    failures: tuple[str, ...]
    warnings: tuple[str, ...]


def _check_t(curves: ReleaseCurves, t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0 or t > curves.t_max:
        raise DomainError(f"t = {t!r} is outside [0, {curves.t_max}]")
    return t


def k_severe(curves: ReleaseCurves, t: float) -> float:
    """Likelihood of a residual severe bug at release time t."""
    return curves.k_severe(_check_t(curves, t))


def k_nonsevere(curves: ReleaseCurves, t: float) -> float:
    """Likelihood of a residual non-severe bug at release time t."""
    return curves.k_nonsevere(_check_t(curves, t))


def revenue(curves: ReleaseCurves, t: float) -> float:
    """Vendor revenue when releasing at time t."""
    return curves.revenue(_check_t(curves, t))


def validate(params: MarketParams, curves: ReleaseCurves) -> ValidationReport:
    """Check every model assumption, returning a report instead of raising.

    Parameter checks are direct. The curve shape is decided from the
    closed forms: the signs of the parameters and the values at t_max.
    The cost asymmetry TC_s >> TC_ns is qualitative in the
    model, so a mild ratio only triggers a warning rather than a failure.
    """
    failures: list[str] = []
    warnings: list[str] = []

    if params.n < 1:
        failures.append("n >= 1")
    if params.l < 1:
        failures.append("l >= 1")
    if params.m < 1:
        failures.append("m >= 1")
    if not params.c_w > 1.0:
        failures.append("c_w > 1")
    if not params.c_b > 1.0:
        failures.append("c_b > 1")
    if not 0.0 < params.x < 1.0:
        failures.append("x in (0, 1)")
    if not params.TC_ns > 0.0:
        failures.append("TC_ns > 0")
    if not params.TC_s > params.TC_ns:
        failures.append("TC_s > TC_ns")
    elif params.TC_s < 10.0 * params.TC_ns:
        warnings.append("TC_s >> TC_ns")
    if params.r_s < 0.0:
        failures.append("r_s >= 0")
    if params.W < 0.0:
        failures.append("W >= 0")

    if not 0.0 < curves.K_s0 <= 1.0:
        failures.append("K_s0 in (0, 1]")
    if not curves.lambda_s > 0.0:
        failures.append("lambda_s > 0")
    if not 0.0 < curves.K_ns0 <= 1.0:
        failures.append("K_ns0 in (0, 1]")
    if not curves.lambda_ns > 0.0:
        failures.append("lambda_ns > 0")
    if not curves.R0 > 0.0:
        failures.append("R0 > 0")
    if not curves.a > 0.0:
        failures.append("a > 0")
    if curves.b < 0.0:
        failures.append("b >= 0")
    failures.extend(_release_curve_shape_failures(curves))

    return ValidationReport(
        passed=not failures, failures=tuple(failures), warnings=tuple(warnings)
    )


def _release_curve_shape_failures(curves: ReleaseCurves) -> list[str]:
    """Shape failures of the curves, decided from their closed forms.

    K(t) = K0 exp(-lambda t) is monotone, so its range on [0, t_max] is
    spanned by K(0) = K0 and K(t_max); K' = -lambda K and K'' = lambda^2 K
    keep one sign throughout. R' = -a - b t is linear in t, so it is
    negative on [0, t_max] when it is at both ends, and R'' = -b.
    """
    failures: list[str] = []
    t_max = curves.t_max
    for name, k0, lam, curve in (
        ("K_s", curves.K_s0, curves.lambda_s, curves.k_severe),
        ("K_ns", curves.K_ns0, curves.lambda_ns, curves.k_nonsevere),
    ):
        try:
            k_end = curve(t_max)
        except OverflowError:
            # exp(-lambda t_max) is beyond binary64, so K leaves (0, 1].
            failures.append(f"{name}(t) in (0, 1]")
        else:
            tol = 1e-12 * max(1.0, abs(k0), abs(k_end))
            if min(k0, k_end) <= 0.0 or max(k0, k_end) > 1.0 + tol:
                failures.append(f"{name}(t) in (0, 1]")
        if not (lam > 0.0 and k0 > 0.0 or lam < 0.0 and k0 < 0.0):
            failures.append(f"{name}'(t) < 0")
        if lam != 0.0 and k0 < 0.0:
            failures.append(f"{name}''(t) >= 0")
    if not (curves.a > 0.0 and -curves.a - curves.b * t_max < 0.0):
        failures.append("R'(t) < 0")
    if curves.b < 0.0:
        failures.append("R''(t) <= 0")
    if not curves.revenue(t_max) > 0.0:
        failures.append("R(t_max) > 0")
    return failures
