"""Severe-bug race under a ratio (lottery) contest success function.

The additive contest in :mod:`bountygame.hackers` makes win probabilities
linear in effort gaps. This module solves the same severe-bug race when a
hacker's win probability is instead proportional to effort: with symmetric
efforts alpha (experts) and mu (black hats), the first-order conditions are

    K_s (r_s + p_s) kappa / (N S_w) = c_w alpha,   S_w = (n-1) alpha + m mu
    K_s W kappa / (N S_b)           = c_b mu,      S_b = n alpha + (m-1) mu

with N = n + m and kappa = N - 1. Dividing one condition by the other
leaves a quadratic in the effort ratio mu / alpha with exactly one
positive root whenever ``_check_ratio_domain`` passes, so the solver is a
closed form. The residuals of both conditions, recomputed at the solved
point, are the independent check behind ``converged``.

The qualitative payoff of the ratio form is the dual effect of the severe
bounty: raising p_s now pulls black hat effort down as well as pushing
white hat effort up. ``ratio_sensitivities`` gives those derivatives via
the implicit function theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolationError, DomainError
from .hackers import _check_market
from .scenario import MarketParams, ReleaseCurves, VendorDecision, k_severe

__all__ = [
    "RatioEquilibrium",
    "RatioSensitivities",
    "solve_ratio_equilibrium",
    "ratio_sensitivities",
]

_RESIDUAL_TOL = 1e-10
_NO_EQUILIBRIUM_N1 = (
    "no positive ratio equilibrium with n=1: requires m c_w W > c_b (r_s + p_s)"
)
_NO_EQUILIBRIUM_M1 = (
    "no positive ratio equilibrium with m=1: requires n c_b (r_s + p_s) > c_w W"
)


@dataclass(frozen=True)
class RatioEquilibrium:
    """Symmetric severe-race efforts under the ratio contest."""

    alpha_s: float
    mu_s: float
    residuals: tuple[float, float]
    converged: bool

    @property
    def max_residual(self) -> float:
        return max(abs(self.residuals[0]), abs(self.residuals[1]))


@dataclass(frozen=True)
class RatioSensitivities:
    """Derivatives of the ratio equilibrium efforts in the severe bounty."""

    dalpha_dps: float
    dmu_dps: float
    det: float


def _prizes(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> tuple[float, float]:
    """Per-capita prize values (q_w, q_b) = K_s (r_s + p_s) / N, K_s W / N."""
    ks = k_severe(curves, decision.t)
    big_n = params.n + params.m
    return ks * (params.r_s + decision.p_s) / big_n, ks * params.W / big_n


def _check_ratio_domain(params: MarketParams, decision: VendorDecision) -> None:
    _check_market(params)
    n, m = params.n, params.m
    if params.r_s + decision.p_s <= 0.0 or params.W <= 0.0:
        raise DomainError("ratio contest needs strictly positive prizes on both sides")
    if n == 1 and m == 1:
        raise DomainError(
            "the one-on-one ratio contest is degenerate: each side's sum of rivals "
            "is a single effort and the two first-order conditions are generically "
            "inconsistent"
        )
    # With a single hacker on one side, a positive equilibrium exists only
    # when the crowded side's prize is not too small relative to its costs.
    if n == 1 and m * params.c_w * params.W <= params.c_b * (params.r_s + decision.p_s):
        raise DomainError(_NO_EQUILIBRIUM_N1)
    if m == 1 and n * params.c_b * (params.r_s + decision.p_s) <= params.c_w * params.W:
        raise DomainError(_NO_EQUILIBRIUM_M1)


def _residuals(
    alpha: float, mu: float, q_w: float, q_b: float, params: MarketParams
) -> tuple[float, float]:
    n, m = params.n, params.m
    kappa = n + m - 1
    s_w = (n - 1) * alpha + m * mu
    s_b = n * alpha + (m - 1) * mu
    r1 = q_w * kappa / s_w - params.c_w * alpha
    r2 = q_b * kappa / s_b - params.c_b * mu
    return r1, r2


def solve_ratio_equilibrium(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    initial_guess: tuple[float, float] | None = None,
) -> RatioEquilibrium:
    """Solve the symmetric ratio-contest equilibrium of the severe race.

    With rho = mu / alpha and k = c_w q_b / q_w, dividing the two
    first-order conditions leaves the quadratic

        c_b (m-1) rho^2 + (c_b n - k m) rho - k (n-1) = 0,

    whose one positive root is taken in cancellation-free form (at m = 1
    it is linear). The white hat condition then gives
    alpha = sqrt(q_w kappa / (c_w ((n-1) + m rho))) and mu = rho alpha.
    The residuals of both conditions are recomputed at that point;
    ``converged`` holds when each, relative to the condition's right side
    (c_w alpha and c_b mu), is within ``_RESIDUAL_TOL``, since the efforts
    grow without bound near the n = 1 and m = 1 existence boundaries.
    ``residuals`` stay absolute. Raises ``DomainError`` when no positive
    equilibrium exists. ``initial_guess`` is unused and kept for callers
    that pass it; it must still hold positive efforts.
    """
    _check_ratio_domain(params, decision)
    if initial_guess is not None and min(initial_guess) <= 0.0:
        raise DomainError("initial_guess efforts must be positive")
    q_w, q_b = _prizes(params, decision, curves)
    n, m = params.n, params.m
    k = params.c_w * q_b / q_w
    a = params.c_b * (m - 1)
    b = params.c_b * n - k * m
    c = k * (n - 1)
    if b > 0.0:
        rho = c / b if m == 1 else 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))
    elif m > 1:
        rho = (math.sqrt(b * b + 4.0 * a * c) - b) / (2.0 * a)
    else:
        rho = 0.0  # m = 1 and b <= 0: the linear root is not positive
    # Within a few ulps of the n = 1 or m = 1 existence boundary the domain
    # check can pass while the rounded b has the wrong sign.
    if not 0.0 < rho < math.inf:
        raise DomainError(_NO_EQUILIBRIUM_N1 if n == 1 else _NO_EQUILIBRIUM_M1)
    alpha = math.sqrt(q_w * (n + m - 1) / (params.c_w * ((n - 1) + m * rho)))
    mu = rho * alpha
    r1, r2 = _residuals(alpha, mu, q_w, q_b, params)
    return RatioEquilibrium(
        alpha_s=alpha,
        mu_s=mu,
        residuals=(r1, r2),
        converged=abs(r1) <= _RESIDUAL_TOL * params.c_w * alpha
        and abs(r2) <= _RESIDUAL_TOL * params.c_b * mu,
    )


def ratio_sensitivities(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    eq: RatioEquilibrium,
) -> RatioSensitivities:
    """Equilibrium effort derivatives in p_s via the implicit function theorem.

    Differentiating the two first-order conditions at the equilibrium gives
    a linear system whose determinant

        det = -P1 P2 kappa + c_b (n-1) P1 + c_w (m-1) P2 + c_w c_b,
        P1 = q_w kappa / S_w^2,  P2 = q_b kappa / S_b^2,

    is strictly positive whenever (n, m) != (1, 1). The signs are then
    unambiguous: dalpha/dp_s > 0 and dmu/dp_s < 0, the dual effect of the
    severe bounty under the ratio contest.
    """
    _check_ratio_domain(params, decision)
    q_w, q_b = _prizes(params, decision, curves)
    n, m = params.n, params.m
    kappa = n + m - 1
    alpha, mu = eq.alpha_s, eq.mu_s
    if alpha <= 0.0 or mu <= 0.0:
        raise DomainError("sensitivities need a positive equilibrium point")
    s_w = (n - 1) * alpha + m * mu
    s_b = n * alpha + (m - 1) * mu
    p1 = q_w * kappa / (s_w * s_w)
    p2 = q_b * kappa / (s_b * s_b)
    det = (
        -p1 * p2 * kappa
        + params.c_b * (n - 1) * p1
        + params.c_w * (m - 1) * p2
        + params.c_w * params.c_b
    )
    if det <= 0.0:
        raise AssumptionViolationError(
            f"implicit-function determinant is not positive (det={det!r}); "
            "the equilibrium point does not satisfy the stability assumption"
        )
    forcing = params.c_w * alpha / (params.r_s + decision.p_s)
    dalpha = (p2 * (m - 1) + params.c_b) * forcing / det
    dmu = -p2 * n * forcing / det
    return RatioSensitivities(dalpha_dps=dalpha, dmu_dps=dmu, det=det)
