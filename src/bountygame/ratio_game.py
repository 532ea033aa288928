"""Severe-bug race under a ratio (lottery) contest success function.

The additive contest in :mod:`bountygame.hackers` makes win probabilities
linear in effort gaps. This module solves the same severe-bug race when a
hacker's win probability is instead proportional to effort: with symmetric
efforts alpha (experts) and mu (black hats), the first-order conditions are

    K_s (r_s + p_s) kappa / (N S_w) = c_w alpha,   S_w = (n-1) alpha + m mu
    K_s W kappa / (N S_b)           = c_b mu,      S_b = n alpha + (m-1) mu

with N = n + m and kappa = N - 1. There is no closed form in general, so
the solver runs a damped fixed point with a bisection fallback, then
polishes with Newton steps on the 2x2 system.

The qualitative payoff of the ratio form is the dual effect of the severe
bounty: raising p_s now pulls black hat effort down as well as pushing
white hat effort up. ``ratio_sensitivities`` gives those derivatives via
the implicit function theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolationError, ConvergenceError, DomainError
from .hackers import _check_market
from .scenario import CurveSet, MarketParams, VendorDecision, k_nonsevere, k_severe

__all__ = [
    "RatioEquilibrium",
    "RatioSensitivities",
    "solve_ratio_equilibrium",
    "ratio_sensitivities",
    "ratio_newhh_effort",
]

_RESIDUAL_TOL = 1e-10
_MAX_FP_ITER = 10_000
_DAMPING = 0.5


@dataclass(frozen=True)
class RatioEquilibrium:
    """Symmetric severe-race efforts under the ratio contest."""

    alpha_s: float
    mu_s: float
    residuals: tuple[float, float]
    iterations: int
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
    params: MarketParams, decision: VendorDecision, curves: CurveSet
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
        raise DomainError(
            "no positive ratio equilibrium with n=1: requires m c_w W > c_b (r_s + p_s)"
        )
    if m == 1 and n * params.c_b * (params.r_s + decision.p_s) <= params.c_w * params.W:
        raise DomainError(
            "no positive ratio equilibrium with m=1: requires n c_b (r_s + p_s) > c_w W"
        )


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


def _newton_polish(
    alpha: float, mu: float, q_w: float, q_b: float, params: MarketParams
) -> tuple[float, float, int]:
    """Newton iterations on the 2x2 first-order system from a good start."""
    n, m = params.n, params.m
    kappa = n + m - 1
    steps = 0
    for _ in range(50):
        r1, r2 = _residuals(alpha, mu, q_w, q_b, params)
        if max(abs(r1), abs(r2)) <= 1e-13 * max(1.0, params.c_w * alpha, params.c_b * mu):
            break
        s_w = (n - 1) * alpha + m * mu
        s_b = n * alpha + (m - 1) * mu
        p1 = q_w * kappa / (s_w * s_w)
        p2 = q_b * kappa / (s_b * s_b)
        j11 = -(p1 * (n - 1) + params.c_w)
        j12 = -p1 * m
        j21 = -p2 * n
        j22 = -(p2 * (m - 1) + params.c_b)
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        d_alpha = -(r1 * j22 - j12 * r2) / det
        d_mu = -(j11 * r2 - r1 * j21) / det
        new_alpha = alpha + d_alpha
        new_mu = mu + d_mu
        if new_alpha <= 0.0 or new_mu <= 0.0:
            break
        alpha, mu = new_alpha, new_mu
        steps += 1
    return alpha, mu, steps


def _mu_from_white_foc(alpha: float, q_w: float, params: MarketParams) -> float:
    """mu making the white hat first-order condition hold at this alpha."""
    kappa = params.n + params.m - 1
    return (q_w * kappa / (params.c_w * alpha) - (params.n - 1) * alpha) / params.m


def _mu_from_black_foc(alpha: float, q_b: float, params: MarketParams) -> float:
    """Positive mu making the black hat first-order condition hold."""
    n, m = params.n, params.m
    kappa = n + m - 1
    if m == 1:
        return q_b * kappa / (params.c_b * n * alpha)
    a = params.c_b * (m - 1)
    b = params.c_b * n * alpha
    c = -q_b * kappa
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def solve_ratio_equilibrium(
    params: MarketParams,
    decision: VendorDecision,
    curves: CurveSet,
    initial_guess: tuple[float, float] | None = None,
) -> RatioEquilibrium:
    """Solve the symmetric ratio-contest equilibrium of the severe race.

    Starts from the additive closed forms (or ``initial_guess``), runs a
    damped fixed point on the two first-order conditions, and falls back to
    bisection on the one-dimensional reduction if the fixed point stalls.
    Either path ends with Newton polishing. Raises ``DomainError`` when no
    positive equilibrium exists and ``ConvergenceError`` when bracketing
    the fallback root fails.
    """
    _check_ratio_domain(params, decision)
    q_w, q_b = _prizes(params, decision, curves)
    n, m = params.n, params.m

    if initial_guess is not None:
        alpha, mu = initial_guess
        if alpha <= 0.0 or mu <= 0.0:
            raise DomainError("initial_guess efforts must be positive")
    else:
        alpha = q_w / params.c_w
        mu = q_b / params.c_b

    floor = 1e-12 * max(alpha, mu, 1e-30)
    kappa = n + m - 1
    iterations = 0
    converged = False
    for _ in range(_MAX_FP_ITER):
        iterations += 1
        s_w = (n - 1) * alpha + m * mu
        s_b = n * alpha + (m - 1) * mu
        target_alpha = q_w * kappa / (params.c_w * s_w)
        target_mu = q_b * kappa / (params.c_b * s_b)
        alpha = max(floor, (1.0 - _DAMPING) * alpha + _DAMPING * target_alpha)
        mu = max(floor, (1.0 - _DAMPING) * mu + _DAMPING * target_mu)
        r1, r2 = _residuals(alpha, mu, q_w, q_b, params)
        if max(abs(r1), abs(r2)) <= _RESIDUAL_TOL:
            converged = True
            break

    if not converged:
        alpha, extra = _bisection_fallback(q_w, q_b, params)
        iterations += extra
        mu = 0.5 * (
            _mu_from_white_foc(alpha, q_w, params) + _mu_from_black_foc(alpha, q_b, params)
        )

    alpha, mu, polish = _newton_polish(alpha, mu, q_w, q_b, params)
    iterations += polish
    r1, r2 = _residuals(alpha, mu, q_w, q_b, params)
    return RatioEquilibrium(
        alpha_s=alpha,
        mu_s=mu,
        residuals=(r1, r2),
        iterations=iterations,
        converged=max(abs(r1), abs(r2)) <= _RESIDUAL_TOL,
    )


def _bisection_fallback(
    q_w: float, q_b: float, params: MarketParams
) -> tuple[float, int]:
    """Root of h(alpha) = mu_white(alpha) - mu_black(alpha) by bisection.

    Both branches are strictly decreasing in alpha and the existence checks
    guarantee a sign change, so a geometric scan around the additive-form
    guess brackets the root.
    """

    def h(alpha: float) -> float:
        return _mu_from_white_foc(alpha, q_w, params) - _mu_from_black_foc(
            alpha, q_b, params
        )

    pivot = q_w / params.c_w
    evals = 0
    lo = hi = pivot
    lo_val = hi_val = h(pivot)
    evals += 1
    for _ in range(200):
        if lo_val > 0.0:
            break
        lo *= 0.5
        lo_val = h(lo)
        evals += 1
    for _ in range(200):
        if hi_val < 0.0:
            break
        hi *= 2.0
        hi_val = h(hi)
        evals += 1
    if not (lo_val > 0.0 and hi_val < 0.0):
        raise ConvergenceError(
            "could not bracket the ratio equilibrium",
            last_iterate=(lo, hi),
            residuals=(lo_val, hi_val),
            iterations=evals,
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = h(mid)
        evals += 1
        if abs(val) <= 1e-14 * max(1.0, pivot):
            return mid, evals
        if val > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi), evals


def ratio_sensitivities(
    params: MarketParams,
    decision: VendorDecision,
    curves: CurveSet,
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


def ratio_newhh_effort(
    params: MarketParams, decision: VendorDecision, curves: CurveSet
) -> float:
    """Non-expert effort when their race also uses the ratio contest.

    The l non-experts compete alone for the non-severe bounty, so the
    symmetric first-order condition K_ns p_ns (l-1) / (l^2 beta) = beta
    collapses to beta = sqrt(K_ns p_ns / l) after the same per-capita
    normalization as the severe race. Kept separate from the equilibrium
    solver because the vendor stage never uses it.
    """
    if params.l < 1:
        raise DomainError("needs at least one non-expert white hat")
    if decision.p_ns < 0.0:
        raise DomainError("non-severe bounty must be non-negative")
    kns = k_nonsevere(curves, decision.t)
    return math.sqrt(kns * decision.p_ns / params.l)
