"""Hacker-stage equilibria: effort profiles and first-discovery probabilities.

Three hacker populations compete to find bugs first. Expert white hats
(n of them) split effort between the severe and non-severe bug, non-expert
white hats (l) work the non-severe bug only, black hats (m) the severe bug
only. Given the vendor's release time and bounty pair, the stage admits two
symmetric equilibrium families:

* corner: experts specialize fully in the severe bug (``alpha_ns == 0``),
* interior: experts split effort across both bugs.

The corner family is the empirically relevant one and the vendor stage is
built on it. Closed forms for both families live here, next to the success
probabilities they imply. The deviation payoff ``focal_payoff`` is written
once and accepts numpy arrays of efforts; the brute-force grid oracle used
by the verification suite evaluates the same payoff groups on a whole
effort grid to confirm every closed form is actually a best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError
from .scenario import MarketParams, ReleaseCurves, VendorDecision, k_nonsevere, k_severe

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Regime",
    "HackerType",
    "EffortProfile",
    "SuccessProfile",
    "select_regime",
    "corner_equilibrium",
    "interior_equilibrium",
    "equilibrium",
    "success_probabilities",
    "focal_payoff",
    "best_response_oracle",
]

# Step of the oracle's effort grid on [0, 1]: 1001 points per axis.
_ORACLE_STEP = 0.001
# Side of the expert oracle's blocks: the grid is cut into bands of 32 rows and
# tiles of 32 columns, and each block of one band and one tile gets a payoff
# bound. Only blocks whose bound reaches a payoff the grid attains are
# evaluated (see ``best_response_oracle``), so the winner is that of the whole
# grid; a band's evaluated rows of at most 1001 doubles (256 KB) stay in a
# core's cache.
_ORACLE_BLOCK_ROWS = 32


class Regime(str, Enum):
    CORNER = "corner"
    INTERIOR = "interior"


class HackerType(Enum):
    EWHH = "ewhh"
    NEWHH = "newhh"
    BHH = "bhh"


@dataclass(frozen=True)
class EffortProfile:
    """Symmetric equilibrium efforts, one value per hacker population.

    ``feasible`` is False when any effort falls outside [0, 1]. Efforts are
    reported as the closed forms produce them, never clamped, so an
    infeasible profile is visible rather than silently repaired.
    """

    alpha_s: float
    alpha_ns: float
    beta_ns: float
    mu_s: float
    regime: Regime
    feasible: bool


@dataclass(frozen=True)
class SuccessProfile:
    """First-discovery probabilities conditional on each bug existing.

    ``p_e_s`` and ``p_b_s`` are per-hacker probabilities of winning the
    severe race (expert white hat and black hat respectively); ``p_e_ns``
    and ``p_ne_ns`` the analogues for the non-severe race. Values are
    clamped into [0, 1]; the names of any clamped fields are recorded in
    ``clipped``.
    """

    p_e_s: float
    p_e_ns: float
    p_ne_ns: float
    p_b_s: float
    clipped: tuple[str, ...] = ()

    @property
    def any_clipped(self) -> bool:
        return len(self.clipped) > 0


def _check_market(params: MarketParams) -> None:
    if params.n < 1 or params.l < 1 or params.m < 1:
        raise DomainError("hacker stage needs at least one hacker of each type")
    if params.c_w <= 1.0:
        raise DomainError("expert cost parameter c_w must exceed 1")
    if params.c_b <= 1.0:
        raise DomainError("black hat cost parameter c_b must exceed 1")


def _check_profile(others: EffortProfile) -> None:
    efforts = (others.alpha_s, others.alpha_ns, others.beta_ns, others.mu_s)
    if not all(map(math.isfinite, efforts)):
        raise DomainError("the other hackers' efforts must be finite")


def _marginal_values(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> tuple[float, float]:
    """Per-capita marginal prize values for the two races.

    Severe: K_s(t) * (r_s + p_s) / (n + m). Non-severe: K_ns(t) * p_ns / (n + l).
    """
    e_s = k_severe(curves, decision.t) * (params.r_s + decision.p_s) / (params.n + params.m)
    e_ns = k_nonsevere(curves, decision.t) * decision.p_ns / (params.n + params.l)
    return e_s, e_ns


def select_regime(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> Regime:
    """Decide which equilibrium family applies at this vendor decision.

    The corner holds when the severe race is lucrative enough that an
    expert's marginal value of severe effort, at zero non-severe effort,
    stays above the marginal value of switching a unit into the non-severe
    race: K_s(t)(r_s + p_s) / ((n+m) c_w) > K_ns(t) p_ns / (n+l). Ties go
    to the interior family.
    """
    _check_market(params)
    e_s, e_ns = _marginal_values(params, decision, curves)
    if e_s / params.c_w > e_ns:
        return Regime.CORNER
    return Regime.INTERIOR


def _regime_boundary_p_ns(params: MarketParams, ks: float, kns: float, p_s: float) -> float:
    """The non-severe bounty at which the two sides of ``select_regime`` meet.

    K_s (r_s + p_s)(n + l) / ((n + m) c_w K_ns): below it the corner holds.
    """
    return (
        ks * (params.r_s + p_s) * (params.n + params.l)
        / ((params.n + params.m) * params.c_w * kns)
    )


def _feasible(*efforts: float) -> bool:
    return all(0.0 <= e <= 1.0 for e in efforts)


def _corner_alpha_s(params: MarketParams, ks: float, p_s: float) -> float:
    """Corner-regime expert severe effort K_s (r_s + p_s) / ((n + m) c_w)."""
    return ks * (params.r_s + p_s) / ((params.n + params.m) * params.c_w)


def corner_equilibrium(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> EffortProfile:
    """Specialized-expert equilibrium efforts."""
    _check_market(params)
    ks = k_severe(curves, decision.t)
    kns = k_nonsevere(curves, decision.t)
    alpha_s = _corner_alpha_s(params, ks, decision.p_s)
    beta_ns = kns * decision.p_ns / params.l
    mu_s = ks * params.W / (params.c_b * (params.n + params.m))
    return EffortProfile(
        alpha_s=alpha_s,
        alpha_ns=0.0,
        beta_ns=beta_ns,
        mu_s=mu_s,
        regime=Regime.CORNER,
        feasible=_feasible(alpha_s, beta_ns, mu_s),
    )


def interior_equilibrium(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> EffortProfile:
    """Split-effort equilibrium efforts.

    Solves the expert's two first-order conditions
    c_w * alpha_s + alpha_ns = E_s and alpha_s + alpha_ns = E_ns, where E_s
    and E_ns are the per-capita marginal prize values. A negative alpha_s
    (severe race too poor relative to non-severe) is reported as-is with
    ``feasible=False``.
    """
    _check_market(params)
    e_s, e_ns = _marginal_values(params, decision, curves)
    alpha_s = (e_s - e_ns) / (params.c_w - 1.0)
    alpha_ns = (params.c_w * e_ns - e_s) / (params.c_w - 1.0)
    beta_ns = e_ns
    mu_s = k_severe(curves, decision.t) * params.W / (params.c_b * (params.n + params.m))
    return EffortProfile(
        alpha_s=alpha_s,
        alpha_ns=alpha_ns,
        beta_ns=beta_ns,
        mu_s=mu_s,
        regime=Regime.INTERIOR,
        feasible=_feasible(alpha_s, alpha_ns, beta_ns, mu_s),
    )


def equilibrium(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> EffortProfile:
    """Equilibrium efforts for whichever regime the decision induces."""
    if select_regime(params, decision, curves) is Regime.CORNER:
        return corner_equilibrium(params, decision, curves)
    return interior_equilibrium(params, decision, curves)


def _clamp(name: str, value: float, clipped: list[str]) -> float:
    if value < 0.0:
        clipped.append(name)
        return 0.0
    if value > 1.0:
        clipped.append(name)
        return 1.0
    return value


def _corner_severe_probs(params: MarketParams, ks: float, p_s: float) -> tuple[float, float]:
    """Corner-regime severe-race probabilities (p_e_s, p_b_s), not clamped."""
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    g = (params.r_s + p_s) / params.c_w - params.W / params.c_b
    p_e = (1.0 + m * ks * g / (kappa * big_n)) / big_n
    p_b = (1.0 - n * ks * g / (kappa * big_n)) / big_n
    return p_e, p_b


def _corner_slope_factors(params: MarketParams, ks: float, g: float) -> tuple[float, float]:
    """N d(K_s p_b_s)/dK_s and N d(K_s p_e_s)/dK_s of the corner race.

    With the prize advantage g held fixed, K_s p_b_s = (K_s/N)(1 - n K_s g /
    (kappa N)), so the black hat factor is 1 - 2 n K_s g / (kappa N) and the
    expert factor 1 + 2 m K_s g / (kappa N). The vendor's profit slopes in t
    carry these factors times K_s'(t).
    """
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    return (
        1.0 - 2.0 * n * ks * g / (kappa * big_n),
        1.0 + 2.0 * m * ks * g / (kappa * big_n),
    )


def success_probabilities(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    profile: EffortProfile,
) -> SuccessProfile:
    """Per-hacker first-discovery probabilities at an equilibrium profile.

    Corner profiles use the corner closed forms, which depend on the
    decision only: with N = n + m and kappa = N - 1,

        p_e_s  = max(0, (1/N) (1 + m K_s G / (kappa N)))
        p_b_s  = max(0, (1/N) (1 - n K_s G / (kappa N)))
        p_ne_ns = K_ns p_ns / l,  p_e_ns = 0

    where G = (r_s + p_s)/c_w - W/c_b is the white-over-black advantage in
    cost-adjusted prize value. Interior profiles use the symmetric contest
    forms evaluated at the profile's efforts. In both cases the severe-race
    probabilities satisfy n p_e_s + m p_b_s = 1 before any clamping.
    """
    _check_market(params)
    n, l, m = params.n, params.l, params.m
    clipped: list[str] = []

    if profile.regime is Regime.CORNER:
        ks = k_severe(curves, decision.t)
        p_e_s, p_b_s = _corner_severe_probs(params, ks, decision.p_s)
        p_ne_ns = k_nonsevere(curves, decision.t) * decision.p_ns / l
        p_e_ns = 0.0
    else:
        big_n = n + m
        kappa = big_n - 1
        pool_ns = n + l
        kappa_ns = pool_ns - 1
        p_e_s = (1.0 + m * (profile.alpha_s - profile.mu_s) / kappa) / big_n
        p_b_s = (1.0 + n * (profile.mu_s - profile.alpha_s) / kappa) / big_n
        p_e_ns = (1.0 + l * (profile.alpha_ns - profile.beta_ns) / kappa_ns) / pool_ns
        p_ne_ns = (1.0 + n * (profile.beta_ns - profile.alpha_ns) / kappa_ns) / pool_ns

    return SuccessProfile(
        p_e_s=_clamp("p_e_s", p_e_s, clipped),
        p_e_ns=_clamp("p_e_ns", p_e_ns, clipped),
        p_ne_ns=_clamp("p_ne_ns", p_ne_ns, clipped),
        p_b_s=_clamp("p_b_s", p_b_s, clipped),
        clipped=tuple(clipped),
    )


def _ewhh_payoff_groups(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    others: EffortProfile,
    e_s: float | np.ndarray,
    e_ns: float | np.ndarray,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(severe, non-severe) groups of an expert's deviation payoff.

    The payoff is severe(e_s) + nonsevere(e_ns) - e_s * e_ns; each group
    depends on one effort only, so on a grid it is one vector per axis.
    """
    n, l, m = params.n, params.l, params.m
    big_n = n + m
    a_s = k_severe(curves, decision.t) * (params.r_s + decision.p_s) / big_n
    a_ns = k_nonsevere(curves, decision.t) * decision.p_ns / (n + l)
    avg_s = ((n - 1) * others.alpha_s + m * others.mu_s) / (big_n - 1)
    avg_ns = ((n - 1) * others.alpha_ns + l * others.beta_ns) / (n + l - 1)
    severe = a_s * (1.0 + e_s - avg_s) - 0.5 * params.c_w * e_s * e_s
    nonsevere = a_ns * (1.0 + e_ns - avg_ns) - 0.5 * e_ns * e_ns
    return severe, nonsevere


def _newhh_contest_terms(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    others: EffortProfile,
) -> tuple[float, float]:
    """(A, avg) for a non-expert's deviation payoff, regime dependent.

    In the corner the non-severe race is a contest among the l non-experts
    alone (experts sit at zero), with baseline win probability 1/l; in the
    interior the race includes the n experts, baseline 1/(n+l).
    """
    n, l = params.n, params.l
    kns_pns = k_nonsevere(curves, decision.t) * decision.p_ns
    if others.regime is Regime.CORNER:
        avg = others.beta_ns if l > 1 else 0.0
        return kns_pns / l, avg
    avg = (n * others.alpha_ns + (l - 1) * others.beta_ns) / (n + l - 1)
    return kns_pns / (n + l), avg


def _bhh_contest_terms(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    others: EffortProfile,
) -> tuple[float, float]:
    """(A, avg) for a black hat's deviation payoff."""
    n, m = params.n, params.m
    big_n = n + m
    a = k_severe(curves, decision.t) * params.W / big_n
    avg = (n * others.alpha_s + (m - 1) * others.mu_s) / (big_n - 1)
    return a, avg


def focal_payoff(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    others: EffortProfile,
    focal_type: HackerType,
    focal_efforts: float | tuple[float, float],
) -> float:
    """Expected payoff of one hacker deviating while everyone else plays ``others``.

    For an expert, ``focal_efforts`` is the pair (severe, non-severe); for
    the other two types it is a single effort. Efforts may be numpy arrays
    that broadcast against each other, giving one payoff per grid point.
    The contest form the focal hacker faces follows ``others.regime``.
    Raises ``DomainError`` when ``others`` holds a non-finite effort.
    """
    _check_market(params)
    _check_profile(others)
    if focal_type is HackerType.EWHH:
        if not isinstance(focal_efforts, tuple):
            raise DomainError("expert white hat efforts must be a (severe, non_severe) pair")
        e_s, e_ns = focal_efforts
        severe, nonsevere = _ewhh_payoff_groups(params, decision, curves, others, e_s, e_ns)
        return severe + nonsevere - e_s * e_ns
    if isinstance(focal_efforts, tuple):
        raise DomainError("non-expert and black hat efforts are a single value")
    e = focal_efforts
    if focal_type is HackerType.NEWHH:
        a, avg = _newhh_contest_terms(params, decision, curves, others)
        return a * (1.0 + e - avg) - 0.5 * e * e
    a, avg = _bhh_contest_terms(params, decision, curves, others)
    return a * (1.0 + e - avg) - 0.5 * params.c_b * e * e


def best_response_oracle(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    others: EffortProfile,
    focal_type: HackerType,
) -> float | tuple[float, float]:
    """Brute-force best response of one hacker against a fixed profile.

    Evaluates the deviation payoff on a uniform grid over [0, 1] with step
    0.001 (a 2-D grid for experts) and returns the payoff-maximizing
    effort, first grid point in row-major order winning ties. This is
    deliberately independent of the closed forms: it evaluates the
    deviation payoff directly, so agreement with the formulas is evidence
    rather than tautology.

    The expert grid is cut into bands and tiles of ``_ORACLE_BLOCK_ROWS``
    rows and columns. The grid values are >= 0 and rounding is monotone, so
    no payoff in the block of band B and tile T exceeds fl(fl(max severe[B]
    + max nonsevere[T]) - fl(g_B g_T)), with g_B and g_T the efforts of the
    block's first row and column. The block with the largest bound is
    evaluated first, and its maximum, a payoff the grid attains, is the
    floor: a block whose bound falls below it cannot hold the maximum. Each
    band with a block that reaches the floor is then evaluated, in row
    order and with the arithmetic of ``focal_payoff``, over the columns from
    its first to its last such tile; a later band replaces the best payoff
    only when it beats it strictly, so the winner is that of the whole
    grid. Raises ``DomainError`` when ``others`` holds a non-finite effort
    or the expert payoff overflows.
    """
    _check_market(params)
    import numpy as np

    grid = np.arange(int(round(1.0 / _ORACLE_STEP)) + 1, dtype=np.float64) * _ORACLE_STEP
    if focal_type is not HackerType.EWHH:
        payoff = focal_payoff(params, decision, curves, others, focal_type, grid)
        return float(grid[np.argmax(payoff)])

    _check_profile(others)
    severe, nonsevere = _ewhh_payoff_groups(params, decision, curves, others, grid, grid)
    size = _ORACLE_BLOCK_ROWS
    starts = np.arange(0, grid.size, size)

    def payoffs(r0: int, c0: int, c1: int) -> np.ndarray:
        rows = slice(r0, r0 + size)
        block = severe[rows, None] + nonsevere[c0:c1]
        block -= grid[rows, None] * grid[c0:c1]
        return block

    bound = np.add.outer(
        np.maximum.reduceat(severe, starts), np.maximum.reduceat(nonsevere, starts)
    ) - np.multiply.outer(grid[starts], grid[starts])
    band, tile = divmod(int(np.argmax(bound)), starts.size)
    floor = np.max(payoffs(starts[band], starts[tile], starts[tile] + size))
    if not math.isfinite(floor):
        raise DomainError("expert payoff is not finite on the effort grid")
    kept = bound >= floor
    first = kept.argmax(axis=1)
    last = starts.size - kept[:, ::-1].argmax(axis=1)
    best, best_at = -np.inf, (0, 0)
    for band in np.flatnonzero(kept.any(axis=1)).tolist():
        r0, c0, c1 = starts[band], starts[first[band]], starts[last[band] - 1] + size
        block = payoffs(r0, c0, c1)
        at = int(np.argmax(block))
        if block.flat[at] > best:
            i, j = divmod(at, block.shape[1])
            best, best_at = block.flat[at], (r0 + i, c0 + j)
    return float(grid[best_at[0]]), float(grid[best_at[1]])
