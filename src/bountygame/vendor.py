"""Vendor stage: bounty setting, release timing, and program viability.

The vendor moves first. It picks a release time t and a bounty pair
(p_s, p_ns), anticipating the specialized-regime hacker equilibrium, and
weighs bounty payouts against the costs of exploited or user-discovered
bugs. Everything here is built on the specialized (corner) closed forms:
that is the regime the bounty program is designed to induce, and the
optimal-bounty and release-time formulas are derived inside it. The
release optimizers read the parameters of ``ReleaseCurves``, not only its
curves: a time where 1/K_s reaches a level u, such as an edge of the
feasible interval or of a no-program clamp, is ln(u K_s0)/lambda_s. Each
release slope is written once, as the coefficients of one form in K_s and
K_ns (``_slope``). Its t-derivative is a short sum of exponentials in the
same coefficients: the root search finds that sum's sign changes exactly,
and Newton steps with its value.

``profit_with_bbp`` computes its total once, as revenue minus the cost
terms it reports, built from the success probabilities. The release
optimizer climbs an expanded polynomial form of the same profit
(``_profit_polynomial``), which ``profit_decomposition_check`` checks; the
tests hold the two forms together to rounding on the scale of the terms
that cancel. A with-program profit whose evaluation overflows binary64 is
a ``DomainError`` naming the decision, never a clamped or infinite value.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from functools import partial

from ._rootfind import newton_bisect
from .errors import (
    DomainError,
    FeasibilityWarning,
    InfeasibleScenarioError,
)
from .hackers import (
    Regime,
    _check_market,
    _corner_severe_probs,
    _corner_slope_factors,
    select_regime,
)
from .scenario import (
    MarketParams,
    ReleaseCurves,
    VendorDecision,
    k_nonsevere,
    k_severe,
    revenue,
)

__all__ = [
    "ProfitBreakdown",
    "Condition1Bounds",
    "OptimalBounties",
    "ReleaseOptimum",
    "BbpRelease",
    "WhhCountReport",
    "optimal_bounties",
    "condition1",
    "profit_with_bbp",
    "profit_without_bbp",
    "concentrated_bbp_profit",
    "optimal_release_no_bbp",
    "optimal_release_with_bbp",
    "release_gap_term",
    "profit_decomposition_check",
    "optimal_whh_count",
]

_FOC_TOL = 1e-9


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfitBreakdown:
    """Vendor profit split into revenue and expected cost components.

    ``total`` is revenue minus the sum of the five cost fields. The
    uncoordinated-disclosure cost only arises without a bounty program
    (a white hat finds the severe bug and discloses it in the open);
    the two bounty costs only arise with one.
    """

    revenue: float
    bhh_exploit_cost: float
    severe_bounty_cost: float
    nonsevere_bounty_cost: float
    user_discovery_cost: float
    uncoordinated_disclosure_cost: float
    total: float


@dataclass(frozen=True)
class Condition1Bounds:
    """Feasibility band for a viable bounty program at a given release time.

    The program is viable when the cost-adjusted prize gap
    gap_value = W/c_b - r_s/c_w sits strictly between ``lb`` and ``ub``;
    that is equivalent to a positive optimal severe bounty together with
    both severe-race probabilities staying off their clamps.
    """

    lb: float
    ub: float
    gap_value: float
    feasible: bool


@dataclass(frozen=True)
class OptimalBounties:
    """Profit-maximizing bounty pair at a fixed release time.

    A non-positive p_s is reported as computed, with ``bbp_viable`` False:
    it means no bounty program is worth running at this release time, and
    the vendor comparison should fall back to the no-program profit.
    """

    p_s: float
    p_ns: float
    bbp_viable: bool


@dataclass(frozen=True)
class ReleaseOptimum:
    """Optimal release time without a bounty program.

    ``boundary`` is True when ``t`` is the endpoint 0 or t_max, chosen
    because its profit beats every falling root of the slope found, and
    False when ``t`` is such a root. ``foc_value`` is the profit slope at
    ``t``; it is a one-sided slope, not 0, where ``t`` is a clamp edge of a
    zero-bounty race probability.
    """

    t: float
    boundary: bool
    foc_value: float
    profit: float


@dataclass(frozen=True)
class BbpRelease:
    """Optimal release time and bounties with a bounty program.

    ``boundary`` is True when ``t`` is an end of the feasible interval,
    chosen because its profit beats every falling root of the slope found,
    and False when ``t`` is such a root. Where that end is the viability
    edge (p_s* falls to 0 there), condition 1 is strict, so the supremum
    is a limit that is never attained: ``t`` is the last float at which
    condition 1 still holds.
    """

    t: float
    p_s: float
    p_ns: float
    profit: float
    boundary: bool


@dataclass(frozen=True)
class WhhCountReport:
    """Three competing answers for the profit-maximizing expert head count.

    The published closed form and the positive root of the published
    first-order quadratic do not agree with each other; both are reported
    verbatim, together with an integer brute-force maximizer, and the
    ``note`` field states the discrepancy. No adjudication is hard-coded.
    """

    n_closed_form: float
    n_quadratic: float
    n_brute_force: int
    note: str


# ---------------------------------------------------------------------------
# Bounties and feasibility
# ---------------------------------------------------------------------------


def _positive_ks(ks: float, t: float) -> float:
    """K_s(t) as given, or ``DomainError`` where it is not positive."""
    if ks <= 0.0:
        raise DomainError(f"K_s(t) must be positive, got {ks!r} at t={t!r}")
    return ks


def _bounty_pair(params: MarketParams, ks: float) -> tuple[float, float]:
    """The closed-form optimal bounties (p_s*, p_ns*) where K_s(t) = ks."""
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    p_s = 0.5 * (params.TC_s + (params.c_w / params.c_b) * params.W - params.r_s) - 0.5 * (
        big_n * kappa * params.c_w
    ) / (m * ks)
    return p_s, 0.5 * params.TC_ns


def optimal_bounties(params: MarketParams, curves: ReleaseCurves, t: float) -> OptimalBounties:
    """Closed-form profit-maximizing bounties at release time t.

    The severe bounty is half the exploit cost the vendor avoids plus the
    cost-ratio-adjusted black hat prize net of the experts' free reward,
    minus a competition correction that grows as the severe bug gets less
    likely. The non-severe bounty is half the user-discovery cost.
    """
    _check_market(params)
    p_s, p_ns = _bounty_pair(params, _positive_ks(k_severe(curves, t), t))
    return OptimalBounties(p_s=p_s, p_ns=p_ns, bbp_viable=p_s > 0.0)


def _feasibility_band(
    n: int, m: int, c_w: float, c_b: float, r_s: float, W: float, TC_s: float, ks: float
) -> tuple[float, float, float]:
    """Condition 1's (lb, ub, gap) where K_s(t) = ks; it holds when lb < gap < ub.

    Takes plain numbers so that the sampler can screen a proposal before
    building its market.
    """
    big_n = n + m
    kappa = big_n - 1
    base = big_n * kappa / (m * ks)
    tc_ratio = TC_s / c_w
    lb = max(base - tc_ratio, tc_ratio - (2 * m + n) * big_n * kappa / (m * n * ks))
    ub = base + tc_ratio
    return lb, ub, W / c_b - r_s / c_w


def _band_market(params: MarketParams) -> tuple[int, int, float, float, float, float, float]:
    """The market fields ``_feasibility_band`` reads, in its argument order."""
    return params.n, params.m, params.c_w, params.c_b, params.r_s, params.W, params.TC_s


def condition1(params: MarketParams, curves: ReleaseCurves, t: float) -> Condition1Bounds:
    """Feasibility band for running a bounty program at release time t."""
    _check_market(params)
    ks = _positive_ks(k_severe(curves, t), t)
    lb, ub, gap = _feasibility_band(*_band_market(params), ks)
    return Condition1Bounds(lb=lb, ub=ub, gap_value=gap, feasible=lb < gap < ub)


# ---------------------------------------------------------------------------
# Profit evaluation
# ---------------------------------------------------------------------------


def _profit_polynomial(
    params: MarketParams, curves: ReleaseCurves, t: float, p_s: float, p_ns: float
) -> float:
    """Expanded polynomial form of the with-program profit.

    Same quantity as ``profit_with_bbp``'s term-by-term expected-cost form,
    distributed out: the concentrated objective and the left side of the
    decomposition identity. An overflow is a ``DomainError``.
    """
    ks = k_severe(curves, t)
    kns = k_nonsevere(curves, t)
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    g = (params.r_s + p_s) / params.c_w - params.W / params.c_b
    shared = m * n * ks * ks * g / (kappa * big_n * big_n)
    try:
        profit = (
            revenue(curves, t)
            - m * ks * params.TC_s / big_n
            + shared * params.TC_s
            - n * ks * p_s / big_n
            - shared * p_s
            - (kns * p_ns) ** 2
            - kns * params.TC_ns
            + kns * kns * params.TC_ns * p_ns
        )
    except OverflowError:  # float ** raises where * gives inf
        profit = -math.inf
    if not math.isfinite(profit):
        raise _profit_overflow(t, p_s, p_ns)
    return profit


def _profit_overflow(t: float, p_s: float, p_ns: float) -> DomainError:
    return DomainError(
        f"with-program profit at t={t!r}, p_s={p_s!r}, p_ns={p_ns!r} overflows binary64"
    )


def profit_with_bbp(
    params: MarketParams, decision: VendorDecision, curves: ReleaseCurves
) -> ProfitBreakdown:
    """Expected vendor profit running a bounty program at this decision.

    Built from the specialized-regime probability formulas. If the
    decision actually induces the split-effort regime, or a probability
    runs off its clamp, the formulas are evaluated anyway and a
    ``FeasibilityWarning`` is emitted: the breakdown then describes the
    program the vendor planned for, not the equilibrium it would get.
    """
    _check_market(params)
    t, p_s, p_ns = decision.t, decision.p_s, decision.p_ns
    ks = _positive_ks(k_severe(curves, t), t)
    kns = k_nonsevere(curves, t)
    if select_regime(params, decision, curves) is not Regime.CORNER:
        warnings.warn(
            "decision induces the split-effort regime; specialized-regime "
            "profit formulas evaluated anyway",
            FeasibilityWarning,
            stacklevel=2,
        )
    p_e, p_b = _corner_severe_probs(params, ks, p_s)
    if not (0.0 <= p_e <= 1.0 and 0.0 <= p_b <= 1.0 and 0.0 <= kns * p_ns <= 1.0):
        warnings.warn(
            "success probabilities leave [0, 1] at this decision; profit "
            "formulas evaluated without clamping",
            FeasibilityWarning,
            stacklevel=2,
        )
    rev = revenue(curves, t)
    bhh_cost = ks * params.m * p_b * params.TC_s
    bounty_s = ks * params.n * p_e * p_s
    try:
        bounty_ns = (kns * p_ns) ** 2
    except OverflowError:  # float ** raises where * gives inf
        bounty_ns = math.inf
    user_cost = kns * params.TC_ns * (1.0 - kns * p_ns)
    total = rev - bhh_cost - bounty_s - bounty_ns - user_cost
    if not math.isfinite(total):
        raise _profit_overflow(t, p_s, p_ns)
    return ProfitBreakdown(
        revenue=rev,
        bhh_exploit_cost=bhh_cost,
        severe_bounty_cost=bounty_s,
        nonsevere_bounty_cost=bounty_ns,
        user_discovery_cost=user_cost,
        uncoordinated_disclosure_cost=0.0,
        total=total,
    )


def _no_bbp_breakdown(
    params: MarketParams, curves: ReleaseCurves, t: float, ks: float, p_e0: float, p_b0: float
) -> ProfitBreakdown:
    """No-program profit at t from the zero-bounty race probabilities given."""
    kns = k_nonsevere(curves, t)
    rev = revenue(curves, t)
    bhh_cost = ks * params.m * p_b0 * params.TC_s
    disclosure = ks * params.n * p_e0 * params.x * params.TC_s
    user_cost = kns * params.TC_ns
    return ProfitBreakdown(
        revenue=rev,
        bhh_exploit_cost=bhh_cost,
        severe_bounty_cost=0.0,
        nonsevere_bounty_cost=0.0,
        user_discovery_cost=user_cost,
        uncoordinated_disclosure_cost=disclosure,
        total=rev - bhh_cost - disclosure - user_cost,
    )


def profit_without_bbp(
    params: MarketParams, t: float, curves: ReleaseCurves
) -> ProfitBreakdown:
    """Expected vendor profit with no bounty program at release time t.

    Severe-race probabilities are the zero-bounty specializations, clamped
    into [0, 1]. A white hat who wins the severe race discloses in the
    open, costing the vendor a fraction x of the exploit cost; every
    existing non-severe bug costs the full user-discovery amount.
    """
    _check_market(params)
    ks = _positive_ks(k_severe(curves, t), t)
    p_e0, p_b0 = (min(1.0, max(0.0, p)) for p in _corner_severe_probs(params, ks, 0.0))
    return _no_bbp_breakdown(params, curves, t, ks, p_e0, p_b0)


def concentrated_bbp_profit(params: MarketParams, curves: ReleaseCurves, t: float) -> float:
    """With-program profit at release time t with bounties re-optimized.

    This is the one-dimensional objective the release-time search climbs:
    the bounty pair is substituted with its closed forms at each t, so the
    value is meaningful wherever the feasibility band holds.
    """
    bounties = optimal_bounties(params, curves, t)
    return _profit_polynomial(params, curves, t, bounties.p_s, bounties.p_ns)


# ---------------------------------------------------------------------------
# Release timing
# ---------------------------------------------------------------------------


def _slope_overflow(program: str, params: MarketParams) -> DomainError:
    return DomainError(
        f"the {program}-program release slope overflows binary64 for the market {params}"
    )


def _bbp_coefficients(params: MarketParams):
    """The with-program slope's ``coefficients(K_s)`` (see ``_slope``), constant in K_s.

    By the envelope theorem the bounty re-optimization adds nothing to the
    slope. With p_s* = A - B/K_s, A = (TC_s + (c_w/c_b) W - r_s)/2, the
    severe bracket is s1 + s2 K_s with s1 = (m TC_s + n A)/N and
    s2 = -2 m n (A - TC_s)^2/(c_w kappa N^2); p_ns* = TC_ns/2 gives
    ns1 = TC_ns and ns2 = -TC_ns^2/2. A coefficient that overflows is a
    ``DomainError`` naming the market.
    """
    n, m = params.n, params.m
    big_n = n + m
    a = 0.5 * (params.TC_s + (params.c_w / params.c_b) * params.W - params.r_s)
    s1 = (m * params.TC_s + n * a) / big_n
    try:
        s2 = -2.0 * m * n * (a - params.TC_s) ** 2 / (params.c_w * (big_n - 1) * big_n * big_n)
    except OverflowError:  # float ** raises where * gives inf
        s2 = -math.inf
    fixed = (s1, s2, params.TC_ns, -0.5 * params.TC_ns * params.TC_ns)
    if not all(map(math.isfinite, fixed)):
        raise _slope_overflow("with", params)
    return lambda ks: fixed


def _no_bbp_coefficients(params: MarketParams):
    """The no-program slope's ``coefficients(K_s)`` (see ``_slope``), and the K_s where they jump.

    The severe bracket is (m/N) TC_s f_b + (n/N) x TC_s f_e, with the slope
    factor f = N d(K_s p)/dK_s of each zero-bounty race probability p as
    ``profit_without_bbp`` clamps it: 1 + beta K_s (``_corner_slope_factors``)
    while that is in [-1, 2N - 1], else 0 below it (p = 0) and N above (p = 1).
    So a clamp starts or ends at K_s = (level - 1)/beta. A market whose
    coefficients can overflow is a ``DomainError`` naming it.
    """
    big_n = params.n + params.m
    g0 = params.r_s / params.c_w - params.W / params.c_b
    betas = [f - 1.0 for f in _corner_slope_factors(params, 1.0, g0)]
    weights = (params.m * params.TC_s / big_n, params.n * params.x * params.TC_s / big_n)
    (beta_b, beta_e), (weight_b, weight_e) = betas, weights
    # Bounds |s1| + |s2| over every combination of clamps.
    reach = big_n * (weight_b + weight_e) + abs(beta_b * weight_b) + abs(beta_e * weight_e)
    if not math.isfinite(reach):
        raise _slope_overflow("no", params)

    def coefficients(ks: float) -> tuple[float, float, float, float]:
        s1 = s2 = 0.0
        for weight, beta in zip(weights, betas):
            factor = 1.0 + beta * ks
            if factor > 2 * big_n - 1:
                s1 += big_n * weight
            elif factor >= -1.0:
                s1 += weight
                s2 += beta * weight
        return s1, s2, params.TC_ns, 0.0

    return coefficients, [d / beta for beta in betas if beta for d in (-2.0, 2.0 * big_n - 2.0)]


def _slope(curves: ReleaseCurves, coefficients, t: float) -> float:
    """The release slope -a - b t + lambda_s K_s (s1 + s2 K_s) + lambda_ns K_ns (ns1 + ns2 K_ns).

    (s1, s2, ns1, ns2) = ``coefficients(K_s(t))``; the caller keeps t in [0, t_max].
    """
    ks, kns = curves.k_severe(t), curves.k_nonsevere(t)
    s1, s2, ns1, ns2 = coefficients(ks)
    return (
        -curves.a
        - curves.b * t
        + curves.lambda_s * ks * (s1 + s2 * ks)
        + curves.lambda_ns * kns * (ns1 + ns2 * kns)
    )


def _slope_terms(curves: ReleaseCurves, coefficients, t: float) -> list[tuple[float, float]]:
    """d/dt of ``_slope`` with the coefficients held at K_s(t), as terms (mu, c) of c e^(-mu t)."""
    s1, s2, ns1, ns2 = coefficients(curves.k_severe(t))
    ls, lns, ks0, kns0 = curves.lambda_s, curves.lambda_ns, curves.K_s0, curves.K_ns0
    return [
        (0.0, -curves.b),
        (ls, -ls * ls * s1 * ks0),
        (2.0 * ls, -2.0 * ls * ls * s2 * ks0 * ks0),
        (lns, -lns * lns * ns1 * kns0),
        (2.0 * lns, -2.0 * lns * lns * ns2 * kns0 * kns0),
    ]


def _exp_sum(terms, t: float) -> float:
    return sum(c * math.exp(-mu * t) for mu, c in terms)


def _exp_sum_sign_changes(terms, lo: float, hi: float) -> list[float]:
    """The times in (lo, hi), in order, where the sum of c e^(-mu t) over ``terms`` changes sign.

    With equal exponents merged and zero coefficients dropped, the sum f has
    at most as many real zeros as its coefficients, ordered by mu, have sign
    changes (Laguerre's rule of signs): with none, f has no zero; with one,
    it has one, inside (lo, hi) where f(lo) and f(hi) differ in sign. Else
    the sign changes of (f e^(mu0 t))', mu0 the least exponent, a sum of one
    term fewer, split (lo, hi) into pieces on which f e^(mu0 t) is monotone,
    so f has at most one zero on each, refined by ``newton_bisect`` with the
    analytic slope until a Newton step no longer moves it.
    """
    merged: dict[float, float] = {}
    for mu, c in terms:
        merged[mu] = merged.get(mu, 0.0) + c
    terms = sorted((mu, c) for mu, c in merged.items() if c != 0.0)
    changes = sum((c0 > 0.0) != (c1 > 0.0) for (_, c0), (_, c1) in zip(terms, terms[1:]))
    if changes == 0:
        return []
    ends = [lo, hi]
    if changes > 1:
        mu0 = terms[0][0]
        ends[1:1] = _exp_sum_sign_changes([(mu, (mu0 - mu) * c) for mu, c in terms[1:]], lo, hi)

    f = partial(_exp_sum, terms)
    f_prime = partial(_exp_sum, [(mu, -mu * c) for mu, c in terms])
    values = [f(t) for t in ends]
    return [
        newton_bisect(f, a, b, fa, fb, ftol=0.0, fprime=f_prime)
        for a, b, fa, fb in zip(ends, ends[1:], values, values[1:])
        if fa < 0.0 < fb or fb < 0.0 < fa
    ]


def _severe_decay_time(curves: ReleaseCurves, ratio: float) -> float:
    """The t where K_s(t) = K_s0 / ratio, ln(ratio) / lambda_s, clamped to [0, t_max].

    So 1/K_s reaches u where ratio = u K_s0, and a ratio of at most 1 gives
    0. Curves whose K_s does not fall, which ``validate`` refuses, raise
    ``DomainError``.
    """
    if not curves.lambda_s > 0.0:
        raise DomainError(f"K_s must fall over time, got lambda_s = {curves.lambda_s!r}")
    if not ratio > 1.0:
        return 0.0
    return min(math.log(ratio) / curves.lambda_s, curves.t_max)


def _release_cuts(curves: ReleaseCurves, lo: float, hi: float, k_edges, coefficients) -> list:
    """Times from lo to hi with at most one falling root of a release slope between neighbours.

    The slope is ``_slope`` with these ``coefficients``, which jump where
    K_s(t) reaches one of ``k_edges``; such a time gets a cut just below and
    just above it. Between those times the coefficients are fixed, so the
    slope's t-derivative is the sum ``_slope_terms``, whose sign changes are
    cuts too.
    """
    ks0 = curves.K_s0
    edges = sorted(t for t in (_severe_decay_time(curves, ks0 / k) for k in k_edges) if lo < t < hi)
    step = 1e-9 * (hi - lo)
    cuts = [lo, hi, *(max(t - step, lo) for t in edges), *(min(t + step, hi) for t in edges)]
    bounds = [lo, *edges, hi]
    for a, b in zip(bounds, bounds[1:]):
        cuts += _exp_sum_sign_changes(_slope_terms(curves, coefficients, 0.5 * (a + b)), a, b)
    return sorted(set(cuts))


def _best_release(curves: ReleaseCurves, coefficients, profit, cuts: list[float]):
    """The time in [lo, hi] that a release optimizer answers, as (t, boundary, profit).

    ``cuts`` run from lo to hi, with at most one falling root of the slope
    (``_slope`` with ``coefficients``) between neighbours. Neighbours are a
    bracket where the slope is 0 at the first, or positive there and
    negative at the second; 0 at hi adds (hi, hi). Each bracket is refined
    to its root by ``newton_bisect`` with the slope's exact derivative
    (``_slope_terms``), or to the edge where the slope jumps across zero.
    The candidates are those roots, then lo, then hi, and the first with
    the largest ``profit`` wins: a root thus keeps a tie with an end, and lo
    one with hi. ``boundary`` is True when an end wins.
    """
    slope = partial(_slope, curves, coefficients)

    def slope_prime(t: float) -> float:
        return _exp_sum(_slope_terms(curves, coefficients, t), t)

    values = [slope(t) for t in cuts]
    pairs = zip(cuts, cuts[1:], values, values[1:])
    brackets = [(a, b, fa, fb) for a, b, fa, fb in pairs if fa == 0.0 or fa > 0.0 > fb]
    if values[-1] == 0.0:
        brackets.append((cuts[-1], cuts[-1], 0.0, 0.0))
    candidates = [
        (newton_bisect(slope, *bracket, ftol=_FOC_TOL, fprime=slope_prime), False)
        for bracket in brackets
    ]
    candidates += [(cuts[0], True), (cuts[-1], True)]
    profits = [profit(t) for t, _ in candidates]
    best = max(range(len(candidates)), key=profits.__getitem__)
    t_star, boundary = candidates[best]
    return t_star, boundary, profits[best]


def optimal_release_no_bbp(params: MarketParams, curves: ReleaseCurves) -> ReleaseOptimum:
    """Profit-maximizing release time with no bounty program.

    Compares the falling roots of the analytic first-order condition on
    [0, t_max] with both ends (``_best_release``). The condition is the
    slope of the clamped profit that ``profit_without_bbp`` reports, so it
    jumps where a zero-bounty race probability reaches a clamp
    (``_no_bbp_coefficients``), and a root may be that clamp edge. Every
    root is found (``_release_cuts``).
    """
    _check_market(params)
    coefficients, k_edges = _no_bbp_coefficients(params)
    t_star, boundary, profit = _best_release(
        curves,
        coefficients,
        lambda t: profit_without_bbp(params, t, curves).total,
        _release_cuts(curves, 0.0, curves.t_max, k_edges, coefficients),
    )
    foc = _slope(curves, coefficients, t_star)
    return ReleaseOptimum(t=t_star, boundary=boundary, foc_value=foc, profit=profit)


def _condition1_in_u(params: MarketParams) -> tuple[float, float, float]:
    """Condition 1 as three edges on u = 1/K_s(t), where its bounds are linear.

    With A = N kappa / m, B = (2m + n) N kappa / (m n) and r = TC_s / c_w,
    ``condition1`` has ub = A u + r and lb = max(A u - r, r - B u). So
    gap < ub iff u > (gap - r) / A, gap > r - B u iff u > (r - gap) / B,
    and gap > A u - r iff u < (gap + r) / A. Returns those three edges in
    that order; the band holds on the u-interval between the larger of the
    first two and the third.
    """
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    slope_ub = big_n * kappa / m
    slope_lb = (2 * m + n) * big_n * kappa / (m * n)
    tc_ratio = params.TC_s / params.c_w
    gap = params.W / params.c_b - params.r_s / params.c_w
    return (
        (gap - tc_ratio) / slope_ub,
        (tc_ratio - gap) / slope_lb,
        (gap + tc_ratio) / slope_ub,
    )


def _float_order(t: float) -> int:
    """The position of a non-negative float among the floats: its bits as an integer."""
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _float_at(order: int) -> float:
    """The non-negative float at position ``order`` (see ``_float_order``)."""
    return struct.unpack("<d", struct.pack("<q", order))[0]


def _feasible_edge(ok, inside: float, estimate: float, end: float) -> float:
    """The feasible float nearest ``end`` on the side of ``inside``.

    ``ok(inside)`` holds and ``estimate`` is the closed-form edge between
    ``inside`` and ``end``; all three are non-negative times. From the
    estimate, clamped between the two, the search gallops in float order
    with steps of 1, 2, 4, ... floats: toward ``end`` while ``ok`` holds,
    else toward ``inside`` until it holds. It then bisects the floats
    between the last feasible and the first infeasible float it met, so an
    estimate k floats off the edge costs about 2 log2(k) + 2 calls of ``ok``.
    """
    toward = 1 if end > inside else -1
    base = _float_order(inside)
    span = toward * (_float_order(end) - base)

    def at(distance: int) -> float:
        return _float_at(base + toward * distance)

    start = min(max(toward * (_float_order(estimate) - base), 0), span)
    step = 1
    if ok(at(start)):
        good = start
        while True:
            if good == span:
                return end
            bad = min(good + step, span)
            if not ok(at(bad)):
                break
            good, step = bad, 2 * step
    else:
        bad = start
        while True:
            good = max(bad - step, 0)
            if good == 0 or ok(at(good)):
                break
            bad, step = good, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if ok(at(mid)):
            good = mid
        else:
            bad = mid
    return at(good)


def _feasible_interval(
    params: MarketParams, curves: ReleaseCurves
) -> tuple[float, float] | None:
    """The sub-interval of [0, t_max] where the feasibility band holds.

    Condition 1 holds on an open interval of u = 1/K_s(t) (see
    ``_condition1_in_u``), and u rises with t because ``validate``
    requires K_s to fall, so the feasible times form one interval. Its
    edges are estimated in closed form (``_severe_decay_time``); then a
    search of the band itself in float order from each estimate
    (``_feasible_edge``) returns the last float at which the band holds, so
    the ends always pass ``condition1``. An estimate a few floats off costs
    a few evaluations of the band. Returns None when no time in [0, t_max]
    is feasible.
    """
    above_ub, above_lb, below_cap = _condition1_in_u(params)
    u_lo = max(above_ub, above_lb)
    if not u_lo < below_cap:
        return None
    t_lo = _severe_decay_time(curves, u_lo * curves.K_s0)
    t_hi = _severe_decay_time(curves, below_cap * curves.K_s0)
    if not t_lo < t_hi:
        return None

    market = _band_market(params)

    def ok(t: float) -> bool:
        lb, ub, gap = _feasibility_band(*market, _positive_ks(curves.k_severe(t), t))
        return lb < gap < ub

    inside = 0.5 * (t_lo + t_hi)
    if not ok(inside):
        return None
    return (
        _feasible_edge(ok, inside, t_lo, 0.0),
        _feasible_edge(ok, inside, t_hi, curves.t_max),
    )


def _describe_infeasibility(params: MarketParams, curves: ReleaseCurves) -> str:
    above_ub, above_lb, below_cap = _condition1_in_u(params)
    u_first = 1.0 / _positive_ks(curves.k_severe(0.0), 0.0)
    u_last = 1.0 / _positive_ks(curves.k_severe(curves.t_max), curves.t_max)
    t_mid = 0.5 * curves.t_max
    sample = condition1(params, curves, t_mid)
    detail = (
        f"at t={t_mid:g}: lb={sample.lb:.6g}, gap={sample.gap_value:.6g}, "
        f"ub={sample.ub:.6g}"
    )
    # gap > lb exactly on the u-interval (above_lb, below_cap), and gap < ub
    # exactly above above_ub; u runs from u_first to u_last over [0, t_max].
    if u_last <= above_lb or u_first >= below_cap or above_lb >= below_cap:
        return f"prize gap never exceeds the lower feasibility bound ({detail})"
    if u_last <= above_ub:
        return f"prize gap never falls below the upper feasibility bound ({detail})"
    return f"prize gap leaves the feasibility band everywhere on [0, t_max] ({detail})"


def optimal_release_with_bbp(params: MarketParams, curves: ReleaseCurves) -> BbpRelease:
    """Jointly optimal release time and bounties with a bounty program.

    Maximizes the concentrated objective over the feasible sub-interval
    [lo, hi] by the rule ``optimal_release_no_bbp`` uses: the falling roots
    of the analytic first-order condition (``_bbp_coefficients``) are
    compared with both ends (``_best_release``), so no unimodality is
    assumed and a second stationary time is seen. Every root is found
    (``_release_cuts``). Raises ``InfeasibleScenarioError`` naming the
    violated feasibility bound when no release time supports a program.
    """
    _check_market(params)
    interval = _feasible_interval(params, curves)
    if interval is None:
        raise InfeasibleScenarioError(_describe_infeasibility(params, curves))
    lo, hi = interval
    coefficients = _bbp_coefficients(params)
    t_star, boundary, profit = _best_release(
        curves,
        coefficients,
        lambda t: concentrated_bbp_profit(params, curves, t),
        _release_cuts(curves, lo, hi, [], coefficients),
    )
    p_s, p_ns = _bounty_pair(params, curves.k_severe(t_star))
    return BbpRelease(t=t_star, p_s=p_s, p_ns=p_ns, profit=profit, boundary=boundary)


def release_gap_term(params: MarketParams, curves: ReleaseCurves, t: float) -> float:
    """Derivative gap D(t) between the two concentrated profit slopes.

    D(t) is the time derivative of the with-program profit (bounties
    re-optimized at each t) minus that of the clamped no-program profit:
    the two release slopes the optimizers root. Both program-specific
    pieces scale with the severity decay, so D carries the sign of how much
    earlier a program-running vendor wants to release. It is meaningful
    wherever condition 1 holds.
    """
    _check_market(params)
    _positive_ks(k_severe(curves, t), t)
    return _slope(curves, _bbp_coefficients(params), t) - _slope(
        curves, _no_bbp_coefficients(params)[0], t
    )


def profit_decomposition_check(params: MarketParams, curves: ReleaseCurves, t: float) -> float:
    """Residual of the with-program profit decomposition at optimal bounties.

    At the optimal bounty pair the with-program profit equals the
    no-program profit plus three non-negative increments: the severe
    bounty's competitive gain, the non-severe bounty's gain, and the
    avoided uncoordinated-disclosure cost. Probabilities are treated as
    formulas (no clamping), since the identity is algebraic. Returns
    left side minus right side; anything beyond rounding noise means the
    algebra has been broken.
    """
    _check_market(params)
    ks = _positive_ks(k_severe(curves, t), t)
    kns = k_nonsevere(curves, t)
    n, m = params.n, params.m
    big_n = n + m
    kappa = big_n - 1
    p_s, p_ns = _bounty_pair(params, ks)
    lhs = _profit_polynomial(params, curves, t, p_s, p_ns)
    p_e0, p_b0 = _corner_severe_probs(params, ks, 0.0)
    rhs = (
        _no_bbp_breakdown(params, curves, t, ks, p_e0, p_b0).total
        + m * n * ks * ks * p_s * p_s / (kappa * big_n * big_n * params.c_w)
        + (kns * p_ns) ** 2
        + n * ks * params.x * params.TC_s * p_e0
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# Expert head count
# ---------------------------------------------------------------------------

_WHH_NOTE = (
    "the published closed form for the optimal expert count is not a root of "
    "the published first-order quadratic (whose positive root is (m+1)/2); "
    "both are reported verbatim and the brute-force integer maximizer is the "
    "adjudicating evidence"
)


def optimal_whh_count(params: MarketParams, curves: ReleaseCurves, t: float) -> WhhCountReport:
    """Three answers for how many experts maximize with-program profit.

    ``n_closed_form`` and ``n_quadratic`` are the two published continuous
    candidates, which disagree; ``n_brute_force`` maximizes actual profit
    over integer head counts from 1 to 4m at the given release time, with
    bounties re-optimized per head count and the no-program profit used
    where the feasibility band fails. Ties go to the smallest count.
    """
    _check_market(params)
    m = params.m
    disc = 9 * m * m - 10 * m + 1
    if disc < 0:
        raise DomainError("head-count discriminant is negative, no real closed form")
    n_closed = math.sqrt(float(disc)) / 4.0 - (m - 1) / 4.0
    quad_disc = (m - 1) * (m - 1) + 8.0 * m * (m + 1)
    n_quad = (-(m - 1) + math.sqrt(quad_disc)) / 4.0

    best_n = 1
    best_value = -math.inf
    for candidate in range(1, 4 * m + 1):
        trial = replace(params, n=candidate)
        if condition1(trial, curves, t).feasible:
            value = concentrated_bbp_profit(trial, curves, t)
        else:
            value = profit_without_bbp(trial, t, curves).total
        if value > best_value:
            best_value = value
            best_n = candidate
    return WhhCountReport(
        n_closed_form=n_closed,
        n_quadratic=n_quad,
        n_brute_force=best_n,
        note=_WHH_NOTE,
    )
