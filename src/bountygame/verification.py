"""Randomized verification of the model's claims over feasible populations.

Everything here treats the closed forms in the other modules as claims to
be checked, not as ground truth. A seeded rejection sampler produces
populations of feasible scenarios, and each verifier evaluates one claim
draw by draw: the severe-bounty monotonicity of the race probabilities,
the profit ranking of running a program versus not, the earlier optimal
release with a program, and the batch of algebraic identities the closed
forms must satisfy. Reports carry every offending parameter set so a
failure is reproducible from the report alone.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields

from .errors import ConvergenceError, DomainError, InfeasibleScenarioError
from .hackers import (
    Regime,
    _check_market,
    _clamp,
    _corner_alpha_s,
    _corner_severe_probs,
    _corner_slope_factors,
    _regime_boundary_p_ns,
    corner_equilibrium,
    equilibrium,
    interior_equilibrium,
    select_regime,
    success_probabilities,
)
from .scenario import (
    MarketParams,
    ReleaseCurves,
    VendorDecision,
    _likelihood,
    _require_count,
    _require_finite,
    _require_int,
    k_nonsevere,
    k_severe,
    validate,
)
from .vendor import (
    BbpRelease,
    ReleaseOptimum,
    _feasibility_band,
    _no_bbp_coefficients,
    _slope,
    concentrated_bbp_profit,
    condition1,
    optimal_bounties,
    optimal_release_no_bbp,
    optimal_release_with_bbp,
    profit_decomposition_check,
    profit_with_bbp,
    profit_without_bbp,
    release_gap_term,
)

__all__ = [
    "SampledScenario",
    "FeasibleSampler",
    "PropositionReport",
    "DEFAULT_RANGES",
    "verify_proposition_1",
    "verify_proposition_2",
    "verify_proposition_3",
    "identity_suite",
    "run_full_suite",
]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "n": (1, 10),
    "l": (1, 20),
    "m": (1, 10),
    "c_w": (1.1, 5.0),
    "c_b": (1.1, 5.0),
    "r_s": (0.0, 5.0),
    "W": (0.0, 20.0),
    "TC_s": (10.0, 200.0),
    "TC_ns": (0.1, 5.0),
    "x": (0.05, 0.95),
    "K_s0": (0.2, 1.0),
    "K_ns0": (0.2, 1.0),
    "lambda_s": (0.05, 0.4),
    "lambda_ns": (0.05, 0.4),
    "R0": (50.0, 500.0),
    "a": (0.5, 5.0),
    "b": (0.0, 2.0),
    "t_max": (10.0, 10.0),
}

_MAX_PROPOSALS = 200_000
# Proposals drawn per refill of the sampler's block.
_BATCH = 64
# The head counts lead the market's fields. The ranged doubles of a proposal
# follow in draw order: the market's other fields (the first _MARKET_END),
# then the curve fields, each in its value type's field order. Each row also
# holds t, p_s, the branch coin and the p_ns factor.
_COUNTS = tuple(f.name for f in fields(MarketParams) if f.type == "int")
_RANGED_FIELDS = tuple(f.name for f in fields(MarketParams) + fields(ReleaseCurves))[len(_COUNTS):]
_MARKET_END = len(fields(MarketParams)) - len(_COUNTS)
_PROPOSAL_DOUBLES = len(_RANGED_FIELDS) + 4
# The ranged doubles the condition-1 screen reads: the band's market fields
# in ``_feasibility_band``'s order, then K_s0, lambda_s and t_max.
_SCREEN_FIELDS = operator.itemgetter(
    *map(_RANGED_FIELDS.index, ("c_w", "c_b", "r_s", "W", "TC_s", "K_s0", "lambda_s", "t_max"))
)
_EFFORT_CAP = 0.99
_PROB_MARGIN = 1e-6
# Tolerance of the identity suite's severe-race normalization check.
_NORMALIZATION_TOL = 1e-12


def _check_range(name: str, bounds) -> None:
    """Refuses a sampler range other than (low, high) finite numbers with low <= high.

    Bools and strings are not numbers here, and a head count's bounds must
    be integral, with a high of at least 1 so that some count is valid.
    """
    if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2):
        raise DomainError(f"sampler range {name} must be a (low, high) pair, got {bounds!r}")
    require = _require_count if name in _COUNTS else _require_finite
    for value in bounds:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"sampler range {name} needs numeric bounds, got {value!r}")
        require(f"sampler range {name} bound", value)
    if bounds[0] > bounds[1]:
        raise DomainError(f"sampler range {name} is inverted: {bounds!r}")
    if require is _require_count and bounds[1] < 1:
        raise DomainError(f"sampler range {name} holds no count of at least 1: {bounds!r}")


def _condition1_screen(row) -> bool:
    """Whether condition 1 holds at a proposal's t, read from its raw row.

    The same K_s(t) and band arithmetic as ``condition1``, on the same
    numbers, so on a valid market the two always agree. A row on which it
    would divide by zero or overflow (m = 0, or K_s(t) = 0 or beyond
    binary64) fails ``validate``; it counts as rejected.
    """
    n, _, m, ranged, rest = row
    c_w, c_b, r_s, W, TC_s, k_s0, lambda_s, t_max = _SCREEN_FIELDS(ranged)
    try:
        ks = _likelihood(k_s0, lambda_s, t_max * rest[0])
        lb, ub, gap = _feasibility_band(n, m, c_w, c_b, r_s, W, TC_s, ks)
    except (ZeroDivisionError, OverflowError):
        return False
    return lb < gap < ub


@dataclass(frozen=True)
class SampledScenario:
    """One draw: market, curves, and a vendor decision to evaluate at."""

    params: MarketParams
    curves: ReleaseCurves
    decision: VendorDecision


class FeasibleSampler:
    """Seeded rejection sampler over the documented parameter ranges.

    Proposals are uniform over ``ranges`` (integer-valued for the head
    counts). The feasible tiers reject until a draw passes validation,
    the bounty-viability band at its release time, and effort/probability
    feasibility with working margins; ``draw_raw`` skips everything except
    validation and exists for claims that must hold on arbitrary inputs.
    Identical seeds give identical draw sequences.

    Each proposal meets three gates in turn. Every tier but ``raw`` first
    screens the raw row on condition 1 at its t (``_condition1_screen``),
    before any value object is built; then the market and curves are built
    and must pass ``validate``; then the decision is built and the tier's
    predicate decides. The screen is the tiers' only check of condition 1
    at the proposal's t; on a valid market it answers as ``condition1``.

    Proposals come in blocks of 64 from a Philox generator seeded with
    ``seed``. Each block takes three ``integers(lo, hi + 1, size=64)`` calls,
    for n, l and m in that order, and then one ``random((64, 19))`` call.
    Proposal k of a block takes element k of each count array and row k of
    the doubles u, in this order: the market fields c_w, c_b, r_s, W, TC_s,
    TC_ns, x and the curve fields K_s0, lambda_s, K_ns0, lambda_ns, R0, a,
    b, t_max, each lo + (hi - lo) u over its range (one array expression
    for the whole block); t = t_max u; p_s = 10 u; a coin; and a factor u,
    with p_ns = boundary u below a coin of 0.5 and boundary (1 + u)
    otherwise, where boundary is the non-severe bounty at the regime
    boundary. ``proposals`` counts the proposals used, screened out ones
    included, not those drawn ahead in the current block. A seed that is
    not a non-negative integer, or a range that is not a (low, high) pair
    of finite numbers with low <= high (integral for n, l and m, with
    high >= 1), raises ``DomainError``.
    """

    def __init__(self, seed: int, ranges: dict[str, tuple[float, float]] | None = None):
        seed = _require_int("seed", seed)
        if seed < 0:
            raise DomainError(f"seed must be non-negative, got {seed!r}")
        self.seed = seed
        self.ranges = dict(DEFAULT_RANGES)
        if ranges:
            unknown = set(ranges) - set(DEFAULT_RANGES)
            if unknown:
                raise DomainError(f"unknown sampler range keys: {sorted(unknown)}")
            for name, bounds in ranges.items():
                _check_range(name, bounds)
            self.ranges.update(ranges)
        import numpy as np

        self._rng = np.random.Generator(np.random.Philox(seed))
        counts = [self.ranges[name] for name in _COUNTS]
        self._counts = [(int(lo), int(hi) + 1) for lo, hi in counts]
        ranged = [self.ranges[name] for name in _RANGED_FIELDS]
        self._lo = np.array([lo for lo, _ in ranged], dtype=np.float64)
        self._span = np.array([hi - lo for lo, hi in ranged], dtype=np.float64)
        self._block = iter(())
        self.proposals = 0

    # -- proposal pieces ---------------------------------------------------

    def _refill(self) -> None:
        rng = self._rng
        n, l, m = (rng.integers(lo, stop, size=_BATCH).tolist() for lo, stop in self._counts)
        u = rng.random((_BATCH, _PROPOSAL_DOUBLES))
        ranged = self._lo + self._span * u[:, : len(_RANGED_FIELDS)]
        self._block = zip(n, l, m, ranged.tolist(), u[:, len(_RANGED_FIELDS) :].tolist())

    def _next_row(self):
        row = next(self._block, None)
        if row is None:
            self._refill()
            row = next(self._block)
        self.proposals += 1
        return row

    @staticmethod
    def _market(row) -> tuple[MarketParams, ReleaseCurves]:
        n, l, m, ranged, _ = row
        return MarketParams(n, l, m, *ranged[:_MARKET_END]), ReleaseCurves(*ranged[_MARKET_END:])

    @staticmethod
    def _scenario(row, params: MarketParams, curves: ReleaseCurves) -> SampledScenario:
        u_t, u_p_s, coin, factor = row[4]
        t = curves.t_max * u_t
        p_s = 10.0 * u_p_s
        # Bias the non-severe bounty around the regime boundary so both
        # equilibrium families are represented in the population.
        boundary = _regime_boundary_p_ns(
            params, curves.k_severe(t), curves.k_nonsevere(t), p_s
        )
        if coin < 0.5:
            p_ns = boundary * factor
        else:
            p_ns = boundary * (1.0 + factor)
        return SampledScenario(params, curves, VendorDecision(t=t, p_s=p_s, p_ns=p_ns))

    def _propose(self) -> SampledScenario:
        """The next proposal built whole, whether its market is valid or not."""
        row = self._next_row()
        return self._scenario(row, *self._market(row))

    def _accept_loop(self, predicate, screened: bool = True) -> SampledScenario:
        # The decision is built only for a valid market: its regime boundary
        # divides by K_ns(t), which an invalid market may have at 0.
        for _ in range(_MAX_PROPOSALS):
            row = self._next_row()
            if screened and not _condition1_screen(row):
                continue
            params, curves = self._market(row)
            if not validate(params, curves).passed:
                continue
            result = predicate(self._scenario(row, params, curves))
            if result is not None:
                return result
        raise RuntimeError(
            f"no feasible draw found in {_MAX_PROPOSALS} proposals; ranges too tight"
        )

    # -- tiers ---------------------------------------------------------------

    def draw_raw(self) -> SampledScenario:
        """A validated draw with no feasibility filtering at all."""
        return self._accept_loop(lambda scen: scen, screened=False)

    def _margins_ok(self, scen: SampledScenario) -> bool:
        profile = equilibrium(scen.params, scen.decision, scen.curves)
        if not profile.feasible:
            return False
        if max(profile.alpha_s, profile.alpha_ns, profile.beta_ns, profile.mu_s) > _EFFORT_CAP:
            return False
        if profile.regime is Regime.INTERIOR and profile.alpha_s < _PROB_MARGIN:
            return False
        probs = success_probabilities(scen.params, scen.decision, scen.curves, profile)
        if probs.any_clipped:
            return False
        checked = [probs.p_e_s, probs.p_b_s, probs.p_ne_ns]
        if profile.regime is Regime.INTERIOR:
            checked.append(probs.p_e_ns)
        if not all(_PROB_MARGIN <= p <= 1.0 - _PROB_MARGIN for p in checked):
            return False
        # The chance that any white hat finds the non-severe bug is itself a
        # probability. In the split-effort regime the race normalizes over
        # both white hat groups, so the mass is 1 by construction; in the
        # concentrated regime it is K_ns p_ns and must leave the vendor's
        # no-finder share positive (the simulator refuses it otherwise).
        mass_ne = scen.params.n * probs.p_e_ns + scen.params.l * probs.p_ne_ns
        if profile.regime is Regime.CORNER:
            return mass_ne <= 1.0 - _PROB_MARGIN
        return mass_ne <= 1.0 + 1e-12

    def draw_basic(self) -> SampledScenario:
        """Feasible draw with random bounties; both regimes occur."""

        return self._accept_loop(lambda scen: scen if self._margins_ok(scen) else None)

    def draw_bbp(self) -> SampledScenario:
        """Feasible draw evaluated at its own optimal bounty pair."""

        def accept(scen: SampledScenario):
            t = scen.decision.t
            bounties = optimal_bounties(scen.params, scen.curves, t)
            tuned = SampledScenario(
                scen.params,
                scen.curves,
                VendorDecision(t=t, p_s=bounties.p_s, p_ns=bounties.p_ns),
            )
            if select_regime(tuned.params, tuned.decision, tuned.curves) is not Regime.CORNER:
                return None
            if not self._margins_ok(tuned):
                return None
            return tuned

        return self._accept_loop(accept)

    def _no_bbp_margins_ok(self, params: MarketParams, curves: ReleaseCurves) -> bool:
        # The zero-bounty race probabilities and the slope brackets of the
        # no-program profit must stay sign-definite for every t; both are
        # extremal at t = 0 where K_s peaks.
        g0 = params.r_s / params.c_w - params.W / params.c_b
        lower, upper = _corner_slope_factors(params, curves.k_severe(0.0), g0)
        return lower > _PROB_MARGIN and upper > _PROB_MARGIN

    def _release_draw(self) -> tuple[SampledScenario, ReleaseOptimum, BbpRelease]:
        """A ``draw_release`` scenario with the two interior optima it passed."""

        def accept(scen: SampledScenario):
            params, curves = scen.params, scen.curves
            if not self._no_bbp_margins_ok(params, curves):
                return None
            # Cheap slope gate: an interior no-program optimum needs the
            # profit rising at t = 0 and falling at t_max.
            coefficients = _no_bbp_coefficients(params)[0]
            if _slope(curves, coefficients, 0.0) <= 0.0:
                return None
            if _slope(curves, coefficients, curves.t_max) >= 0.0:
                return None
            try:
                nb = optimal_release_no_bbp(params, curves)
                if nb.boundary:
                    return None
                span = 1e-3 * curves.t_max
                if not span < nb.t < curves.t_max - span:
                    return None
                if not condition1(params, curves, nb.t).feasible:
                    return None
                bbp = optimal_release_with_bbp(params, curves)
                if bbp.boundary:
                    return None
            except (InfeasibleScenarioError, ConvergenceError):
                return None
            decision = VendorDecision(t=bbp.t, p_s=bbp.p_s, p_ns=bbp.p_ns)
            return SampledScenario(params, curves, decision), nb, bbp

        return self._accept_loop(accept)

    def draw_release(self) -> SampledScenario:
        """Feasible draw whose release optimizers both have interior optima."""
        return self._release_draw()[0]

    def draw_ratio(self) -> SampledScenario:
        """Feasible draw satisfying the ratio-contest existence conditions."""

        def accept(scen: SampledScenario):
            params = scen.params
            dec = scen.decision
            if params.n == 1 and params.m == 1:
                return None
            prize_w = params.r_s + dec.p_s
            if prize_w < 0.1 or params.W < 0.1:
                return None
            if params.n == 1 and not (
                params.m * params.c_w * params.W > 1.01 * params.c_b * prize_w
            ):
                return None
            if params.m == 1 and not (
                params.n * params.c_b * prize_w > 1.01 * params.c_w * params.W
            ):
                return None
            return scen

        return self._accept_loop(accept)

    def draws(self, tier: str, count: int):
        """An iterator over ``count`` draws from ``tier``; both are checked at the call."""
        method = {
            "raw": self.draw_raw,
            "basic": self.draw_basic,
            "bbp": self.draw_bbp,
            "release": self.draw_release,
            "ratio": self.draw_ratio,
        }.get(tier)
        if method is None:
            raise DomainError(f"unknown sampler tier {tier!r}")
        count = _require_int("count", count)
        if count < 0:
            raise DomainError(f"count must be non-negative, got {count}")
        return (method() for _ in range(count))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropositionReport:
    """Outcome of one verifier over a population of draws."""

    id: str
    draws_tested: int
    excluded: int
    failures: tuple[dict, ...]
    passed: bool
    min_margin: float
    median_margin: float


def _require_draws(draws: int) -> int:
    draws = _require_int("draws", draws)
    if draws < 1:
        raise DomainError("draws must be at least 1")
    return draws


def _check_draws(report_id: str, draw, check, draws: int) -> PropositionReport:
    """Test ``draws`` draws of ``draw()`` with ``check`` and report on them.

    ``check`` returns None to exclude a draw, which is counted and replaced,
    or else (scenario, margin, problem), problem None on a pass. Every
    tested draw gives one margin, a failing one at most 0, and every
    failure records its problem and the scenario it came from.
    """
    import statistics

    draws = _require_draws(draws)
    margins: list[float] = []
    failures: list[dict] = []
    excluded = 0
    while len(margins) < draws:
        outcome = check(draw())
        if outcome is None:
            excluded += 1
            continue
        scen, margin, problem = outcome
        if problem is None:
            margins.append(margin)
        else:
            margins.append(min(0.0, margin))
            failures.append({"detail": problem, "scenario": asdict(scen)})
    return PropositionReport(
        id=report_id,
        draws_tested=draws,
        excluded=excluded,
        failures=tuple(failures),
        passed=not failures,
        min_margin=min(margins),
        median_margin=statistics.median(margins),
    )


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _proposition_1_sweep(
    params: MarketParams, curves: ReleaseCurves, t: float, grid: list[float]
) -> tuple[list[float], list[float], list[float], list[bool], list[bool]]:
    """Corner alpha_s, clamped p_e_s and p_b_s, and their clip flags along ``grid``.

    Only p_s moves along the sweep, so the market is checked and K_s(t) is
    taken once. Each point comes from the helpers ``corner_equilibrium`` and
    ``success_probabilities`` use, so it equals what they give at (t, p_s).
    """
    _check_market(params)
    ks = k_severe(curves, t)
    alphas: list[float] = []
    p_es: list[float] = []
    p_bs: list[float] = []
    clip_e: list[bool] = []
    clip_b: list[bool] = []
    for p_s in grid:
        p_e, p_b = _corner_severe_probs(params, ks, p_s)
        clipped: list[str] = []
        alphas.append(_corner_alpha_s(params, ks, p_s))
        p_es.append(_clamp("p_e_s", p_e, clipped))
        p_bs.append(_clamp("p_b_s", p_b, clipped))
        clip_e.append("p_e_s" in clipped)
        clip_b.append("p_b_s" in clipped)
    return alphas, p_es, p_bs, clip_e, clip_b


def verify_proposition_1(
    sampler: FeasibleSampler, draws: int, bounty_grid
) -> PropositionReport:
    """Severe-bounty monotonicity of the specialized-regime race.

    Along an increasing severe-bounty grid, expert effort and the expert
    win probability must not fall and the black hat win probability must
    not rise, strictly so wherever neither endpoint of a step is clamped
    (a clamped step may move the wrong way by up to 1e-15). Every grid
    entry must be finite.
    """
    grid = [_require_finite("bounty_grid entry", p) for p in bounty_grid]
    if len(grid) < 10:
        raise DomainError("bounty_grid needs at least 10 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("bounty_grid must be strictly increasing")
    never_clipped = [False] * len(grid)

    def check(scen: SampledScenario):
        alphas, p_es, p_bs, clip_e, clip_b = _proposition_1_sweep(
            scen.params, scen.curves, scen.decision.t, grid
        )
        # Each series with whether it rises along the grid.
        series = (
            ("alpha_s", True, alphas, never_clipped),
            ("p_e_s", True, p_es, clip_e),
            ("p_b_s", False, p_bs, clip_b),
        )
        worst = math.inf
        for i in range(len(grid) - 1):
            for name, rising, values, clipped in series:
                step = values[i + 1] - values[i] if rising else values[i] - values[i + 1]
                if not (clipped[i] or clipped[i + 1]):
                    if step <= 0.0:
                        trend = "increasing" if rising else "decreasing"
                        return scen, 0.0, f"{name} not strictly {trend} at step {i}"
                    worst = min(worst, step)
                elif step < -1e-15:
                    move = "decreases" if rising else "increases"
                    return scen, 0.0, f"{name} {move} across a clamped step {i}"
        return scen, worst, None

    return _check_draws("proposition-1", sampler.draw_basic, check, draws)


def verify_proposition_2(sampler: FeasibleSampler, draws: int) -> PropositionReport:
    """Profit ranking: a viable program beats no program at the same time.

    Draws come unfiltered; any draw whose optimal severe bounty is not
    positive, whose feasibility band fails, or whose zero-bounty
    probabilities clamp is excluded (and counted) rather than tested,
    since the claim is conditional on a viable program. Each tested draw
    must show a strictly positive profit gap and a decomposition residual
    within rounding.
    """

    def check(scen: SampledScenario):
        params, curves = scen.params, scen.curves
        t = scen.decision.t
        bounties = optimal_bounties(params, curves, t)
        band = condition1(params, curves, t)
        p_e0, p_b0 = _corner_severe_probs(params, k_severe(curves, t), 0.0)
        unclipped = 0.0 <= p_e0 <= 1.0 and 0.0 <= p_b0 <= 1.0
        if not (bounties.bbp_viable and band.feasible and unclipped):
            return None
        gap = (
            concentrated_bbp_profit(params, curves, t)
            - profit_without_bbp(params, t, curves).total
        )
        residual = profit_decomposition_check(params, curves, t)
        if gap <= 0.0 or abs(residual) > 1e-9:
            return scen, gap, f"profit gap {gap!r}, decomposition residual {residual!r}"
        return scen, gap, None

    return _check_draws("proposition-2", sampler.draw_raw, check, draws)


def verify_proposition_3(sampler: FeasibleSampler, draws: int) -> PropositionReport:
    """Release ordering: the program-running vendor releases earlier.

    On draws where both release optimizers find interior optima, the
    with-program time must come strictly before the no-program time and
    the profit-slope gap at the no-program optimum must be strictly
    negative. The release tier only accepts draws whose two optima are
    interior, and hands them over with the draw, so no draw is excluded.
    """

    def check(drawn: tuple[SampledScenario, ReleaseOptimum, BbpRelease]):
        scen, nb, bbp = drawn
        time_gap = nb.t - bbp.t
        slope_gap = release_gap_term(scen.params, scen.curves, nb.t)
        if time_gap <= 0.0 or slope_gap >= 0.0:
            return scen, time_gap, (
                f"t_no_program={nb.t!r}, t_with_program={bbp.t!r}, "
                f"slope gap at t_no_program={slope_gap!r}"
            )
        return scen, time_gap, None

    return _check_draws("proposition-3", sampler._release_draw, check, draws)


def identity_suite(sampler: FeasibleSampler, draws: int) -> PropositionReport:
    """Batch check of the algebraic identities the closed forms satisfy.

    Per draw: the severe race normalizes (n p_e_s + m p_b_s = 1); in the
    specialized regime, the profit summed from the equilibrium's clamped
    probabilities matches ``profit_with_bbp`` to rounding on the scale of
    its terms; the decomposition residual vanishes at optimal bounties; the
    equilibrium families agree at the regime boundary except on the
    non-expert's effort; zero-bounty probabilities specialize the general
    ones at p_s = 0. Margins are normalized slack (1 exact, 0 at tolerance).
    """

    def check(scen: SampledScenario):
        params, curves, dec = scen.params, scen.curves, scen.decision
        n, l, m = params.n, params.l, params.m
        problems: list[str] = []
        slacks: list[float] = []

        def expect(error: float, tolerance: float, detail: str) -> None:
            slacks.append((tolerance - error) / tolerance)
            if error > tolerance:
                problems.append(f"{detail} {error!r}")

        profile = equilibrium(params, dec, curves)
        probs = success_probabilities(params, dec, curves, profile)
        expect(
            abs(n * probs.p_e_s + m * probs.p_b_s - 1.0),
            _NORMALIZATION_TOL,
            "severe race normalization off by",
        )

        ks = k_severe(curves, dec.t)
        kns = k_nonsevere(curves, dec.t)
        if profile.regime is Regime.CORNER:
            mass_ne = l * probs.p_ne_ns
            terms = (
                curves.revenue(dec.t),
                ks * m * probs.p_b_s * params.TC_s,
                ks * n * probs.p_e_s * dec.p_s,
                kns * mass_ne * dec.p_ns,
                kns * params.TC_ns * (1.0 - mass_ne),
            )
            rev, bhh_cost, bounty_s, bounty_ns, user_cost = terms
            pi_terms = rev - bhh_cost - bounty_s - bounty_ns - user_cost
            pi_bbp = profit_with_bbp(params, dec, curves).total
            rel = abs(pi_terms - pi_bbp) / max(1.0, sum(map(abs, terms)))
            expect(rel, 1e-12, "profit forms disagree, relative gap")

        residual = abs(profit_decomposition_check(params, curves, dec.t))
        expect(residual, 1e-9, "decomposition residual")

        dec_b = VendorDecision(
            t=dec.t, p_s=dec.p_s, p_ns=_regime_boundary_p_ns(params, ks, kns, dec.p_s)
        )
        corner_b = corner_equilibrium(params, dec_b, curves)
        interior_b = interior_equilibrium(params, dec_b, curves)
        continuity_err = max(
            abs(corner_b.alpha_s - interior_b.alpha_s),
            abs(corner_b.alpha_ns - interior_b.alpha_ns),
            abs(corner_b.mu_s - interior_b.mu_s),
        )
        expect(continuity_err, 1e-9, "regime-boundary effort gap")

        dec0 = VendorDecision(t=dec.t, p_s=0.0, p_ns=dec.p_ns)
        probs0 = success_probabilities(
            params, dec0, curves, corner_equilibrium(params, dec0, curves)
        )
        big_n = n + m
        kappa = big_n - 1
        g0 = params.r_s / params.c_w - params.W / params.c_b
        p_e0 = min(1.0, max(0.0, (1.0 + m * ks * g0 / (kappa * big_n)) / big_n))
        p_b0 = min(1.0, max(0.0, (1.0 - n * ks * g0 / (kappa * big_n)) / big_n))
        zero_err = max(abs(probs0.p_e_s - p_e0), abs(probs0.p_b_s - p_b0))
        expect(zero_err, 1e-15, "zero-bounty specialization gap")

        return scen, min(slacks), "; ".join(problems) or None

    return _check_draws("identity-suite", sampler.draw_basic, check, draws)


def _condition1_band(sampler: FeasibleSampler, draws: int) -> PropositionReport:
    """The feasibility band is never empty, on arbitrary validated draws."""

    def check(scen: SampledScenario):
        band = condition1(scen.params, scen.curves, scen.decision.t)
        width = band.ub - band.lb
        return scen, width, f"band width {width!r}" if width <= 0.0 else None

    return _check_draws("condition-1-band", sampler.draw_raw, check, draws)


def run_full_suite(seed: int, draws: int = 1000) -> dict:
    """Run every verifier and return a JSON-ready summary.

    Each verifier gets its own sampler derived from ``seed`` so reports
    are independent of each other's rejection behavior. The summary's
    ``passed`` is the conjunction of all report outcomes.
    """
    draws = _require_draws(draws)
    bounty_grid = [20.0 * i / 49 for i in range(50)]
    reports = [
        verify_proposition_1(FeasibleSampler(seed), draws, bounty_grid),
        verify_proposition_2(FeasibleSampler(seed + 1), draws),
        verify_proposition_3(FeasibleSampler(seed + 2), draws),
        identity_suite(FeasibleSampler(seed + 3), draws),
        _condition1_band(FeasibleSampler(seed + 4), draws),
    ]
    return {
        "seed": seed,
        "draws": draws,
        "reports": {report.id: asdict(report) for report in reports},
        "passed": all(report.passed for report in reports),
    }
