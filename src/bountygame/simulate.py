"""Event-level Monte Carlo of one release under the equilibrium race.

Each trial realizes one release: the severe bug exists with probability
K_s(t) and, if it does, somebody finds it first (the severe race always
has a winner); the non-severe bug exists with probability K_ns(t) and is
found by a non-expert white hat or by a user. Costs accrue per the
program mode and the empirical mean profit converges to the analytic
expected profit, which is what the verification suite checks.

Each race is a three-way categorical: the severe race has no bug with
probability 1 - K_s, an expert find with min(K_s, K_s * q_e) and a black
hat find with the rest of K_s; the non-severe race splits K_ns at
K_ns * q_ne the same way. The races are independent, so a trial falls into
one of nine (severe, non-severe) outcomes with the outer product of the
two races' masses, and the outcome counts of independent trials are
exactly Multinomial(trials, that product). Only the counts are kept: the
mean cost and its variance are taken from the nine cells of the outcome
cost table.

Determinism contract: a run draws from one SFC64 generator seeded with
``seed`` (through numpy's ``SeedSequence``). It first draws the nine counts
in one multinomial call, so the result is bit-identical for a given
(seed, trials). A trace then continues the same stream: its rows are a
seeded shuffle of the outcome codes repeated by their counts, which given
the counts is the law of independent trials, and the trace's label counts
are the aggregate's counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

from .errors import DomainError, InfeasibleScenarioError
from .hackers import Regime, equilibrium, success_probabilities
from .scenario import (
    MarketParams,
    ReleaseCurves,
    VendorDecision,
    _require_int,
    k_nonsevere,
    k_severe,
    revenue,
)

__all__ = ["SimMode", "SimOutcome", "simulate"]

# Trace rows formatted per write: about 2 MB of CSV text at a time.
_TRACE_ROWS = 1 << 16

# Outcome codes: severe 0 no bug, 1 expert white hat first, 2 black hat
# first; non-severe 0 no bug, 1 non-expert white hat first, 2 user first.
# A trial's joint code is 3 * severe + non_severe.
_SEVERE_LABELS = ("none", "ewhh", "bhh")
_NONSEVERE_LABELS = ("none", "newhh", "user")


class SimMode(Enum):
    WITH_BBP = "with_bbp"
    WITHOUT_BBP = "without_bbp"


@dataclass(frozen=True)
class SimOutcome:
    """Aggregate of one simulation run.

    The two frequency triples each sum to 1 up to rounding. ``std_error``
    is the standard error of the mean profit estimate.
    """

    trials: int
    freq_severe_ewhh: float
    freq_severe_bhh: float
    freq_severe_none: float
    freq_nonsevere_newhh: float
    freq_nonsevere_user: float
    freq_nonsevere_none: float
    mean_profit: float
    std_error: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _race_cells(k: float, q: float) -> tuple[float, float, float]:
    """Masses of (no bug, white hat first, other finder first) in one race.

    ``min`` keeps the other finder's mass at exactly 0, never below it,
    when K * q rounds above K.
    """
    white = min(k, k * q)
    return (1.0 - k, white, k - white)


def simulate(
    params: MarketParams,
    decision: VendorDecision,
    curves: ReleaseCurves,
    trials: int,
    seed: int,
    mode: SimMode,
    trace_path: str | None = None,
) -> SimOutcome:
    """Run the release simulation and return aggregate outcome statistics.

    ``mode`` picks the cost semantics: with a program, an expert severe
    find costs the severe bounty and a non-expert non-severe find the
    non-severe bounty; without one, bounties are forced to zero, an expert
    severe find costs the uncoordinated-disclosure fraction x of the
    exploit cost, and every existing non-severe bug costs the
    user-discovery amount. Refuses scenarios whose equilibrium
    probabilities are clipped or fail to normalize, since the categorical
    draw would be meaningless. ``trials`` and ``seed`` must be integers,
    not bools; ``trials`` must fit in a signed and ``seed`` in an unsigned
    64-bit integer. ``trace_path`` optionally writes one CSV row per trial
    (large files; off by default).
    """
    import numpy as np

    trials = _require_int("trials", trials)
    seed = _require_int("seed", seed)
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if trials > 2**63 - 1:
        raise DomainError("trials must fit in a signed 64-bit integer")
    if seed < 0 or seed > 2**64 - 1:
        raise DomainError("seed must fit in an unsigned 64-bit integer")
    mode = SimMode(mode)

    if mode is SimMode.WITHOUT_BBP:
        effective = VendorDecision(t=decision.t, p_s=0.0, p_ns=0.0)
    else:
        effective = decision

    profile = equilibrium(params, effective, curves)
    probs = success_probabilities(params, effective, curves, profile)
    if not profile.feasible:
        raise InfeasibleScenarioError(
            "equilibrium efforts leave [0, 1]; not simulating an infeasible profile"
        )
    if probs.any_clipped:
        raise InfeasibleScenarioError(
            f"success probabilities clipped ({', '.join(probs.clipped)}); "
            "the categorical masses would not normalize"
        )
    if profile.regime is Regime.INTERIOR and probs.p_e_ns > 0.0:
        raise InfeasibleScenarioError(
            "split-effort regime gives experts non-severe mass, which the "
            "two-way non-severe race cannot represent"
        )

    q_e = params.n * probs.p_e_s
    q_ne = params.l * probs.p_ne_ns
    if abs(q_e + params.m * probs.p_b_s - 1.0) > 1e-9:
        raise InfeasibleScenarioError("severe-race probabilities do not sum to 1")
    if q_ne > 1.0:
        raise InfeasibleScenarioError("non-severe finder mass exceeds 1")

    ks = float(k_severe(curves, decision.t))
    kns = float(k_nonsevere(curves, decision.t))
    if not (0.0 <= ks <= 1.0 and 0.0 <= kns <= 1.0):
        raise InfeasibleScenarioError(
            f"bug likelihoods K_s = {ks!r} and K_ns = {kns!r} must lie in [0, 1]"
        )
    if mode is SimMode.WITH_BBP:
        cost_e = effective.p_s
        cost_ne = effective.p_ns
    else:
        cost_e = params.x * params.TC_s
        cost_ne = 0.0
    cost_b = params.TC_s
    cost_user = params.TC_ns

    cost_table = np.add.outer([0.0, cost_e, cost_b], [0.0, cost_ne, cost_user]).ravel()
    cells = np.outer(_race_cells(ks, q_e), _race_cells(kns, q_ne)).ravel()
    # numpy hands the last cell whatever trials its binomial steps leave, so
    # a zero cell there would catch strays of rounding at large trial counts;
    # drawing only the support keeps every zero cell at exactly 0.
    support = cells > 0.0
    counts = np.zeros(9, dtype=np.int64)
    rng = np.random.Generator(np.random.SFC64(seed))
    counts[support] = rng.multinomial(trials, cells[support])

    if trace_path is not None:
        codes = np.repeat(np.arange(9, dtype=np.uint8), counts)
        rng.shuffle(codes)
        line_tails = [
            f",{_SEVERE_LABELS[code // 3]},{_NONSEVERE_LABELS[code % 3]},{float(cost)!r}\n"
            for code, cost in enumerate(cost_table)
        ]
        with open(trace_path, "w", newline="") as trace_file:
            trace_file.write("trial,severe_event,nonsevere_event,cost\n")
            for first in range(0, trials, _TRACE_ROWS):
                rows = codes[first : first + _TRACE_ROWS].tolist()
                trace_file.write(
                    "".join(f"{i}{line_tails[code]}" for i, code in enumerate(rows, start=first))
                )

    mean_cost = math.fsum(counts * cost_table) / trials
    if trials > 1:
        variance = math.fsum(counts * (cost_table - mean_cost) ** 2) / (trials - 1)
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0

    by_outcome = counts.reshape(3, 3)
    counts_severe = by_outcome.sum(axis=1)
    counts_nonsevere = by_outcome.sum(axis=0)
    return SimOutcome(
        trials=trials,
        freq_severe_ewhh=float(counts_severe[1]) / trials,
        freq_severe_bhh=float(counts_severe[2]) / trials,
        freq_severe_none=float(counts_severe[0]) / trials,
        freq_nonsevere_newhh=float(counts_nonsevere[1]) / trials,
        freq_nonsevere_user=float(counts_nonsevere[2]) / trials,
        freq_nonsevere_none=float(counts_nonsevere[0]) / trials,
        mean_profit=revenue(curves, decision.t) - mean_cost,
        std_error=std_error,
    )
