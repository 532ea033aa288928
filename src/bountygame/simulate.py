"""Event-level Monte Carlo of one release under the equilibrium race.

Each trial realizes one release: the severe bug exists with probability
K_s(t) and, if it does, somebody finds it first (the severe race always
has a winner); the non-severe bug exists with probability K_ns(t) and is
found by a non-expert white hat or by a user. Costs accrue per the
program mode and the empirical mean profit converges to the analytic
expected profit, which is what the verification suite checks.

Each race is a three-way categorical decided by one uniform, so a trial
draws two, by inverse CDF: u0 below K_s * q_e is an expert find, u0 in
[K_s * q_e, K_s) a black hat find and u0 >= K_s no severe bug; u1 splits
the non-severe race the same way at K_ns * q_ne and K_ns. The races stay
independent because they read separate uniforms.

Determinism contract: trials are processed in fixed-size chunks and chunk
i draws its uniforms from an SFC64 generator seeded with the
``SeedSequence`` entropy (seed, i). Each trial is classified into one of
nine (severe, non-severe) outcomes and only the outcome counts are
accumulated. Counts are exact integers, so results are bit-identical for a
given (seed, trials) however the chunks are scheduled; the mean cost and
its variance are then taken from the nine cells of the outcome cost table.

A chunk draws its uniforms in cache-sized sub-blocks into one reused
buffer, which continues the chunk's one SFC64 stream. When a run has more
than one chunk and the process may use more than one CPU, the chunks run
on a thread pool of that many workers (numpy releases the interpreter lock
while it draws and compares); they are consumed in chunk order, at most
one per worker in flight.
"""

from __future__ import annotations

import json
import math
import operator
import os
from collections import deque
from dataclasses import asdict, dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError, InfeasibleScenarioError
from .hackers import Regime, equilibrium, success_probabilities
from .scenario import (
    CurveSet,
    MarketParams,
    VendorDecision,
    k_nonsevere,
    k_severe,
    revenue,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimMode", "SimOutcome", "simulate", "CHUNK_TRIALS"]

CHUNK_TRIALS = 1 << 18
# Trials per draw inside a chunk: 2^14 x 2 doubles (256 KB) stay in cache.
_BLOCK_TRIALS = 1 << 14

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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _require_int(name: str, value) -> int:
    """``value`` as an int; bools and non-integral types are refused."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _chunk_codes(
    seed: int, index: int, count: int, thresholds: tuple[float, float, float, float]
) -> np.ndarray:
    """Outcome codes 3 * severe + non_severe of chunk ``index``, as uint8.

    ``thresholds`` is (K_s, K_s * q_e, K_ns, K_ns * q_ne). Trial k uses the
    two uniforms (u0, u1) at row k of the chunk's SFC64 stream, seeded with
    the ``SeedSequence`` entropy (seed, index): the severe bug exists when
    u0 < K_s and an expert finds it first when also u0 < K_s * q_e;
    likewise u1 against K_ns and K_ns * q_ne for the non-severe bug and the
    non-expert.
    """
    import numpy as np

    rng = np.random.Generator(np.random.SFC64([seed, index]))
    codes = np.empty(count, dtype=np.uint8)
    block = min(_BLOCK_TRIALS, count)
    uniforms = np.empty((block, 2))
    hits = np.empty((4, block), dtype=bool)
    for start in range(0, count, block):
        rows = min(block, count - start)
        u, h = uniforms[:rows], hits[:, :rows]
        rng.random(out=u)
        for row, threshold in enumerate(thresholds):
            np.less(u[:, row // 2], threshold, out=h[row])
        exists_s, expert_first, exists_ns, non_expert_first = h.view(np.uint8)
        # severe = exists * (2 - found first), non_severe likewise; the
        # product keeps u >= K at "none" when K * q rounds above K.
        np.add(
            3 * (exists_s * (2 - expert_first)),
            exists_ns * (2 - non_expert_first),
            out=codes[start : start + rows],
        )
    return codes


def _run_chunks(seed: int, trials: int, thresholds, consume) -> None:
    """Call ``consume(first_trial, codes)`` for every chunk, in chunk order."""
    sizes = [min(CHUNK_TRIALS, trials - done) for done in range(0, trials, CHUNK_TRIALS)]
    workers = min(len(sizes), _usable_cpus())
    if workers <= 1:
        for index, count in enumerate(sizes):
            consume(index * CHUNK_TRIALS, _chunk_codes(seed, index, count, thresholds))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = deque()
        for index, count in enumerate(sizes):
            future = pool.submit(_chunk_codes, seed, index, count, thresholds)
            in_flight.append((index * CHUNK_TRIALS, future))
            if len(in_flight) == workers:
                first, future = in_flight.popleft()
                consume(first, future.result())
        for first, future in in_flight:
            consume(first, future.result())


def simulate(
    params: MarketParams,
    decision: VendorDecision,
    curves: CurveSet,
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
    not bools, and ``seed`` must fit in 64 bits. ``trace_path`` optionally
    streams one CSV row per trial (large files; off by default).
    """
    import numpy as np

    trials = _require_int("trials", trials)
    seed = _require_int("seed", seed)
    if trials < 1:
        raise DomainError("trials must be at least 1")
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
    if mode is SimMode.WITH_BBP:
        cost_e = effective.p_s
        cost_ne = effective.p_ns
    else:
        cost_e = params.x * params.TC_s
        cost_ne = 0.0
    cost_b = params.TC_s
    cost_user = params.TC_ns

    cost_table = np.add.outer([0.0, cost_e, cost_b], [0.0, cost_ne, cost_user]).ravel()
    counts = np.zeros(9, dtype=np.int64)

    thresholds = (ks, ks * q_e, kns, kns * q_ne)
    trace_file = None
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="")
        trace_file.write("trial,severe_event,nonsevere_event,cost\n")
        line_tails = [
            f",{_SEVERE_LABELS[code // 3]},{_NONSEVERE_LABELS[code % 3]},{float(cost)!r}\n"
            for code, cost in enumerate(cost_table)
        ]

    def consume(first: int, codes: np.ndarray) -> None:
        np.add(counts, np.bincount(codes, minlength=9), out=counts)
        if trace_file is not None:
            trace_file.write(
                "".join(
                    f"{i}{line_tails[code]}" for i, code in enumerate(codes.tolist(), start=first)
                )
            )

    try:
        _run_chunks(seed, trials, thresholds, consume)
    finally:
        if trace_file is not None:
            trace_file.close()

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
