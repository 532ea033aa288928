"""The two benchmark workloads, engine and cli, and the parts of engine.

Each workload builds its inputs from the workload seed, yields an endless
deterministic sequence of operations, runs one operation at a time, times
only the program's own calls, and checks every output. ``engine`` runs
one round of the verification suite, the oracle cross-check and the Monte
Carlo simulator per operation, in process; ``cli`` runs the command line
as a child process per call. Only names in
``bountygame.__all__``, ``FeasibleSampler.proposals`` and the command line
``python -m bountygame.cli`` are used, so refactors behind that surface
need no benchmark edit. Why each workload exists is in README.md.
"""

from __future__ import annotations

import collections
import csv
import importlib
import itertools
import json
import math
import os
import resource
import signal
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import bountygame as bg


@dataclass
class OpResult:
    """One operation: program time, units of work, and check outcome.

    ``error`` is set when the program refused or crashed on valid input;
    ``wrong`` when it returned a result that fails a check. Either makes
    the operation count as failed; only ``wrong`` makes the run incorrect.
    ``key`` names the distinct operation, set by the runner.
    """

    seconds: float
    work: int
    error: str | None = None
    wrong: str | None = None
    counts: dict = field(default_factory=dict)
    key: int = 0


def _load_baseline(root: Path):
    with open(root / "scenarios" / "baseline.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    return (
        bg.MarketParams(**doc["market"]),
        bg.ReleaseCurves(**doc["curves"]),
        bg.VendorDecision(**doc["decision"]),
        doc,
    )


# Layer of each public name the traced run wraps, keyed by the name the
# callers look up. Layers are the package modules.
LAYER = {
    "validate": "scenario",
    "equilibrium": "hackers",
    "corner_equilibrium": "hackers",
    "interior_equilibrium": "hackers",
    "select_regime": "hackers",
    "success_probabilities": "hackers",
    "condition1": "vendor",
    "optimal_bounties": "vendor",
    "optimal_release_no_bbp": "vendor",
    "optimal_release_with_bbp": "vendor",
    "optimal_whh_count": "vendor",
    "profit_decomposition_check": "vendor",
    "profit_with_bbp": "vendor",
    "profit_without_bbp": "vendor",
    "concentrated_bbp_profit": "vendor",
    "release_gap_term": "vendor",
    "solve_ratio_equilibrium": "ratio_game",
    "ratio_sensitivities": "ratio_game",
    "run_full_suite": "verification",
    "verify_proposition_1": "verification",
    "verify_proposition_2": "verification",
    "verify_proposition_3": "verification",
    "identity_suite": "verification",
}
SAMPLER_TIERS = ("raw", "basic", "release", "ratio")


def _oracle_span(args, kwargs) -> str:
    focal = kwargs.get("focal_type", args[4] if len(args) > 4 else None)
    kind = "ewhh" if focal is bg.HackerType.EWHH else "scalar"
    return f"hackers.best_response_oracle.{kind}"


def _simulate_span(args, kwargs) -> str:
    traced = kwargs.get("trace_path", args[6] if len(args) > 6 else None)
    return "simulate.simulate.trace" if traced is not None else "simulate.simulate"


def wrap_lookups(tracer, module) -> None:
    """Wrap every public name of ``LAYER`` that ``module`` looks up."""
    for name, layer in LAYER.items():
        tracer.wrap(module, name, f"{layer}.{name}")


def install(tracer) -> None:
    """Wrap the public names the in-process workloads reach.

    The benchmark calls through ``bountygame.<name>``; the verification
    suite and the sampler look names up in ``bountygame.verification``;
    the release optimizers and the head-count search find ``condition1``
    in ``bountygame.vendor``. A module that no longer exists is skipped.
    """
    wrap_lookups(tracer, bg)
    tracer.wrap(bg, "best_response_oracle", _oracle_span)
    tracer.wrap(bg, "simulate", _simulate_span)
    wrap_lookups(tracer, sys.modules.get("bountygame.verification"))
    tracer.wrap(sys.modules.get("bountygame.vendor"), "condition1", "vendor.condition1")
    for tier in SAMPLER_TIERS:
        tracer.count_draws(bg.FeasibleSampler, tier)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify:
    """Engine part: ``run_full_suite`` with a fresh suite seed each time.

    One operation is the whole suite (five reports) at ``DRAWS`` draws per
    report; its work is the number of draws the reports tested.
    """

    name = "verify"
    DRAWS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        # Suite seeds are multiples of 5; this one is outside every run's range.
        bg.run_full_suite(5 * (self.seed * 100_000 + 99_999), 2)

    def ops(self):
        # run_full_suite uses seeds s..s+4, so suite seeds step by 5.
        for i in itertools.count():
            yield 5 * (self.seed * 100_000 + i)

    def run(self, suite_seed: int) -> OpResult:
        start = time.perf_counter()
        try:
            summary = bg.run_full_suite(suite_seed, self.DRAWS)
        except Exception as exc:  # any exception on sampled valid input is a failure
            return OpResult(time.perf_counter() - start, 0, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        label = f"suite seed {suite_seed}"
        try:
            reports = summary["reports"].values()
            tested = sum(report["draws_tested"] for report in reports)
            counts = {f"excluded.{r['id']}": r["excluded"] for r in reports}
            failing = [r["id"] for r in reports if not r["passed"]]
            passed = summary["passed"]
        except (KeyError, TypeError, AttributeError) as exc:
            return OpResult(seconds, 0, wrong=f"{label}: malformed report ({exc!r})")
        wrong = None
        if failing or not passed:
            wrong = f"{label}: summary passed={passed}, failing reports {failing}"
        return OpResult(seconds, tested, wrong=wrong, counts=counts)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Engine part: closed forms against brute-force oracles.

    An operation is one round of the acceptance-style cross-check: four
    ``basic`` draws whose equilibrium efforts are compared with the three
    grid best responses (1001 x 1001 for experts), and one ``ratio`` draw
    whose ratio-contest solution is checked for its residual and for its
    sensitivities against central finite differences. The sampler draws
    are part of the operation, as in the acceptance gate. Work is checks.
    """

    name = "oracle"
    BASIC_PER_ROUND = 4
    GAP_MAX = 1e-3
    RESIDUAL_MAX = 1e-10
    FD_REL_MAX = 1e-3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> None:
        sampler = bg.FeasibleSampler(2 * self.seed + 1_000_001)
        self._basic(sampler.draw_basic())
        self._ratio(sampler.draw_ratio())

    def ops(self):
        basic = bg.FeasibleSampler(2 * self.seed)
        ratio = bg.FeasibleSampler(2 * self.seed + 1)
        round_ = [(basic.draw_basic, self._basic)] * self.BASIC_PER_ROUND
        round_.append((ratio.draw_ratio, self._ratio))
        return itertools.repeat(round_)

    def run(self, checks) -> OpResult:
        problem = {}
        start = time.perf_counter()
        for draw, check in checks:
            try:
                wrong = check(draw())
            except Exception as exc:
                problem.setdefault("error", f"{type(exc).__name__}: {exc}")
                continue
            if wrong is not None:
                problem.setdefault("wrong", wrong)
        return OpResult(time.perf_counter() - start, len(checks), **problem)

    def _basic(self, scen) -> str | None:
        params, dec, curves = scen.params, scen.decision, scen.curves
        profile = bg.equilibrium(params, dec, curves)
        e_s, e_ns = bg.best_response_oracle(params, dec, curves, profile, bg.HackerType.EWHH)
        beta = bg.best_response_oracle(params, dec, curves, profile, bg.HackerType.NEWHH)
        mu = bg.best_response_oracle(params, dec, curves, profile, bg.HackerType.BHH)
        gap = max(
            abs(e_s - profile.alpha_s),
            abs(e_ns - profile.alpha_ns),
            abs(beta - profile.beta_ns),
            abs(mu - profile.mu_s),
        )
        if gap > self.GAP_MAX:
            return f"grid gap {gap!r} > {self.GAP_MAX} at {asdict(scen)}"
        return None

    def _ratio(self, scen) -> str | None:
        params, dec, curves = scen.params, scen.decision, scen.curves
        eq = bg.solve_ratio_equilibrium(params, dec, curves)
        if not eq.max_residual <= self.RESIDUAL_MAX:
            return f"ratio residual {eq.max_residual!r} at {asdict(scen)}"
        sens = bg.ratio_sensitivities(params, dec, curves, eq)
        if not (sens.dalpha_dps > 0.0 and sens.dmu_dps < 0.0):
            return f"sensitivity signs {sens.dalpha_dps!r}, {sens.dmu_dps!r}"
        h = 1e-5 * max(1.0, dec.p_s)
        if dec.p_s - h <= 0.0:
            return None
        guess = (eq.alpha_s, eq.mu_s)
        hi = bg.solve_ratio_equilibrium(params, replace(dec, p_s=dec.p_s + h), curves, guess)
        lo = bg.solve_ratio_equilibrium(params, replace(dec, p_s=dec.p_s - h), curves, guess)
        rel = max(
            abs(sens.dalpha_dps - (hi.alpha_s - lo.alpha_s) / (2 * h))
            / max(abs(sens.dalpha_dps), 1e-8),
            abs(sens.dmu_dps - (hi.mu_s - lo.mu_s) / (2 * h)) / max(abs(sens.dmu_dps), 1e-8),
        )
        if rel > self.FD_REL_MAX:
            return f"finite-difference relative error {rel!r} at {asdict(scen)}"
        return None


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class MonteCarlo:
    """Engine part: ``simulate`` on the baseline, cycling through eight runs.

    Six aggregate runs of 2**19 trials alternate the two ``SimMode``s on
    fresh seeds, one repeats an earlier seed and must give byte-identical
    ``to_json()``, and one writes ``trace_path`` and must agree with its
    own aggregate. Work is simulated trials.
    """

    name = "montecarlo"
    TRIALS = 1 << 19
    TRACE_TRIALS = 1 << 15
    # P(|z| > 6) is 2e-9, so a thousand runs of about 600 frequency
    # checks each raise a false alarm with probability near 1e-3.
    Z_MAX = 6.0

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        self.seed = seed
        self.params, self.curves, self.decision, _ = _load_baseline(root)
        self.trace_path = str(out_dir / "montecarlo-trace.csv")
        self.expected = {mode: self._expected(mode) for mode in bg.SimMode}
        self.first_json: dict[tuple[int, bg.SimMode], str] = {}

    def _expected(self, mode) -> tuple[float, ...]:
        """Event probabilities from the closed forms, in ``SimOutcome`` order."""
        dec = self.decision
        if mode is bg.SimMode.WITHOUT_BBP:
            dec = replace(dec, p_s=0.0, p_ns=0.0)
        params, curves = self.params, self.curves
        probs = bg.success_probabilities(
            params, dec, curves, bg.equilibrium(params, dec, curves)
        )
        ks = bg.k_severe(curves, dec.t)
        kns = bg.k_nonsevere(curves, dec.t)
        q_e = params.n * probs.p_e_s
        q_ne = params.l * probs.p_ne_ns
        return (
            ks * q_e, ks * (1.0 - q_e), 1.0 - ks,
            kns * q_ne, kns * (1.0 - q_ne), 1.0 - kns,
        )

    def warm_up(self) -> None:
        self._simulate(1, bg.SimMode.WITH_BBP, 1 << 10)

    def ops(self):
        base = self.seed * 1_000_000
        for cycle in itertools.count():
            seeds = [base + 6 * cycle + k for k in range(6)]
            modes = [bg.SimMode.WITH_BBP, bg.SimMode.WITHOUT_BBP] * 3
            yield from (("aggregate", s, m) for s, m in zip(seeds, modes))
            yield "repeat", seeds[0], modes[0]
            yield "trace", seeds[1], modes[1]

    def _simulate(self, seed, mode, trials, trace_path=None):
        return bg.simulate(
            self.params, self.decision, self.curves, trials, seed, mode, trace_path=trace_path
        )

    def run(self, op) -> OpResult:
        kind, seed, mode = op
        trials = self.TRACE_TRIALS if kind == "trace" else self.TRIALS
        trace_path = self.trace_path if kind == "trace" else None
        start = time.perf_counter()
        try:
            outcome = self._simulate(seed, mode, trials, trace_path)
        except Exception as exc:
            return OpResult(time.perf_counter() - start, 0, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if kind == "trace":
            wrong = self._check_trace(outcome)
            counts = {"trace_rows": trials}
        else:
            wrong = self._check_frequencies(outcome, mode)
            if wrong is None:
                wrong = self._check_repeat(kind, seed, mode, outcome)
            counts = {"aggregate_trials": trials}
        return OpResult(seconds, trials, wrong=wrong, counts=counts)

    def _check_frequencies(self, outcome, mode) -> str | None:
        observed = (
            outcome.freq_severe_ewhh, outcome.freq_severe_bhh, outcome.freq_severe_none,
            outcome.freq_nonsevere_newhh, outcome.freq_nonsevere_user,
            outcome.freq_nonsevere_none,
        )
        for got, p in zip(observed, self.expected[mode]):
            if p <= 0.0 or p >= 1.0:
                if got != p:
                    return f"{mode.value}: frequency {got!r} for a probability of {p!r}"
                continue
            z = abs(got - p) / math.sqrt(p * (1.0 - p) / outcome.trials)
            if z > self.Z_MAX:
                return f"{mode.value}: frequency {got!r} vs {p!r}, z = {z:.2f}"
        return None

    def _check_repeat(self, kind, seed, mode, outcome) -> str | None:
        text = outcome.to_json()
        first = self.first_json.setdefault((seed, mode), text)
        if kind == "repeat" and first != text:
            return f"seed {seed} {mode.value}: repeated run gave different bytes"
        return None

    def _check_trace(self, outcome) -> str | None:
        with open(self.trace_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != outcome.trials:
            return f"trace has {len(rows)} rows for {outcome.trials} trials"
        cost = math.fsum(float(row[3]) for row in rows)
        mean_profit = bg.revenue(self.curves, self.decision.t) - cost / outcome.trials
        if abs(mean_profit - outcome.mean_profit) > 1e-12 * max(1.0, abs(mean_profit)):
            return f"trace mean profit {mean_profit!r} vs aggregate {outcome.mean_profit!r}"
        return None


class Engine:
    """The in-process engine: ``ROUNDS`` rounds of the costly checks per operation.

    A round runs one verification suite at ``Verify.DRAWS`` draws per
    report, one oracle round of five checks, and one Monte Carlo run, each
    timed on its own; the operation's time is the sum over its rounds.
    Putting the three in one operation keeps operations alike, so medians
    are stable, and lets one long run cover all three on a machine whose
    speed drifts. Work is rounds; the parts' own throughputs are in the
    traced run.
    """

    # A pause of the machine (about 0.1 s) is a smaller share of a 1 s
    # operation than of one round, so the tail reflects the program more.
    ROUNDS = 3
    work_unit = "rounds"
    aliases: dict[str, str] = {}
    # One reference per operation costs about a thirtieth of it.
    ref_every = 1
    reference_work = (
        "a 40000-step scalar Python loop, one 1001 x 1001 numpy expression "
        "and 2^18 x 4 Philox uniforms, in process"
    )

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        self.parts = (Verify(seed), Oracle(seed), MonteCarlo(seed, root, out_dir))

    @staticmethod
    def reference() -> float:
        """Seconds of fixed work like the three parts', using no bountygame code.

        The scalar loop stands for the suite, the grid expression for the
        oracle and the uniforms for the simulator. The work and its key
        never change, so only the machine's speed moves this time.
        """
        start = time.perf_counter()
        total = 0.0
        for i in range(40_000):
            x = i * 1e-4
            total += math.exp(-x) * x / (1.0 + x * x)
        a = np.linspace(0.0, 1.0, 1001)
        g = np.subtract.outer(a, 0.5 * a)
        total += float(np.max(g * (1.0 - g)))
        rng = np.random.Generator(np.random.Philox(key=0))
        total += float(rng.random((1 << 18, 4)).sum())
        return time.perf_counter() - start

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def ops(self):
        rounds = zip(*(part.ops() for part in self.parts))
        return zip(*[rounds] * self.ROUNDS)

    def run(self, op) -> OpResult:
        results = [
            (part, part.run(part_op))
            for round_ in op
            for part, part_op in zip(self.parts, round_)
        ]
        counts = collections.Counter()
        for part, r in results:
            counts.update(r.counts)
            counts[f"{part.name}.seconds"] += r.seconds
            counts[f"{part.name}.work"] += r.work
        return OpResult(
            sum(r.seconds for _, r in results),
            len(op),
            error=next((r.error for _, r in results if r.error), None),
            wrong=next((r.wrong for _, r in results if r.wrong), None),
            counts=dict(counts),
        )

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# Wide valid ranges for generated scenarios. t_max is not pinned, so the
# release optimizers see the whole valid domain, including the t_max
# values whose scan grids overshoot the endpoint.
WIDE_RANGES = {
    "n": (1, 12),
    "l": (1, 24),
    "m": (1, 12),
    "c_w": (1.01, 8.0),
    "c_b": (1.01, 8.0),
    "r_s": (0.0, 10.0),
    "W": (0.0, 40.0),
    "TC_s": (2.0, 400.0),
    "TC_ns": (0.05, 10.0),
    "x": (0.01, 0.99),
    "K_s0": (0.05, 1.0),
    "K_ns0": (0.05, 1.0),
    "lambda_s": (0.01, 1.0),
    "lambda_ns": (0.01, 1.0),
    "R0": (10.0, 1000.0),
    "a": (0.1, 10.0),
    "b": (0.0, 4.0),
    "t_max": (0.5, 25.0),
}
MODEL_ERRORS = {
    "NonConcaveObjectiveError",
    "ConvergenceError",
    "AssumptionViolationError",
    "InfeasibleScenarioError",
}
BASELINE_P_E_S = 0.12755102040816327


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict, out_dir: Path, timeout: int = 60):
    """Run one child to completion.

    Returns the exit code, the wall seconds from spawn to reap, the
    child's peak RSS in kB, and its standard output and error.
    ``os.wait4`` gives the child's own resource usage, so each call's peak
    RSS is known without mixing in other children. Output goes to files
    because a pipe could fill and stall the child.
    """
    stdout, stderr = out_dir / "child-stdout.txt", out_dir / "child-stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise TimeoutError(f"{argv[1:]} ran longer than {timeout} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    return (
        os.waitstatus_to_exitcode(status),
        seconds,
        usage.ru_maxrss,
        stdout.read_text(encoding="utf-8"),
        stderr.read_text(encoding="utf-8"),
    )


class Cli:
    """A closed loop of one client running ``python -m bountygame.cli``.

    One pass is ``evaluate``, ``optimize`` and ``sweep`` on the baseline,
    a ``curves.t_max`` sweep of the baseline that re-validates every
    point, and ``evaluate``, ``optimize`` and ``sweep`` on each of
    ``GENERATED`` seeded scenarios without a ``decision`` block. A run
    makes at least one whole pass, and a call counts as the same operation
    in every pass, so the failure counts are fixed by the seed.
    """

    GENERATED = 8
    SWEEP_STEPS = 41
    CURVES_SWEEP_STEPS = 41
    work_unit = "calls"
    aliases = {
        "work_per_s": "calls_per_s",
        "op_p50_ms": "cli_p50_ms",
        "op_tail_ms": "cli_tail_ms",
    }

    # A reference start costs about two thirds of a call.
    ref_every = 3
    reference_work = "a fresh interpreter that imports numpy, spawned like a call"

    def __init__(self, seed: int, root: Path, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.sweep_out = str(out_dir / "cli-sweep.csv")
        self.spans_out = out_dir / "cli-child-spans.json"
        self.peak_kb = 0
        self.tracer = None
        baseline = root / "scenarios" / "baseline.json"
        _, _, _, doc = _load_baseline(root)
        curves_sweep = dict(doc, sweep={
            "path": "curves.t_max", "from": 4.0, "to": 12.0, "steps": self.CURVES_SWEEP_STEPS,
        })
        self.sweep_steps = {
            "baseline": doc["sweep"]["steps"],
            "curves-sweep": self.CURVES_SWEEP_STEPS,
            "generated": self.SWEEP_STEPS,
        }
        files = [baseline, self._write("cli-curves-sweep.json", curves_sweep)]
        sampler = bg.FeasibleSampler(seed, ranges=WIDE_RANGES)
        generated = []
        for k, scen in enumerate(sampler.draws("raw", self.GENERATED)):
            generated.append(self._write(f"cli-generated-{k}.json", {
                "market": asdict(scen.params),
                "curves": asdict(scen.curves),
                "sweep": {"path": "decision.p_s", "from": 0.0, "to": 20.0,
                          "steps": self.SWEEP_STEPS},
            }))
        files += generated
        self.pass_ops = [
            ("evaluate", "baseline", files[0]),
            ("optimize", "baseline", files[0]),
            ("sweep", "baseline", files[0]),
            ("sweep", "curves-sweep", files[1]),
        ] + [
            (command, "generated", path)
            for path in generated
            for command in ("evaluate", "optimize", "sweep")
        ]
        self.pass_length = len(self.pass_ops)

    def _write(self, name: str, doc: dict) -> Path:
        path = self.out_dir / name
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path

    def warm_up(self) -> None:
        # Each call is a fresh process, so warming up means filling the
        # bytecode cache of the CLI module and the file cache with one call.
        importlib.import_module("bountygame.cli")
        self.run(self.pass_ops[0])

    def ops(self):
        return itertools.cycle(self.pass_ops)

    def reference(self) -> float:
        """Seconds from spawn to reap of an interpreter that imports numpy.

        It starts the way a call does and does the largest part of a
        call's import, with no bountygame code, so only the machine's speed
        moves this time.
        """
        argv = [sys.executable, "-c", "import numpy"]
        code, seconds, _, _, err = spawn(argv, self.env, self.out_dir)
        if code != 0:
            raise RuntimeError(f"reference interpreter exited {code}: {err.strip()[-300:]}")
        return seconds

    def argv(self, command: str, path: Path) -> list[str]:
        args = [command, str(path)]
        if command == "sweep":
            args += ["--out", self.sweep_out]
        if self.tracer is not None:
            child = str(Path(__file__).with_name("cli_child.py"))
            return [sys.executable, child, str(self.spans_out), *args]
        return [sys.executable, "-m", "bountygame.cli", *args]

    def run(self, op) -> OpResult:
        command, kind, path = op
        argv = self.argv(command, path)
        if self.tracer is None:
            code, seconds, rss, out, err = spawn(argv, self.env, self.out_dir)
        else:
            self.spans_out.unlink(missing_ok=True)
            code, seconds, rss, out, err = self.tracer.call(
                f"cli.call.{command}", spawn, argv, self.env, self.out_dir
            )
            if self.spans_out.exists():
                with open(self.spans_out, encoding="utf-8") as handle:
                    self.tracer.merge(json.load(handle), len(self.tracer) - 1)
        self.peak_kb = max(self.peak_kb, rss)
        label = f"{command} {path.name}"
        if code == 0:
            try:
                wrong = self._check_output(command, kind, out, label)
            except (KeyError, TypeError, ValueError) as exc:
                wrong = f"{label}: malformed output ({exc!r})"
            return OpResult(seconds, 1, wrong=wrong)
        if code == 1 and kind == "generated" and self._model_error(err):
            return OpResult(seconds, 1)
        return OpResult(seconds, 1, error=f"{label}: exit {code}: {err.strip()[-300:]}")

    @staticmethod
    def _model_error(stderr: str) -> bool:
        """Exit 1 is correct for a documented model breakdown, as one JSON line."""
        try:
            payload = json.loads(stderr)
        except json.JSONDecodeError:
            return False
        return isinstance(payload, dict) and payload.get("error") in MODEL_ERRORS

    def _check_output(self, command: str, kind: str, out: str, label: str) -> str | None:
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return f"{label}: stdout is not JSON"
        if command == "sweep":
            return self._check_sweep(kind, report, label)
        if kind == "baseline" and command == "evaluate":
            p_e_s = report["probabilities"]["p_e_s"]
            if abs(p_e_s - BASELINE_P_E_S) > 1e-12 or report["efforts"]["regime"] != "corner":
                return f"{label}: p_e_s {p_e_s!r}, expected {BASELINE_P_E_S!r}"
        if kind == "baseline" and command == "optimize":
            if not {"no_bbp", "with_bbp"} <= set(report):
                return f"{label}: missing optimizer sections"
        return None

    def _check_sweep(self, kind: str, report: dict, label: str) -> str | None:
        with open(self.sweep_out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        steps = self.sweep_steps[kind]
        if report.get("rows") != steps or len(rows) != steps:
            return f"{label}: {len(rows)} CSV rows, report says {report.get('rows')}"
        if kind == "baseline":
            # README golden values: p_s* = 2.5 and p_ns* = 0.5 at t = 2.
            for row in rows:
                if abs(float(row["p_s_opt"]) - 2.5) > 1e-12 or abs(
                    float(row["p_ns_opt"]) - 0.5
                ) > 1e-12:
                    return f"{label}: optimal bounties {row['p_s_opt']}, {row['p_ns_opt']}"
        return None

    def peak_rss_kb(self) -> int:
        return self.peak_kb


WORKLOADS = {"engine": Engine, "cli": Cli}

