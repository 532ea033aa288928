"""Benchmark of the bountygame engine: two workloads, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload engine --seed 0 --seconds 60 --trace 0

Workloads are ``engine`` and ``cli`` (see README.md). With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs operations untraced, replays the same operations
traced, and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` of the checkout; without it the run exits with
code 2.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

WORKLOAD_NAMES = ("engine", "cli")
SETUP_REPEATS = 5
# The tail percentile must leave at least ten samples beyond it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# Computed, not measured: one float64 payoff per point of the 1001 x 1001
# expert grid; four float64 uniforms, two int8 event codes and one float64
# cost per simulated trial.
GRID_POINTS = 1001 * 1001
GRID_BYTES = 8 * GRID_POINTS
TRIAL_BYTES = 4 * 8 + 2 * 1 + 8
# The simulator draws its uniforms in chunks of 2**18 trials.
RNG_CHUNK = 1 << 18
LAYERS = ("scenario", "hackers", "vendor", "ratio_game", "simulate", "verification", "cli")
REPORT_SPANS = {
    "proposition-1": "verification.verify_proposition_1",
    "proposition-2": "verification.verify_proposition_2",
    "proposition-3": "verification.verify_proposition_3",
    "identity-suite": "verification.identity_suite",
}


def setup(name: str, seed: int, root: Path, out_dir: Path):
    """Import the package, build the workload's inputs and warm it up."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, root, out_dir)
    workload.warm_up()
    return time.perf_counter() - start, workload


def probe_setup(name: str, seed: int, root: Path) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, seconds: float, limit: int | None = None):
    """Run operations one at a time for ``seconds``, or exactly ``limit`` of them.

    A timed run stops only after ``MIN_OPS`` operations and, for workloads
    that repeat a fixed pass, after at least one whole pass. Each result's
    ``key`` names its distinct operation: its place in the pass, or its
    place in the run when no operation repeats. Before every
    ``workload.ref_every``-th operation the workload's fixed reference work
    is timed too. Returns results, reference times and wall time.
    """
    pass_length = getattr(workload, "pass_length", None)
    results, refs = [], []
    start = time.perf_counter()
    for op in workload.ops():
        n = len(results)
        if n == limit or (
            limit is None
            and time.perf_counter() - start >= seconds
            and n >= max(MIN_OPS, pass_length or 0)
        ):
            break
        if n % workload.ref_every == 0:
            refs.append(workload.reference())
        result = workload.run(op)
        result.key = n % pass_length if pass_length else n
        results.append(result)
    return results, refs, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "numba_importable": util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_before": os.getloadavg(),
    }


def end_to_end(name: str, seed: int, seconds: float, root: Path, out_dir: Path):
    setups = [probe_setup(name, seed, root) for _ in range(SETUP_REPEATS)]
    _, workload = setup(name, seed, root, out_dir)
    results, refs, _ = measure(workload, seconds)
    times = [r.seconds for r in results]
    tail_s, tail_pct = tail(times)
    p50_s = statistics.median(times)
    work_per_s = sum(r.work for r in results) / sum(times)
    # The machine's speed drifts by up to a third for minutes at a time, so
    # operation times are given in multiples of the median reference time
    # of the same run. The reference work never changes; a change to the
    # program moves these ratios as it moves the times.
    ref_s = statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
        "work_per_ref": (work_per_s * ref_s, "1/ref"),
        "op_p50_ref": (p50_s / ref_s, "ref"),
        "op_tail_ref": (tail_s / ref_s, "ref"),
    }
    raw = {"work_per_s": (work_per_s, "1/s"), "op_p50_ms": (1000.0 * p50_s, "ms"),
           "op_tail_ms": (1000.0 * tail_s, "ms")}
    notes = [
        f"work unit: {workload.work_unit}",
        f"op_tail is p{tail_pct:.1f} of {len(times)} operations",
        f"ref = {1000.0 * ref_s:.4f} ms, the median of {len(refs)} timings of "
        f"{workload.reference_work}",
        "in wall time: " + ", ".join(
            f"{workload.aliases.get(key, key)} {value:.6g} {unit}"
            for key, (value, unit) in raw.items()
        ),
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return results, metrics, notes


def per_layer(name: str, seed: int, seconds: float, root: Path, out_dir: Path):
    import workloads
    from tracer import Tracer

    _, workload = setup(name, seed, root, out_dir)
    untraced, refs, wall_untraced = measure(workload, seconds / 2.0)
    tracer = Tracer()
    workloads.install(tracer)
    workload.tracer = tracer
    try:
        results, _, wall_traced = measure(workload, 0.0, limit=len(untraced))
    finally:
        tracer.restore()
        workload.tracer = None
    tracer.write(out_dir / f"spans-{name}.jsonl")

    metrics = layer_metrics(tracer, results)
    metrics.update(part_throughputs(untraced))
    metrics.update(references(seed, out_dir))
    metrics["reference.ms"] = (1000.0 * statistics.median(refs), "ms")
    overhead = wall_traced - wall_untraced
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [
        f"traced {len(results)} operations, {len(tracer)} spans; untraced "
        f"{wall_untraced:.3f} s, traced {wall_traced:.3f} s, overhead "
        f"{100.0 * overhead / wall_untraced:.1f}%",
        f"spans written to {out_dir.name}/spans-{name}.jsonl",
        "B_computed metrics are counted from data sizes, not measured",
        "0 means the workload does not exercise that layer",
    ]
    return untraced + results, metrics, notes


def layer_metrics(tracer, results) -> dict:
    """Per-layer metrics from the spans and counts of the traced replay."""
    import workloads

    stats = tracer.summary()
    n_ops = len(results)
    counts = collections.Counter()
    for r in results:
        counts.update(r.counts)
    draws = {t: tracer.counters[f"draws.{t}"] for t in workloads.SAMPLER_TIERS}

    def calls(span: str) -> int:
        return stats.get(span, {}).get("calls", 0)

    def seconds(span: str, key: str = "total_s") -> float:
        return stats.get(span, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_call(span: str) -> float:
        return ratio(seconds(span), calls(span))

    def median(span: str) -> float:
        values = tracer.durations(span)
        return statistics.median(values) if values else 0.0

    m = {
        "scenario.validate.calls": (ratio(calls("scenario.validate"), n_ops), "count/op"),
        "scenario.validate.calls_per_draw": (
            ratio(calls("scenario.validate"), sum(draws.values())), "count"
        ),
        "scenario.validate.self_ms": (
            1000.0 * ratio(seconds("scenario.validate", "self_s"), n_ops), "ms/op"
        ),
    }
    for t in workloads.SAMPLER_TIERS:
        m[f"verification.accept_rate.{t}"] = (
            ratio(draws[t], tracer.counters[f"proposals.{t}"]), "ratio"
        )
    for t in workloads.SAMPLER_TIERS:
        m[f"verification.ms_per_draw.{t}"] = (
            1000.0 * ratio(seconds(f"verification.draw_{t}"), draws[t]), "ms"
        )
    suites = calls("verification.run_full_suite")
    report_s = {rid: ratio(seconds(span), suites) for rid, span in REPORT_SPANS.items()}
    # The feasibility-band report is a private function; its time is what
    # the suite spends outside the four public verifiers.
    report_s["condition-1-band"] = (
        per_call("verification.run_full_suite") - sum(report_s.values()) if suites else 0.0
    )
    for rid, value in report_s.items():
        m[f"verification.{rid}.s"] = (value, "s/op")
    # Only these two reports exclude draws: non-viable programs and
    # boundary release optima. Exclusions are reported, not failures.
    for rid in ("proposition-2", "proposition-3"):
        m[f"verification.{rid}.excluded"] = (ratio(counts[f"excluded.{rid}"], suites), "count/op")
    for opt in ("optimal_release_with_bbp", "optimal_release_no_bbp"):
        m[f"vendor.{opt}.calls"] = (ratio(calls(f"vendor.{opt}"), n_ops), "count/op")
        m[f"vendor.{opt}.ms_per_call"] = (1000.0 * per_call(f"vendor.{opt}"), "ms")
    m["vendor.condition1.calls"] = (ratio(calls("vendor.condition1"), n_ops), "count/op")
    m["vendor.condition1.calls_per_release_opt"] = (
        ratio(
            tracer.count_under("vendor.condition1", "vendor.optimal_release_with_bbp"),
            calls("vendor.optimal_release_with_bbp"),
        ),
        "count",
    )
    m["vendor.condition1.self_ms"] = (
        1000.0 * ratio(seconds("vendor.condition1", "self_s"), n_ops), "ms/op"
    )
    m["vendor.optimal_whh_count.ms_per_call"] = (
        1000.0 * per_call("vendor.optimal_whh_count"), "ms"
    )
    ewhh_s = per_call("hackers.best_response_oracle.ewhh")
    m["hackers.best_response_oracle.ewhh.ms_per_call"] = (1000.0 * ewhh_s, "ms")
    m["hackers.best_response_oracle.scalar.us_per_call"] = (
        1e6 * per_call("hackers.best_response_oracle.scalar"), "us"
    )
    m["hackers.equilibrium.us_per_call"] = (1e6 * per_call("hackers.equilibrium"), "us")
    m["kernels.ewhh_grid.points_per_s"] = (ratio(GRID_POINTS, ewhh_s), "1/s")
    m["kernels.ewhh_grid.bytes_per_call"] = (GRID_BYTES if ewhh_s else 0.0, "B_computed")
    m["ratio_game.solve.us_per_call"] = (
        1e6 * per_call("ratio_game.solve_ratio_equilibrium"), "us"
    )
    m["ratio_game.sensitivities.us_per_call"] = (
        1e6 * per_call("ratio_game.ratio_sensitivities"), "us"
    )
    m["simulate.aggregate_trials_per_s"] = (
        ratio(counts["aggregate_trials"], seconds("simulate.simulate")), "1/s"
    )
    m["simulate.trace_rows_per_s"] = (
        ratio(counts["trace_rows"], seconds("simulate.simulate.trace")), "1/s"
    )
    m["simulate.bytes_per_trial"] = (
        TRIAL_BYTES if calls("simulate.simulate") else 0.0, "B_computed"
    )
    m["cli.import_s"] = (median("cli.import"), "s")
    m["cli.load_scenario.ms"] = (1000.0 * per_call("cli.load_scenario"), "ms")
    for command in ("evaluate", "optimize", "sweep"):
        m[f"cli.{command}.p50_ms"] = (1000.0 * median(f"cli.{command}"), "ms")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, entry in stats.items():
        layer = span.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_ms"] = (1000.0 * ratio(value, n_ops), "ms/op")
    return m


def part_throughputs(results) -> dict:
    """Work per second of each engine part, from untraced operations."""
    counts = collections.Counter()
    for r in results:
        counts.update(r.counts)
    out = {}
    for name, part in (("draws", "verify"), ("checks", "oracle"), ("trials", "montecarlo")):
        seconds = counts[f"{part}.seconds"]
        out[f"engine.{name}_per_s"] = (counts[f"{part}.work"] / seconds if seconds else 0.0, "1/s")
    return out


def references(seed: int, out_dir: Path) -> dict:
    """Two floors measured in the same run: Philox uniforms and a bare interpreter."""
    import numpy as np
    import workloads

    rng_times = []
    for i in range(5):
        start = time.perf_counter()
        key = np.array([seed, i], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).random((RNG_CHUNK, 4))
        rng_times.append(time.perf_counter() - start)
    bare = [sys.executable, "-c", "pass"]
    starts = [workloads.spawn(bare, dict(os.environ), out_dir)[1] for _ in range(5)]
    return {
        "simulate.rng_floor_trials_per_s": (RNG_CHUNK / statistics.median(rng_times), "1/s"),
        "cli.interpreter_s": (statistics.median(starts), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "bountygame" / "__init__.py").is_file() or not (
        root / "scenarios" / "baseline.json"
    ).is_file():
        sys.stderr.write(
            "perfbench: run from the root of a bountygame checkout "
            "(src/bountygame and scenarios/baseline.json are missing)\n"
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed, root, out_dir)
        print(f"{seconds!r}")
        return 0

    env = environment()
    run = per_layer if args.trace else end_to_end
    results, metrics, notes = run(args.workload, args.seed, args.seconds, root, out_dir)
    env["loadavg_after"] = os.getloadavg()
    failed = [r.wrong or r.error for r in results if r.wrong or r.error]
    # A repeated operation is one operation measured again: it failed if
    # any of its calls failed. So the counts depend on the seed, not on how
    # many passes fit in the run.
    distinct = {r.key for r in results}
    distinct_failed = {r.key for r in results if r.wrong or r.error}

    for line in notes:
        print(f"# {line}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for problem in failed[:20]:
        print(f"# failed: {problem}")
    print(f"# fail_ratio {len(distinct_failed) / len(distinct):.6f} "
          f"({len(distinct_failed)} of {len(distinct)} distinct operations; "
          f"{len(failed)} of {len(results)} calls)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(distinct),
        "failed": len(distinct_failed),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
