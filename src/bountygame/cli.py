"""Command-line front end: scenario files in, JSON or CSV reports out.

A scenario file is a single JSON document with two required blocks and
two optional ones::

    {
      "market":   { "n": 3, "l": 5, "m": 4, "c_w": 2.0, "c_b": 2.0,
                    "r_s": 1.0, "W": 8.0, "TC_s": 40.0, "TC_ns": 1.0,
                    "x": 0.5 },
      "curves":   { "K_s0": 0.9, "lambda_s": 0.294, "K_ns0": 0.95,
                    "lambda_ns": 0.086, "R0": 100.0, "a": 2.0,
                    "b": 0.5, "t_max": 10.0 },
      "decision": { "t": 2.0, "p_s": 2.5, "p_ns": 0.5 },
      "sweep":    { "path": "decision.p_s", "from": 0.0, "to": 20.0,
                    "steps": 81 }
    }

Parsing is strict: unknown keys anywhere are an error. When the decision
block is absent, ``evaluate`` and ``sweep`` run at the optimal release
time and bounty pair and say so in their output.

Exit codes: 0 for success (including defined negative results such as
"no viable bounty program"), 1 for verification failure or a model-level
breakdown on valid inputs, 2 for input errors. Errors go to standard
error as one JSON object. All output is deterministic given the
arguments: no clocks, no locale formatting.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace

from .errors import (
    AssumptionViolationError,
    ConvergenceError,
    DomainError,
    FeasibilityWarning,
    InfeasibleScenarioError,
)
from .hackers import _corner_severe_probs, equilibrium, success_probabilities
from .scenario import MarketParams, ReleaseCurves, VendorDecision, _require_finite, validate
from .vendor import (
    condition1,
    optimal_bounties,
    optimal_release_no_bbp,
    optimal_release_with_bbp,
    optimal_whh_count,
    profit_with_bbp,
    profit_without_bbp,
    release_gap_term,
)

__all__ = ["main", "load_scenario", "ScenarioFile"]

_MARKET_FIELDS = tuple(f.name for f in fields(MarketParams))
_CURVE_FIELDS = tuple(f.name for f in fields(ReleaseCurves))
_DECISION_FIELDS = tuple(f.name for f in fields(VendorDecision))
_INT_FIELDS = frozenset({"n", "l", "m"})
_SWEEP_FIELDS = ("path", "from", "to", "steps")

class ScenarioFormatError(ValueError):
    """The scenario file does not follow the documented schema."""


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario: market and curves, plus optional decision/sweep."""

    params: MarketParams
    curves: ReleaseCurves
    decision: VendorDecision | None
    sweep: dict | None


def _require_number(block: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{block}.{key} must be a number, got {value!r}")
    return _require_finite(key, value)


def _require_int(block: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{block}.{key} must be an integer, got {value!r}")
    return value


def _strict_block(doc: dict, name: str, field_names: tuple[str, ...]) -> dict:
    block = doc[name]
    if not isinstance(block, dict):
        raise ScenarioFormatError(f"{name!r} must be a JSON object")
    unknown = set(block) - set(field_names)
    if unknown:
        raise ScenarioFormatError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = set(field_names) - set(block)
    if missing:
        raise ScenarioFormatError(f"missing keys in {name!r}: {sorted(missing)}")
    out = {}
    for key in field_names:
        if key in _INT_FIELDS and name == "market":
            out[key] = _require_int(name, key, block[key])
        elif key == "steps":
            out[key] = _require_int(name, key, block[key])
        elif key == "path":
            if not isinstance(block[key], str):
                raise ScenarioFormatError("sweep.path must be a string")
            out[key] = block[key]
        else:
            out[key] = _require_number(name, key, block[key])
    return out


def load_scenario(path: str) -> ScenarioFile:
    """Parse and validate a scenario file, strictly."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:
            # Undecodable bytes, or an integer literal past Python's digit limit.
            raise ScenarioFormatError(f"scenario file is not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario file must hold one JSON object")
    unknown = set(doc) - {"market", "curves", "decision", "sweep"}
    if unknown:
        raise ScenarioFormatError(f"unknown top-level keys: {sorted(unknown)}")
    for required in ("market", "curves"):
        if required not in doc:
            raise ScenarioFormatError(f"missing required block {required!r}")

    params = MarketParams(**_strict_block(doc, "market", _MARKET_FIELDS))
    curves = ReleaseCurves(**_strict_block(doc, "curves", _CURVE_FIELDS))
    decision = None
    if "decision" in doc:
        decision = VendorDecision(**_strict_block(doc, "decision", _DECISION_FIELDS))
    sweep = None
    if "sweep" in doc:
        sweep = _strict_block(doc, "sweep", _SWEEP_FIELDS)

    report = validate(params, curves)
    if not report.passed:
        raise ScenarioFormatError(
            "scenario fails validation: " + "; ".join(report.failures)
        )
    return ScenarioFile(params=params, curves=curves, decision=decision, sweep=sweep)


def _auto_decision(
    params: MarketParams, curves: ReleaseCurves
) -> tuple[VendorDecision, str]:
    try:
        opt = optimal_release_with_bbp(params, curves)
        return (
            VendorDecision(t=opt.t, p_s=opt.p_s, p_ns=opt.p_ns),
            "decision block absent; evaluated at the optimal release time "
            "and bounty pair",
        )
    except InfeasibleScenarioError:
        fallback = optimal_release_no_bbp(params, curves)
        return (
            VendorDecision(t=fallback.t, p_s=0.0, p_ns=0.0),
            "decision block absent and no viable bounty program anywhere; "
            "evaluated at the no-program optimal release with zero bounties",
        )


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    scen = load_scenario(args.scenario)
    notes: list[str] = []
    decision = scen.decision
    if decision is None:
        decision, note = _auto_decision(scen.params, scen.curves)
        notes.append(note)

    profile = equilibrium(scen.params, decision, scen.curves)
    probs = success_probabilities(scen.params, decision, scen.curves, profile)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", FeasibilityWarning)
        with_bbp = profit_with_bbp(scen.params, decision, scen.curves)
    notes.extend(str(w.message) for w in caught)
    without_bbp = profit_without_bbp(scen.params, decision.t, scen.curves)

    _emit(
        {
            "decision": asdict(decision),
            "efforts": asdict(profile),
            "probabilities": asdict(probs),
            "profit": {
                "with_bbp": asdict(with_bbp),
                "without_bbp": asdict(without_bbp),
            },
            "notes": notes,
        }
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    scen = load_scenario(args.scenario)
    params, curves = scen.params, scen.curves
    report: dict = {"mode": args.mode}

    no_bbp = None
    if args.mode in ("no-bbp", "both"):
        no_bbp = optimal_release_no_bbp(params, curves)
        report["no_bbp"] = asdict(no_bbp)

    if args.mode in ("with-bbp", "both"):
        try:
            opt = optimal_release_with_bbp(params, curves)
            report["with_bbp"] = asdict(opt)
            report["condition1_at_optimum"] = asdict(condition1(params, curves, opt.t))
            report["optimal_n"] = asdict(optimal_whh_count(params, curves, opt.t))
        except InfeasibleScenarioError as exc:
            report["with_bbp"] = None
            report["no_viable_bbp"] = True
            report["detail"] = str(exc)

    if no_bbp is not None:
        # The gap's closed form assumes unclamped zero-bounty probabilities.
        p_e0, p_b0 = _corner_severe_probs(params, curves.k_severe(no_bbp.t), 0.0)
        unclamped = 0.0 <= p_e0 <= 1.0 and 0.0 <= p_b0 <= 1.0
        if unclamped and condition1(params, curves, no_bbp.t).feasible:
            report["release_gap_at_no_bbp_optimum"] = release_gap_term(
                params, curves, no_bbp.t
            )
        else:
            report["release_gap_at_no_bbp_optimum"] = None

    _emit(report)
    return 0


def _sweep_values(spec: dict) -> list[float]:
    steps = spec["steps"]
    if steps < 1:
        raise ScenarioFormatError("sweep.steps must be at least 1")
    lo, hi = spec["from"], spec["to"]
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _apply_sweep_value(
    scen: ScenarioFile, decision: VendorDecision, path: str, value: float
) -> tuple[MarketParams, ReleaseCurves, VendorDecision]:
    block, _, field = path.partition(".")
    params, curves = scen.params, scen.curves
    if block == "market" and field in _MARKET_FIELDS:
        if field in _INT_FIELDS:
            rounded = round(value)
            if abs(value - rounded) > 1e-9:
                raise ScenarioFormatError(
                    f"sweep over integer field {path!r} hit non-integer {value!r}"
                )
            value = int(rounded)
        params = replace(params, **{field: value})
    elif block == "curves" and field in _CURVE_FIELDS:
        curves = replace(curves, **{field: value})
    elif block == "decision" and field in _DECISION_FIELDS:
        decision = replace(decision, **{field: value})
    else:
        raise ScenarioFormatError(f"unknown sweep path {path!r}")
    return params, curves, decision


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sweep(args: argparse.Namespace) -> int:
    import csv

    scen = load_scenario(args.scenario)
    if scen.sweep is None:
        raise ScenarioFormatError("sweep command needs a 'sweep' block")
    notes: list[str] = []
    decision = scen.decision
    if decision is None:
        decision, note = _auto_decision(scen.params, scen.curves)
        notes.append(note)

    path = scen.sweep["path"]
    rows: list[dict] = []
    for value in _sweep_values(scen.sweep):
        params, curves, dec = _apply_sweep_value(scen, decision, path, value)
        if (params, curves) != (scen.params, scen.curves):
            check = validate(params, curves)
            if not check.passed:
                raise ScenarioFormatError(
                    f"sweep point {path}={value!r} fails validation: "
                    + "; ".join(check.failures)
                )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FeasibilityWarning)
            profile = equilibrium(params, dec, curves)
            probs = success_probabilities(params, dec, curves, profile)
            pw = profit_with_bbp(params, dec, curves)
            pn = profit_without_bbp(params, dec.t, curves)
            bounties = optimal_bounties(params, curves, dec.t)
            band = condition1(params, curves, dec.t)
            heads = optimal_whh_count(params, curves, dec.t)
        row = {
            path: float(value),
            "regime": profile.regime.value,
            "alpha_s": profile.alpha_s,
            "alpha_ns": profile.alpha_ns,
            "beta_ns": profile.beta_ns,
            "mu_s": profile.mu_s,
            "p_e_s": probs.p_e_s,
            "p_e_ns": probs.p_e_ns,
            "p_ne_ns": probs.p_ne_ns,
            "p_b_s": probs.p_b_s,
            "profit_with_bbp": pw.total,
            "profit_without_bbp": pn.total,
            "p_s_opt": bounties.p_s,
            "p_ns_opt": bounties.p_ns,
            "bbp_viable": bounties.bbp_viable,
            "cond1_lb": band.lb,
            "cond1_ub": band.ub,
            "cond1_gap": band.gap_value,
            "cond1_feasible": band.feasible,
            "n_closed_form": heads.n_closed_form,
            "n_quadratic": heads.n_quadratic,
            "n_brute_force": heads.n_brute_force,
        }
        rows.append(row)

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(rows[0]))
        writer.writerows([_format_cell(cell) for cell in row.values()] for row in rows)
    _emit({"out": args.out, "rows": len(rows), "path": path, "notes": notes})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verification import run_full_suite

    report = run_full_suite(args.seed, args.draws)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bountygame",
        description="Evaluate, optimize, sweep, and verify bug-bounty scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="efforts, probabilities, profits")
    p_eval.add_argument("scenario", help="path to a scenario JSON file")
    p_eval.set_defaults(func=cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="optimal release time and bounties")
    p_opt.add_argument("scenario", help="path to a scenario JSON file")
    p_opt.add_argument(
        "--mode", choices=("with-bbp", "no-bbp", "both"), default="both"
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="write a CSV over the sweep block")
    p_sweep.add_argument("scenario", help="path to a scenario JSON file")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the proposition and identity suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--draws", type=int, default=200)
    p_verify.add_argument("--out", default=None, help="also write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _error_payload(kind: str, exc: BaseException) -> str:
    return json.dumps({"error": kind, "detail": str(exc)}, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioFormatError, DomainError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(_error_payload(type(exc).__name__, exc))
        return 2
    except (ConvergenceError, AssumptionViolationError, InfeasibleScenarioError) as exc:
        sys.stderr.write(_error_payload(type(exc).__name__, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
