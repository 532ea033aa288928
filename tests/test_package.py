"""The package surface: every public name, whichever module loads first.

The verification suite and the ratio contest load on first access to one
of their names, so each case that depends on what is loaded runs in a
fresh interpreter.
"""

from __future__ import annotations

import importlib
import json

import pytest

LAZY_NAMES = {
    "FeasibleSampler", "PropositionReport", "SampledScenario", "identity_suite",
    "run_full_suite", "verify_proposition_1", "verify_proposition_2",
    "verify_proposition_3", "RatioEquilibrium", "RatioSensitivities",
    "ratio_sensitivities", "solve_ratio_equilibrium",
}

PUBLIC_NAMES = {
    "AssumptionViolationError", "BbpRelease", "Condition1Bounds", "ConvergenceError",
    "DomainError", "EffortProfile", "FeasibilityWarning", "FeasibleSampler",
    "HackerType", "InfeasibleScenarioError", "MarketParams", "OptimalBounties",
    "ProfitBreakdown", "PropositionReport", "RatioEquilibrium", "RatioSensitivities",
    "Regime", "ReleaseCurves", "ReleaseOptimum", "SampledScenario", "SimMode",
    "SimOutcome", "SuccessProfile", "ValidationReport", "VendorDecision",
    "WhhCountReport", "__version__", "best_response_oracle", "concentrated_bbp_profit",
    "condition1", "corner_equilibrium", "equilibrium", "focal_payoff", "identity_suite",
    "interior_equilibrium", "k_nonsevere", "k_severe", "optimal_bounties",
    "optimal_release_no_bbp", "optimal_release_with_bbp", "optimal_whh_count",
    "profit_decomposition_check", "profit_with_bbp", "profit_without_bbp",
    "ratio_sensitivities", "release_gap_term", "revenue", "run_full_suite",
    "select_regime", "simulate", "solve_ratio_equilibrium", "success_probabilities",
    "validate", "verify_proposition_1", "verify_proposition_2", "verify_proposition_3",
}


def run_script(fresh_python, script: str):
    done = fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_package_surface_is_its_modules_public_names():
    import bountygame

    assert len(bountygame.__all__) == len(PUBLIC_NAMES)
    assert set(bountygame.__all__) == PUBLIC_NAMES
    assert set(bountygame._LAZY) == LAZY_NAMES
    for name, module in bountygame._LAZY.items():
        assert name in importlib.import_module(f"bountygame.{module}").__all__, name
    for module in ("errors", "hackers", "scenario", "simulate", "vendor"):
        exported = importlib.import_module(f"bountygame.{module}").__all__
        assert set(exported) <= set(bountygame.__all__), module


def test_every_public_name_resolves_through_getattr(fresh_python):
    script = (
        "import json, bountygame\n"
        "print(json.dumps([name for name in bountygame.__all__\n"
        "                  if getattr(bountygame, name, None) is None]))\n"
    )
    assert run_script(fresh_python, script) == []


def test_every_public_name_resolves_through_star_import(fresh_python):
    script = (
        "import json\n"
        "from bountygame import *\n"
        "import bountygame\n"
        "print(json.dumps([name for name in bountygame.__all__\n"
        "                  if globals().get(name) is not getattr(bountygame, name)]))\n"
    )
    assert run_script(fresh_python, script) == []


def test_dir_lists_the_lazy_names_without_loading_them(fresh_python):
    script = (
        "import json, sys, bountygame\n"
        "print(json.dumps([sorted(set(dir(bountygame)) & set(bountygame.__all__)),\n"
        "                  sorted(name for name in sys.modules if 'verification' in name\n"
        "                         or 'ratio_game' in name)]))\n"
    )
    listed, loaded = run_script(fresh_python, script)
    assert LAZY_NAMES <= set(listed)
    assert loaded == []


def test_unknown_name_raises_attribute_error(fresh_python):
    script = (
        "import json, bountygame\n"
        "try:\n"
        "    bountygame.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(bountygame, 'no_such_name')]))\n"
    )
    assert run_script(fresh_python, script) == [
        "module 'bountygame' has no attribute 'no_such_name'",
        False,
    ]


@pytest.mark.parametrize(
    "first",
    [
        "import bountygame.verification",
        "import importlib; importlib.import_module('bountygame.simulate')",
        "from bountygame import verification",
    ],
)
def test_names_survive_importing_a_submodule_first(fresh_python, first):
    script = (
        f"{first}\n"
        "import inspect, json, bountygame\n"
        "from bountygame.simulate import simulate\n"
        "from bountygame.verification import FeasibleSampler\n"
        "print(json.dumps([bountygame.FeasibleSampler is FeasibleSampler,\n"
        "                  bountygame.simulate is simulate,\n"
        "                  inspect.isfunction(bountygame.simulate)]))\n"
    )
    assert run_script(fresh_python, script) == [True, True, True]
