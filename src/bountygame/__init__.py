"""Numerical engine for a two-stage bug-bounty market game.

Hackers race to find a severe and a non-severe bug in a product the
vendor has released; the vendor moves first by picking the release time
and the two bounty levels. The package computes the hacker-stage
equilibrium efforts and first-discovery probabilities in closed form,
optimizes the vendor stage, cross-checks every formula against
brute-force oracles and a Monte Carlo simulator, and ships a seeded
verification suite over randomly drawn feasible markets.

The package re-exports each module's ``__all__``; the verification suite
and the ratio contest load on first use of one of their names.
"""

from __future__ import annotations

import importlib

# Each module's __all__ is the one list of its public names. Eager: the
# simulate function shadows its module, which a lazy load could leave
# bound here, so that module's list is read through an alias.
from . import errors, hackers, scenario, simulate as _simulate, vendor
from .errors import *
from .hackers import *
from .scenario import *
from .simulate import *
from .vendor import *

__version__ = "0.1.0"

# Names loaded on first access, so the scalar commands skip their modules.
_LAZY = dict.fromkeys(
    ("RatioEquilibrium", "RatioSensitivities", "ratio_sensitivities", "solve_ratio_equilibrium"),
    "ratio_game",
) | dict.fromkeys(
    ("FeasibleSampler", "PropositionReport", "SampledScenario", "identity_suite",
     "run_full_suite", "verify_proposition_1", "verify_proposition_2", "verify_proposition_3"),
    "verification",
)

__all__ = [
    name for module in (errors, hackers, scenario, _simulate, vendor) for name in module.__all__
] + [*_LAZY, "__version__"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
