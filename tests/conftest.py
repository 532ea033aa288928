"""Shared fixtures: the canonical worked-example scenario.

The baseline market has 3 experts, 5 non-experts, and 4 black hats, with
curve constants tuned so the severity likelihoods at t = 2.0 are exactly
0.5 and 0.8 in binary64. Most golden values in the tests were derived by
hand at those two constants. ``fresh_python`` runs code in a new
interpreter, for tests of what a call or an import order loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bountygame
from bountygame import MarketParams, ReleaseCurves, VendorDecision

# exp(-2 * LAMBDA_S) * 0.9 == 0.5 and exp(-2 * LAMBDA_NS) * 0.95 == 0.8,
# exactly, as floats. The second constant is nudged 2 ulps off
# log(0.95/0.8)/2 to make the product round to 0.8.
LAMBDA_S = 0.29389333245105953
LAMBDA_NS = 0.08592512846332954


@pytest.fixture
def s0_params() -> MarketParams:
    return MarketParams(
        n=3, l=5, m=4,
        c_w=2.0, c_b=2.0,
        r_s=1.0, W=8.0,
        TC_s=40.0, TC_ns=1.0, x=0.5,
    )


@pytest.fixture
def s0_curves() -> ReleaseCurves:
    return ReleaseCurves(
        K_s0=0.9, lambda_s=LAMBDA_S,
        K_ns0=0.95, lambda_ns=LAMBDA_NS,
        R0=100.0, a=2.0, b=0.5, t_max=10.0,
    )


@pytest.fixture
def s0_decision() -> VendorDecision:
    return VendorDecision(t=2.0, p_s=2.5, p_ns=0.5)


@pytest.fixture
def wide_ranges() -> dict[str, tuple[float, float]]:
    """Sampler ranges well beyond the defaults, with the release horizon unpinned.

    The same box as perfbench's WIDE_RANGES: "wide draw k" in a test means
    0-based raw draw k of ``FeasibleSampler(5, ranges=wide_ranges)``.
    """
    return {
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


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter that imports this package.

    Returns the finished process, with its output as text. A fresh
    interpreter shows which modules a call loads, and in what order.
    """
    package_root = str(Path(bountygame.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    return run
