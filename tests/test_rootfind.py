"""Scalar root finding."""

from __future__ import annotations

import math

import pytest

from bountygame._rootfind import newton_bisect
from bountygame.errors import ConvergenceError


def test_newton_polish_beats_plain_bisection_tolerance():
    f = lambda x: x**3 - 2.0
    fprime = lambda x: 3.0 * x * x
    root = newton_bisect(f, 0.0, 2.0, -2.0, 6.0, ftol=1e-14, fprime=fprime)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert newton_bisect(f, 0.0, 2.0, -2.0, 6.0, ftol=1e-12, fprime=fprime) == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-9
    )


def test_newton_stops_where_the_function_jumps_across_zero():
    # f has no root, only a jump at 0.3: once the bracket closes to two
    # adjacent floats, the end with the smaller |f| is returned. A slope of
    # 0 makes every step a bisection.
    flat = lambda x: 0.0
    step = lambda x: 2.0 if x < 0.3 else -1.0
    assert newton_bisect(step, 0.0, 1.0, 2.0, -1.0, ftol=1e-9, fprime=flat) == 0.3
    step = lambda x: 1.0 if x < 0.3 else -2.0
    root = newton_bisect(step, 0.0, 1.0, 1.0, -2.0, ftol=1e-9, fprime=flat)
    assert root == math.nextafter(0.3, 0.0)


def test_newton_with_an_analytic_slope_stops_once_a_step_no_longer_moves_x():
    # With ftol 0 the stops are an exact zero, a Newton step that rounds
    # back onto x, or a bracket with no float inside; cos never reaches an
    # exact zero here, and closing the bracket takes 45 evaluations. The
    # ends' values come from the caller, so every call counted is inside.
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.cos(x)

    root = newton_bisect(f, 0.0, 3.0, 1.0, math.cos(3.0), ftol=0.0, fprime=lambda x: -math.sin(x))
    assert root == pytest.approx(math.pi / 2, abs=1e-15)
    assert calls <= 6


def test_newton_refuses_ends_of_the_same_sign():
    with pytest.raises(ConvergenceError, match="no sign change"):
        newton_bisect(lambda x: x * x + 1.0, -1.0, 2.0, 2.0, 5.0, ftol=0.0, fprime=lambda x: 2 * x)


def test_newton_gives_up_after_200_steps():
    # A slope of 0 makes every step a bisection, and 200 halvings of
    # [0, 1e300] stay far wider than the root 1e-300 needs.
    with pytest.raises(ConvergenceError, match="200 iterations"):
        newton_bisect(
            lambda x: x - 1e-300, 0.0, 1e300, -1e-300, 1e300, ftol=0.0, fprime=lambda x: 0.0
        )


def test_newton_crawling_across_an_exponential_bisects():
    # From the middle of [0, 500], each Newton step on C e^(-x) - 2 moves x
    # by about 1 toward the root near 459.6: without bisecting after slow
    # steps, 200 steps run out long before it. Counted, not timed.
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return 8.2e199 * math.exp(-x) - 2.0

    root = newton_bisect(
        f, 0.0, 500.0, 8.2e199 - 2.0, -2.0, ftol=1e-9, fprime=lambda x: -8.2e199 * math.exp(-x)
    )
    assert root == pytest.approx(math.log(4.1e199), rel=1e-15)
    assert calls <= 40
