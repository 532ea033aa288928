"""Scalar root finding for the release-time first-order conditions.

A safeguarded Newton, deliberately small and deterministic. Both release
optimizers use it, with exact derivatives, to refine each bracket of their
slope and each zero of the sums of exponentials that cut the slope into
pieces.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError

__all__ = ["newton_bisect"]

_NEWTON_MAX_ITER = 200
_SLOW_STEPS = 2  # Newton steps in a row that fail to halve before one bisection


def newton_bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    *,
    ftol: float,
    fprime: Callable[[float], float],
) -> float:
    """A zero of f on [lo, hi], given flo = f(lo) and fhi = f(hi), which must differ in sign.

    Steps by Newton with the exact derivative ``fprime``, or bisects where
    that step would leave the bracket or ``fprime`` is 0, or after two Newton
    steps in a row each longer than half the step before (Newton crawling
    across an exponential), until |f| <= ftol or a Newton step no longer
    moves x. Once no float lies strictly inside the bracket, f jumps across
    zero there, and the end with the smaller |f| is returned. Raises
    ``ConvergenceError`` where flo and fhi have the same sign, or after 200
    steps.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]")

    x = 0.5 * (lo + hi)
    fx = f(x)
    step, slow = math.inf, 0
    for _ in range(_NEWTON_MAX_ITER):
        if abs(fx) <= ftol:
            return x
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(flo) <= abs(fhi) else hi
        took_newton = False
        if slow < _SLOW_STEPS:
            slope = fprime(x)
            if slope != 0.0:
                x_new = x - fx / slope
                if x_new == x:
                    return x
                took_newton = lo < x_new < hi
        if took_newton:
            # A step longer than half the one before is not converging.
            slow = slow + 1 if abs(x_new - x) > 0.5 * step else 0
        else:
            x_new, slow = mid, 0
        step = abs(x_new - x)
        f_new = f(x_new)
        # Maintain the sign-changing bracket.
        if flo * f_new < 0.0:
            hi, fhi = x_new, f_new
        else:
            lo, flo = x_new, f_new
        x, fx = x_new, f_new
        if hi - lo <= 4.0 * abs(x) * 2.2e-16 and abs(fx) <= max(ftol, 1e-6 * abs(flo)):
            return x
    raise ConvergenceError(
        f"newton_bisect did not reach |f| <= {ftol} in {_NEWTON_MAX_ITER} iterations"
    )
