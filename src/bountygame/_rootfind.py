"""Scalar root finding for the release-time first-order conditions.

A safeguarded Newton, deliberately small and deterministic, that both
release optimizers use to refine each bracket of their slope.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError

__all__ = ["newton_bisect"]

_NEWTON_MAX_ITER = 200


def newton_bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    ftol: float = 1e-9,
    fprime: Callable[[float], float] | None = None,
) -> float:
    """A zero of f on [lo, hi], where f(lo) and f(hi) must differ in sign.

    Steps by Newton, with the slope ``fprime`` or else a central difference,
    or bisects where that step would leave the bracket, until |f| <= ftol or
    a Newton step no longer moves x. Once no float lies strictly inside the
    bracket, f jumps across zero there, and the end with the smaller |f| is
    returned. Raises ``ConvergenceError`` after 200 steps.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]")

    x = 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(_NEWTON_MAX_ITER):
        if abs(fx) <= ftol:
            return x
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(flo) <= abs(fhi) else hi
        if fprime is None:
            h = 1e-7 * max(hi - lo, abs(x), 1e-30)
            slope = (f(x + h) - f(x - h)) / (2.0 * h)
        else:
            slope = fprime(x)
        took_newton = False
        if slope != 0.0:
            x_new = x - fx / slope
            if x_new == x:
                return x
            if lo < x_new < hi:
                took_newton = True
        if not took_newton:
            x_new = mid
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
