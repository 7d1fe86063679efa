"""Bracketed bisection helpers.

Bisection is used everywhere a root or a predicate boundary is needed:
it is slower than derivative-based methods but its convergence on a
sign-changing bracket is unconditional, which matters for the entropy
equations whose derivatives blow up at the bracket edges.
"""

from __future__ import annotations

from typing import Callable

from .errors import InfeasibleError

XTOL = 1e-9  # absolute bracket width of bisect_root
REL_TOL = 1e-6  # relative bracket width of bisect_predicate
_MAX_STEPS = 200  # stops a bracket that cannot shrink relatively (an end at 0)


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection to absolute tolerance ``XTOL``.

    Raises InfeasibleError if f(lo) and f(hi) have the same sign.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise InfeasibleError(f"no sign change on [{lo:g}, {hi:g}]")
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= XTOL:
            break
    return 0.5 * (lo + hi)


def bisect_predicate(
    pred: Callable[[float], bool], holds: float, fails: float
) -> tuple[float, float]:
    """Final bracket (holds, fails) around the edge of pred, given pred(holds)
    and not pred(fails).

    The bracket ends may be in either order; it is halved until its width is
    at most ``REL_TOL`` of its larger end.
    """
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (holds + fails)
        if pred(mid):
            holds = mid
        else:
            fails = mid
        if abs(fails - holds) <= REL_TOL * max(abs(holds), abs(fails)):
            break
    return holds, fails
