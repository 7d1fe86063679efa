"""Bracketed bisection helpers.

Bisection is used everywhere a root or a predicate boundary is needed:
it is slower than derivative-based methods but its convergence on a
sign-changing bracket is unconditional, which matters for the entropy
equations whose derivatives blow up at the bracket edges.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def bisect_predicate(pred: Callable, holds, fails) -> tuple:
    """Final brackets (holds, fails) around the edges of pred, given pred holds at
    each ``holds`` and fails at each ``fails``: floats, or arrays taken elementwise.

    The ends may be in either order; each bracket is halved until its width is
    at most ``REL_TOL`` of its larger end and then left alone, so an element
    ends as it would in a bisection of its own.
    """
    live = True
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (holds + fails)
        ok = pred(mid)
        holds = np.where(live & ok, mid, holds)
        fails = np.where(live & np.logical_not(ok), mid, fails)
        live = live & (np.abs(fails - holds) > REL_TOL * np.maximum(np.abs(holds), np.abs(fails)))
        if not np.any(live):
            break
    return holds, fails
