"""Bracketed bisection helpers.

Bisection is used everywhere a root or a predicate boundary is needed:
it is slower than derivative-based methods but its convergence on a
sign-changing bracket is unconditional, which matters for the entropy
equations whose derivatives blow up at the bracket edges.  A predicate call
costs much the same for one element as for a thousand, so
``bisect_predicate`` tests several bisection levels of every bracket per call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InfeasibleError

XTOL = 1e-9  # absolute bracket width of bisect_root
REL_TOL = 1e-6  # relative bracket width of bisect_predicate
_MAX_STEPS = 200  # stops a bracket that cannot shrink relatively (an end at 0)
_CALL_WIDTH = 1024  # predicate elements per call, unless more brackets are live


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
    """Final brackets (holds, fails) around the edges of a predicate, given it holds at
    each ``holds`` and fails at each ``fails``: floats, or arrays taken elementwise.
    ``pred(x, i)`` tells elementwise whether it holds at values x of elements i, the
    indices into the flattened brackets.

    The ends may be in either order; each bracket is halved until its width is
    at most ``REL_TOL`` of its larger end and then left alone, so an element
    ends as it would in a bisection of its own.  Each call tests the next
    ``floor(log2(_CALL_WIDTH // live + 1))`` levels (at least one) of every live
    bracket: all midpoints its bisection could reach, which the walk then follows.
    """
    shape = np.shape(holds)
    holds, fails = np.array(holds, dtype=float).ravel(), np.array(fails, dtype=float).ravel()
    live, steps = np.arange(holds.size), 0
    while live.size and steps < _MAX_STEPS:
        depth = min(max(1, (_CALL_WIDTH // live.size + 1).bit_length() - 1), _MAX_STEPS - steps)
        # each live bracket's bisection tree, level by level: the children of node x on
        # level j are x, where the predicate holds at x's midpoint, and x + 2^j
        h, f, mids = [holds[live, None]], [fails[live, None]], []
        for _ in range(depth):
            mids.append(0.5 * (h[-1] + f[-1]))
            h.append(np.concatenate([mids[-1], h[-1]], axis=1))
            f.append(np.concatenate([f[-1], mids[-1]], axis=1))
        h, f, mids = (np.concatenate(x, axis=1) for x in (h, f, mids))  # level j from 2^j - 1
        ok = pred(mids.ravel(), np.repeat(live, mids.shape[1])).reshape(mids.shape)
        # the child each node's bisection step leads to, and each bracket's path through them
        level = np.repeat(np.arange(depth), 1 << np.arange(depth))
        child = np.arange(mids.shape[1]) + ((2 - ok) << level)
        rows, node, path = np.arange(live.size), np.zeros(live.size, dtype=int), []
        for _ in range(depth):
            node = child[rows, node]
            path.append(node)
        path = np.stack(path, axis=1)
        h, f = h[rows[:, None], path], f[rows[:, None], path]
        wide = np.abs(f - h) > REL_TOL * np.maximum(np.abs(h), np.abs(f))
        done = ~wide.all(axis=1)
        last = np.where(done, np.argmin(wide, axis=1), depth - 1)  # the level it stops at
        holds[live], fails[live], live = h[rows, last], f[rows, last], live[~done]
        steps += depth
    return holds.reshape(shape), fails.reshape(shape)
