"""Bracketed bisection helpers.

Bisection is used everywhere a root or a predicate boundary is needed:
it is slower than derivative-based methods but its convergence on a
sign-changing bracket is unconditional, which matters for the entropy
equations whose derivatives blow up at the bracket edges.  A predicate call
costs much the same for one element as for a thousand, so
``bisect_predicate`` tests several bisection levels of every bracket per call,
and many halvings of a bracket with one end at 0.
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


def wide(holds, fails):
    """Whether a bracket is wider than ``REL_TOL`` of its larger end; elementwise."""
    return np.abs(fails - holds) > REL_TOL * np.maximum(np.abs(holds), np.abs(fails))


def bisect_predicate(pred: Callable, holds, fails) -> tuple:
    """Final brackets (holds, fails) around the edges of a predicate, given it holds at
    each ``holds`` and fails at each ``fails``: floats, or arrays taken elementwise.
    ``pred(x, i)`` tells elementwise whether it holds at values x of elements i, the
    indices into the flattened brackets.

    The ends may be in either order; each bracket is halved until it is no longer
    ``wide`` (or ``_MAX_STEPS`` times) and then left alone, so an element ends as
    it would in a bisection of its own.  Each call tests the next
    ``floor(log2(_CALL_WIDTH // live + 1))`` levels (at least one) of every live
    bracket: all midpoints its bisection could reach, which the walk then follows.
    A bracket with one end at 0 also tests its other end halved once more, twice
    more, ... below its tree, up to ``_CALL_WIDTH`` such values in all: the
    midpoints its bisection visits for as long as the predicate agrees with that end.
    """
    shape = np.shape(holds)
    holds, fails = np.array(holds, dtype=float).ravel(), np.array(fails, dtype=float).ravel()
    live, left = np.arange(holds.size), np.full(holds.size, _MAX_STEPS)  # steps each may take
    zero = (holds == 0.0) | (fails == 0.0)  # an end at 0 from the start, while it stays there
    while live.size:
        depth = max(1, (_CALL_WIDTH // live.size + 1).bit_length() - 1)
        # each live bracket's bisection tree, level by level: the children of node x on
        # level j are x, where the predicate holds at x's midpoint, and x + 2^j
        h, f, mids = [holds[live, None]], [fails[live, None]], []
        for _ in range(depth):
            mids.append(0.5 * (h[-1] + f[-1]))
            h.append(np.concatenate([mids[-1], h[-1]], axis=1))
            f.append(np.concatenate([f[-1], mids[-1]], axis=1))
        h, f, mids = (np.concatenate(x, axis=1) for x in (h, f, mids))  # level j from 2^j - 1
        values, elements = mids.ravel(), np.repeat(live, mids.shape[1])
        line = live[zero[live]]
        reach = min(_CALL_WIDTH // line.size, left[line].max() - depth) if line.size else 0
        if reach > 0:
            # the end not at 0 halved depth, depth + 1, ... times, as the bisection halves it
            end = np.full((line.size, depth + reach + 1), 0.5)
            end[:, 0] = holds[line] + fails[line]
            end = np.multiply.accumulate(end, axis=1)[:, depth:]
            at_zero = holds[line] == 0.0
            values = np.concatenate([values, end[:, 1:].ravel()])
            elements = np.concatenate([elements, np.repeat(line, end.shape[1] - 1)])
        ok = pred(values, elements)
        # the child each node's bisection step leads to, and each bracket's path through them
        level = np.repeat(np.arange(depth), 1 << np.arange(depth))
        child = np.arange(mids.shape[1]) + ((2 - ok[: mids.size].reshape(mids.shape)) << level)
        rows, path = np.arange(live.size), np.zeros((live.size, depth + 1), dtype=int)
        for j in range(depth):
            path[:, j + 1] = child[rows, path[:, j]]
        rows, path = rows[:, None], path[:, 1:]
        _settle(holds, fails, left, live, h[rows, path], f[rows, path], False)
        if reach > 0:
            # a line goes on where its tree moved only the end not at 0: step k moves that
            # end or the one at 0 to column k, and the first move of the one at 0 ends it
            ok_line = ok[mids.size :].reshape(line.size, -1)
            on = (holds[line] + fails[line] == end[:, 0]) & (left[line] > 0)
            on &= np.where(at_zero, holds[line], fails[line]) == 0.0
            zero[line] = on
            line, end, ok_line, at_zero = line[on], end[on], ok_line[on], at_zero[on, None]
            h = np.where(ok_line, end[:, 1:], np.where(at_zero, holds[line, None], end[:, :-1]))
            f = np.where(ok_line, np.where(at_zero, end[:, :-1], fails[line, None]), end[:, 1:])
            _settle(holds, fails, left, line, h, f, ok_line == at_zero)
            zero[line] = np.where(at_zero[:, 0], holds[line], fails[line]) == 0.0
        live = live[left[live] > 0]
    return holds.reshape(shape), fails.reshape(shape)


def _settle(holds, fails, left, rows, h, f, stop) -> None:
    """Moves each bracket of ``rows`` to its last level in (h, f): its first level that
    is not ``wide`` or that ``stop`` marks, or its last step, or the last column."""
    narrow = ~wide(h, f)
    stop = narrow | stop
    last = np.where(stop.any(axis=1), stop.argmax(axis=1), h.shape[1] - 1)
    last = np.minimum(last, left[rows] - 1)
    at = np.arange(rows.size)
    holds[rows], fails[rows] = h[at, last], f[at, last]
    left[rows] = np.where(narrow[at, last], 0, left[rows] - last - 1)
