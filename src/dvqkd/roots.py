"""Bracketed bisection of predicate edges.

Bisection serves the edges of the criteria, which are predicates: a margin
may stand in for one, but only its sign decides, and bisection converges on
any bracket whose ends disagree.  (The security thresholds are smooth convex
roots and take Newton steps in ``security``.)  A predicate call costs much
the same for one element as for a thousand, so ``bisect_predicate`` tests
several bisection levels of every bracket per call, and many halvings of a
bracket with one end at 0.  Given a real margin in place of the predicate,
it reads a guess of each edge off the margin's values on a bracket's tree,
then tests in one call every midpoint the bisection would visit if the edge
were there, and keeps those the predicate confirms: the guess saves calls,
never moves a result.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

REL_TOL = 1e-6  # relative bracket width of bisect_predicate
_MAX_STEPS = 200  # stops a bracket that cannot shrink relatively (an end at 0)
_CALL_WIDTH = 1024  # predicate elements per call, unless more brackets are live
_GUESS_WIDTH = 4096  # guessed-path values per call, unless more brackets are guessed
_GUESS_DEPTH = 4  # tree levels, so 15 nodes, of a margin that give a bracket its guess
_STENCIL = 12  # nodes of the polynomial whose root is the guess
_FIT_TOL = 1e-6  # largest miss of that polynomial next to its nodes, relative to the margin


def wide(holds, fails):
    """Whether a bracket is wider than ``REL_TOL`` of its larger end; elementwise."""
    return np.abs(fails - holds) > REL_TOL * np.maximum(np.abs(holds), np.abs(fails))


def bisect_predicate(test: Callable, holds, fails) -> tuple:
    """Final brackets (holds, fails) around the edges of a predicate, given it holds at
    each ``holds`` and fails at each ``fails``: floats, or arrays taken elementwise.
    ``test(x, i)`` tells elementwise whether it holds at values x of elements i, the
    indices into the flattened brackets: as booleans, or as a real margin that is
    positive exactly where it holds.

    The ends may be in either order; each bracket is halved until it is no longer
    ``wide`` (or ``_MAX_STEPS`` times) and then left alone, so an element ends as
    it would in a bisection of its own.  Each call tests the next
    ``floor(log2(_CALL_WIDTH // unguessed + 1))`` levels (at least one) of every
    live bracket without a guess: all midpoints its bisection could reach, which
    the walk then follows.  A bracket with one end at 0 also tests its other end
    halved once more, twice more, ... below its tree, up to ``_CALL_WIDTH`` such
    values in all: the midpoints its bisection visits for as long as the
    predicate agrees with that end.

    A margin's values on a tree of ``_GUESS_DEPTH`` levels or more, of a bracket
    whose ends are positive, give it one guess of its edge (``_guess``).  From
    then on it tests, per call, the midpoints its bisection visits if the
    predicate holds exactly on the holds side of the guess, to its end where that
    fits (up to ``_GUESS_WIDTH`` values in all, at least one each), and follows
    them while the predicate agrees; from the first that disagrees it goes on
    without a guess.  So a guess only chooses which midpoints are tested, never
    a result.
    """
    shape = np.shape(holds)
    holds, fails = np.array(holds, dtype=float).ravel(), np.array(fails, dtype=float).ravel()
    live, left = np.arange(holds.size), np.full(holds.size, _MAX_STEPS)  # steps each may take
    zero = (holds == 0.0) | (fails == 0.0)  # an end at 0 from the start, while it stays there
    guess, tried = np.full(holds.size, np.nan), np.zeros(holds.size, dtype=bool)
    while live.size:
        guessed = ~np.isnan(guess[live])
        steps = (
            _tree(holds, fails, left, zero, guess, tried, live[~guessed]),
            _path(holds, fails, left, guess, live[guessed]),
        )
        out = test(np.concatenate([s[0] for s in steps]), np.concatenate([s[1] for s in steps]))
        at = 0
        for values, _, settle in steps:
            settle(out[at : at + values.size])
            at += values.size
        live = live[left[live] > 0]
    return holds.reshape(shape), fails.reshape(shape)


# (values, elements, settle) of a part of a call with no brackets
_NO_STEPS = (np.empty(0), np.empty(0, dtype=int), lambda out: None)


def _tree(holds, fails, left, zero, guess, tried, rows):
    """(values, elements, settle) of the next levels of the brackets ``rows`` and of
    the halvings toward 0 of those with an end there; settle(out) moves them, and
    guesses the edge of each bracket a margin's values on its tree allow."""
    if not rows.size:
        return _NO_STEPS
    depth = max(1, (_CALL_WIDTH // rows.size + 1).bit_length() - 1)
    # each bracket's bisection tree, level by level: the children of node x on
    # level j are x, where the predicate holds at x's midpoint, and x + 2^j
    h, f, mids = [holds[rows, None]], [fails[rows, None]], []
    for _ in range(depth):
        mids.append(0.5 * (h[-1] + f[-1]))
        h.append(np.concatenate([mids[-1], h[-1]], axis=1))
        f.append(np.concatenate([f[-1], mids[-1]], axis=1))
    h, f, mids = (np.concatenate(x, axis=1) for x in (h, f, mids))  # level j from 2^j - 1
    values, elements = mids.ravel(), np.repeat(rows, mids.shape[1])
    line = rows[zero[rows]]
    reach = min(_CALL_WIDTH // line.size, left[line].max() - depth) if line.size else 0
    if reach > 0:
        # the end not at 0 halved depth, depth + 1, ... times, as the bisection halves it
        end = np.full((line.size, depth + reach + 1), 0.5)
        end[:, 0] = holds[line] + fails[line]
        end = np.multiply.accumulate(end, axis=1)[:, depth:]
        at_zero = holds[line] == 0.0
        values = np.concatenate([values, end[:, 1:].ravel()])
        elements = np.concatenate([elements, np.repeat(line, end.shape[1] - 1)])

    def settle(out):
        ok = out > 0.0
        if out.dtype.kind == "f" and depth >= _GUESS_DEPTH:
            # a guess from a margin on the tree, once per bracket with positive ends
            new = ~tried[rows] & (h[:, 0] > 0.0) & (f[:, 0] > 0.0)
            if new.any():
                margin = out[: mids.size].reshape(mids.shape)[new]
                guess[rows[new]] = _guess(h[new, 0], f[new, 0], margin)
                tried[rows[new]] = True
        # the child each node's bisection step leads to, and each bracket's path through them
        level = np.repeat(np.arange(depth), 1 << np.arange(depth))
        child = np.arange(mids.shape[1]) + ((2 - ok[: mids.size].reshape(mids.shape)) << level)
        at, path = np.arange(rows.size), np.zeros((rows.size, depth + 1), dtype=int)
        for j in range(depth):
            path[:, j + 1] = child[at, path[:, j]]
        at, path = at[:, None], path[:, 1:]
        _settle(holds, fails, left, rows, h[at, path], f[at, path], False)
        if reach > 0:
            # a line goes on where its tree moved only the end not at 0: step k moves that
            # end or the one at 0 to column k, and the first move of the one at 0 ends it
            ok_line = ok[mids.size :].reshape(line.size, -1)
            on = (holds[line] + fails[line] == end[:, 0]) & (left[line] > 0)
            on &= np.where(at_zero, holds[line], fails[line]) == 0.0
            zero[line] = on
            rest, ends, ok_line, down = line[on], end[on], ok_line[on], at_zero[on, None]
            hl = np.where(ok_line, ends[:, 1:], np.where(down, holds[rest, None], ends[:, :-1]))
            fl = np.where(ok_line, np.where(down, ends[:, :-1], fails[rest, None]), ends[:, 1:])
            _settle(holds, fails, left, rest, hl, fl, ok_line == down)
            zero[rest] = np.where(down[:, 0], holds[rest], fails[rest]) == 0.0

    return values, elements, settle


def _guess(holds, fails, margin) -> np.ndarray:
    """Each bracket's guess of its edge from a real margin at the nodes of its tree (a
    row of ``margin`` each, in the columns of ``_tree``), or NaN.

    The nodes split the bracket evenly.  The guess is the root of the degree-11
    polynomial through the margin at the ``_STENCIL`` nodes around its sign change,
    between the last node where it is positive and the next one (or the bracket's
    end): three Newton steps from halfway, kept there.  It is NaN where the
    polynomial misses the margin at the node next to the stencil by more than
    ``_FIT_TOL`` of the margin's largest value on it: a margin not smooth there,
    or too close to rounding, that the predicate would likely not confirm.
    """
    count = margin.shape[1]
    cols, outside, side, first, u_lo, fit = _stencil(count)
    k = (margin > 0.0).sum(axis=1)  # the sign change after node k - 1, where monotone
    cols, outside, side, first, u_lo = cols[k], outside[k], side[k], first[k], u_lo[k]
    rows = np.arange(k.size)
    near = margin[rows[:, None], cols]
    u_hi = u_lo + 2.0 / (_STENCIL - 1)
    u, powers = 0.5 * (u_lo + u_hi), np.ones((k.size, _STENCIL))
    with np.errstate(all="ignore"):  # a flat margin divides by 0, an infinite one gives NaN
        # the polynomial's coefficients of u^0 ... u^11 and of its derivative, the stencil
        # at u = -1 ... 1, and its values at the nodes just before and just after it
        coefs, check = np.split(near @ fit, [2 * _STENCIL], axis=1)
        coefs = coefs.reshape(-1, 2, _STENCIL)
        for _ in range(3):
            powers[:, 1:] = u[:, None]
            p = coefs @ np.multiply.accumulate(powers, axis=1)[:, :, None]
            u = np.minimum(np.maximum(u - p[:, 0, 0] / p[:, 1, 0], u_lo), u_hi)
        miss = np.abs(check[rows, side] - margin[rows, outside])
        smooth = miss <= _FIT_TOL * np.abs(near).max(axis=1)
    node = first + 0.5 * (_STENCIL - 1) * (u + 1.0)
    return np.where(smooth, holds + (fails - holds) * (node + 1.0) / (count + 1), np.nan)


@lru_cache(maxsize=16)  # one entry per tree depth from _GUESS_DEPTH to 10
def _stencil(count: int) -> tuple:
    """For trees of ``count`` nodes, with nodes numbered from the holds end, and for
    each count k = 0 ... count of nodes where the margin is positive: the columns of
    ``_tree`` holding the ``_STENCIL`` nodes around node k, and the one holding the
    node just outside them (before them, unless they start at node 0), which of the
    two that is, the first node of the stencil, and the stencil's u of node k - 1 (or
    the holds end); and the matrix taking a polynomial's values at ``_STENCIL`` even
    steps from u = -1 to 1 to its coefficients of u^0 ... u^11, those of its
    derivative, and its values one step before and one step after."""
    ends, mids = [np.zeros(1), np.ones(1)], []  # the tree of [0, 1], as _tree builds it
    for _ in range(count.bit_length()):
        mids.append(0.5 * (ends[0] + ends[1]))
        ends = [np.concatenate([mids[-1], ends[0]]), np.concatenate([ends[1], mids[-1]])]
    order = np.argsort(np.concatenate(mids))  # node j at (j + 1) / (count + 1)
    k = np.arange(count + 1)
    first = np.clip(k - _STENCIL // 2, 0, count - _STENCIL)
    after = first == 0  # no node before the stencil
    outside = order[np.where(after, first + _STENCIL, first - 1)]
    u_lo = (2.0 * (k - 1 - first) - (_STENCIL - 1)) / (_STENCIL - 1)
    u = np.linspace(-1.0, 1.0, _STENCIL)
    others = [np.delete(u, i) for i in range(_STENCIL)]  # row i: node i's Lagrange polynomial
    basis = np.array([np.poly(x)[::-1] / np.prod(ui - x) for ui, x in zip(u, others)])
    slope = np.zeros_like(basis)
    slope[:, :-1] = basis[:, 1:] * np.arange(1, _STENCIL)
    step = 2.0 / (_STENCIL - 1)
    beyond = np.vander([-1.0 - step, 1.0 + step], _STENCIL, increasing=True)
    tables = (
        order[first[:, None] + np.arange(_STENCIL)], outside, after.astype(int), first, u_lo,
        np.hstack([basis, slope, basis @ beyond.T]),
    )
    for table in tables:  # every caller shares them
        table.setflags(write=False)
    return tables


def _path(holds, fails, left, guess, rows):
    """(values, elements, settle) of the midpoints the bisection of each bracket of
    ``rows`` visits if the predicate holds exactly on the holds side of its guess;
    settle(out) moves each bracket along them up to the first the predicate
    disagrees with, and drops the guess there."""
    if not rows.size:
        return _NO_STEPS
    h, f, g = holds[rows], fails[rows], guess[rows]
    # the steps until the bracket is not wide, at most: ceil(log2(width / (REL_TOL x)))
    # for the smaller end x, as the width halves each step and both ends stay above x
    (m, e), (m_tol, e_tol) = np.frexp(np.abs(f - h)), np.frexp(REL_TOL * np.minimum(h, f))
    need = e - e_tol + (m > m_tol)
    cap = max(1, _GUESS_WIDTH // rows.size)
    count = np.minimum(np.maximum(np.minimum(need, left[rows]), 1), cap)  # steps tested now
    steps = count.max()
    mids, moves = np.empty((steps, rows.size)), np.empty((steps, 2, rows.size), dtype=bool)
    ends = np.empty((steps + 1, 2, rows.size))  # each step's lower and upper end before it
    ends[0] = np.minimum(h, f), np.maximum(h, f)
    for mid, move, before, after in zip(mids, moves, ends, ends[1:]):
        np.multiply(np.add(before[0], before[1], out=mid), 0.5, out=mid)
        # the midpoint moves the lower end where it is below the guess, else the upper
        np.logical_not(np.less(mid, g, out=move[0]), out=move[1])
        np.copyto(after, before)
        np.copyto(after, mid, where=move)
    mids, up, lo, hi = mids.T, moves[:, 0].T, ends[:-1, 0].T, ends[:-1, 1].T
    step = np.arange(mids.shape[1])
    tested = step < count[:, None]

    def settle(out):
        # each step's bracket as the predicate moves it, up to the first step it moves
        # other than the guess (a stray), where the bracket stops, or the last tested,
        # or the first that is not wide (as ``wide`` has it for positive ends)
        below = h < f  # the holds end is the lower one
        moved = np.zeros(mids.shape, dtype=bool)  # whether a step moves the lower end
        moved[tested] = out > 0.0
        moved = moved == below[:, None]
        stray = tested & (moved != up)
        lo_at, hi_at = np.where(moved, mids, lo), np.where(moved, hi, mids)
        narrow = hi_at - lo_at <= REL_TOL * hi_at
        last = (narrow | stray | (step == count[:, None] - 1)).argmax(axis=1)
        at = np.arange(rows.size)
        lo_at, hi_at = lo_at[at, last], hi_at[at, last]
        holds[rows], fails[rows] = np.where(below, lo_at, hi_at), np.where(below, hi_at, lo_at)
        left[rows] = np.where(narrow[at, last], 0, left[rows] - last - 1)
        guess[rows[stray[at, last]]] = np.nan

    return mids[tested], np.repeat(rows, count), settle


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
