"""Bracketed bisection of predicate edges, and the ladder search built on it.

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
never moves a result.  ``ladder_search`` climbs a ladder of values to each
point's first failing rung and bisects from there; a guess of each edge from
elsewhere puts that path in its first call.  Up to ``_FEW`` guessed paths are
built and walked on Python floats: the same additions, halvings and
comparisons as the numpy bookkeeping of more, without numpy's fixed cost per
call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

REL_TOL = 1e-6  # relative bracket width of bisect_predicate
_MAX_STEPS = 200  # stops a bracket that cannot shrink relatively (an end at 0)
_CALL_WIDTH = 1024  # predicate elements per call, unless more brackets are live
_GUESS_WIDTH = 4096  # ladder rungs or guessed-path values per call, unless more points take them
_GUESS_DEPTH = 4  # tree levels, so 15 nodes, of a margin that give a bracket its guess
_STENCIL = 12  # nodes of the polynomial whose root is the guess
_FIT_TOL = 1e-6  # largest miss of that polynomial next to its nodes, relative to the margin
# guessed paths up to which _path builds and walks them on Python floats: floats cost
# per path and numpy per call, and they cross at about 8 paths
_FEW = 4


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
    it would in a bisection of its own.  Each call tests the next d =
    ``floor(log2(_CALL_WIDTH // unguessed + 1))`` levels (at least one) of every
    live bracket without a guess: all midpoints its bisection could reach, the
    2^d - 1 inner points of a grid of 2^d + 1 from its holds end to its fails
    end, each the midpoint of the two grid points that bracket it on its level.
    The bracket then walks its own path through them.  A bracket with one end at
    0 also tests its other end halved once more, twice more, ... below its tree,
    up to ``_CALL_WIDTH`` such values in all: the midpoints its bisection visits
    for as long as the predicate agrees with that end.

    A margin's values on a tree of ``_GUESS_DEPTH`` levels or more, of a bracket
    whose ends are positive, give it one guess of its edge (``_guess``).  From
    then on it tests, per call, the midpoints its bisection visits if the
    predicate holds exactly on the holds side of the guess, to its end where that
    fits (up to ``_GUESS_WIDTH`` values in all, at least one each), and follows
    them while the predicate agrees; from the first that disagrees it goes on
    without a guess.  So a guess only chooses which midpoints are tested, never
    a result.
    """
    shape, size = np.shape(holds), np.size(holds)
    holds, fails = np.array(holds, dtype=float).ravel(), np.array(fails, dtype=float).ravel()
    _bisect(test, holds, fails, np.full(size, _MAX_STEPS), np.full(size, np.nan), np.arange(size))
    return holds.reshape(shape), fails.reshape(shape)


def ladder_search(test: Callable, ladder: np.ndarray, count: int, guess=None) -> tuple:
    """(first, holds, fails) of ``count`` points climbing ``ladder``, a monotone array
    of values: each point's first rung where the predicate fails (``ladder.size`` if
    none), and its final bracket, which ``bisect_predicate`` ends from the rungs
    ``first - 1`` and ``first`` where they are ``wide``; where first is 0 or
    ``ladder.size``, the first or the last rung at both ends.  ``test(x, i)`` tells,
    as there, whether the predicate holds at values x of points i.

    The predicate is taken to fail on every rung after the first that fails.  The
    points still climbing stand on one rung, and each call tests the next
    ``_GUESS_WIDTH // climbing`` rungs of each (at least one).  Given a ``guess`` of
    each point's edge, the first call also tests the ``_path`` of the wide bracket
    of rungs around it.  Where the climb confirms that bracket, the bisection goes
    on from the path's last confirmed step: unguessed after a step the predicate
    disagreed with, still guessed where the width cut the path short.  So a guess
    only chooses which values are tested, never a result.
    """
    first, holds, fails, left, guessed = _climb(test, ladder, count, guess)
    _bisect(test, holds, fails, left, guessed, (left > 0).nonzero()[0])
    return first, holds, fails


def _climb(test, ladder, count, guess) -> tuple:
    """The climb of ``ladder_search``, with the guessed paths in its first call:
    (first, holds, fails, left, guessed), the brackets the bisection goes on from."""
    size, k, path = ladder.size, -1, _NO_STEPS  # k: the rung after each guess
    holds, fails, left = np.empty(count), np.empty(count), np.zeros(count, dtype=int)
    guessed = np.full(count, np.nan)
    if guess is not None:  # each point starts from the bracket of rungs around its guess
        up = ladder[0] < ladder[-1]  # the rungs on the holds side of it, as _path splits there
        k = ladder.searchsorted(guess) if up else size - ladder[::-1].searchsorted(guess)
        holds, fails, left = _rungs(ladder, k)
        on = left > 0
        guessed[on] = guess[on]
        path = _path(holds, fails, left, guessed, on.nonzero()[0])
    first, which, rung = np.full(count, size), np.arange(count), 0  # which: still climbing
    while which.size and rung < size:
        rungs = ladder[rung : rung + max(1, _GUESS_WIDTH // which.size)]
        values, elements, settle = path
        path = _NO_STEPS  # the paths ride in the first call only
        x = np.concatenate([np.tile(rungs, which.size), values])
        out = test(x, np.concatenate([which.repeat(rungs.size), elements]))
        ok = (out[: which.size * rungs.size] > 0.0).reshape(which.size, rungs.size)
        settle(out[ok.size :])
        stop = ~ok.all(axis=1)
        first[which[stop]] = rung + ok[stop].argmin(axis=1)
        which, rung = which[~stop], rung + rungs.size
    fresh = (first != k).nonzero()[0]  # every other point goes on from its climb's bracket
    if fresh.size:
        holds[fresh], fails[fresh], left[fresh] = _rungs(ladder, first[fresh])
        guessed[fresh] = np.nan
    return first, holds, fails, left, guessed


def _rungs(ladder, k) -> tuple:
    """(holds, fails, left) of the brackets of rungs ``k - 1`` and ``k``: the first or
    the last rung at both ends where k is 0 or ``ladder.size``; ``_MAX_STEPS`` steps
    left where ``wide``, else none."""
    holds, fails = ladder[np.maximum(k - 1, 0)], ladder[np.minimum(k, ladder.size - 1)]
    return holds, fails, _MAX_STEPS * wide(holds, fails)


def _wide_float(holds: float, fails: float) -> bool:
    """``wide`` of one bracket of Python floats."""
    return abs(fails - holds) > REL_TOL * max(abs(holds), abs(fails))


def _bisect(test, holds, fails, left, guess, live) -> None:
    """Moves the brackets ``live`` in place as ``bisect_predicate`` does, each with
    ``left`` steps to take and its ``guess`` or NaN."""
    tried = np.zeros(holds.size, dtype=bool)
    while live.size:
        guessed = ~np.isnan(guess[live])
        steps = (
            _tree(holds, fails, left, guess, tried, live[~guessed]),
            _path(holds, fails, left, guess, live[guessed]),
        )
        out = test(np.concatenate([s[0] for s in steps]), np.concatenate([s[1] for s in steps]))
        at = 0
        for values, _, settle in steps:
            settle(out[at : at + values.size])
            at += values.size
        live = live[left[live] > 0]


# (values, elements, settle) of a part of a call with no brackets
_NO_STEPS = (np.empty(0), np.empty(0, dtype=int), lambda out: None)


def _tree(holds, fails, left, guess, tried, rows):
    """(values, elements, settle) of the next levels of the brackets ``rows`` and of
    the halvings toward 0 of those with an end there; settle(out) moves them, and
    guesses the edge of each bracket a margin's values on its tree allow."""
    if not rows.size:
        return _NO_STEPS
    depth = max(1, (_CALL_WIDTH // rows.size + 1).bit_length() - 1)
    n, at = 1 << depth, np.arange(rows.size)
    # each bracket's tree on a grid from its holds end (0) to its fails end (n): node p
    # of level j, with s = 2^(depth - 1 - j), is the midpoint of its bracket [p - s, p + s],
    # and the predicate holding at p leads on to node p + s/2, failing to p - s/2
    steps = n >> np.arange(1, depth + 1)
    grid = np.empty((rows.size, n + 1))
    grid[:, 0], grid[:, n] = holds[rows], fails[rows]
    for s in steps.tolist():
        grid[:, s :: 2 * s] = 0.5 * (grid[:, : -s : 2 * s] + grid[:, 2 * s :: 2 * s])
    values, elements = grid[:, 1:-1].ravel(), np.repeat(rows, n - 1)
    zeros = ((grid[:, 0] == 0.0) | (grid[:, n] == 0.0)).nonzero()[0]  # brackets with an end at 0
    line, at_zero, nodes = rows[zeros], grid[zeros, 0] == 0.0, values.size
    reach = min(_CALL_WIDTH // line.size, left[line].max() - depth) if line.size else 0
    if reach > 0:
        # the end not at 0 halved depth, depth + 1, ... times, as the bisection halves it
        end = np.full((line.size, reach + 1), 0.5)
        end[:, 0] = np.where(at_zero, grid[zeros, 1], grid[zeros, n - 1])
        end = np.multiply.accumulate(end, axis=1)
        values = np.concatenate([values, end[:, 1:].ravel()])
        elements = np.concatenate([elements, np.repeat(line, reach)])

    def settle(out):
        if out.dtype.kind == "f" and depth >= _GUESS_DEPTH:
            # a guess from a margin on the tree, once per bracket with positive ends
            new = ~tried[rows] & (grid[:, 0] > 0.0) & (grid[:, n] > 0.0)
            if new.any():
                margin = out[:nodes].reshape(rows.size, n - 1)[new]
                guess[rows[new]] = _guess(grid[new, 0], grid[new, n], margin)
                tried[rows[new]] = True
        # each bracket's walk down its tree: level j tests node lo + s of its bracket
        # [lo, lo + 2s], moving lo there where the predicate holds, so lo at level j is
        # the last lo less its bits below s; the walk keeps lo + start, node lo's index in ok
        ok, start = out > 0.0, at * (n - 1) - 1
        lo = start
        for s in steps.tolist():
            node = lo + s
            lo = np.where(ok[node], node, lo)
        lo = lo - start
        level = (lo[:, None] & -steps) + (at * (n + 1))[:, None]  # in the flat grid
        _settle(holds, fails, left, rows, grid.ravel()[level], grid.ravel()[level + steps], False)
        if reach > 0:
            # a line goes on where its walk moved only the end not at 0 (lo stayed at 0,
            # or the last bracket reaches n): step k moves that end or the one at 0 to
            # column k, and the first move of the one at 0 ends it
            on = np.where(at_zero, lo[zeros] == 0, lo[zeros] == n - 1) & (left[line] > 0)
            ok_line = ok[nodes:].reshape(line.size, -1)[on]
            rest, ends, down = line[on], end[on], at_zero[on, None]
            hl = np.where(ok_line, ends[:, 1:], np.where(down, holds[rest, None], ends[:, :-1]))
            fl = np.where(ok_line, np.where(down, ends[:, :-1], fails[rest, None]), ends[:, 1:])
            _settle(holds, fails, left, rest, hl, fl, ok_line == down)

    return values, elements, settle


def _guess(holds, fails, margin) -> np.ndarray:
    """Each bracket's guess of its edge from a real margin at the nodes of its tree (a
    row of ``margin`` each, in grid order from the holds end), or NaN.

    The nodes split the bracket evenly.  The guess is the root of the degree-11
    polynomial through the margin at the ``_STENCIL`` nodes around its sign change,
    between the last node where it is positive and the next one (or the bracket's
    end): three Newton steps from halfway, kept there.  It is NaN where the
    polynomial misses the margin at the node next to the stencil by more than
    ``_FIT_TOL`` of the margin's largest value on it: a margin not smooth there,
    or too close to rounding, that the predicate would likely not confirm.
    """
    count, rows = margin.shape[1], np.arange(margin.shape[0])
    k = (margin > 0.0).sum(axis=1)  # the sign change after node k - 1, where monotone
    first = np.minimum(np.maximum(k - _STENCIL // 2, 0), count - _STENCIL)  # the stencil's start
    after = first == 0  # the node next to the stencil is after it, none being before
    near = margin[rows[:, None], first[:, None] + np.arange(_STENCIL)]
    u_lo = (2.0 * (k - 1 - first) - (_STENCIL - 1)) / (_STENCIL - 1)  # u of node k - 1
    u_hi = u_lo + 2.0 / (_STENCIL - 1)
    u, powers = 0.5 * (u_lo + u_hi), np.ones((k.size, _STENCIL))
    with np.errstate(all="ignore"):  # a flat margin divides by 0, an infinite one gives NaN
        # the polynomial's coefficients of u^0 ... u^11 and of its derivative, the stencil
        # at u = -1 ... 1, and its values at the nodes just before and just after it
        coefs, check = np.split(near @ _FIT, [2 * _STENCIL], axis=1)
        coefs = coefs.reshape(-1, 2, _STENCIL)
        for _ in range(3):
            powers[:, 1:] = u[:, None]
            p = coefs @ np.multiply.accumulate(powers, axis=1)[:, :, None]
            u = np.minimum(np.maximum(u - p[:, 0, 0] / p[:, 1, 0], u_lo), u_hi)
        outside = margin[rows, np.where(after, first + _STENCIL, first - 1)]
        miss = np.abs(check[rows, after.astype(int)] - outside)
        smooth = miss <= _FIT_TOL * np.abs(near).max(axis=1)
    node = first + 0.5 * (_STENCIL - 1) * (u + 1.0)
    return np.where(smooth, holds + (fails - holds) * (node + 1.0) / (count + 1), np.nan)


def _fit() -> np.ndarray:
    """The matrix taking a polynomial's values at ``_STENCIL`` even steps from u = -1 to
    1 to its coefficients of u^0 ... u^11, those of its derivative, and its values one
    step before and one step after."""
    u = np.linspace(-1.0, 1.0, _STENCIL)
    others = [np.delete(u, i) for i in range(_STENCIL)]  # row i: node i's Lagrange polynomial
    basis = np.array([np.poly(x)[::-1] / np.prod(ui - x) for ui, x in zip(u, others)])
    slope = np.hstack([basis[:, 1:] * np.arange(1, _STENCIL), np.zeros((_STENCIL, 1))])
    step = 2.0 / (_STENCIL - 1)
    beyond = np.vander([-1.0 - step, 1.0 + step], _STENCIL, increasing=True)
    return np.hstack([basis, slope, basis @ beyond.T])


_FIT = _fit()


def _path(holds, fails, left, guess, rows):
    """(values, elements, settle) of the midpoints the bisection of each bracket of
    ``rows`` visits if the predicate holds exactly on the holds side of its guess;
    settle(out) moves each bracket along them up to the first the predicate
    disagrees with, and drops the guess there.  Up to ``_FEW`` brackets take
    ``_few_path``."""
    if not rows.size:
        return _NO_STEPS
    if rows.size <= _FEW:
        return _few_path(holds, fails, left, guess, rows)
    h, f, g = holds[rows], fails[rows], guess[rows]
    # the steps until the bracket is not wide, at most: ceil(log2(width / (REL_TOL g)))
    # for the guess g, as the width halves each step and the upper end stays above g
    # (for a guess in the bracket; a path cut short goes on in the next call)
    (m, e), (m_tol, e_tol) = np.frexp(np.abs(f - h)), np.frexp(REL_TOL * g)
    need = e - e_tol + (m > m_tol)
    cap = max(1, _GUESS_WIDTH // rows.size)
    count = np.minimum(np.maximum(np.minimum(need, left[rows]), 1), cap)  # steps tested now
    steps = count.max()
    mids, moves = np.empty((steps, rows.size)), np.empty((steps, 2, rows.size), dtype=bool)
    ends = np.empty((steps + 1, 2, rows.size))  # each step's lower and upper end before it
    np.minimum(h, f, out=ends[0, 0])
    np.maximum(h, f, out=ends[0, 1])
    for mid, move, before, after in zip(mids, moves, ends, ends[1:]):
        np.multiply(np.add(before[0], before[1], out=mid), 0.5, out=mid)
        # the midpoint moves the lower end where it is below the guess, else the upper
        np.logical_not(np.less(mid, g, out=move[0]), out=move[1])
        after[...] = before
        np.putmask(after, move, mid)  # mid repeats over both ends
    mids, up, lo, hi = mids.T, moves[:, 0].T, ends[:-1, 0].T, ends[:-1, 1].T
    step = np.arange(mids.shape[1])
    tested = step < count[:, None]

    def settle(out):
        # each step's bracket as the predicate moves it, up to the first step it moves
        # other than the guess (a stray), where the bracket stops, or the last tested
        below = (h < f)[:, None]  # the holds end is the lower one
        moved = np.zeros(mids.shape, dtype=bool)  # whether a step moves the lower end
        moved[tested] = out > 0.0
        moved = moved == below
        stray = tested & (moved != up)
        lo_at, hi_at = np.where(moved, mids, lo), np.where(moved, hi, mids)
        h_at, f_at = np.where(below, lo_at, hi_at), np.where(below, hi_at, lo_at)
        last = _settle(holds, fails, left, rows, h_at, f_at, stray | (step == count[:, None] - 1))
        guess[rows[stray[np.arange(rows.size), last]]] = np.nan

    return mids[tested], rows.repeat(count), settle


def _few_path(holds, fails, left, guess, rows):
    """``_path`` on Python floats, for a few brackets: the same additions, halvings and
    comparisons, step by step along each bracket's path."""
    cap, rows = max(1, _GUESS_WIDTH // rows.size), rows.tolist()
    values, paths = [], []  # paths: (row, holds, fails, guess, steps tested) of each
    for r in rows:
        h, f, g = float(holds[r]), float(fails[r]), float(guess[r])
        (m, e), (m_tol, e_tol) = math.frexp(abs(f - h)), math.frexp(REL_TOL * g)
        count = min(max(min(e - e_tol + (m > m_tol), int(left[r])), 1), cap)
        paths.append((r, h, f, g, count))
        lo, hi = (h, f) if h < f else (f, h)
        for _ in range(count):
            mid = (lo + hi) * 0.5
            values.append(mid)
            lo, hi = (mid, hi) if mid < g else (lo, mid)

    def settle(out):
        out, at = out.tolist(), 0
        for r, h, f, g, count in paths:
            below = h < f
            lo, hi = (h, f) if below else (f, h)
            for step, ok in enumerate(out[at : at + count]):
                mid = (lo + hi) * 0.5
                moved = (ok > 0.0) == below  # the lower end moves
                stray = moved != (mid < g)
                lo, hi = (mid, hi) if moved else (lo, mid)
                h, f = (lo, hi) if below else (hi, lo)
                narrow = not _wide_float(h, f)
                if narrow or stray:
                    break
            holds[r], fails[r] = h, f
            left[r] = 0 if narrow else left[r] - step - 1
            if stray:
                guess[r] = math.nan
            at += count

    return np.array(values), np.repeat(rows, [path[-1] for path in paths]), settle


def _settle(holds, fails, left, rows, h, f, stop) -> np.ndarray:
    """Moves each bracket of ``rows`` to its last level in (h, f): its first level that
    is not ``wide`` or that ``stop`` marks, or its last step, or the last column; and
    returns the column of that level."""
    narrow = ~wide(h, f)
    stop = narrow | stop
    last = np.where(stop.any(axis=1), stop.argmax(axis=1), h.shape[1] - 1)
    last = np.minimum(last, left[rows] - 1)
    at = np.arange(rows.size)
    holds[rows], fails[rows] = h[at, last], f[at, last]
    left[rows] = np.where(narrow[at, last], 0, left[rows] - last - 1)
    return last
