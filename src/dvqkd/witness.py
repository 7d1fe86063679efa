"""Nonclassicality and quantum-non-Gaussianity witnesses in the (P_S, P_C) plane.

Both witnesses read off a two-detector autocorrelation measurement: P_S is
the probability that exactly one detector clicks, P_C the probability of a
coincidence.  Classical (coherent-mixture) light satisfies
P_S <= 2 (sqrt(P_C) - P_C); mixtures of Gaussian states satisfy a stricter
bound obtained from an extremal one-parameter family of displaced squeezed
states.  A state is flagged when its coincidence probability falls strictly
below the respective boundary at its single-click probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BoundaryDomainError, ParameterDomainError

_SUM_TOL = 1e-10
_NEG_CLAMP = -1e-12
_EPS_FLOOR = 1e-6  # smallest 1-V in the curve grid; P_S reaches ~5e-7
_NEWTON_STEPS = 8  # at most; from the table's Hermite start one step nearly always converges
_NEWTON_TOL = 1e-8  # a Newton step this small leaves eps within ~1e-16
NG_POINTS = 512  # grid points of the boundary table every witness query brackets in


def _within(value, lo, hi) -> bool:
    """lo <= value <= hi everywhere, False at NaN: plain comparisons for a float, else np.all."""
    if isinstance(value, float):
        return lo <= value <= hi
    return bool(np.all((lo <= value) & (value <= hi)))


@dataclass(frozen=True)
class ClickStats:
    """Autocorrelation outcome probabilities (floats or arrays): one click, coincidence, none."""

    p_single: float
    p_coincidence: float
    p_none: float

    def __post_init__(self) -> None:
        for name in ("p_single", "p_coincidence", "p_none"):
            value = getattr(self, name)
            if not _within(value, _NEG_CLAMP, 1.0 + 1e-12):
                raise ParameterDomainError(f"{name} out of [0, 1]: {value}")
            # rounding noise from cancellation-safe closed forms
            object.__setattr__(self, name, np.maximum(value, 0.0))
        total = self.p_single + self.p_coincidence + self.p_none
        if not _within(total - 1.0, -_SUM_TOL, _SUM_TOL):
            raise ParameterDomainError(f"click probabilities sum to {total}, expected 1")


def nc_boundary(p_single: float) -> float:
    """Largest classical coincidence deficit: the smaller root of the classical bound.

    Only the smaller root of the quadratic in sqrt(P_C) has the correct
    weak-light limit P_C -> P_S^2 / 4; the larger root bounds the bunched
    side of the classical region and is not used here.
    """
    if not _within(p_single, 0.0, 1.0):
        raise ParameterDomainError(f"p_single must be in [0, 1], got {p_single}")
    if not _within(p_single, 0.0, 0.5):
        raise BoundaryDomainError(
            f"classical boundary undefined for p_single > 0.5 (got {p_single})"
        )
    # 0.5 (1 - sqrt(1 - 2 P_S)) without the difference of near-equal terms
    root = p_single / (1.0 + np.sqrt(1.0 - 2.0 * p_single))
    return root * root


def n_of_v(eps):
    """Displacement of the Gaussian family member with squeezing V = 1 - eps (float or array)."""
    # (1 - V^2)(V + 3) / (V (3V + 1)) in the cancellation-free variable eps = 1 - V
    return eps * (2.0 - eps) * (4.0 - eps) / ((1.0 - eps) * (4.0 - 3.0 * eps))


def _libm(fn):
    # libm element by element wherever P_C decides (the table, ng_boundary's final read,
    # is_nongaussian's ties): numpy's vector kernels round the last bit differently on
    # some CPUs, and P_C's cancellation at small eps would show that bit.  P_S does not
    # cancel (<= 3e-16), so the Newton loop on P_S runs on numpy's kernels, and so does
    # is_nongaussian's first P_C read, which only decides outside a margin
    def elementwise(x):
        x = np.asarray(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)

    return elementwise


_log1p, _expm1 = _libm(math.log1p), _libm(math.expm1)


def _family(eps, log1p=_log1p, expm1=_expm1):
    """Cancellation-safe (P_S, P_C, dP_S/deps) of the Gaussian family member at eps = 1 - V.

    The defining pair fixes the two no-click probabilities R1 (one detector
    silent) and R2 (both silent); then P_S = 2 (R1 - R2) and
    P_C = 1 - 2 R1 + R2.  Both R's approach 1 for V -> 1, so the complements
    D = 1 - R = -expm1(a) are computed directly from log/expm1 forms: the
    absolute error then scales with D rather than with 1.  P_C still cancels
    to a relative error of about 1.6e-15 / eps^2.  eps may be an array;
    ``log1p`` and ``expm1`` are libm's, element by element, unless given.
    """
    v = 1.0 - eps
    n = n_of_v(eps)
    # a_k = log R_k: R2 = 2 sqrt(V)/(V+1) e^(-n/(2+2V)), R1 = 4 sqrt(V/((3V+1)(3+V))) e^(-n/(6+2V))
    lead = log1p(-eps)
    a1 = 0.5 * (lead - log1p(-eps + 3.0 * eps * eps / 16.0)) - n / (6.0 + 2.0 * v)
    a2 = 0.5 * lead - log1p(-0.5 * eps) - n / (2.0 + 2.0 * v)
    d1, d2 = -expm1(a1), -expm1(a2)
    # dP_S/deps from D' = -(1 - D) a', where a1' = q / (2 (4 - eps)) and a2' = q / (2 (2 - eps))
    q = (((9.0 * eps - 38.0) * eps + 42.0) * eps + 16.0) * eps - 32.0
    slope = q / (v * (4.0 - 3.0 * eps)) ** 2 * ((1.0 - d1) / (4.0 - eps) - (1.0 - d2) / (2.0 - eps))
    return 2.0 * (d2 - d1), 2.0 * d1 - d2, slope


class NgCurve(NamedTuple):
    """The Gaussian-family boundary table, one array per column."""

    eps: np.ndarray  # increasing; V = 1 - eps decreasing
    p_single: np.ndarray  # increasing along the kept branch
    p_coincidence: np.ndarray
    slope: np.ndarray  # dP_S/deps


@lru_cache(maxsize=4)
def ng_boundary_curve(num_points: int = NG_POINTS) -> NgCurve:
    """The Gaussian-mixture boundary traced over the squeezing parameter, read-only.

    Rows are sorted by rising P_S; family members whose P_S has passed its
    turning point (they bound the bunched side of the Gaussian region, not
    the single-photon side) are discarded.
    """
    if num_points < 16:
        raise ParameterDomainError(f"num_points must be >= 16, got {num_points}")
    # warped grid accumulating near V = 1, where the curve compresses to the origin
    eps_grid = np.geomspace(_EPS_FLOOR, 0.75, num_points)
    ps, pc, slope = _family(eps_grid)
    valid = (ps > 0.0) & (pc > 0.0) & (pc < 1.0)
    eps_grid, ps, pc, slope = eps_grid[valid], ps[valid], pc[valid], slope[valid]
    # keep the monotone lower branch, P_S rising from the V -> 1 end up to its turning
    # point, without the rows whose P_C falls back (rounding noise at the grid floor)
    turn = np.flatnonzero(np.diff(ps) <= 0.0)
    rising = turn[0] + 1 if turn.size else ps.size
    idx = np.flatnonzero(pc[:rising] >= np.maximum.accumulate(pc[:rising]))
    if idx.size < 2:
        raise BoundaryDomainError("degenerate non-Gaussianity boundary curve")
    curve = NgCurve(eps_grid[idx], ps[idx], pc[idx], slope[idx])
    for column in curve:  # every caller shares the cached arrays
        column.setflags(write=False)
    return curve


def _boundary_eps(p_single, i):
    """The family parameter eps = 1 - V at which the boundary reads P_C for P_S in the span.

    The rows i - 1 and i of the precomputed boundary curve bracket eps and
    start it by cubic Hermite interpolation; Newton's method on P_S(eps)
    then inverts to full precision on numpy's kernels, taking a bisection
    step whenever a Newton step would leave the bracket.  Each element stops
    once its own step is below ``_NEWTON_TOL``, and later steps run on the
    elements still going alone, so its result does not depend on the others.
    """
    curve = ng_boundary_curve(NG_POINTS)
    lo, hi = curve.eps[i - 1], curve.eps[i]
    width = curve.p_single[i] - curve.p_single[i - 1]
    t = (p_single - curve.p_single[i - 1]) / width
    u, d_lo, d_hi = 1.0 - t, width / curve.slope[i - 1], width / curve.slope[i]
    start = u * u * ((1.0 + 2.0 * t) * lo + t * d_lo) + t * t * ((3.0 - 2.0 * t) * hi - u * d_hi)
    # x, target, lo, hi: eps, P_S and bracket of the elements still going, at
    # the indices live of eps (None while every element is)
    x, target, lo, hi = (np.ravel(a) for a in (start, p_single, lo, hi))
    live = None
    for _ in range(_NEWTON_STEPS):  # P_S grows with eps on the kept branch
        ps, _, slope = _family(x, np.log1p, np.expm1)
        lo = np.where(ps < target, x, lo)
        hi = np.where(ps > target, x, hi)
        step = x - (ps - target) / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        going = np.logical_not(np.abs(step - x) <= _NEWTON_TOL * x)
        if live is None:
            eps = step
        else:
            eps[live] = step
        if not np.any(going):
            break
        live = np.flatnonzero(going) if live is None else live[going]
        x, target, lo, hi = step[going], target[going], lo[going], hi[going]
    eps = eps.reshape(np.shape(start))
    # eps on a binary grid three to seven times finer than P_C's rounding error: off it,
    # P_C would change its rounding at every last bit of P_S, and the non-Gaussianity
    # test would flicker in mu below P_S ~ 1e-4
    mantissa, exponent = np.frexp(eps)
    bits = 2 * exponent + 51
    return np.ldexp(np.round(np.ldexp(mantissa, bits)), exponent - bits)


def ng_boundary(p_single):
    """Maximal Gaussian-mixture coincidence deficit at the given P_S (a float or an array).

    ``_boundary_eps`` inverts the family's P_S to eps = 1 - V, rounded to
    the precision P_C holds, and P_C is read there on libm.
    """
    curve = ng_boundary_curve(NG_POINTS)
    floor, top = curve.p_single[0], curve.p_single[-1]
    if not _within(p_single, 0.0, 1.0):
        raise ParameterDomainError(f"p_single must be in [0, 1], got {p_single}")
    if not _within(p_single, floor, top):
        raise BoundaryDomainError(
            f"p_single={p_single} outside the tabulated boundary span [{floor:g}, {top:g}]"
        )
    i = np.clip(np.searchsorted(curve.p_single, p_single), 1, curve.eps.size - 1)
    return _family(_boundary_eps(p_single, i))[1][()]


def _tie_margin(eps):
    """Relative distance from a boundary estimate within which only a libm read decides.

    In units of 2^-52 / eps^2: P_C cancels to about 1.6e-15 / eps^2, 7.2
    units, per ulp of difference in the log1p/expm1 values it is read from,
    and rounding eps to its grid moves P_C ~ eps^3 by at most 3 units.  The
    margin is 64 units, plus 1e-13 for the Newton residual and the O(1) terms
    at large eps:

    - against the table bracket, at the bracket's smaller eps: the table's
      libm read, the boundary's libm read and its eps rounding need about
      7.2 + 7.2 + 3 units; the boundary left its bracket by at most 28, at
      the table's own P_S (300,000 log-uniform P_S and every table point);
    - against a read on numpy's kernels: room for about 9 ulps of kernel
      difference from libm, summed over the five reads.  numpy's AVX-512
      kernels are within 1 ulp of libm, and moved P_C by at most 23 units.
    """
    return 64.0 * 2.0**-52 / (eps * eps) + 1e-13


def is_nonclassical(stats: ClickStats):
    """True when no classical intensity mixture reproduces the click statistics.

    For P_S <= 1/2 this is the strict comparison against the boundary, so
    states exactly on it are conservatively not flagged.  No classical
    mixture reaches P_S > 1/2 at all, so brighter single-click statistics
    are flagged outright instead of raising the boundary's domain error.
    """
    ps = stats.p_single
    return (ps > 0.5) | (stats.p_coincidence < nc_boundary(np.minimum(ps, 0.5)))


def is_nongaussian(stats: ClickStats):
    """True when no Gaussian mixture reproduces the click statistics.

    Above the largest single-click probability attainable by the Gaussian
    family the achievable region is empty and every state is flagged; at or
    below the tabulated floor the light is indistinguishable from vacuum and
    never flagged; in between the strict comparison P_C < ng_boundary(P_S)
    decides.  The result is that comparison's bit for bit, but the costly
    reads run only where they can change it:

    1. the table: P_C below its bracket's lower table value, or at or above
       the upper one, each widened by ``_tie_margin``, decides alone;
    2. the rest take ``_boundary_eps`` and a P_C read on numpy's kernels,
       which decides outside the same margin around it;
    3. the ties left read P_C on libm, one value at a time, as ng_boundary.
    """
    curve = ng_boundary_curve(NG_POINTS)
    floor, top = curve.p_single[0], curve.p_single[-1]
    if not _within(stats.p_single, -np.inf, np.inf):  # NaN, which ng_boundary rejects
        raise ParameterDomainError(
            f"p_single must be in [0, 1], got {np.clip(stats.p_single, floor, top)}"
        )
    ps, pc = np.broadcast_arrays(stats.p_single, stats.p_coincidence)
    shape, ps, pc = ps.shape, ps.ravel(), pc.ravel()
    flag = ps > top
    (inside,) = np.nonzero((floor < ps) & (ps <= top))
    ps, pc = ps[inside], pc[inside]
    i = np.searchsorted(curve.p_single, ps)  # 1 <= i < size: floor < ps <= top
    margin = _tie_margin(curve.eps[i - 1])
    below = pc < curve.p_coincidence[i - 1] * (1.0 - margin)
    (near,) = np.nonzero(~below & (pc < curve.p_coincidence[i] * (1.0 + margin)))
    if near.size:
        eps, pc_near = _boundary_eps(ps[near], i[near]), pc[near]
        estimate = _family(eps, np.log1p, np.expm1)[1]
        margin = _tie_margin(eps)
        below_near = pc_near < estimate * (1.0 - margin)
        (tie,) = np.nonzero(~below_near & (pc_near < estimate * (1.0 + margin)))
        if tie.size:
            below_near[tie] = pc_near[tie] < _family(eps[tie])[1]
        below[near] = below_near
    flag[inside] = below
    return flag.reshape(shape)[()]


def combine(a: tuple, b: tuple, weight: float = 0.5) -> tuple[float, float, float]:
    """Outcome triple (none, single, both) of two independent light components.

    ``weight`` is the chance that two singles make a "both": 1/2 for the two
    detectors of the 50:50 setup, 1 for arrival counts (0, 1, >= 2).  No
    term is a difference, so small outcomes keep their relative precision.
    """
    n1, s1, c1 = a
    n2, s2, c2 = b
    cross = s1 * s2
    return (
        n1 * n2,
        s1 * n2 + n1 * s2 + (1.0 - weight) * cross,
        c1 + c2 - c1 * c2 + weight * cross,
    )
