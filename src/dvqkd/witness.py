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
NG_POINTS = 512  # grid points of the boundary table; above the series cut it brackets each query
_SERIES_CUT = 0.04  # largest P_S read from the series; eps = 1 - V is ~0.072 there
# c_3 ... c_30 of P_C = P_S^3 (c_3 + c_4 P_S + ...) on the boundary: the family's Taylor
# series in eps, reverted to one in P_S at 60 digits (alternating, radius about 0.14)
_SERIES = (
    0.5, -1.1041666666666667, 5.34375, -24.034027777777776,
    123.49791666666667, -663.489505828373, 3738.3333214492395, -21778.98989831349,
    130449.25085849661, -799116.9039613198, 4988274.030809034, -31637628.02186024,
    203417773.7404116, -1323478302.5828888, 8700554873.215836, -57723292839.96587,
    386090279957.26135, -2601292532189.084, 17641541167475.645, -120353928076230.86,
    825518224589118.9, -5690263396732306.0, 3.940028919315884e+16, -2.7394988884408627e+17,
    1.9120925788478943e+18, -1.3393359821724223e+19, 9.41245556519099e+19, -6.635145325248747e+20,
)


def _within(value, lo, hi) -> bool:
    """lo <= value <= hi everywhere, False at NaN: plain comparisons for a float, else
    one min and one max pass, through which NaN propagates (an empty array passes)."""
    if isinstance(value, float):
        return lo <= value <= hi
    value = np.asarray(value, dtype=float)
    return value.size == 0 or bool(
        lo <= np.minimum.reduce(value, axis=None) and np.maximum.reduce(value, axis=None) <= hi
    )


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
    # libm element by element for the ng-curve table: numpy's vector kernels round the
    # last bit differently on some CPUs, and the table's P_C, which cancels at small
    # eps, would show that bit
    def elementwise(x):
        x = np.asarray(x)
        return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)

    return elementwise


def _family(eps, log1p=np.log1p, expm1=np.expm1):
    """Cancellation-safe (P_S, P_C, dP_S/deps) of the Gaussian family member at eps = 1 - V.

    The defining pair fixes the two no-click probabilities R1 (one detector
    silent) and R2 (both silent); then P_S = 2 (R1 - R2) and
    P_C = 1 - 2 R1 + R2.  Both R's approach 1 for V -> 1, so the complements
    D = 1 - R = -expm1(a) are computed directly from log/expm1 forms: the
    absolute error then scales with D rather than with 1.  P_C still cancels
    to a relative error of about 1.6e-15 / eps^2.  eps may be an array;
    ``log1p`` and ``expm1`` are numpy's unless given.
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
    ps, pc, slope = _family(eps_grid, _libm(math.log1p), _libm(math.expm1))
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
    """The family parameter eps = 1 - V at which the boundary reads P_C, for P_S in the span.

    The rows i - 1 and i of the precomputed boundary curve bracket eps and
    start it by cubic Hermite interpolation; Newton's method on P_S(eps)
    then inverts to full precision, taking a bisection step whenever a
    Newton step would leave the bracket.  Each element stops once its own
    step is below ``_NEWTON_TOL``, and later steps run on the elements still
    going alone, so its result does not depend on the others.  p_single and
    i are 1-d.
    """
    curve = ng_boundary_curve(NG_POINTS)
    lo, hi = curve.eps[i - 1], curve.eps[i]
    width = curve.p_single[i] - curve.p_single[i - 1]
    t = (p_single - curve.p_single[i - 1]) / width
    u, d_lo, d_hi = 1.0 - t, width / curve.slope[i - 1], width / curve.slope[i]
    x = u * u * ((1.0 + 2.0 * t) * lo + t * d_lo) + t * t * ((3.0 - 2.0 * t) * hi - u * d_hi)
    # x, target, lo, hi: eps, P_S and bracket of the elements still going, at
    # the indices live of eps (None while every element is)
    target, live = p_single, None
    for _ in range(_NEWTON_STEPS):  # P_S grows with eps on the kept branch
        ps, _, slope = _family(x)
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
    return eps


def _boundary(p_single):
    """ng_boundary without its checks, for P_S in [0, top] (a float or an array).

    Up to ``_SERIES_CUT`` the series in P_S, by Horner's rule (multiply and
    add only, so the bits do not depend on the CPU); above it
    ``_boundary_eps`` and the family's P_C, whose cancellation stays below
    about 5e-13 relative there.
    """
    ps = np.asarray(p_single, dtype=float)
    flat = ps.ravel()
    acc = np.full_like(flat, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        acc *= flat
        acc += c
    pc = flat * flat * flat * acc
    (high,) = np.nonzero(flat > _SERIES_CUT)
    if high.size:
        curve = ng_boundary_curve(NG_POINTS)
        x = flat[high]
        i = np.clip(np.searchsorted(curve.p_single, x), 1, curve.eps.size - 1)
        pc[high] = _family(_boundary_eps(x, i))[1]
    return pc.reshape(ps.shape)[()]


def ng_boundary(p_single):
    """Maximal Gaussian-mixture coincidence deficit at the given P_S (a float or an array).

    Defined from P_S = 0 up to the largest P_S of the family's kept branch.
    """
    top = ng_boundary_curve(NG_POINTS).p_single[-1]
    if not _within(p_single, 0.0, 1.0):
        raise ParameterDomainError(f"p_single must be in [0, 1], got {p_single}")
    if not _within(p_single, 0.0, top):
        raise BoundaryDomainError(
            f"p_single={p_single} above the Gaussian family's largest P_S {top:g}"
        )
    return _boundary(p_single)


def nonclassical_margin(stats: ClickStats):
    """nc_boundary(P_S) - P_C: positive exactly where ``is_nonclassical`` flags.

    No classical mixture reaches P_S > 1/2 at all, so there the margin is 1
    (any positive value would do) instead of raising the boundary's domain
    error.  A margin continuous across P_S = 1/2 would differ from the
    boundary's on the failing side near it, and guess worse there.
    """
    ps = stats.p_single
    margin = nc_boundary(np.minimum(ps, 0.5)) - stats.p_coincidence
    return np.where(ps > 0.5, 1.0, margin)[()]


def is_nonclassical(stats: ClickStats):
    """True when no classical intensity mixture reproduces the click statistics.

    For P_S <= 1/2 this is the strict comparison P_C < nc_boundary(P_S), so
    states exactly on the boundary are conservatively not flagged; brighter
    single-click statistics are flagged outright.
    """
    return nonclassical_margin(stats) > 0.0


def nongaussian_margin(stats: ClickStats):
    """ng_boundary(P_S) - P_C: positive exactly where ``is_nongaussian`` flags.

    Above the largest single-click probability attainable by the Gaussian
    family the achievable region is empty and the margin is 1.
    """
    ps = stats.p_single
    if not _within(ps, -np.inf, np.inf):  # NaN, which ng_boundary rejects
        raise ParameterDomainError(f"p_single must be in [0, 1], got {ps}")
    top = ng_boundary_curve(NG_POINTS).p_single[-1]
    margin = _boundary(np.clip(ps, 0.0, top)) - stats.p_coincidence
    return np.where(ps > top, 1.0, margin)[()]


def is_nongaussian(stats: ClickStats):
    """True when no Gaussian mixture reproduces the click statistics: the strict
    comparison P_C < ng_boundary(P_S), elementwise, and every P_S above the
    family's largest."""
    return nongaussian_margin(stats) > 0.0


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
