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
NG_POINTS = 512  # grid points of the boundary table, whose last row ends the boundary's domain
_TURN = 0.5957263916197046  # P_S where the family turns, dP_S/deps = 0, at eps = 0.64450871885521
# The boundary in pieces split at _EDGES: P_C / P_S^3 as a polynomial in P_S up to 0.4,
# above it P_C as one in s = sqrt(_TURN - P_S), as the square-root branch point at the
# turn stops every polynomial in P_S. Per piece, the interval of its variable (in s a
# little wider than what it serves: 0.0135 is below s at the domain's top) and c_0 ...
# c_16 of its polynomial in t in [-1, 1] across it: the family interpolated at 60 digits
# on the Chebyshev nodes of t
_EDGES = np.array([0.08, 0.2, 0.3, 0.4, 0.5557])
_NEAR = 4  # the first piece in s
_PIECES = (
    ((0.0, 0.08), (
        0.4631058000142278, -0.030684029579820533, 0.00532592323784984, -0.0007366912966869056,
        0.00012252167601647376, -2.0577490764569618e-05, 3.6428359020291092e-06, -6.615025535162094e-07,
        1.2329219326084036e-07, -2.343361004511713e-08, 4.5306409524172905e-09, -8.891027907768875e-10,
        1.7655932010355658e-10, -3.487879998142215e-11, 7.0645044000465816e-12, -1.7644886494246708e-12,
        3.6415211261083223e-13,
    )),
    ((0.08, 0.2), (
        0.4115618113222399, -0.01924845494778284, 0.005580459083350475, -0.0005816563497664156,
        0.000121982792663509, -1.7600526024587936e-05, 3.372656523586064e-06, -5.640698560873016e-07,
        1.062222487638292e-07, -1.9109580946571464e-08, 3.6219122423323855e-09, -6.785613211534979e-10,
        1.3029022030525453e-10, -2.468654979538382e-11, 4.802670975368552e-12, -1.1246505296190126e-12,
        2.2192377748158264e-13,
    )),
    ((0.2, 0.3), (
        0.39255789070318825, -0.0019389768216686914, 0.0028907551611451004, -1.882019549977698e-06,
        2.9854269608971466e-05, 2.795881239598564e-07, 3.6396346797774444e-07, 8.03791734637023e-09,
        4.921522129257426e-09, 1.763286656308883e-10, 7.158836986083136e-11, 3.547699140760485e-12,
        1.1002460009139653e-12, 6.866728532403614e-14, 1.7613879055676524e-14, 1.4271847400259744e-15,
        3.1547846257571934e-16,
    )),
    ((0.3, 0.4), (
        0.4007402753860403, 0.010658530881032644, 0.003721735587668967, 0.00032204932004206667,
        6.42630584854271e-05, 8.724964655359791e-06, 1.5399190187383269e-06, 2.4772397763328823e-07,
        4.333841658170066e-08, 7.470960673720047e-09, 1.3281207293743953e-09, 2.3700225910678075e-10,
        4.2890999909523575e-11, 7.732533133894292e-12, 1.4202037641218763e-12, 3.080089288776945e-13,
        5.734884072271558e-14,
    )),
    ((0.2, 0.4425), (
        0.056905698822580245, -0.03676225784675932, 0.006568866783483548, -0.00012508713823618242,
        -1.0175245305281015e-05, -1.5782307219025317e-06, -2.1415874576527133e-07, -3.475746226774703e-08,
        -5.644173351101569e-09, -9.745644805772797e-10, -1.7168715576594197e-10, -3.114997585530226e-11,
        -5.752812421623985e-12, -1.068018239174567e-12, -2.0349812981127843e-13, -4.698618195025813e-14,
        -9.195871679604549e-15,
    )),
    ((0.0135, 0.2001), (
        0.14308879658650095, -0.04694451144513329, 0.0042078900864207834, -3.961125950511028e-05,
        -7.04257973210146e-07, -1.5480741442394604e-07, -6.006314522904046e-09, -9.5666555377752e-10,
        -5.68597841705094e-11, -7.55499571205285e-12, -5.70104390289392e-13, -5.994312078809037e-14,
        -1.4405099065347992e-14, -8.46761825488543e-15, 6.712538662957555e-15, 2.63231326159056e-15,
        -2.3074823466194977e-15,
    )),
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


def _require(value, lo, hi, message: str, error: type = ParameterDomainError) -> None:
    """Raises error(message) unless ``_within(value, lo, hi)``, with the value for its {}:
    a scalar as it is, an array as its first element outside [lo, hi] and a count."""
    if not _within(value, lo, hi):
        if np.ndim(value):
            flat = np.asarray(value, dtype=float).ravel()
            bad = np.flatnonzero(~((lo <= flat) & (flat <= hi)))  # NaN included
            value = f"{float(flat[bad[0]])} at element {bad[0]} ({bad.size} of {flat.size} outside)"
        raise error(message.format(value))


@dataclass(frozen=True)
class ClickStats:
    """Autocorrelation outcome probabilities (floats or arrays): one click, coincidence, none."""

    p_single: float
    p_coincidence: float
    p_none: float

    def __post_init__(self) -> None:
        for name in ("p_single", "p_coincidence", "p_none"):
            value = getattr(self, name)
            _require(value, _NEG_CLAMP, 1.0 + 1e-12, name + " out of [0, 1]: {}")
            # rounding noise from cancellation-safe closed forms
            object.__setattr__(self, name, np.maximum(value, 0.0))
        total = self.p_single + self.p_coincidence + self.p_none
        _require(total - 1.0, -_SUM_TOL, _SUM_TOL, "click probabilities must sum to 1, off by {}")


def nc_boundary(p_single: float) -> float:
    """Largest classical coincidence deficit: the smaller root of the classical bound.

    Only the smaller root of the quadratic in sqrt(P_C) has the correct
    weak-light limit P_C -> P_S^2 / 4; the larger root bounds the bunched
    side of the classical region and is not used here.
    """
    _require(p_single, 0.0, 1.0, "p_single must be in [0, 1], got {}")
    message = "classical boundary undefined for p_single > 0.5 (got {})"
    _require(p_single, 0.0, 0.5, message, BoundaryDomainError)
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


def _family(eps, log1p, expm1):
    """Cancellation-safe (P_S, P_C) of the Gaussian family member at eps = 1 - V.

    The defining pair fixes the two no-click probabilities R1 (one detector
    silent) and R2 (both silent); then P_S = 2 (R1 - R2) and
    P_C = 1 - 2 R1 + R2.  Both R's approach 1 for V -> 1, so the complements
    D = 1 - R = -expm1(a) are computed directly from log/expm1 forms: the
    absolute error then scales with D rather than with 1.  P_C still cancels
    to a relative error of about 1.6e-15 / eps^2.  eps may be an array, if
    ``log1p`` and ``expm1`` take one.
    """
    v = 1.0 - eps
    n = n_of_v(eps)
    # a_k = log R_k: R2 = 2 sqrt(V)/(V+1) e^(-n/(2+2V)), R1 = 4 sqrt(V/((3V+1)(3+V))) e^(-n/(6+2V))
    lead = log1p(-eps)
    a1 = 0.5 * (lead - log1p(-eps + 3.0 * eps * eps / 16.0)) - n / (6.0 + 2.0 * v)
    a2 = 0.5 * lead - log1p(-0.5 * eps) - n / (2.0 + 2.0 * v)
    d1, d2 = -expm1(a1), -expm1(a2)
    return 2.0 * (d2 - d1), 2.0 * d1 - d2


class NgCurve(NamedTuple):
    """The Gaussian-family boundary table, one array per column."""

    eps: np.ndarray  # increasing; V = 1 - eps decreasing
    p_single: np.ndarray  # increasing along the kept branch
    p_coincidence: np.ndarray


@lru_cache(maxsize=4)
def ng_boundary_curve(num_points: int = NG_POINTS) -> NgCurve:
    """The Gaussian-mixture boundary traced over the squeezing parameter, read-only.

    Rows are sorted by rising P_S; family members whose P_S has passed its
    turning point (they bound the bunched side of the Gaussian region, not
    the single-photon side) are discarded.
    """
    _require(num_points, 16, math.inf, "num_points must be >= 16, got {}")
    # warped grid accumulating near V = 1, where the curve compresses to the origin
    eps_grid = np.geomspace(_EPS_FLOOR, 0.75, num_points)
    ps, pc = _family(eps_grid, _libm(math.log1p), _libm(math.expm1))
    valid = (ps > 0.0) & (pc > 0.0) & (pc < 1.0)
    eps_grid, ps, pc = eps_grid[valid], ps[valid], pc[valid]
    # keep the monotone lower branch, P_S rising from the V -> 1 end up to its turning
    # point, without the rows whose P_C falls back (rounding noise at the grid floor)
    turn = np.flatnonzero(np.diff(ps) <= 0.0)
    rising = turn[0] + 1 if turn.size else ps.size
    idx = np.flatnonzero(pc[:rising] >= np.maximum.accumulate(pc[:rising]))
    if idx.size < 2:
        raise BoundaryDomainError("degenerate non-Gaussianity boundary curve")
    curve = NgCurve(eps_grid[idx], ps[idx], pc[idx])
    for column in curve:  # every caller shares the cached arrays
        column.setflags(write=False)
    return curve


_LO, _HI = np.array([interval for interval, _ in _PIECES]).T
_CENTRE, _SCALE = 0.5 * (_LO + _HI), 2.0 / (_HI - _LO)
_COEFFS = np.array([coeffs[::-1] for _, coeffs in _PIECES]).T.copy()  # row j: c_(16-j) per piece


def _boundary(p_single):
    """ng_boundary without its checks, for P_S in [0, top] (a float or an array).

    One pass: each element's piece, its variable mapped to t in [-1, 1], and
    Horner's rule on the gathered coefficients.  Only multiplies, adds and
    one IEEE square root, so the bits do not depend on the CPU.
    """
    ps = np.asarray(p_single, dtype=float)
    piece = np.searchsorted(_EDGES, ps)
    near = piece >= _NEAR
    t = (np.where(near, np.sqrt(_TURN - ps), ps) - _CENTRE[piece]) * _SCALE[piece]
    coeffs = _COEFFS.take(piece, axis=1)
    acc = coeffs[0]  # a row of the gathered copy, or a scalar for a 0-d P_S
    for c in coeffs[1:]:
        acc *= t
        acc += c
    return np.where(near, acc, ps * ps * ps * acc)[()]


def ng_boundary(p_single):
    """Maximal Gaussian-mixture coincidence deficit at the given P_S (a float or an array).

    Defined from P_S = 0 up to the last row of the ``ng_boundary_curve``
    table, P_S = 0.595543864810335, short of the family's turning point at
    0.59572639161970.
    """
    top = ng_boundary_curve(NG_POINTS).p_single[-1]
    _require(p_single, 0.0, 1.0, "p_single must be in [0, 1], got {}")
    message = f"p_single={{}} above the Gaussian family's largest P_S {top:g}"
    _require(p_single, 0.0, top, message, BoundaryDomainError)
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
    _require(ps, -np.inf, np.inf, "p_single must be in [0, 1], got {}")  # NaN, as ng_boundary
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
