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

import numpy as np

from .errors import BoundaryDomainError, ParameterDomainError

_SUM_TOL = 1e-10
_NEG_CLAMP = -1e-12
_EPS_FLOOR = 1e-6  # smallest 1-V in the curve grid; P_S reaches ~5e-7
_REFINE_TOL = 1e-10  # absolute tolerance on P_S during local refinement
NG_POINTS = 512  # grid points of the boundary table every witness query reads


@dataclass(frozen=True)
class ClickStats:
    """Autocorrelation outcome probabilities: exactly one click, coincidence, none."""

    p_single: float
    p_coincidence: float
    p_none: float

    def __post_init__(self) -> None:
        for name, value in (
            ("p_single", self.p_single),
            ("p_coincidence", self.p_coincidence),
            ("p_none", self.p_none),
        ):
            if not _NEG_CLAMP <= value <= 1.0 + 1e-12:
                raise ParameterDomainError(f"{name} out of [0, 1]: {value}")
            if value < 0.0:  # rounding noise from cancellation-safe closed forms
                object.__setattr__(self, name, 0.0)
        total = self.p_single + self.p_coincidence + self.p_none
        if abs(total - 1.0) > _SUM_TOL:
            raise ParameterDomainError(f"click probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class NGBoundaryPoint:
    """One point of the Gaussian-family boundary, parametrized by V in (0, 1)."""

    v: float
    n_of_v: float
    p_single: float
    p_coincidence: float


def nc_boundary(p_single: float) -> float:
    """Largest classical coincidence deficit: the smaller root of the classical bound.

    Only the smaller root of the quadratic in sqrt(P_C) has the correct
    weak-light limit P_C -> P_S^2 / 4; the larger root bounds the bunched
    side of the classical region and is not used here.
    """
    if not 0.0 <= p_single <= 1.0:
        raise ParameterDomainError(f"p_single must be in [0, 1], got {p_single}")
    if p_single > 0.5:
        raise BoundaryDomainError(
            f"classical boundary undefined for p_single > 0.5 (got {p_single})"
        )
    root = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * p_single))
    return root * root


def gaussian_boundary_point(v: float) -> NGBoundaryPoint:
    """(P_S, P_C) of the extremal displaced squeezed state with squeezing V."""
    if not 0.0 < v < 1.0:
        raise ParameterDomainError(f"V must lie strictly inside (0, 1), got {v}")
    eps = 1.0 - v
    ps, pc = _family(eps)
    return NGBoundaryPoint(v=v, n_of_v=_n_of_v(eps), p_single=ps, p_coincidence=pc)


def _n_of_v(eps: float) -> float:
    # (1 - V^2)(V + 3) / (V (3V + 1)) in the cancellation-free variable eps = 1 - V
    return eps * (2.0 - eps) * (4.0 - eps) / ((1.0 - eps) * (4.0 - 3.0 * eps))


def _family(eps: float) -> tuple[float, float]:
    """Cancellation-safe (P_S, P_C) for the Gaussian family member at eps = 1 - V.

    The defining pair fixes the two no-click probabilities R1 (one detector
    silent) and R2 (both silent); then P_S = 2 (R1 - R2) and
    P_C = 1 - 2 R1 + R2.  Both R's approach 1 for V -> 1, so the complements
    D = 1 - R are computed directly from log/expm1 forms: the absolute error
    then scales with D rather than with 1, keeping P_C accurate down to the
    P_S ~ 1e-5 regime needed for small-transmittance sweeps.
    """
    v = 1.0 - eps
    n = _n_of_v(eps)
    # log of the exponential-free prefactors of R2 = 2 sqrt(V)/(V+1) * exp(...)
    # and R1 = 4 sqrt(V)/sqrt((3V+1)(3+V)) * exp(...)
    g2 = 0.5 * math.log1p(-eps) - math.log1p(-0.5 * eps)
    g1 = 0.5 * (math.log1p(-eps) - math.log1p(-eps + 3.0 * eps * eps / 16.0))
    d1 = -math.expm1(g1 - n / (6.0 + 2.0 * v))
    d2 = -math.expm1(g2 - n / (2.0 + 2.0 * v))
    return 2.0 * (d2 - d1), 2.0 * d1 - d2


@dataclass(frozen=True)
class _NgCurve:
    eps: np.ndarray  # increasing; V = 1 - eps decreasing
    p_single: np.ndarray  # increasing along the kept branch
    p_coincidence: np.ndarray

    @property
    def ps_min(self) -> float:
        return float(self.p_single[0])

    @property
    def ps_max(self) -> float:
        return float(self.p_single[-1])


@lru_cache(maxsize=4)
def _build_curve(num_points: int) -> _NgCurve:
    if num_points < 16:
        raise ParameterDomainError(f"num_points must be >= 16, got {num_points}")
    # warped grid accumulating near V = 1, where the curve compresses to the origin
    eps_grid = np.geomspace(_EPS_FLOOR, 0.75, num_points)
    ps = np.empty(num_points)
    pc = np.empty(num_points)
    for i, eps in enumerate(eps_grid):
        ps[i], pc[i] = _family(float(eps))
    # keep the monotone lower branch: P_S rising from the V -> 1 end up to its turning point
    keep = [i for i in range(num_points) if ps[i] > 0.0 and 0.0 < pc[i] < 1.0]
    cut = []
    last_ps = 0.0
    last_pc = 0.0
    for i in keep:
        if ps[i] <= last_ps:
            break
        if pc[i] < last_pc:  # rounding noise at the grid floor
            continue
        cut.append(i)
        last_ps = ps[i]
        last_pc = pc[i]
    if len(cut) < 2:
        raise BoundaryDomainError("degenerate non-Gaussianity boundary curve")
    idx = np.asarray(cut)
    return _NgCurve(eps=eps_grid[idx], p_single=ps[idx], p_coincidence=pc[idx])


def ng_boundary_curve(num_points: int = NG_POINTS) -> tuple[NGBoundaryPoint, ...]:
    """The Gaussian-mixture boundary traced over the squeezing parameter.

    Points are returned sorted by rising P_S; family members whose P_S has
    passed its turning point (they bound the bunched side of the Gaussian
    region, not the single-photon side) are discarded.
    """
    curve = _build_curve(num_points)
    return tuple(
        NGBoundaryPoint(
            v=1.0 - float(e),
            n_of_v=_n_of_v(float(e)),
            p_single=float(s),
            p_coincidence=float(c),
        )
        for e, s, c in zip(curve.eps, curve.p_single, curve.p_coincidence)
    )


def ng_boundary(p_single: float) -> float:
    """Maximal Gaussian-mixture coincidence deficit at the given P_S.

    Interpolates the precomputed boundary curve and refines by bisection on
    the V parametrization until the bracketing P_S matches the query to
    within 1e-10.
    """
    if not 0.0 <= p_single <= 1.0:
        raise ParameterDomainError(f"p_single must be in [0, 1], got {p_single}")
    curve = _build_curve(NG_POINTS)
    if not curve.ps_min <= p_single <= curve.ps_max:
        raise BoundaryDomainError(
            f"p_single={p_single:g} outside the tabulated boundary span "
            f"[{curve.ps_min:g}, {curve.ps_max:g}]"
        )
    i = int(np.searchsorted(curve.p_single, p_single))
    if curve.p_single[i] == p_single:
        return float(curve.p_coincidence[i])
    lo_eps, hi_eps = float(curve.eps[i - 1]), float(curve.eps[i])
    # P_S grows with eps on the kept branch
    for _ in range(200):
        mid = 0.5 * (lo_eps + hi_eps)
        ps_mid, _ = _family(mid)
        if abs(ps_mid - p_single) <= _REFINE_TOL:
            lo_eps = hi_eps = mid
            break
        if ps_mid < p_single:
            lo_eps = mid
        else:
            hi_eps = mid
    return _family(0.5 * (lo_eps + hi_eps))[1]


def is_nonclassical(stats: ClickStats) -> bool:
    """True when no classical intensity mixture reproduces the click statistics.

    For P_S <= 1/2 this is the strict comparison against the boundary, so
    states exactly on it are conservatively not flagged.  No classical
    mixture reaches P_S > 1/2 at all, so brighter single-click statistics
    are flagged outright instead of raising the boundary's domain error.
    """
    if stats.p_single > 0.5:
        return True
    return stats.p_coincidence < nc_boundary(stats.p_single)


def is_nongaussian(stats: ClickStats) -> bool:
    """True when no Gaussian mixture reproduces the click statistics.

    Above the largest single-click probability attainable by the Gaussian
    family the achievable region is empty and every state is flagged;
    otherwise the strict comparison against the boundary decides.
    """
    curve = _build_curve(NG_POINTS)
    if stats.p_single > curve.ps_max:
        return True
    if stats.p_single <= curve.ps_min:
        # indistinguishable from vacuum at the tabulated floor; never flagged
        return False
    return stats.p_coincidence < ng_boundary(stats.p_single)


def simplified_nc(omega1: float, omega2plus: float) -> bool:
    """Small-signal nonclassicality criterion on arrival probabilities."""
    return 0.5 * omega1 * omega1 > omega2plus


def simplified_ng(omega1: float, omega2plus: float) -> bool:
    """Small-signal non-Gaussianity criterion on arrival probabilities."""
    return omega1**3 > omega2plus


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


def apply_detector_darkcounts(stats: ClickStats, d: float) -> ClickStats:
    """Click statistics as read from detectors firing spuriously with probability d.

    Each detector adds an independent dark count: one more light component
    with triple ((1-d)^2, 2d(1-d), d^2).
    """
    if not 0.0 <= d < 1.0:
        raise ParameterDomainError(f"dark-count probability must be in [0, 1), got {d}")
    none, single, coinc = combine(
        (stats.p_none, stats.p_single, stats.p_coincidence),
        ((1.0 - d) ** 2, 2.0 * d * (1.0 - d), d * d),
    )
    return ClickStats(p_single=single, p_coincidence=coinc, p_none=none)
