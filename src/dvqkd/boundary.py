"""Maximal-noise boundaries mu_max(T), minimal secure transmittances and
their closed-form small-T / small-nu approximations.

The numeric solver treats each criterion (positive secret fraction,
nonclassicality, non-Gaussianity) as a predicate on the noise mean mu and
locates the largest mu at which it still holds.  All three predicates are
monotone in mu in the regimes of interest (noise only hurts); monotonicity
is probed rather than assumed, with a dense-scan fallback for the bent
high-transmittance boundaries of the Poisson noise model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from . import channel, noise_before, spdc, thermal_bath
from .errors import ParameterDomainError
from .roots import bisect_predicate
from .security import qber_threshold, y_threshold
from .witness import ClickStats, is_nonclassical, is_nongaussian

logger = logging.getLogger(__name__)

ModelParams = Union[
    thermal_bath.ThermalBathParams, noise_before.NoiseBeforeParams, spdc.SpdcParams
]

SECURITY = "security"
NONCLASSICAL = "nonclassical"
NONGAUSSIAN = "nongaussian"
CRITERIA = (SECURITY, NONCLASSICAL, NONGAUSSIAN)

MU_CEILING = 1e3  # thermal means beyond this are unphysical for the setting
MU_SEED = 1e-12  # bracket-doubling start
SECURITY_MARGIN = 1e-12  # "secure" means delta_i strictly above this
DENSE_SCAN_POINTS = 240

@dataclass(frozen=True)
class BoundaryPoint:
    T: float
    mu_max: float
    feasible: bool


@dataclass(frozen=True)
class BoundaryCurve:
    model: str
    criterion: str
    points: tuple[BoundaryPoint, ...]
    meta: dict


def delta_i(params: ModelParams) -> float:
    """Secret-fraction lower bound for any of the three channel models."""
    return channel.model(params).module.key_rate(params).delta_i


def model_clicks(params: ModelParams) -> ClickStats:
    return channel.model(params).module.click_stats(params)


def model_omega(params: ModelParams) -> tuple[float, float]:
    return channel.model(params).module.omega(params)


def model_name(params: ModelParams) -> str:
    return channel.model(params).name


def criterion_predicate(params: ModelParams, criterion: str) -> Callable[[float], bool]:
    """Predicate in mu deciding whether the criterion holds at fixed other parameters."""
    if criterion == SECURITY:
        return lambda mu: delta_i(replace(params, mu=mu)) > SECURITY_MARGIN
    if criterion == NONCLASSICAL:
        return lambda mu: is_nonclassical(model_clicks(replace(params, mu=mu)))
    if criterion == NONGAUSSIAN:
        return lambda mu: is_nongaussian(model_clicks(replace(params, mu=mu)))
    raise ParameterDomainError(f"unknown criterion: {criterion!r}")


def mu_max_numeric(
    params: ModelParams,
    criterion: str,
    *,
    rel_tol: float = 1e-6,
    mu_ceiling: float = MU_CEILING,
) -> Optional[float]:
    """Largest noise mean at which the criterion holds; None when infeasible at mu = 0.

    Brackets by doubling from a seed of 1e-12, then bisects to the requested
    relative tolerance.  Returns the search ceiling when the criterion never
    fails below it.
    """
    pred = criterion_predicate(params, criterion)
    if not pred(0.0):
        return None
    return _search_mu_max(pred, mu_ceiling=mu_ceiling, rel_tol=rel_tol)


def _search_mu_max(
    pred: Callable[[float], bool], *, mu_ceiling: float, rel_tol: float
) -> float:
    mu = MU_SEED
    last_true = 0.0
    while mu <= mu_ceiling:
        if pred(mu):
            last_true = mu
            mu *= 2.0
        else:
            break
    else:
        return mu_ceiling
    first_false = mu
    boundary = bisect_predicate(pred, last_true, first_false, rel_tol=rel_tol)
    # probe the rest of the range: a re-entrant predicate means the boundary bends
    if first_false < mu_ceiling:
        ratio = mu_ceiling / first_false
        for exponent in (0.25, 0.5, 0.75):
            if pred(first_false * ratio**exponent):
                logger.warning(
                    "criterion predicate is non-monotone in mu near %.3g; dense rescan",
                    boundary,
                )
                return _dense_scan(pred, mu_ceiling=mu_ceiling, rel_tol=rel_tol)
    return boundary


def _dense_scan(
    pred: Callable[[float], bool], *, mu_ceiling: float, rel_tol: float
) -> float:
    grid = [
        MU_SEED * (mu_ceiling / MU_SEED) ** (i / (DENSE_SCAN_POINTS - 1))
        for i in range(DENSE_SCAN_POINTS)
    ]
    flags = [pred(mu) for mu in grid]
    if flags[-1]:
        return mu_ceiling
    if not any(flags):
        return bisect_predicate(pred, 0.0, grid[0], rel_tol=rel_tol)
    last = max(i for i, ok in enumerate(flags) if ok)
    return bisect_predicate(pred, grid[last], grid[last + 1], rel_tol=rel_tol)


def sweep(
    params: ModelParams,
    criterion: str,
    t_grid: Sequence[float],
    *,
    rel_tol: float = 1e-6,
) -> BoundaryCurve:
    """One mu_max per grid transmittance; infeasible points carry mu_max = 0."""
    ts = list(t_grid)
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ParameterDomainError("transmittance grid must be strictly increasing")
    if ts and (ts[0] <= 0.0 or ts[-1] > 1.0):
        raise ParameterDomainError("transmittance grid must lie in (0, 1]")
    points = []
    for t in ts:
        mu = mu_max_numeric(replace(params, T=t), criterion, rel_tol=rel_tol)
        if mu is None:
            points.append(BoundaryPoint(T=t, mu_max=0.0, feasible=False))
        else:
            points.append(BoundaryPoint(T=t, mu_max=mu, feasible=True))
    meta = {"model": model_name(params), "criterion": criterion, "params": params}
    return BoundaryCurve(model_name(params), criterion, tuple(points), meta)


def t_min_numeric(
    params: ModelParams, *, rel_tol: float = 1e-6, t_floor: float = 1e-9
) -> Optional[float]:
    """Smallest transmittance with a positive secret fraction at mu = 0.

    Returns 0.0 when security survives down to the floor (no positive
    threshold) and None when it fails even at T = 1.
    """

    def secure(t: float) -> bool:
        return delta_i(replace(params, T=t, mu=0.0)) > SECURITY_MARGIN

    if not secure(1.0):
        return None
    if secure(t_floor):
        return 0.0
    # bracket is [t_floor: insecure, 1: secure]; find the smallest secure T
    lo, hi = t_floor, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if secure(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return hi


# --- closed-form small-T / small-nu evaluators ---------------------------------


def mu_max_security_thermal_bath(p: float, e: float, T: float) -> float:
    """Security boundary of the thermal-bath model as T -> 0, d = 0."""
    qth = qber_threshold()
    return max(0.0, p * (2.0 * qth - e) * T / (2.0 * (1.0 - 2.0 * qth)))


def mu_max_security_noise_before(p: float, e: float) -> float:
    """Security boundary of the noise-before-channel model as T -> 0, d = 0."""
    qth = qber_threshold()
    return max(0.0, p * (2.0 * qth - e) / (1.0 - 2.0 * qth))


def mu_max_security_spdc(e: float, T: float) -> float:
    """Security boundary of the heralded-source model for nu << T << 1, d = 0."""
    qth = qber_threshold()
    return max(0.0, (2.0 * qth - e) * T / (2.0 * (1.0 - 2.0 * qth)))


def mu_max_nc_thermal_bath(p: float, T: float) -> float:
    return p * T / math.sqrt(2.0)


def mu_max_ng_thermal_bath(p: float, T: float) -> float:
    return 0.5 * p * p * T * T


def mu_max_nc_noise_before(p: float) -> float:
    return p


def mu_max_ng_noise_before(p: float, T: float) -> float:
    return p * p * T


def mu_max_nc_spdc(T: float) -> float:
    return T / math.sqrt(2.0)


def mu_max_ng_spdc(T: float) -> float:
    return 0.5 * T * T


def t_min_ideal_source(p: float, e: float, d: float) -> float:
    """Minimal secure transmittance with dark counts, single-photon source models.

    ``inf`` (no secure transmittance) when e >= 2 Q_th or p = 0.
    """
    qth = qber_threshold()
    margin = p * (qth - 0.5 * e)
    return d * (1.0 - 2.0 * qth) / margin if margin > 0.0 else math.inf


def t_min_spdc_rare_pairs(e: float, d: float) -> float:
    """Minimal secure transmittance of the heralded model when nu << d."""
    return t_min_ideal_source(1.0, e, d)


def t_min_spdc_bright_pairs(e: float, nu: float) -> float:
    """Minimal secure transmittance of the heralded model when d << nu; ``inf`` when e >= 2 Q_th."""
    if e >= 2.0 * qber_threshold():
        return math.inf
    return nu / (2.0 * (1.0 - y_threshold(e)))


def t_min_ng_spdc(nu: float) -> float:
    """Minimal transmittance at which heralded-source light stays non-Gaussian."""
    return 0.5 * nu
