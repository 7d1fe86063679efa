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
T_FLOOR = 1e-9  # smallest transmittance t_min_numeric probes
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


def mu_max_numeric(params: ModelParams, criterion: str) -> Optional[float]:
    """Largest noise mean at which the criterion holds; None when infeasible at mu = 0.

    Brackets by doubling from a seed of 1e-12 up to the ceiling, then bisects
    to a relative width of 1e-6 (``roots.REL_TOL``).  Returns ``MU_CEILING``
    when the criterion still holds there.
    """
    pred = criterion_predicate(params, criterion)
    if not pred(0.0):
        return None
    return _search_mu_max(pred)


def _edge(pred: Callable[[float], bool], holds: float, fails: float) -> float:
    holds, fails = bisect_predicate(pred, holds, fails)
    return 0.5 * (holds + fails)


def _search_mu_max(pred: Callable[[float], bool]) -> float:
    last_true, mu = 0.0, MU_SEED
    while pred(mu):
        if mu == MU_CEILING:
            return MU_CEILING
        last_true, mu = mu, min(2.0 * mu, MU_CEILING)
    boundary = _edge(pred, last_true, mu)
    # probe the rest of the range: a re-entrant predicate means the boundary bends
    if mu < MU_CEILING:
        ratio = MU_CEILING / mu
        for exponent in (0.25, 0.5, 0.75):
            if pred(mu * ratio**exponent):
                logger.warning(
                    "criterion predicate is non-monotone in mu near %.3g; dense rescan",
                    boundary,
                )
                return _dense_scan(pred)
    return boundary


def _dense_scan(pred: Callable[[float], bool]) -> float:
    grid = [
        MU_SEED * (MU_CEILING / MU_SEED) ** (i / (DENSE_SCAN_POINTS - 1))
        for i in range(DENSE_SCAN_POINTS)
    ]
    flags = [pred(mu) for mu in grid]
    if flags[-1]:
        return MU_CEILING
    if not any(flags):
        return _edge(pred, 0.0, grid[0])
    last = max(i for i, ok in enumerate(flags) if ok)
    return _edge(pred, grid[last], grid[last + 1])


def sweep(params: ModelParams, criterion: str, t_grid: Sequence[float]) -> BoundaryCurve:
    """One mu_max per grid transmittance; infeasible points carry mu_max = 0."""
    ts = list(t_grid)
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ParameterDomainError("transmittance grid must be strictly increasing")
    if ts and (ts[0] <= 0.0 or ts[-1] > 1.0):
        raise ParameterDomainError("transmittance grid must lie in (0, 1]")
    points = []
    for t in ts:
        mu = mu_max_numeric(replace(params, T=t), criterion)
        if mu is None:
            points.append(BoundaryPoint(T=t, mu_max=0.0, feasible=False))
        else:
            points.append(BoundaryPoint(T=t, mu_max=mu, feasible=True))
    return BoundaryCurve(model_name(params), criterion, tuple(points))


def t_min_numeric(params: ModelParams) -> Optional[float]:
    """Smallest transmittance with a positive secret fraction at mu = 0.

    Returns 0.0 when security survives down to ``T_FLOOR`` (no positive
    threshold) and None when it fails even at T = 1.
    """

    def secure(t: float) -> bool:
        return delta_i(replace(params, T=t, mu=0.0)) > SECURITY_MARGIN

    if not secure(1.0):
        return None
    if secure(T_FLOOR):
        return 0.0
    return bisect_predicate(secure, 1.0, T_FLOOR)[0]


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
