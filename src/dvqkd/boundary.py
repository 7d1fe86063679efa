"""Maximal-noise boundaries mu_max(T), minimal secure transmittances and
their closed-form small-T / small-nu approximations.

The numeric solver reads each criterion (positive secret fraction,
nonclassicality, non-Gaussianity) as a real margin on the noise mean mu,
positive exactly where it holds (``criterion_margin``; the predicate is its
sign), and finds the largest mu at which it still holds, on all
transmittances of a sweep at once.  Assuming every criterion monotone in mu
(noise only hurts; ``tests/test_boundary.py`` checks it on seeded
configurations), it climbs the ladder of mu = 0 and the doublings
MU_SEED * 2^j, capped at the ceiling, and bisects from each point's first
failing rung (``roots.ladder_search``): the first call tests the whole ladder
of up to 78 points, the second several bisection levels, whose margin values
guess the edge, and the third the path of midpoints the guess implies.
Where a model has an exact edge of the criterion (``security_edge``,
``t_min_edge``, ``nonclassical_edge``), the first call also tests that path,
at any number of points: single-photon security and nonclassical sweeps and
``t_min_numeric`` take one call where the climb ends in it and the edges
hold.  Each bracket ends as in a bisection of one level per call.
``t_min_numeric`` is the same search on one point, up the ladder of T = 1 and
the midpoints its bisection visits while security holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import channel, noise_before, spdc, thermal_bath
from .errors import ParameterDomainError
# bisect_predicate stays importable from here, where callers look it up
from .roots import bisect_predicate, ladder_search, wide  # noqa: F401
from .security import qber_threshold, y_threshold
# the witnesses' decisions stay importable from here, where callers look them up
from .witness import ClickStats, is_nonclassical, is_nongaussian  # noqa: F401
from .witness import nonclassical_margin, nongaussian_margin

ModelParams = Union[
    thermal_bath.ThermalBathParams, noise_before.NoiseBeforeParams, spdc.SpdcParams
]

SECURITY = "security"
NONCLASSICAL = "nonclassical"
NONGAUSSIAN = "nongaussian"
CRITERIA = (SECURITY, NONCLASSICAL, NONGAUSSIAN)

# the name of a model's exact edge of each criterion, where it has one
_EDGE_NAMES = {SECURITY: "security_edge", NONCLASSICAL: "nonclassical_edge"}

MU_CEILING = 1e3  # thermal means beyond this are unphysical for the setting
MU_SEED = 1e-12  # first rung of the doubling ladder
T_FLOOR = 1e-9  # smallest transmittance t_min_numeric probes
SECURITY_MARGIN = 1e-12  # "secure" means delta_i strictly above this

# mu = 0, then the doubling ladder MU_SEED * 2^j up to its first rung at the ceiling; a
# power-of-two multiple is exact, so each rung is bit-equal to repeated doubling
_LADDER = np.append(
    0.0,
    np.minimum(
        np.ldexp(MU_SEED, np.arange(math.ceil(math.log2(MU_CEILING / MU_SEED)) + 1)), MU_CEILING
    ),
)


def _t_ladder() -> np.ndarray:
    """T = 1, the midpoints the bisection of [1, T_FLOOR] visits while the criterion
    holds, up to the first whose bracket [T, T_FLOOR] is not ``wide``, and T_FLOOR."""
    rungs = [1.0]
    while wide(rungs[-1], T_FLOOR):
        rungs.append(0.5 * (rungs[-1] + T_FLOOR))
    return np.array(rungs + [T_FLOOR])


_T_LADDER = _t_ladder()


@dataclass(frozen=True, slots=True)
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


def secret_bound(params: ModelParams) -> float:
    """The secret-fraction bound before its clip at 0, for any of the three models."""
    return channel.model(params).module.secret_bound(params)


def model_clicks(params: ModelParams) -> ClickStats:
    return channel.model(params).module.click_stats(params)


def model_name(params: ModelParams) -> str:
    return channel.model(params).name


def criterion_margin(params: ModelParams, criterion: str) -> Callable:
    """Margin in mu, and in T in place of ``params.T``, of the criterion at fixed other
    parameters, elementwise over arrays: real, and positive exactly where it holds.

    Security: the secret fraction before its clip at 0, less ``SECURITY_MARGIN``;
    nonclassicality and non-Gaussianity: the witness boundary less P_C.
    """
    if criterion == SECURITY:
        return lambda mu, T=params.T: secret_bound(replace(params, T=T, mu=mu)) - SECURITY_MARGIN
    if criterion == NONCLASSICAL:
        return lambda mu, T=params.T: nonclassical_margin(model_clicks(replace(params, T=T, mu=mu)))
    if criterion == NONGAUSSIAN:
        return lambda mu, T=params.T: nongaussian_margin(model_clicks(replace(params, T=T, mu=mu)))
    raise ParameterDomainError(f"unknown criterion: {criterion!r}")


def criterion_predicate(params: ModelParams, criterion: str) -> Callable:
    """Predicate in mu, and in T in place of ``params.T``, deciding whether the
    criterion holds at fixed other parameters: its margin is positive."""
    margin = criterion_margin(params, criterion)
    return lambda mu, T=params.T: margin(mu, T) > 0.0


def mu_max_numeric(params: ModelParams, criterion: str) -> Optional[float]:
    """Largest noise mean at which the criterion holds; None when infeasible at mu = 0.

    The search of a sweep, on one transmittance: the edge to a relative width of
    1e-6 (``roots.REL_TOL``), or ``MU_CEILING`` when the criterion holds there.
    """
    mu_max, feasible = _search(params, criterion, np.array([params.T]))
    return float(mu_max[0]) if feasible[0] else None


def _search(params: ModelParams, criterion: str, ts: np.ndarray) -> tuple:
    """``_search_mu_max`` of the criterion, guessed by the model's exact edge of it if any
    (``_EDGE_NAMES``): the security edge of a single-photon source, or the mean at which its
    light meets the classical bound N = R1^2, which is the nonclassical edge wherever R1
    >= 1/2 there and a refuted guess elsewhere."""
    name = _EDGE_NAMES.get(criterion)
    edge = name and getattr(channel.model(params).module, name, None)
    edge = edge(replace(params, T=ts)) if edge else None
    return _search_mu_max(criterion_margin(params, criterion), ts, edge)


def _search_mu_max(
    margin: Callable, ts: np.ndarray, edge: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(mu_max, feasible) per transmittance: where margin(0, T) > 0, the largest mu
    with margin(mu, T) > 0; elsewhere 0.  The ``roots.ladder_search`` of ``_LADDER``,
    guessed at ``edge`` where given: an element leaves it once its own bracket is
    done, so it ends as a search of its own would.  A margin that is only a boolean
    works too, unguessed.
    """
    first, holds, fails = ladder_search(lambda mu, i: margin(mu, ts[i]), _LADDER, ts.size, edge)
    return 0.5 * (holds + fails), first > 0


def sweep(params: ModelParams, criterion: str, t_grid: Sequence[float]) -> BoundaryCurve:
    """One mu_max per grid transmittance; infeasible points carry mu_max = 0."""
    ts = np.array(t_grid, dtype=float)
    if not (np.all((ts > 0.0) & (ts <= 1.0)) and np.all(np.diff(ts) > 0.0)):
        raise ParameterDomainError("transmittance grid must increase strictly within (0, 1]")
    mu_max, feasible = _search(params, criterion, ts)
    points = tuple(map(BoundaryPoint, ts.tolist(), mu_max.tolist(), feasible.tolist()))
    return BoundaryCurve(model_name(params), criterion, points)


def t_min_numeric(params: ModelParams) -> Optional[float]:
    """Smallest transmittance with a positive secret fraction at mu = 0.

    Returns 0.0 when security survives down to ``T_FLOOR`` (no positive
    threshold) and None when it fails even at T = 1.  The ``roots.ladder_search``
    of ``_T_LADDER``, whose rungs are the midpoints the bisection of [1, T_FLOOR]
    visits while security holds: one call tests all of them, and the bisection
    goes on from the first that fails, as the one from [1, T_FLOOR] would, well
    within ``roots._MAX_STEPS``.  Where the model has an exact edge
    (``t_min_edge``), that call also tests the edge's path.  The bisection gets
    the predicate, which takes no guess: its one bracket tests ten levels per call.
    """
    pred = criterion_predicate(params, SECURITY)
    edge = getattr(channel.model(params).module, "t_min_edge", None)
    guess = None if edge is None else np.array([edge(params)])
    first, holds, _ = ladder_search(lambda t, i: pred(0.0, t), _T_LADDER, 1, guess)
    if first[0] == 0:
        return None
    return 0.0 if first[0] == _T_LADDER.size else float(holds[0])


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
    return mu_max_security_thermal_bath(1.0, e, T)


def mu_max_nc_thermal_bath(p: float, T: float) -> float:
    return p * T / math.sqrt(2.0)


def mu_max_ng_thermal_bath(p: float, T: float) -> float:
    return 0.5 * p * p * T * T


def mu_max_nc_noise_before(p: float) -> float:
    return p


def mu_max_ng_noise_before(p: float, T: float) -> float:
    return p * p * T


def mu_max_nc_spdc(T: float) -> float:
    return mu_max_nc_thermal_bath(1.0, T)


def mu_max_ng_spdc(T: float) -> float:
    return mu_max_ng_thermal_bath(1.0, T)


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
