"""Thermal-bath channel driven by a heralded down-conversion source.

The source emits photon pairs with Poisson statistics of mean nu per pump
pulse; the idler arm feeds an ideal heralding detector, so a pulse is kept
exactly when at least one pair was produced.  The signal photons of a kept
pulse share one polarization, traverse the same thermal-bath channel as in
the single-photon model, and are attacked through their multiphoton
fraction: the single-photon fraction y discounts every pulse that carried
two or more pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channel
from . import photon_stats as ps
from .errors import ParameterDomainError, UndefinedRateError
from .security import KeyRateResult, secret_bound_multiphoton, secret_fraction_multiphoton
from .witness import ClickStats


@dataclass(frozen=True)
class SpdcParams:
    nu: float  # mean photon pairs per pump pulse
    T: float
    mu: float
    e: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        channel.validate(self.T, self.mu, self.e, self.d, nu=self.nu)

    def bath(self) -> ps.PhotonDistribution:
        return ps.PhotonDistribution.thermal(self.mu)


@dataclass(frozen=True)
class SpdcKeyStats:
    """Raw key-generation quantities; p_exp and p_multi carry the herald weight."""

    p_exp: float
    p_multi: float
    single_photon_fraction: float
    qber: float


def herald_prob(nu: float) -> float:
    """Probability that a pump pulse is heralded: 1 - e^-nu."""
    if nu < 0.0:
        raise ParameterDomainError(f"pair mean must be >= 0, got {nu}")
    return -math.expm1(-nu)


@lru_cache(maxsize=64)
def _multi_pair_prob(nu: float) -> float:
    """Probability of two or more pairs; one value per nu, however many (T, mu) a sweep probes."""
    return float(ps.prob_at_least(ps.PhotonDistribution.poisson(nu), 2))


def key_stats(params: SpdcParams) -> SpdcKeyStats:
    """Accepted-event probability, multiphoton weight, y and QBER."""
    nu, T = params.nu, params.T
    tau = -np.expm1(-nu * T)  # heralded and >= 1 signal photon survives
    blocked = np.expm1(-nu * T) - math.expm1(-nu)  # heralded, every signal photon lost
    pexp, errors = channel.key_events(tau, blocked, params.mu * (1.0 - T), params.e, params.d)
    q = channel.error_rate(pexp, errors)
    p_multi = _multi_pair_prob(float(nu))
    y = np.maximum(0.0, (pexp - p_multi) / pexp)
    return SpdcKeyStats(p_exp=pexp, p_multi=p_multi, single_photon_fraction=y, qber=q)


def key_rate(params: SpdcParams) -> KeyRateResult:
    stats = key_stats(params)
    return KeyRateResult(
        qber=stats.qber,
        single_photon_fraction=stats.single_photon_fraction,
        p_exp=stats.p_exp,
        delta_i=secret_fraction_multiphoton(stats.qber, stats.single_photon_fraction),
    )


def secret_bound(params: SpdcParams) -> float:
    """The secret fraction before its clip at 0."""
    stats = key_stats(params)
    return secret_bound_multiphoton(stats.qber, stats.single_photon_fraction)


def key_statistics(params: SpdcParams) -> dict[str, float]:
    """Key-geometry statistics per heralded pulse, named as the Monte Carlo oracle names them."""
    stats = key_stats(params)
    herald = herald_prob(params.nu)
    return {
        "p_exp": stats.p_exp / herald,
        "qber": stats.qber,
        "p_multi": stats.p_multi / herald,
        "y": stats.single_photon_fraction,
    }


def click_stats(params: SpdcParams) -> ClickStats:
    """Herald-conditioned autocorrelation statistics (ideal detectors)."""
    if params.nu <= 0.0:
        raise UndefinedRateError("no heralds at nu = 0: click statistics undefined")
    bath = channel.thermal_clicks(params.mu * (1.0 - params.T))
    return channel.click_stats(channel.heralded_clicks(params.nu, params.T), bath, bath)


def omega(params: SpdcParams) -> tuple[float, float]:
    """(exactly one, more than one) photon arriving at Bob per heralded pulse."""
    if params.nu <= 0.0:
        raise UndefinedRateError("no heralds at nu = 0: arrival statistics undefined")
    bath = channel.thermal_arrivals(params.mu * (1.0 - params.T))
    return channel.arrivals(channel.heralded_arrivals(params.nu, params.T), bath, bath)


channel.register("spdc", SpdcParams, __name__)
