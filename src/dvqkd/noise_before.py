"""Channel model with noise coupling to the signal before the lossy channel.

An external source injects a pulse of noise photons (thermal or Poisson
statistics, mean mu) into the channel alongside the signal; every photon is
then attenuated identically with transmittance T.  All noise photons of a
pulse share one random linear polarization, drawn uniformly per pulse; the
key-geometry expressions integrate that polarization out, leaving a weight
2/(j+1) for j survivors to land in one detector.  The autocorrelation setup
ignores polarization, so there the noise is one mode of mean mu T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from . import photon_stats as ps
from .errors import ParameterDomainError
from .security import KeyRateResult, secret_bound_ideal, secret_fraction_ideal
from .witness import ClickStats


@dataclass(frozen=True)
class NoiseBeforeParams:
    p: float
    T: float
    mu: float
    e: float = 0.0
    d: float = 0.0
    noise_kind: str = ps.THERMAL

    def __post_init__(self) -> None:
        channel.validate(self.T, self.mu, self.e, self.d, p=self.p)
        if self.noise_kind not in (ps.THERMAL, ps.POISSON):
            raise ParameterDomainError(f"unknown noise kind: {self.noise_kind!r}")

    def noise(self) -> ps.PhotonDistribution:
        return ps.PhotonDistribution(self.noise_kind, self.mu)


class EventProbs(NamedTuple):
    """Per-pulse probabilities of the four accepted single-click event classes."""

    signal: float  # only the signal photon arrives and clicks
    noise: float  # only noise photons arrive, all in one detector
    noise_signal: float  # signal plus >= 1 noise photon, single click
    dark: float  # nothing arrives, one dark count fires


_SERIES_BELOW = 0.08  # x = mu T under which the closed forms lose eps / x relative
# Taylor coefficients of _same_detector in x, highest order first: (-1)^(k+1) k/(k+1)
# for thermal noise, the same over k! for Poisson noise; x^17 is below 1e-17 relative
_SERIES = {
    ps.THERMAL: tuple((-1) ** (k + 1) * k / (k + 1) for k in range(16, 0, -1)),
    ps.POISSON: tuple((-1) ** (k + 1) * k / math.factorial(k + 1) for k in range(16, 0, -1)),
}


def _same_detector(survivors: ps.PhotonDistribution) -> float:
    """Chance that the survivors of a polarized noise pulse, at least one,
    all land in one given detector (weight 1/(j+1) for j survivors)."""
    x = survivors.mean
    # each branch sees only the means it is kept for, so neither overflows or divides by 0
    small, large = np.minimum(x, _SERIES_BELOW), np.maximum(x, _SERIES_BELOW)
    total = 0.0
    for c in _SERIES[survivors.kind]:
        total = total * small + c
    if survivors.kind == ps.THERMAL:
        closed = np.log1p(large) / large - 1.0 / (1.0 + large)
    else:
        closed = -np.expm1(-large) / large - np.exp(-large)
    return np.where(x < _SERIES_BELOW, total * small, closed)[()]


def event_probs(params: NoiseBeforeParams) -> EventProbs:
    # the noise law is closed under loss: mean mu T survives the channel
    survivors = ps.PhotonDistribution(params.noise_kind, params.mu * params.T)
    quiet, s, _ = channel.single_photon(params.p, params.T)
    none = ps.pgf(survivors, 0.0)  # no noise photon survives the channel
    same = _same_detector(survivors)
    return EventProbs(
        signal=s * none,
        noise=2.0 * quiet * same,
        noise_signal=s * same,
        dark=2.0 * params.d * quiet * none,
    )


def _key_events(params: NoiseBeforeParams, ev: EventProbs) -> tuple[float, float]:
    return sum(ev), 0.5 * (params.e * (ev.signal + ev.noise_signal) + ev.noise + ev.dark)


def key_rate(params: NoiseBeforeParams) -> KeyRateResult:
    accepted, errors = _key_events(params, event_probs(params))
    q = channel.error_rate(accepted, errors)
    return KeyRateResult(
        qber=q,
        single_photon_fraction=1.0,
        p_exp=accepted,
        delta_i=secret_fraction_ideal(q),
    )


def secret_bound(params: NoiseBeforeParams) -> float:
    """The secret fraction before its clip at 0."""
    return secret_bound_ideal(channel.error_rate(*_key_events(params, event_probs(params))))


def security_edge(params: NoiseBeforeParams):
    """The noise mean at which the QBER reaches Q_th at each of ``params.T``, or NaN.

    Over the chance that no noise survives, the events are ``channel.key_events``' with
    the weight r = _same_detector / pgf(x, 0) of x = mu T, so r(x) = ``channel.noise_edge``
    = m*.  In y = -log pgf(x, 0), dr/dy = 1 + r - r / (x dy/dx); the thermal r and the
    Poisson log(1 + r) are convex there with slopes in [1/2, 1], so Newton's method from
    x = 2 m* (r = x/2 + O(x^2)) ends in 5 steps, the last moving y by at most 1e-8 of it.
    """
    quiet, s, _ = channel.single_photon(params.p, params.T)
    m = channel.noise_edge(s, quiet, params.e, params.d)
    live = (m > 0.0) & (m <= 350.0)  # above, x = 2 m* would overflow the Poisson r
    m, thermal = np.where(live, m, 0.5), params.noise_kind == ps.THERMAL  # 0.5: a stand-in
    y = np.log1p(2.0 * m) if thermal else 2.0 * m
    with np.errstate(all="ignore"):
        for _ in range(8):  # it takes 5 at most
            x = np.expm1(y) if thermal else y
            survivors = ps.PhotonDistribution(params.noise_kind, x)
            none = ps.pgf(survivors, 0.0)
            r = _same_detector(survivors) / none
            slope = 1.0 + r - r / (x * none if thermal else x)
            step = (r - m) / slope if thermal else (np.log1p(r) - np.log1p(m)) * (1.0 + r) / slope
            y = y - step
            if np.all(np.abs(step) <= 1e-8 * y):
                break
        return np.where(live, (np.expm1(y) if thermal else y) / params.T, np.nan)[()]


t_min_edge = channel.t_min_edge


def nonclassical_edge(params: NoiseBeforeParams):
    """The noise mean at which the light at Bob meets the classical bound N = R1^2 at each
    of ``params.T``: for thermal noise the ``channel.classical_edge`` of the photon and the
    noise mode of mean mu T, over T, which is p / (1 - pT); NaN for Poisson noise, whose
    light meets that bound at no mean."""
    _, s, _ = channel.single_photon(params.p, params.T)
    if params.noise_kind != ps.THERMAL:
        return np.full(np.shape(s), np.nan)[()]
    with np.errstate(all="ignore"):
        return np.divide(channel.classical_edge(s, 1), params.T)


def key_statistics(params: NoiseBeforeParams) -> dict[str, float]:
    """Key-geometry statistics per pulse, named as the Monte Carlo oracle names them."""
    ev = event_probs(params)
    accepted, errors = _key_events(params, ev)
    return {
        "p_exp": accepted,
        "qber": channel.error_rate(accepted, errors),
        "p_exp_signal": ev.signal,
        "p_exp_noise": ev.noise,
        "p_exp_noise_signal": ev.noise_signal,
        "p_exp_dark": ev.dark,
    }


# noise kind -> (click triple, arrival triple) of the surviving noise mode
_NOISE_MODE = {
    ps.THERMAL: (channel.thermal_clicks, channel.thermal_arrivals),
    ps.POISSON: (channel.poisson_clicks, channel.poisson_arrivals),
}


def click_stats(params: NoiseBeforeParams) -> ClickStats:
    noise = _NOISE_MODE[params.noise_kind][0](params.mu * params.T)
    return channel.click_stats(channel.single_photon(params.p, params.T), noise)


def omega(params: NoiseBeforeParams) -> tuple[float, float]:
    """(exactly one, more than one) photon arriving at Bob per pulse."""
    noise = _NOISE_MODE[params.noise_kind][1](params.mu * params.T)
    return channel.arrivals(channel.single_photon(params.p, params.T), noise)


channel.register("noise-before", NoiseBeforeParams, __name__)
