"""The channel core of the three models, and the model registry.

Each light component reaching Bob (the signal, a thermal or a Poisson noise
mode) has its own outcome triple, written without cancellation: (none,
single, coincidence) on the 50:50 autocorrelation setup, or (0, 1, >= 2)
photons arriving.  Independent components combine by ``witness.combine``,
so a model only names its components.  Transmittances and noise means may be
floats or numpy arrays alike: every formula is elementwise, so one element
of an array gives the bits a float gives.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from types import ModuleType
from typing import NamedTuple

import numpy as np

from . import photon_stats as ps
from .errors import ParameterDomainError, UndefinedRateError
from .security import qber_threshold
from .witness import ClickStats, _require, _within, combine

Triple = tuple[float, float, float]


def validate(T: float, mu: float, e: float, d: float, *, p: float = 0.0, nu: float = 0.0) -> None:
    """Domain checks shared by every model's parameter record; T and mu may be arrays."""
    _require(p, 0.0, 1.0, "emission probability must be in [0, 1], got {}")
    _require(nu, 0.0, sys.float_info.max, "pair mean must be finite and >= 0, got {}")
    if 0.0 < nu < sys.float_info.min:  # the herald 1 - e^-nu, a divisor, would be subnormal
        raise ParameterDomainError(f"pair mean must be 0 or at least 2.2e-308, got {nu}")
    _require(T, 0.0, 1.0, "transmittance must be in [0, 1], got {}")
    _require(mu, 0.0, sys.float_info.max, "noise mean must be finite and >= 0, got {}")
    _require(e, 0.0, 1.0, "depolarization must be in [0, 1], got {}")
    if not 0.0 <= d < 1.0:
        raise ParameterDomainError(f"dark-count probability must be in [0, 1), got {d}")


class Model(NamedTuple):
    """A channel model.  Its module's key_rate, secret_bound, key_statistics,
    click_stats, omega and, where it has them, security_edge, t_min_edge and
    nonclassical_edge are looked up at call time, so a replaced attribute takes effect."""

    name: str
    params_type: type
    module: ModuleType


MODELS: dict[type, Model] = {}


def register(name: str, params_type: type, module_name: str) -> None:
    MODELS[params_type] = Model(name, params_type, sys.modules[module_name])


def model(params) -> Model:
    """The registry entry of a parameter record."""
    if type(params) not in MODELS:
        raise ParameterDomainError(f"unknown model parameter record: {type(params).__name__}")
    return MODELS[type(params)]


def single_photon(p: float, T: float) -> Triple:
    """One photon sent with probability p and kept with T, in either geometry."""
    return 1.0 - p + p * (1.0 - T), p * T, 0.0  # 1 - pT summed from exact parts


def heralded_clicks(nu: float, T: float) -> Triple:
    """Poisson(nu) pairs given a herald, each signal photon kept with T."""
    herald = -math.expm1(-nu)
    lit = -np.expm1(-0.5 * nu * T)  # light at one given detector, times the herald
    none = np.exp(-nu * T) * -np.expm1(-nu * (1.0 - T)) / herald
    return none, 2.0 * np.exp(-0.5 * nu * T) * lit / herald, lit * lit / herald


def heralded_arrivals(nu: float, T: float) -> Triple:
    herald = -math.expm1(-nu)
    x = nu * T
    none = np.exp(-x) * -np.expm1(-nu * (1.0 - T)) / herald
    # two kept photons imply a herald, so the unconditioned Poisson(nu T) tail applies
    more = ps.prob_at_least(ps.PhotonDistribution.poisson(x), 2)
    return none, x * np.exp(-x) / herald, more / herald


def thermal_clicks(m: float) -> Triple:
    """A thermal mode of mean m, of which h = m/2 reaches each detector."""
    h = 0.5 * m
    lit = h / (1.0 + h)
    none = 1.0 / (1.0 + m)
    return none, 2.0 * lit * none, 2.0 * lit * (h / (1.0 + m))


def thermal_arrivals(m: float) -> Triple:
    q = m / (1.0 + m)
    return 1.0 / (1.0 + m), q / (1.0 + m), q * q


def poisson_clicks(m: float) -> Triple:
    """A Poisson mode of mean m: independent Poisson(m/2) light at each detector."""
    dark = np.exp(-0.5 * m)
    lit = -np.expm1(-0.5 * m)
    return dark * dark, 2.0 * lit * dark, lit * lit


def poisson_arrivals(m: float) -> Triple:
    return np.exp(-m), m * np.exp(-m), ps.prob_at_least(ps.PhotonDistribution.poisson(m), 2)


def click_stats(*components: Triple) -> ClickStats:
    none, single, coinc = reduce(combine, components)
    return ClickStats(p_single=single, p_coincidence=coinc, p_none=none)


def arrivals(*components: Triple) -> tuple[float, float]:
    """(exactly one, more than one) photon reaching Bob."""
    _, one, more = reduce(lambda a, b: combine(a, b, 1.0), components)
    return one, more


def key_events(tau: float, beta: float, mup: float, e: float, d: float) -> tuple[float, float]:
    """(accepted, erroneous) events per pulse in the key geometry of an in-line bath.

    tau: the signal reaches Bob; beta: a pulse carrying signal loses all of it;
    mup: mean bath photons reaching each detector.  Dark counts enter at
    leading order: they decide an event only when no photon arrived.
    """
    pi0 = 1.0 / (1.0 + mup)
    excess = mup / (1.0 + mup)  # 1 - pi0 without cancellation
    accepted = tau * pi0 + 2.0 * beta * pi0 * excess + 2.0 * d * beta * pi0**2
    errors = 0.5 * e * tau * pi0 + beta * pi0 * excess + d * beta * pi0**2
    return accepted, errors


def noise_edge(tau, beta, e: float, d: float):
    """The m = mup at which the QBER of ``key_events`` is Q_th; not finite or <= 0 where
    none is.  Times (1 + m)^2 both events are linear in m, so it is [tau (Q_th - e/2) -
    d beta (1 - 2 Q_th)] / [beta (1 - 2 Q_th) - tau (Q_th - e/2)]."""
    qth = qber_threshold()
    signal, noise = tau * (qth - 0.5 * e), beta * (1.0 - 2.0 * qth)
    with np.errstate(all="ignore"):
        return np.divide(signal - d * noise, noise - signal)


def t_min_edge(params) -> float:
    """The T at which ``noise_edge`` of a single-photon source (tau = pT, beta = 1 - pT)
    is 0, d (1 - 2 Q_th) / (p [(Q_th - e/2) + d (1 - 2 Q_th)]): secure above it at mu = 0."""
    qth = qber_threshold()
    dark = params.d * (1.0 - 2.0 * qth)
    with np.errstate(all="ignore"):
        return np.divide(dark, params.p * (qth - 0.5 * params.e + dark))


def classical_edge(s, modes: int):
    """The mean m of each of ``modes`` identical thermal modes at which they and a photon
    arriving with probability s meet the classical bound N = R1^2 (no click, and one given
    detector silent): no m where it is not finite.  R1^2 / N is e^L, L = log1p(s^2 / (4 (1 -
    s))), for the photon, times (1 - q^2)^modes for q = h / (1 + h), h = m / 2, so q =
    sqrt(-expm1(-L / modes)) and m = 2 q / (1 - q) = 2 q (1 + q) e^(L / modes)."""
    with np.errstate(all="ignore"):
        share = np.log1p(s * s / (4.0 * (1.0 - s))) / modes
        q = np.sqrt(-np.expm1(-share))
        return 2.0 * q * (1.0 + q) * np.exp(share)


def error_rate(accepted: float, errors: float) -> float:
    """errors / accepted, at most 1/2: every model has errors <= accepted / 2, which only
    the rounding of tiny or subnormal event probabilities breaks."""
    # only an element at or below 0 raises, not NaN
    if not _within(accepted, math.ulp(0.0), math.inf) and np.any(accepted <= 0.0):
        raise UndefinedRateError("no accepted events: QBER undefined")
    q = errors / accepted
    return np.minimum(q, 0.5) if isinstance(q, np.ndarray) else min(q, 0.5)
