"""Channel model with in-line thermal baths (sub-unity single-photon source).

Alice emits one photon with probability p per pulse.  The lossy channel of
transmittance T couples each of the two polarization modes to its own
thermal bath of mean mu; bath photons enter Bob's path through the
reflected port, so each mode delivers a thermal mode of mean mu(1-T).
Polarization is depolarized with probability e and Bob's gated detectors
fire spuriously with probability d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from . import photon_stats as ps
from .security import KeyRateResult, secret_bound_ideal, secret_fraction_ideal
from .witness import ClickStats


@dataclass(frozen=True)
class ThermalBathParams:
    p: float  # single-photon emission probability per pulse
    T: float  # channel transmittance
    mu: float  # thermal-bath mean photons per pulse and polarization mode
    e: float = 0.0  # depolarization probability
    d: float = 0.0  # dark-count probability per detector gate

    def __post_init__(self) -> None:
        channel.validate(self.T, self.mu, self.e, self.d, p=self.p)

    def bath(self) -> ps.PhotonDistribution:
        return ps.PhotonDistribution.thermal(self.mu)


def _key_events(params: ThermalBathParams) -> tuple[float, float]:
    lost, kept, _ = channel.single_photon(params.p, params.T)
    return channel.key_events(kept, lost, params.mu * (1.0 - params.T), params.e, params.d)


def key_rate(params: ThermalBathParams) -> KeyRateResult:
    accepted, errors = _key_events(params)
    q = channel.error_rate(accepted, errors)
    return KeyRateResult(
        qber=q,
        single_photon_fraction=1.0,
        p_exp=accepted,
        delta_i=secret_fraction_ideal(q),
    )


def secret_bound(params: ThermalBathParams) -> float:
    """The secret fraction before its clip at 0."""
    return secret_bound_ideal(channel.error_rate(*_key_events(params)))


def security_edge(params: ThermalBathParams):
    """The noise mean at which the QBER reaches Q_th at each of ``params.T``, the
    ``channel.noise_edge`` of m = mu (1 - T) over 1 - T; not finite or <= 0 if none."""
    lost, kept, _ = channel.single_photon(params.p, params.T)
    with np.errstate(all="ignore"):
        return np.divide(channel.noise_edge(kept, lost, params.e, params.d), 1.0 - params.T)


t_min_edge = channel.t_min_edge


def nonclassical_edge(params: ThermalBathParams):
    """The noise mean at which the light at Bob meets the classical bound N = R1^2 at each
    of ``params.T``: the ``channel.classical_edge`` of the photon and the two bath modes of
    mean mu (1 - T), over 1 - T."""
    _, kept, _ = channel.single_photon(params.p, params.T)
    with np.errstate(all="ignore"):
        return np.divide(channel.classical_edge(kept, 2), 1.0 - params.T)


def key_statistics(params: ThermalBathParams) -> dict[str, float]:
    """Key-geometry statistics per pulse, named as the Monte Carlo oracle names them."""
    rate = key_rate(params)
    return {"p_exp": rate.p_exp, "qber": rate.qber}


def click_stats(params: ThermalBathParams) -> ClickStats:
    """Autocorrelation statistics with ideal detectors after a 50:50 splitter."""
    bath = channel.thermal_clicks(params.mu * (1.0 - params.T))
    return channel.click_stats(channel.single_photon(params.p, params.T), bath, bath)


def omega(params: ThermalBathParams) -> tuple[float, float]:
    """(exactly one, more than one) photon arriving at Bob per pulse."""
    bath = channel.thermal_arrivals(params.mu * (1.0 - params.T))
    return channel.arrivals(channel.single_photon(params.p, params.T), bath, bath)


channel.register("thermal-bath", ThermalBathParams, __name__)
