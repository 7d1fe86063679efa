"""Security, nonclassicality and non-Gaussianity analysis of
discrete-variable QKD over three noisy-channel models."""

from . import boundary, channel, montecarlo, noise_before, photon_stats, security, spdc, thermal_bath, witness
from .noise_before import NoiseBeforeParams
from .photon_stats import PhotonDistribution
from .security import KeyRateResult, binary_entropy, qber_threshold, y_threshold
from .spdc import SpdcParams
from .thermal_bath import ThermalBathParams
from .witness import ClickStats, is_nonclassical, is_nongaussian

__all__ = [
    "boundary",
    "channel",
    "montecarlo",
    "noise_before",
    "photon_stats",
    "security",
    "spdc",
    "thermal_bath",
    "witness",
    "NoiseBeforeParams",
    "PhotonDistribution",
    "KeyRateResult",
    "binary_entropy",
    "qber_threshold",
    "y_threshold",
    "SpdcParams",
    "ThermalBathParams",
    "ClickStats",
    "is_nonclassical",
    "is_nongaussian",
]

__version__ = "0.1.0"
