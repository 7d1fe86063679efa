"""Photon-number laws of sources and noise.

Two laws appear throughout: the single-mode thermal law
p_n = mu^n / (1+mu)^(n+1) and the Poisson law p_n = e^-mu mu^n / n!.
Both families are closed under binomial loss (thinning a source of mean
``mu`` with survival probability ``eta`` gives the same law with mean
``eta * mu``), so the channel models need only their generating functions
and tail probabilities in closed form.  Means may be floats or numpy arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .witness import _require

THERMAL = "thermal"
POISSON = "poisson"
# e^mu P(N >= 2) / mu^2 = 1/2! + mu/3! + ... of a Poisson law, highest order first;
# below mu = 1 the first term left out, mu^18/20!, is under 1e-18 of the sum
_POISSON_TAIL = tuple(1.0 / math.factorial(k) for k in range(19, 1, -1))


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number law of a source: kind in {thermal, poisson}, mean per pulse."""

    kind: str
    mean: float

    def __post_init__(self) -> None:
        if self.kind not in (THERMAL, POISSON):
            raise ParameterDomainError(f"unknown distribution kind: {self.kind!r}")
        _require(self.mean, 0.0, sys.float_info.max, "mean photon number must be >= 0, got {}")

    @classmethod
    def thermal(cls, mean: float) -> "PhotonDistribution":
        return cls(THERMAL, mean)

    @classmethod
    def poisson(cls, mean: float) -> "PhotonDistribution":
        return cls(POISSON, mean)


def pgf(dist: PhotonDistribution, x: float) -> float:
    """Probability generating function E[x^N] for x in [0, 1]."""
    mu = dist.mean
    if dist.kind == THERMAL:
        return 1.0 / (1.0 + mu * (1.0 - x))
    return np.exp(-mu * (1.0 - x))


def prob_at_least(dist: PhotonDistribution, k: int) -> float:
    """P(N >= k) without cancellation; Poisson laws take k <= 2 only."""
    mu = dist.mean
    if k <= 0:
        return 1.0
    if dist.kind == THERMAL:
        return (mu / (1.0 + mu)) ** k
    if k == 1:
        return -np.expm1(-mu)
    if k > 2:
        raise ParameterDomainError(f"Poisson tails are implemented for k <= 2, got k = {k}")
    big = np.maximum(mu, 1.0)
    closed = -np.expm1(-big) - big * np.exp(-big)  # loses at most a factor 2.4
    # e^-mu (mu^2/2! + mu^3/3! + ...): positive terms, summed by Horner
    x = np.minimum(mu, 1.0)
    total = 0.0
    for c in _POISSON_TAIL:
        total = total * x + c
    return np.where(mu >= 1.0, closed, np.exp(-x) * total * x * x)[()]
