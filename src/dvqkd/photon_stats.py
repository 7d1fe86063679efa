"""Photon-number laws of sources and noise.

Two laws appear throughout: the single-mode thermal law
p_n = mu^n / (1+mu)^(n+1) and the Poisson law p_n = e^-mu mu^n / n!.
Both families are closed under binomial loss (thinning a source of mean
``mu`` with survival probability ``eta`` gives the same law with mean
``eta * mu``), so the channel models need only their generating functions
and tail probabilities in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError

THERMAL = "thermal"
POISSON = "poisson"


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number law of a source: kind in {thermal, poisson}, mean per pulse."""

    kind: str
    mean: float

    def __post_init__(self) -> None:
        if self.kind not in (THERMAL, POISSON):
            raise ParameterDomainError(f"unknown distribution kind: {self.kind!r}")
        if not (self.mean >= 0.0) or math.isinf(self.mean):
            raise ParameterDomainError(f"mean photon number must be >= 0, got {self.mean}")

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
    return math.exp(-mu * (1.0 - x))


def prob_at_least(dist: PhotonDistribution, k: int) -> float:
    """P(N >= k) without cancellation; Poisson laws take k <= 2 only."""
    mu = dist.mean
    if k <= 0:
        return 1.0
    if mu == 0.0:
        return 0.0
    if dist.kind == THERMAL:
        return (mu / (1.0 + mu)) ** k
    if k == 1:
        return -math.expm1(-mu)
    if k > 2:
        raise ParameterDomainError(f"Poisson tails are implemented for k <= 2, got k = {k}")
    if mu >= 1.0:
        return -math.expm1(-mu) - mu * math.exp(-mu)  # loses at most a factor 2.4
    # e^-mu (mu^2/2! + mu^3/3! + ...): positive terms, summed by fsum
    terms = [0.5 * mu * mu]
    while terms[-1] > 1e-17 * terms[0]:
        terms.append(terms[-1] * mu / (len(terms) + 2))
    return math.exp(-mu) * math.fsum(terms)
