"""Binary entropy, secret-fraction lower bounds and shared threshold constants.

The secret fraction is the number of distillable secret bits per raw-key
bit after error correction and privacy amplification, assuming collective
attacks.  With an ideal single-photon source it reduces to 1 - 2 H(Q);
with multiphoton emission only the fraction y of clicks caused by genuine
single photons contributes, and the bound becomes y - H(Q) - y H(Q/y).
The entropy and the secret fractions take floats or numpy arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, ParameterDomainError
from .roots import bisect_root
from .witness import _within


@dataclass(frozen=True)
class KeyRateResult:
    """Bundle of per-point key-rate quantities."""

    qber: float
    single_photon_fraction: float
    p_exp: float
    delta_i: float


def binary_entropy(q: float) -> float:
    """Shannon entropy of a bit with bias q, in bits; H(0) = H(1) = 0 by continuity."""
    _check_range("entropy argument", q, 1.0)
    # at q = 0 or 1 the logarithm of the vanishing factor reads log2(1) = 0, not log2(0)
    return -q * np.log2(q + (q == 0.0)) - (1.0 - q) * np.log2(1.0 - q + (q == 1.0))


def _check_range(name: str, value, top: float) -> None:
    if not _within(value, 0.0, top):
        raise ParameterDomainError(f"{name} must be in [0, {top:g}], got {value}")


def secret_bound_ideal(q: float) -> float:
    """1 - 2H(q): the ideal-source secret fraction before its clip at 0."""
    _check_range("QBER", q, 0.5)
    return 1.0 - 2.0 * binary_entropy(q)


def secret_fraction_ideal(q: float) -> float:
    """Secret fraction for an ideal single-photon source: max[0, 1 - 2H(q)]."""
    return np.maximum(0.0, secret_bound_ideal(q))


def _multiphoton(q: float, y: float) -> tuple:
    """(y - H(q) - y H(q/y), whether the bracket applies: y > 0 and q <= y)."""
    _check_range("QBER", q, 0.5)
    _check_range("single-photon fraction", y, 1.0)
    live = (y > 0.0) & (q <= y)
    ratio = np.minimum(q, y) / np.where(y > 0.0, y, 1.0)  # q / y where live, else in [0, 1]
    return y - binary_entropy(q) - y * binary_entropy(ratio), live


def secret_bound_multiphoton(q: float, y: float) -> float:
    """The multiphoton secret fraction before its clip at 0.  Where y = 0 or q > y it
    reads y - H(q), which is at most 0: H(q) >= 2q on [0, 1/2]."""
    return _multiphoton(q, y)[0]


def secret_fraction_multiphoton(q: float, y: float) -> float:
    """Secret fraction when only a fraction y of clicks stems from single photons.

    Eve is assumed to read multiphoton pulses in full, so errors concentrate
    on the single-photon part: max[0, y - H(q) - y H(q/y)].  For y = 0 or
    q > y the bracket is negative and the bound is zero.
    """
    bound, live = _multiphoton(q, y)
    return np.maximum(0.0, bound) * live


@lru_cache(maxsize=1)
def qber_threshold() -> float:
    """QBER at which the ideal-source secret fraction vanishes (~0.110028)."""
    return _compute_qber_threshold()


def _compute_qber_threshold() -> float:
    return bisect_root(lambda q: 1.0 - 2.0 * binary_entropy(q), 1e-12, 0.5 - 1e-12)


def y_threshold(e: float) -> float:
    """Minimal single-photon fraction compatible with security at depolarization e.

    Solves y [1 - H(e / (2y))] = H(e / 2) for y in (e/2, 1].  At e = 0 the
    equation degenerates to y = 0; the limiting value 0 is returned.  For
    e >= 2 * qber_threshold() no y <= 1 solves it and the problem is infeasible.
    """
    if e < 0.0 or e > 1.0:
        raise ParameterDomainError(f"depolarization probability must be in [0, 1], got {e}")
    if e == 0.0:
        return 0.0

    h_half = binary_entropy(e / 2.0)

    def f(y: float) -> float:
        return y * (1.0 - binary_entropy(min(e / (2.0 * y), 1.0))) - h_half

    lo = e / 2.0 + 1e-15
    if f(1.0) <= 0.0:
        raise InfeasibleError(
            f"no single-photon fraction <= 1 is secure at depolarization e={e:g}"
        )
    return bisect_root(f, lo, 1.0)
