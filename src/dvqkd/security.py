"""Binary entropy, secret-fraction lower bounds and shared threshold constants.

The secret fraction is the number of distillable secret bits per raw-key
bit after error correction and privacy amplification, assuming collective
attacks.  With an ideal single-photon source it reduces to 1 - 2 H(Q);
with multiphoton emission only the fraction y of clicks caused by genuine
single photons contributes, and the bound becomes y - H(Q) - y H(Q/y).
The entropy and the secret fractions take floats or numpy arrays alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError
from .witness import _require

_LOG2E = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class KeyRateResult:
    """Bundle of per-point key-rate quantities."""

    qber: float
    single_photon_fraction: float
    p_exp: float
    delta_i: float


def binary_entropy(q: float) -> float:
    """Shannon entropy of a bit with bias q, in bits; H(0) = H(1) = 0 by continuity."""
    _require(q, 0.0, 1.0, "entropy argument must be in [0, 1], got {}")
    # at q = 0 or 1 the logarithm of the vanishing factor reads log(1) = 0, not log(0);
    # log1p keeps log(1 - q) accurate for small q, where 1 - q rounds
    return (q * np.log(q + (q == 0.0)) + (1.0 - q) * np.log1p((q == 1.0) - q)) * -_LOG2E


def secret_bound_ideal(q: float) -> float:
    """1 - 2H(q): the ideal-source secret fraction before its clip at 0."""
    _require(q, 0.0, 0.5, "QBER must be in [0, 0.5], got {}")
    return 1.0 - 2.0 * binary_entropy(q)


def secret_fraction_ideal(q: float) -> float:
    """Secret fraction for an ideal single-photon source: max[0, 1 - 2H(q)]."""
    return np.maximum(0.0, secret_bound_ideal(q))


def _multiphoton(q: float, y: float) -> tuple:
    """(y - H(q) - y H(q/y), whether the bracket applies: y > 0 and q <= y)."""
    _require(q, 0.0, 0.5, "QBER must be in [0, 0.5], got {}")
    _require(y, 0.0, 1.0, "single-photon fraction must be in [0, 1], got {}")
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
    """QBER at which the ideal-source secret fraction vanishes (~0.110028).

    Newton's method on g(q) = 1 - 2H(q), whose step q - g(q) / g'(q) simplifies to
    (1 + 2 log2(1 - q)) / (2 log2(1/q - 1)), a form that cancels nowhere on (0, 1/2).
    g is convex and decreasing there, so from q = 0.1, where g > 0, each step rises
    toward the root without passing it; the first step that does not rise ends it.
    """
    q, step = 0.0, 0.1
    while step > q:
        q = step
        step = (1.0 + 2.0 * math.log1p(-q) * _LOG2E) / (2.0 * math.log2(1.0 / q - 1.0))
    return q


def y_threshold(e: float) -> float:
    """Minimal single-photon fraction compatible with security at depolarization e.

    Solves f(y) = y [1 - H(x)] - H(e/2) = 0, with x = e / (2y), for y in (e, 1).  At
    e = 0 the equation degenerates to y = 0; the limiting value 0 is returned.  For
    e >= 2 * qber_threshold(), f(1) = 1 - 2H(e/2) <= 0: no y < 1 solves it and the
    problem is infeasible.  Subnormal e is refused: e / 2 loses its digits there.

    Newton's method from y = 1: f'(y) = 1 + log2(1 - x), and the step simplifies to
    y <- (H(e/2) + (e/2) log2(1/x - 1)) / (1 + log2(1 - x)), with no cancellation.
    f is convex, and increasing above y = e, where f(e) = -H(e/2) < 0, so the root
    lies above e and each step falls toward it without passing it; the first step
    that does not fall ends it.  Below 2 Q_th the root is below 1, so a root that
    rounds to 1 reads as the float just below it.
    """
    _require(e, 0.0, 1.0, "depolarization probability must be in [0, 1], got {}")
    if e == 0.0:
        return 0.0
    message = f"depolarization probability must be 0 or at least {sys.float_info.min:g}, got {{}}"
    _require(e, sys.float_info.min, 1.0, message)
    if e >= 2.0 * qber_threshold():
        raise InfeasibleError(f"no single-photon fraction < 1 is secure at depolarization e={e:g}")
    half = 0.5 * e
    h_half = float(binary_entropy(half))
    y, step = math.inf, 1.0
    while step < y:
        y, x = step, e / (2.0 * step)
        step = (h_half + half * math.log2(1.0 / x - 1.0)) / (1.0 + math.log1p(-x) * _LOG2E)
    return min(y, math.nextafter(1.0, 0.0))
