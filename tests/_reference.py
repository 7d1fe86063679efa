"""Reference evaluators that the tests compare the library against.

Truncated photon-number series, per-photon loss and routing kernels, and
term-by-term assemblies of the model probabilities.  They are slow and
exact to the series tolerance; the library's closed forms must agree with
them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np
from mpmath import mp, mpf

from dvqkd import boundary, channel
from dvqkd import photon_stats as ps
from dvqkd.boundary import MU_CEILING, MU_SEED
from dvqkd.errors import ParameterDomainError
from dvqkd.montecarlo import (
    _BLOCK,
    AUTOCORR,
    NU_MAX,
    McConfig,
    McEstimate,
    _assemble,
    _bernoulli_estimate,
    _counts,
)
from dvqkd.noise_before import EventProbs, NoiseBeforeParams
from dvqkd.photon_stats import THERMAL, PhotonDistribution
from dvqkd.roots import _MAX_STEPS, REL_TOL
from dvqkd.spdc import SpdcParams
from dvqkd.thermal_bath import ThermalBathParams
from dvqkd.witness import (
    ClickStats,
    _family,
    combine,
    n_of_v,
    nc_boundary,
    ng_boundary,
    ng_boundary_curve,
)

_LOG_SPACE_CUTOFF = 64  # direct powers are exact enough below this order


class ConvergenceError(RuntimeError):
    """A truncated series failed to meet its tail tolerance within the term cap."""


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for infinite photon-number sums."""

    abs_tail_tol: float = 1e-14
    max_terms: int = 4096

    def __post_init__(self) -> None:
        if not self.abs_tail_tol > 0.0:
            raise ParameterDomainError("abs_tail_tol must be positive")
        if self.max_terms < 16:
            raise ParameterDomainError("max_terms must be at least 16")


DEFAULT_POLICY = SeriesPolicy()


def pmf(dist: PhotonDistribution, n: int) -> float:
    """Probability of emitting exactly n photons in one pulse."""
    if n < 0:
        raise ParameterDomainError(f"photon number must be >= 0, got {n}")
    mu = dist.mean
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if dist.kind == THERMAL:
        if n < _LOG_SPACE_CUTOFF:
            return mu**n / (1.0 + mu) ** (n + 1)
        return math.exp(n * math.log(mu) - (n + 1) * math.log1p(mu))
    if n < _LOG_SPACE_CUTOFF:
        return math.exp(-mu) * mu**n / math.factorial(n)
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1.0))


def tail_bound(dist: PhotonDistribution, n: int) -> float:
    """Upper bound on P(N > n), used to stop truncated series.

    Thermal tails are exactly geometric; Poisson tails are bounded by the
    geometric majorant of the factorial term ratio once n exceeds the mean.
    """
    mu = dist.mean
    if mu == 0.0:
        return 0.0
    if dist.kind == THERMAL:
        q = mu / (1.0 + mu)
        return q ** (n + 1)
    if n + 2 <= mu:
        return 1.0
    r = mu / (n + 2.0)
    return pmf(dist, n) * (mu / (n + 1.0)) / (1.0 - r)


def expect(
    dist: PhotonDistribution,
    f: Callable[[int], float],
    policy: SeriesPolicy = DEFAULT_POLICY,
    f_bound: float = 1.0,
) -> float:
    """Truncated E[f(N)] for a kernel with |f| <= f_bound.

    Terms are accumulated until the tail majorant times ``f_bound`` drops
    below the policy tolerance.  Raises ConvergenceError when the term cap
    is reached first (slowly decaying thermal tails at very large mean).
    """
    total = 0.0
    for n in range(policy.max_terms):
        total += pmf(dist, n) * f(n)
        if tail_bound(dist, n) * f_bound < policy.abs_tail_tol:
            return total
    raise ConvergenceError(
        f"series did not reach tail tolerance {policy.abs_tail_tol:g} "
        f"within {policy.max_terms} terms (kind={dist.kind}, mean={dist.mean:g})"
    )


def thinned(dist: PhotonDistribution, keep: float) -> PhotonDistribution:
    """Distribution after independent per-photon survival with probability ``keep``."""
    if not 0.0 <= keep <= 1.0:
        raise ParameterDomainError(f"survival probability must be in [0, 1], got {keep}")
    return PhotonDistribution(dist.kind, dist.mean * keep)


def pi_k(dist: PhotonDistribution, T: float, k: int) -> float:
    """Probability that k source photons reach the detector through the (1-T) port.

    Each of the n emitted photons independently couples out with probability
    1-T; both supported laws are closed under this thinning, so the value is
    the thinned law's pmf at k.  ``pi_k_series`` is the term-by-term reference.
    """
    _check_transmittance(T)
    if k < 0:
        raise ParameterDomainError(f"photon number must be >= 0, got {k}")
    return pmf(thinned(dist, 1.0 - T), k)


def pi_k_series(
    dist: PhotonDistribution, T: float, k: int, policy: SeriesPolicy = DEFAULT_POLICY
) -> float:
    """Truncated-series evaluation of ``pi_k`` (reference path for the fast one)."""
    _check_transmittance(T)
    if k < 0:
        raise ParameterDomainError(f"photon number must be >= 0, got {k}")

    def kernel(n: int) -> float:
        if n < k:
            return 0.0
        return _binom(n, k) * (1.0 - T) ** k * T ** (n - k)

    return expect(dist, kernel, policy)


def t_i(T: float, i: int) -> float:
    """Probability that at least one of i photons survives transmission T."""
    _check_transmittance(T)
    _check_count(i)
    if i == 0:
        return 0.0
    return -math.expm1(i * math.log1p(-T)) if T < 1.0 else 1.0


def r_i(T: float, i: int) -> float:
    """Probability that an i-photon pulse survives into a single detector.

    The pulse carries a common random linear polarization; the j survivors
    (j >= 1) then all project onto the same output of a polarizing splitter
    with probability 2/(j+1), half of which is attributed to each detector.
    """
    _check_transmittance(T)
    _check_count(i)
    total = 0.0
    for j in range(1, i + 1):
        total += _binom(i, j) * T**j * (1.0 - T) ** (i - j) / (j + 1.0)
    return total


def s_i(T: float, i: int) -> float:
    """Probability that survivors of an i-photon pulse all exit one arm of a 50:50 splitter."""
    _check_transmittance(T)
    _check_count(i)
    total = 0.0
    for j in range(1, i + 1):
        total += _binom(i, j) * T**j * (1.0 - T) ** (i - j) / 2.0**j
    return total


def u_i(T: float, i: int, k: int, l: int) -> float:
    """Same-arm weight for an i-photon signal pulse accompanied by k+l extra photons.

    When k+l >= 1 the empty-signal term j=0 contributes (1-T)^i; otherwise at
    least one signal photon must survive and the sum starts at j=1.
    """
    _check_transmittance(T)
    _check_count(i)
    if k < 0 or l < 0:
        raise ParameterDomainError("photon counts must be >= 0")
    j_start = max(0, 1 - k - l)
    total = 0.0
    for j in range(j_start, i + 1):
        total += _binom(i, j) * T**j * (1.0 - T) ** (i - j) / 2.0**j
    return total


def _binom(n: int, k: int) -> float:
    # cumulative product in floating point; exact far beyond the truncation range
    if k < 0 or k > n:
        return 0.0
    k = min(k, n - k)
    out = 1.0
    for j in range(k):
        out = out * (n - j) / (j + 1)
    return out


def _check_transmittance(T: float) -> None:
    if not 0.0 <= T <= 1.0:
        raise ParameterDomainError(f"transmittance must be in [0, 1], got {T}")


def _check_count(i: int) -> None:
    if i < 0:
        raise ParameterDomainError(f"photon number must be >= 0, got {i}")


def p_plus(params: ThermalBathParams, k: int, l: int) -> float:
    """Signal arrives and (k, l) bath photons reach the (right, wrong) detector."""
    bath = params.bath()
    return params.p * params.T * pi_k(bath, params.T, k) * pi_k(bath, params.T, l)


def p_minus(params: ThermalBathParams, k: int, l: int) -> float:
    """Signal absent or lost while (k, l) bath photons arrive."""
    bath = params.bath()
    return (1.0 - params.p * params.T) * pi_k(bath, params.T, k) * pi_k(bath, params.T, l)


def p_exp_series(params: ThermalBathParams, policy: SeriesPolicy = DEFAULT_POLICY) -> float:
    """Accepted-event probability assembled term by term (reference path)."""
    bath = params.bath()
    s = params.p * params.T
    pi0 = pi_k_series(bath, params.T, 0, policy)
    total_plus = 0.0
    total_minus = 0.0
    for k in range(policy.max_terms):
        pik = pi_k_series(bath, params.T, k, policy)
        total_plus += s * pik * pi0
        if k >= 1:
            total_minus += (1.0 - s) * pik * pi0
        if tail_bound(thinned(bath, 1.0 - params.T), k) < policy.abs_tail_tol:
            break
    return total_plus + 2.0 * total_minus + 2.0 * params.d * (1.0 - s) * pi0 * pi0


def event_probs_series(
    params: NoiseBeforeParams, policy: SeriesPolicy = DEFAULT_POLICY
) -> EventProbs:
    """Term-by-term evaluation of the event probabilities (reference path)."""
    dist = params.noise()
    s = params.p * params.T
    none = expect(dist, lambda i: (1.0 - params.T) ** i, policy)
    same = expect(dist, lambda i: r_i(params.T, i), policy)
    return EventProbs(
        signal=s * none,
        noise=2.0 * (1.0 - s) * same,
        noise_signal=s * same,
        dark=2.0 * params.d * (1.0 - s) * none,
    )


def heralded_pmf(nu: float, i: int) -> float:
    """Unnormalized weight of an i-photon signal pulse passing the herald.

    Zero for i = 0 (an ideal herald never fires on an empty pulse); the
    Poisson weights for i >= 1 sum to the herald probability 1 - e^-nu.
    """
    if nu < 0.0:
        raise ParameterDomainError(f"pair mean must be >= 0, got {nu}")
    if i < 0:
        raise ParameterDomainError(f"photon number must be >= 0, got {i}")
    if i == 0:
        return 0.0
    return pmf(PhotonDistribution.poisson(nu), i)


def pair_plus(params: SpdcParams, k: int, l: int) -> float:
    """>= 1 signal photon arrives while (k, l) bath photons reach the detectors."""
    bath = params.bath()
    return _transmit(params) * pi_k(bath, params.T, k) * pi_k(bath, params.T, l)


def pair_minus(params: SpdcParams, k: int, l: int) -> float:
    """Heralded pulse fully lost while (k, l) bath photons arrive."""
    bath = params.bath()
    return _blocked(params) * pi_k(bath, params.T, k) * pi_k(bath, params.T, l)


def _transmit(params: SpdcParams) -> float:
    # sum over i of q_i t_i = P(heralded and >= 1 signal photon survives)
    return -math.expm1(-params.nu * params.T)


def _blocked(params: SpdcParams) -> float:
    # sum over i of q_i (1 - t_i), kept as a difference of expm1 terms
    return math.expm1(-params.nu * params.T) - math.expm1(-params.nu)


def qber_small_t_approx_thermal_bath(params: ThermalBathParams) -> float:
    """Leading small-T form of the thermal-bath QBER at d = 0 (asymptote cross-check)."""
    s = params.p * params.T
    frac = params.mu / (1.0 + params.mu)
    return (0.5 * params.e * s + frac) / (s + 2.0 * frac)


def qber_small_t_approx_spdc(params: SpdcParams) -> float:
    """Small-T, small-nu QBER form of the heralded source, (e T / 2 + d) / (T + 2 d)."""
    return (0.5 * params.e * params.T + params.d) / (params.T + 2.0 * params.d)


def same_detector_fraction(j: int, samples: int, seed: int) -> McEstimate:
    """Fraction of j-photon pulses with one shared random polarization that
    land entirely in one detector of a polarizing splitter.

    Validates the analytic 2/(j+1) polarization average used by the
    noise-before-channel model.
    """
    if j < 1:
        raise ParameterDomainError(f"photon count must be >= 1, got {j}")
    rng = np.random.default_rng([seed, j])
    x = rng.random(samples)
    at_right = rng.binomial(np.full(samples, j), x)
    same = (at_right == 0) | (at_right == j)
    return _bernoulli_estimate(int(same.sum()), samples)


def model_omega(params) -> tuple[float, float]:
    """(exactly one, more than one) photon arriving at Bob, for any channel model."""
    return channel.model(params).module.omega(params)


def simplified_nc(omega1: float, omega2plus: float) -> bool:
    """Small-signal nonclassicality criterion on arrival probabilities."""
    return 0.5 * omega1 * omega1 > omega2plus


def simplified_ng(omega1: float, omega2plus: float) -> bool:
    """Small-signal non-Gaussianity criterion on arrival probabilities."""
    return omega1**3 > omega2plus


def apply_detector_darkcounts(stats: ClickStats, d: float) -> ClickStats:
    """Click statistics as read from detectors firing spuriously with probability d.

    Each detector adds an independent dark count: one more light component
    with triple ((1-d)^2, 2d(1-d), d^2).
    """
    if not 0.0 <= d < 1.0:
        raise ParameterDomainError(f"dark-count probability must be in [0, 1), got {d}")
    none, single, coinc = combine(
        (stats.p_none, stats.p_single, stats.p_coincidence),
        ((1.0 - d) ** 2, 2.0 * d * (1.0 - d), d * d),
    )
    return ClickStats(p_single=single, p_coincidence=coinc, p_none=none)


@dataclass(frozen=True)
class NGBoundaryPoint:
    """One point of the Gaussian-family boundary, parametrized by V in (0, 1)."""

    v: float
    n_of_v: float
    p_single: float
    p_coincidence: float


def gaussian_boundary_point(v: float) -> NGBoundaryPoint:
    """(P_S, P_C) of the extremal displaced squeezed state with squeezing V."""
    if not 0.0 < v < 1.0:
        raise ParameterDomainError(f"V must lie strictly inside (0, 1), got {v}")
    eps = 1.0 - v
    ps, pc = _family(eps, math.log1p, math.expm1)
    return NGBoundaryPoint(v=v, n_of_v=n_of_v(eps), p_single=ps, p_coincidence=pc)


_THRESHOLD_DIGITS = 50


def binary_entropy_mp(q) -> mpf:
    """H(q) in bits at ``_THRESHOLD_DIGITS`` digits; log1p keeps the (1 - q) term
    where 1 - q would round to 1."""
    with mp.workdps(_THRESHOLD_DIGITS):
        q = mpf(q)
        return (-q * mp.log(q) - (1 - q) * mp.log1p(-q)) / mp.log(2)


def qber_threshold_mp() -> mpf:
    """The root of 1 - 2 H(q) on (0, 1/2), by mpmath's secant solver from 0.11."""
    with mp.workdps(_THRESHOLD_DIGITS):
        return mp.findroot(lambda q: 1 - 2 * binary_entropy_mp(q), mpf("0.11"))


@lru_cache(maxsize=1)
def security_qber_mp() -> mpf:
    """The QBER at which 1 - 2 H(q) is ``boundary.SECURITY_MARGIN``, the edge of the
    security criterion: Q_th less about 1.7e-13, by mpmath's secant solver."""
    with mp.workdps(_THRESHOLD_DIGITS):
        margin = mpf(boundary.SECURITY_MARGIN)
        return mp.findroot(lambda q: 1 - 2 * binary_entropy_mp(q) - margin, mpf("0.11"))


def noise_edge_mp(p: float, T: float, e: float, d: float) -> tuple[mpf, mpf]:
    """The exact noise weight m* = num / den at which a single-photon source (tau = pT,
    beta = 1 - pT) meets the security criterion in the form of ``channel.key_events``:
    (num, den).  Secure at no noise where num > 0; no noise weight reaches the edge
    where den <= 0 too."""
    with mp.workdps(_THRESHOLD_DIGITS):
        q, tau = security_qber_mp(), mpf(p) * mpf(T)
        signal, noise = tau * (q - mpf(e) / 2), (1 - tau) * (1 - 2 * q)
        return signal - mpf(d) * noise, noise - signal


def transmittance_edge_mp(p: float, e: float, d: float) -> mpf:
    """The exact T at which the noise weight m* of a single-photon source is 0:
    d (1 - 2 Q) / (p [(Q - e/2) + d (1 - 2 Q)]) at the security criterion's Q."""
    with mp.workdps(_THRESHOLD_DIGITS):
        q = security_qber_mp()
        dark = mpf(d) * (1 - 2 * q)
        return dark / (mpf(p) * (q - mpf(e) / 2 + dark))


def classical_edge_mp(s: float, modes: int) -> tuple[mpf, mpf]:
    """(m, R1) where a photon arriving with probability s and ``modes`` thermal modes of
    mean m each meet the classical bound N = R1^2, and R1 there, at 50 digits.  Each
    mode's N / R1^2 is c = (1 + 2h) / (1 + h)^2, h = m / 2, and the photon's is (1 - s) /
    (1 - s/2)^2, so c is that ratio to the power 1 / modes and 1 + h is the larger root
    of c u^2 - 2u + 1, (1 + sqrt(1 - c)) / c.  1 - c is about s^2 / (4 modes), so the
    digits it cancels, 2 log10(1 / s), come on top of the 50."""
    with mp.workdps(_THRESHOLD_DIGITS + 2 * max(0, math.ceil(-math.log10(s)))):
        s = mpf(s)
        c = ((1 - s) / (1 - s / 2) ** 2) ** (mpf(1) / modes)
        u = (1 + mp.sqrt(1 - c)) / c
        return 2 * (u - 1), (1 - s / 2) / u**modes


def y_threshold_mp(e: float) -> mpf:
    """The root y in (e, 1) of y [1 - H(e / 2y)] = H(e / 2), for 0 < e < 2 Q_th, by
    bisection on a geometric scale to 1e-30 relative: the root spans 300 decades."""
    with mp.workdps(_THRESHOLD_DIGITS):
        e = mpf(e)
        lo, hi, h_half = e, mpf(1), binary_entropy_mp(e / 2)
        while hi / lo - 1 > mpf("1e-30"):
            mid = mp.sqrt(lo * hi)
            if mid * (1 - binary_entropy_mp(e / (2 * mid))) > h_half:
                hi = mid
            else:
                lo = mid
        return lo


def bisect_predicate_one_level(pred: Callable, holds, fails) -> tuple:
    """The bisection testing one level per predicate call, ``pred(mid)`` on every
    bracket: final brackets (holds, fails), floats or arrays taken elementwise."""
    live = True
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (holds + fails)
        ok = pred(mid)
        holds = np.where(live & ok, mid, holds)
        fails = np.where(live & np.logical_not(ok), mid, fails)
        live = live & (np.abs(fails - holds) > REL_TOL * np.maximum(np.abs(holds), np.abs(fails)))
        if not np.any(live):
            break
    return holds, fails


def t_min_numeric_one_level(params) -> float | None:
    """``boundary.t_min_numeric`` probing its ends and bisecting one level per call."""
    pred = boundary.criterion_predicate(params, boundary.SECURITY)
    if not pred(0.0, 1.0):
        return None
    if pred(0.0, boundary.T_FLOOR):
        return 0.0
    holds, _ = bisect_predicate_one_level(lambda t: pred(0.0, t), 1.0, boundary.T_FLOOR)
    return float(holds)


def criterion_holds(params, criterion: str, mu, T):
    """Whether the criterion holds at (mu, T), decided by the comparisons the
    margins replace: delta_i above the security margin, P_C below the classical or
    Gaussian boundary, or P_S beyond either boundary's reach; elementwise."""
    point = replace(params, T=T, mu=mu)
    if criterion == boundary.SECURITY:
        return boundary.delta_i(point) > boundary.SECURITY_MARGIN
    clicks = boundary.model_clicks(point)
    p_s, p_c = clicks.p_single, clicks.p_coincidence
    if criterion == boundary.NONCLASSICAL:
        return (p_s > 0.5) | (p_c < nc_boundary(np.minimum(p_s, 0.5)))
    top = ng_boundary_curve().p_single[-1]
    return (p_s > top) | (p_c < ng_boundary(np.clip(p_s, 0.0, top)))


def search_mu_max_doubling(pred: Callable, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mu_max search doubling one rung and bisecting one level per predicate call:
    (mu_max, feasible)."""
    feasible = pred(np.zeros(ts.size), ts)
    holds, fails = np.zeros(ts.size), np.full(ts.size, MU_SEED)
    ceiling = np.zeros(ts.size, dtype=bool)
    which = np.flatnonzero(feasible)  # still doubling
    while which.size:
        up = which[pred(fails[which], ts[which])]
        ceiling[up] = fails[up] == MU_CEILING
        up = up[~ceiling[up]]
        holds[up], fails[up] = fails[up], np.minimum(2.0 * fails[up], MU_CEILING)
        which = up
    rest = np.flatnonzero(feasible & ~ceiling)
    holds, fails = bisect_predicate_one_level(
        lambda mu: pred(mu, ts[rest]), holds[rest], fails[rest]
    )
    mu_max = np.where(ceiling, MU_CEILING, 0.0)
    mu_max[rest] = 0.5 * (holds + fails)
    return mu_max, feasible


def ladder_search_one_rung(test: Callable, ladder: np.ndarray, count: int) -> tuple:
    """``roots.ladder_search`` climbing one rung per call and bisecting one level per
    call: (first, holds, fails) of ``count`` points, ``test(x, i)`` a predicate or a
    real margin at values x of points i.  Serves any monotone ladder, the descending
    T ladder of ``t_min_numeric`` as well as the mu ladder."""
    first, which = np.full(count, ladder.size), np.arange(count)  # which: still climbing
    for rung, x in enumerate(ladder.tolist()):
        if not which.size:
            break
        ok = test(np.full(which.size, x), which) > 0.0
        first[which[~ok]] = rung
        which = which[ok]
    holds, fails = ladder[np.maximum(first - 1, 0)], ladder[np.minimum(first, ladder.size - 1)]
    rest = np.flatnonzero(np.abs(fails - holds) > REL_TOL * np.maximum(np.abs(holds), np.abs(fails)))
    holds[rest], fails[rest] = bisect_predicate_one_level(
        lambda mid: test(mid, rest) > 0.0, holds[rest], fails[rest]
    )
    return first, holds, fails


# The Monte Carlo block samplers drawing every random number of the full arrays,
# verbatim; ``montecarlo.simulate`` skips only draws that cannot change a count
# and must return the same estimates bit for bit.

def _sample_noise(rng: np.random.Generator, dist: ps.PhotonDistribution, n: int) -> np.ndarray:
    if dist.mean == 0.0:
        return np.zeros(n, dtype=np.int64)
    if dist.kind == ps.THERMAL:
        return rng.geometric(1.0 / (1.0 + dist.mean), size=n).astype(np.int64) - 1
    return rng.poisson(dist.mean, size=n).astype(np.int64)


def _depolarization_flips(rng: np.random.Generator, e: float, n: int) -> np.ndarray:
    # mixing in the fully depolarized state flips the measured bit half the time
    return rng.random(n) < 0.5 * e


def _key_clicks(
    rng: np.random.Generator,
    n: int,
    signal_arrives: np.ndarray,
    flipped: np.ndarray,
    right_noise: np.ndarray,
    wrong_noise: np.ndarray,
    d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(accepted, erroneous) pulse indicators: exactly one detector clicks, the wrong one."""
    signal_right = signal_arrives & ~flipped
    signal_wrong = signal_arrives & flipped
    real_right = signal_right | (right_noise >= 1)
    real_wrong = signal_wrong | (wrong_noise >= 1)
    any_real = real_right | real_wrong
    dark_right = rng.random(n) < d
    dark_wrong = rng.random(n) < d
    click_right = real_right | (~any_real & dark_right)
    click_wrong = real_wrong | (~any_real & dark_wrong)
    accepted = click_right ^ click_wrong
    return accepted, accepted & click_wrong


def _autocorr_clicks(rng: np.random.Generator, arrivals: np.ndarray) -> dict[str, int]:
    at_a = rng.binomial(arrivals, 0.5)
    at_b = arrivals - at_a
    return _counts(
        p_single=(arrivals >= 1) & ((at_a == 0) | (at_b == 0)),
        p_coincidence=(at_a >= 1) & (at_b >= 1),
        p_none=arrivals == 0,
        omega1=arrivals == 1,
        omega2plus=arrivals >= 2,
    )


def _single_photon(rng: np.random.Generator, params, n: int) -> tuple[np.ndarray, None]:
    """Whether the photon a source emits with probability p reaches Bob."""
    emitted = rng.random(n) < params.p
    return emitted & (rng.random(n) < params.T), None


def _poisson_ppf(u: np.ndarray, nu: float) -> np.ndarray:
    """Smallest k with P(N <= k) >= u for N ~ Poisson(nu), by table lookup.

    The table runs 40 standard deviations past the mean, and the upper tails
    P(N > k) are summed from the top down so that no entry is a difference.
    """
    k = np.arange(int(nu + 40.0 * math.sqrt(nu) + 60.0))
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(k.size)])
    pmf = np.exp(k * math.log(nu) - nu - log_fact)
    above = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)  # above[k] = P(N > k)
    return np.searchsorted(-above, -(1.0 - u))


# the Poisson law pair counts are drawn from, through its quantile function
_poisson = SimpleNamespace(ppf=_poisson_ppf)


def _heralded_pairs(rng: np.random.Generator, params, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal photons reaching Bob from a heralded pulse, and which pulses held >= 2 pairs.

    Pair counts are drawn conditioned on the ideal herald (at least one pair).
    """
    if not 0.0 < params.nu <= NU_MAX:
        raise ParameterDomainError(
            f"spdc Monte Carlo needs a pair mean nu in (0, {NU_MAX:g}], got {params.nu:g}"
        )
    p0 = math.exp(-params.nu)
    u = p0 + (1.0 - p0) * rng.random(n)
    # keep strictly above the vacuum mass and below 1, where the quantile is unbounded
    u = np.clip(u, np.nextafter(p0, 1.0), np.nextafter(1.0, 0.0))
    pairs = _poisson.ppf(u, params.nu)
    return rng.binomial(pairs, params.T), pairs >= 2


def _block_bath(rng: np.random.Generator, params, n: int, target: str, signal) -> dict[str, int]:
    arriving, multi = signal(rng, params, n)
    bath = params.bath()
    # bath photons couple into Bob's path through the reflected (1-T) port
    right = rng.binomial(_sample_noise(rng, bath, n), 1.0 - params.T)
    wrong = rng.binomial(_sample_noise(rng, bath, n), 1.0 - params.T)
    if target == AUTOCORR:
        return _autocorr_clicks(rng, arriving + right + wrong)
    flipped = _depolarization_flips(rng, params.e, n)
    accepted, error = _key_clicks(rng, n, arriving >= 1, flipped, right, wrong, params.d)
    if multi is None:
        return _counts(p_exp=accepted, qber=error)
    return _counts(p_exp=accepted, qber=error, p_multi=multi, multi_and_accepted=multi & accepted)


def _block_noise_before(
    rng: np.random.Generator, params, n: int, target: str, signal
) -> dict[str, int]:
    arriving, _ = signal(rng, params, n)
    transmitted = arriving >= 1
    survivors = rng.binomial(_sample_noise(rng, params.noise(), n), params.T)
    if target == AUTOCORR:
        return _autocorr_clicks(rng, arriving + survivors)
    # one random polarization per noise pulse; the relative phase never
    # enters any routing probability but is drawn to mirror the state
    x = rng.random(n)
    rng.random(n)  # phase
    at_right = rng.binomial(survivors, x)
    at_wrong = survivors - at_right
    flipped = _depolarization_flips(rng, params.e, n)
    accepted, error = _key_clicks(rng, n, transmitted, flipped, at_right, at_wrong, params.d)
    noisy = survivors >= 1
    return _counts(
        p_exp=accepted,
        qber=error,
        p_exp_signal=accepted & transmitted & ~noisy,
        p_exp_noise=accepted & ~transmitted & noisy,
        p_exp_noise_signal=accepted & transmitted & noisy,
        p_exp_dark=accepted & ~transmitted & ~noisy,
    )


_BLOCKS = {
    "thermal-bath": (_single_photon, _block_bath),
    "noise-before": (_single_photon, _block_noise_before),
    "spdc": (_heralded_pairs, _block_bath),
}


def simulate_every_draw(params, config: McConfig, target: str) -> dict[str, McEstimate]:
    """``montecarlo.simulate`` on the samplers above, one generator per block."""
    signal, block = _BLOCKS[channel.model(params).name]
    counts = Counter()
    for block_index, start in enumerate(range(0, config.samples, _BLOCK)):
        rng = np.random.default_rng([config.seed, block_index])
        counts.update(block(rng, params, min(_BLOCK, config.samples - start), target, signal))
    return _assemble(counts, config.samples)
