"""Click and arrival statistics of every model against an 80-digit evaluation.

The reference builds the generating function of the photons reaching Bob
from each light component and differences it in mpmath, an independent
route from the library's per-component triples.  T, mu and nu are drawn
log-uniformly over [1e-12, 1], the range the boundary sweeps reach.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp, expm1, log1p, mp, mpf

from dvqkd import noise_before, spdc, thermal_bath
from dvqkd.photon_stats import POISSON, THERMAL

REL_TOL = 1e-13
# the smallest statistics drawn (P_C near 1e-39) are differences of numbers near 1
DIGITS = 80
log_uniform = st.floats(min_value=-12.0, max_value=0.0).map(lambda k: 10.0**k)
dark = st.floats(min_value=-12.0, max_value=-1.0).map(lambda k: 10.0**k)


def _signal(s):
    return lambda x: 1 - s + s * x, s


def _heralded(nu, T):
    herald = 1 - exp(-nu)
    return lambda x: (exp(-nu * T * (1 - x)) - exp(-nu)) / herald, nu * T * exp(-nu * T) / herald


def _thermal(m):
    return lambda x: 1 / (1 + m * (1 - x)), m / (1 + m) ** 2


def _poisson(m):
    return lambda x: exp(-m * (1 - x)), m * exp(-m)


def _reference(components):
    """(P_S, P_C, P_none, omega1, omega2plus) of independent (pgf, P(one photon)) pairs."""

    def pgf(x):
        out = mpf(1)
        for g, _ in components:
            out *= g(x)
        return out

    none, half = pgf(mpf(0)), pgf(mpf(1) / 2)
    one = mpf(0)
    for i, (_, g1) in enumerate(components):
        term = g1
        for j, (g, _) in enumerate(components):
            if j != i:
                term *= g(mpf(0))
        one += term
    return 2 * (half - none), 1 - 2 * half + none, none, one, 1 - none - one


def _check(module, params, want):
    clicks = module.click_stats(params)
    got = (clicks.p_single, clicks.p_coincidence, clicks.p_none, *module.omega(params))
    names = ("p_single", "p_coincidence", "p_none", "omega1", "omega2plus")
    for name, g, w in zip(names, got, want):
        assert abs(g - w) <= REL_TOL * abs(w), (name, params, g, float(w))


@settings(max_examples=150, deadline=None)
@given(p=log_uniform, T=log_uniform, mu=log_uniform)
@example(p=1.0, T=1e-9, mu=1e-12)
def test_thermal_bath(p, T, mu):
    with mp.workdps(DIGITS):
        m = mpf(mu) * (1 - mpf(T))
        want = _reference([_signal(mpf(p) * mpf(T)), _thermal(m), _thermal(m)])
    _check(thermal_bath, thermal_bath.ThermalBathParams(p=p, T=T, mu=mu), want)


@pytest.mark.parametrize("kind, mode", [(THERMAL, _thermal), (POISSON, _poisson)])
@settings(max_examples=150, deadline=None)
@given(p=log_uniform, T=log_uniform, mu=log_uniform)
def test_noise_before(kind, mode, p, T, mu):
    with mp.workdps(DIGITS):
        want = _reference([_signal(mpf(p) * mpf(T)), mode(mpf(mu) * mpf(T))])
    params = noise_before.NoiseBeforeParams(p=p, T=T, mu=mu, noise_kind=kind)
    _check(noise_before, params, want)


@settings(max_examples=150, deadline=None)
@given(nu=log_uniform, T=log_uniform, mu=log_uniform)
@example(nu=1e-8, T=1e-4, mu=1e-12)
def test_spdc(nu, T, mu):
    with mp.workdps(DIGITS):
        m = mpf(mu) * (1 - mpf(T))
        want = _reference([_heralded(mpf(nu), mpf(T)), _thermal(m), _thermal(m)])
    _check(spdc, spdc.SpdcParams(nu=nu, T=T, mu=mu), want)


def _same_detector(kind, x):
    """Chance that a noise pulse's survivors, at least one, all reach one given detector."""
    if kind == THERMAL:
        return log1p(x) / x - 1 / (1 + x)
    return -expm1(-x) / x - exp(-x)


@pytest.mark.parametrize("kind", [THERMAL, POISSON])
@settings(max_examples=150, deadline=None)
@given(p=log_uniform, T=log_uniform, x=log_uniform, d=dark)
@example(p=1.0, T=1e-6, x=0.25e-6, d=1e-12)
@example(p=1.0, T=1e-9, x=0.25e-9, d=1e-12)
def test_noise_before_event_probs(kind, p, T, x, d):
    # x = mu T is the mean number of noise photons reaching Bob
    params = noise_before.NoiseBeforeParams(p=p, T=T, mu=x / T, d=d, noise_kind=kind)
    with mp.workdps(DIGITS):
        X = mpf(params.mu) * mpf(T)
        s = mpf(p) * mpf(T)
        none = 1 / (1 + X) if kind == THERMAL else exp(-X)
        same = _same_detector(kind, X)
        want = (s * none, 2 * (1 - s) * same, s * same, 2 * mpf(d) * (1 - s) * none)
    got = noise_before.event_probs(params)
    for name, g, w in zip(got._fields, got, want):
        assert abs(g - w) <= REL_TOL * abs(w), (name, params, g, float(w))
