import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp, expm1, mp, mpf

import _reference as ref
from dvqkd import photon_stats as ps
from dvqkd.errors import ParameterDomainError


THERMAL_HALF = ps.PhotonDistribution.thermal(0.5)
POISSON_ONE = ps.PhotonDistribution.poisson(1.0)


class TestPmf:
    def test_vacuum_source(self):
        assert ref.pmf(ps.PhotonDistribution.thermal(0.0), 0) == 1.0
        assert ref.pmf(ps.PhotonDistribution.thermal(0.0), 3) == 0.0

    def test_thermal_unit_mean(self):
        dist = ps.PhotonDistribution.thermal(1.0)
        assert ref.pmf(dist, 0) == pytest.approx(0.5, abs=1e-15)
        assert ref.pmf(dist, 1) == pytest.approx(0.25, abs=1e-15)

    def test_poisson_unit_mean(self):
        assert ref.pmf(POISSON_ONE, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("dist", [THERMAL_HALF, POISSON_ONE, ps.PhotonDistribution.thermal(3.0)])
    def test_normalization(self, dist):
        total = sum(ref.pmf(dist, n) for n in range(600))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_n_stable(self):
        # log-space path: no overflow, still strictly positive and decaying
        v1 = ref.pmf(ps.PhotonDistribution.thermal(2.0), 500)
        v2 = ref.pmf(ps.PhotonDistribution.thermal(2.0), 501)
        assert 0.0 < v2 < v1
        assert ref.pmf(ps.PhotonDistribution.poisson(5.0), 500) >= 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ParameterDomainError):
            ps.PhotonDistribution.thermal(-0.1)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterDomainError):
            ref.pmf(THERMAL_HALF, -1)


class TestPiK:
    def test_full_transmission_keeps_noise_out(self):
        dist = ps.PhotonDistribution.thermal(0.7)
        assert ref.pi_k(dist, 1.0, 0) == 1.0
        assert ref.pi_k(dist, 1.0, 1) == 0.0
        assert ref.pi_k(dist, 1.0, 4) == 0.0

    def test_thermal_closed_form_value(self):
        dist = ps.PhotonDistribution.thermal(0.1)
        assert ref.pi_k(dist, 0.5, 0) == pytest.approx(1.0 / 1.05, rel=1e-14)

    def test_opaque_channel_reflects_everything(self):
        dist = ps.PhotonDistribution.thermal(0.1)
        assert ref.pi_k(dist, 0.0, 1) == pytest.approx(0.1 / 1.21, rel=1e-14)

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    @pytest.mark.parametrize("mu", [0.05, 0.3, 1.7])
    @pytest.mark.parametrize("T", [0.0, 0.2, 0.65, 0.99])
    def test_closed_form_matches_series(self, kind, mu, T):
        dist = ps.PhotonDistribution(kind, mu)
        for k in range(6):
            assert ref.pi_k(dist, T, k) == pytest.approx(
                ref.pi_k_series(dist, T, k), abs=1e-12
            )

    def test_completeness(self):
        dist = ps.PhotonDistribution.thermal(0.8)
        total = sum(ref.pi_k(dist, 0.4, k) for k in range(300))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_binomial_thinning_oracle(self):
        # sample emission counts and thin each photon with probability 1-T
        rng = np.random.default_rng(42)
        n_samples = 1_000_000
        mu, T = 0.25, 0.35
        emitted = rng.geometric(1.0 / (1.0 + mu), size=n_samples) - 1
        arrived = rng.binomial(emitted, 1.0 - T)
        dist = ps.PhotonDistribution.thermal(mu)
        for k in range(4):
            frac = float(np.mean(arrived == k))
            se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / n_samples)
            assert abs(frac - ref.pi_k(dist, T, k)) <= 4.0 * se


class TestKernels:
    def test_single_photon(self):
        assert ref.t_i(0.37, 1) == pytest.approx(0.37, rel=1e-14)
        assert ref.r_i(0.37, 1) == pytest.approx(0.185, rel=1e-14)
        assert ref.s_i(0.37, 1) == pytest.approx(0.185, rel=1e-14)

    def test_two_photon_values(self):
        assert ref.t_i(0.3, 2) == pytest.approx(0.51, rel=1e-14)
        assert ref.r_i(1.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert ref.s_i(1.0, 2) == pytest.approx(0.25, rel=1e-14)
        assert ref.r_i(0.3, 2) == pytest.approx(0.24, rel=1e-14)

    def test_lossless_and_opaque_limits(self):
        for i in range(1, 8):
            assert ref.t_i(1.0, i) == 1.0
            assert ref.r_i(0.0, i) == 0.0
            assert ref.s_i(0.0, i) == 0.0
        assert ref.t_i(0.9, 0) == 0.0

    @pytest.mark.parametrize("T", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_kernel_ordering_chain(self, T):
        # 1/(j+1) and 2^-j both never exceed the bare binomial weight
        for i in range(1, 21):
            r, s, t = ref.r_i(T, i), ref.s_i(T, i), ref.t_i(T, i)
            assert 0.0 <= r <= t <= 1.0
            assert 0.0 <= s <= t <= 1.0

    def test_t_monotone_in_transmittance(self):
        grid = np.linspace(0.0, 1.0, 11)
        for i in range(1, 21):
            vals = [ref.t_i(float(T), i) for T in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_u_with_companions_keeps_empty_term(self):
        assert ref.u_i(0.5, 0, 1, 0) == 1.0
        assert ref.u_i(0.0, 2, 1, 1) == 1.0

    def test_u_without_companions_starts_at_one(self):
        assert ref.u_i(0.42, 1, 0, 0) == pytest.approx(0.21, rel=1e-14)


class TestSeries:
    def test_expectation_against_pgf(self):
        dist = ps.PhotonDistribution.thermal(0.6)
        x = 0.35
        assert ref.expect(dist, lambda n: x**n) == pytest.approx(ps.pgf(dist, x), rel=1e-12)

    def test_poisson_expectation_against_pgf(self):
        dist = ps.PhotonDistribution.poisson(1.3)
        x = 0.8
        assert ref.expect(dist, lambda n: x**n) == pytest.approx(ps.pgf(dist, x), rel=1e-12)

    def test_term_cap_raises(self):
        dist = ps.PhotonDistribution.thermal(50.0)
        with pytest.raises(ref.ConvergenceError):
            ref.expect(dist, lambda n: 1.0, ref.SeriesPolicy(abs_tail_tol=1e-14, max_terms=16))

    def test_policy_validation(self):
        with pytest.raises(ParameterDomainError):
            ref.SeriesPolicy(abs_tail_tol=0.0)
        with pytest.raises(ParameterDomainError):
            ref.SeriesPolicy(max_terms=4)

    def test_prob_at_least_stable_for_tiny_means(self):
        pois = ps.PhotonDistribution.poisson(1e-8)
        # 1 - (1 + mu) e^-mu would cancel; the series branch must not
        assert ps.prob_at_least(pois, 2) == pytest.approx(0.5e-16, rel=1e-6)
        therm = ps.PhotonDistribution.thermal(1e-8)
        assert ps.prob_at_least(therm, 2) == pytest.approx(1e-16, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(log_mu=st.floats(min_value=-12.0, max_value=3.0), k=st.sampled_from([1, 2]))
@example(log_mu=0.0, k=2)  # the switch from the series to the closed form
def test_poisson_tail_against_mpmath(log_mu, k):
    mu = 10.0**log_mu
    with mp.workdps(60):
        m = mpf(mu)
        want = -expm1(-m) if k == 1 else -expm1(-m) - m * exp(-m)
    got = ps.prob_at_least(ps.PhotonDistribution.poisson(mu), k)
    assert abs(got - want) <= 1e-15 * want


def test_poisson_tail_beyond_two_rejected():
    with pytest.raises(ParameterDomainError):
        ps.prob_at_least(POISSON_ONE, 3)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=0.0, max_value=5.0),
    T=st.floats(min_value=0.0, max_value=1.0),
    k=st.integers(min_value=0, max_value=10),
)
def test_pi_k_is_a_probability(mu, T, k):
    dist = ps.PhotonDistribution.thermal(mu)
    assert 0.0 <= ref.pi_k(dist, T, k) <= 1.0
