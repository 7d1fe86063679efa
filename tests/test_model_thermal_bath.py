import numpy as np
import pytest
from mpmath import mp, mpf

import _reference as ref
from dvqkd import photon_stats as ps
from dvqkd import thermal_bath as tb
from dvqkd.errors import ParameterDomainError, UndefinedRateError


def params(p=1.0, T=0.5, mu=0.1, e=0.0, d=0.0):
    return tb.ThermalBathParams(p=p, T=T, mu=mu, e=e, d=d)


class TestEventProbabilities:
    def test_deterministic_photon_no_noise(self):
        pr = params(p=1.0, T=1.0, mu=0.0)
        assert ref.p_plus(pr, 0, 0) == 1.0
        assert ref.p_minus(pr, 0, 0) == 0.0
        assert tb.key_rate(pr).p_exp == 1.0

    def test_plus_composes_with_arrival_kernel(self):
        pr = params(p=0.5, T=0.5, mu=0.1)
        pi0 = ref.pi_k(pr.bath(), 0.5, 0)
        assert ref.p_plus(pr, 0, 0) == pytest.approx(0.25 * pi0**2, rel=1e-14)

    def test_symmetric_in_detectors(self):
        pr = params(p=0.7, T=0.3, mu=0.4)
        for k, l in [(0, 2), (1, 3), (2, 1)]:
            assert ref.p_plus(pr, k, l) == pytest.approx(ref.p_plus(pr, l, k), rel=1e-14)
            assert ref.p_minus(pr, k, l) == pytest.approx(ref.p_minus(pr, l, k), rel=1e-14)

    def test_dark_counts_only(self):
        pr = params(p=0.0, T=0.5, mu=0.0, d=1e-3)
        assert tb.key_rate(pr).p_exp == pytest.approx(2e-3, rel=1e-12)

    def test_half_transmission(self):
        assert tb.key_rate(params(p=1.0, T=0.5, mu=0.0)).p_exp == pytest.approx(0.5, rel=1e-14)

    def test_closed_form_matches_series_assembly(self):
        for p, T, mu, d in [(1.0, 0.3, 0.2, 0.0), (0.4, 0.7, 0.05, 1e-3), (0.9, 0.05, 0.5, 1e-4)]:
            pr = params(p=p, T=T, mu=mu, d=d)
            assert tb.key_rate(pr).p_exp == pytest.approx(ref.p_exp_series(pr), rel=1e-11)


class TestQber:
    def test_depolarization_only(self):
        q = tb.key_rate(params(p=0.8, T=0.6, mu=0.0, e=0.08)).qber
        assert q == pytest.approx(0.04, rel=1e-12)

    def test_pure_dark_counts_are_random(self):
        q = tb.key_rate(params(p=0.0, T=0.5, mu=0.0, d=1e-4)).qber
        assert q == pytest.approx(0.5, abs=1e-15)

    def test_undefined_without_events(self):
        with pytest.raises(UndefinedRateError):
            tb.key_rate(params(p=0.0, T=0.5, mu=0.0, d=0.0)).qber

    @pytest.mark.parametrize("T", [1e-3, 1e-2])
    def test_small_transmittance_asymptote(self, T):
        for mu in (1e-5, 1e-4, 1e-3):
            pr = params(p=1.0, T=T, mu=mu)
            q = tb.key_rate(pr).qber
            assert q == pytest.approx(ref.qber_small_t_approx_thermal_bath(pr), rel=0.05)

    def test_bounded_and_monotone_in_noise(self):
        for p in (0.2, 1.0):
            for T in (0.05, 0.4, 0.9):
                q_prev = -1.0
                for mu in np.geomspace(1e-6, 2.0, 12):
                    q = tb.key_rate(params(p=p, T=T, mu=float(mu), e=0.05, d=1e-4)).qber
                    assert 0.0 <= q <= 0.5
                q_prev = -1.0
                for mu in np.geomspace(1e-6, 2.0, 12):
                    q = tb.key_rate(params(p=p, T=T, mu=float(mu), e=0.0, d=0.0)).qber
                    assert q >= q_prev - 1e-15
                    q_prev = q

    def test_near_unit_emission_and_transmittance_against_mpmath(self):
        # the loss 1 - pT is ~1e-7 here; forming it by subtraction costs ~1e-10 relative
        p, T, mu = 1.0 - 1e-10, 1.0 - 1e-7, 1.0
        with mp.workdps(60):
            lost = 1 - mpf(p) * mpf(T)
            m = mpf(mu) * (1 - mpf(T))
            want = lost * m / (1 + m) / (mpf(p) * mpf(T) + 2 * lost * m / (1 + m))
        assert abs(tb.key_rate(params(p=p, T=T, mu=mu)).qber - want) <= 1e-13 * want


class TestClickStats:
    def test_single_photon_never_coincides(self):
        cs = tb.click_stats(params(p=1.0, T=1.0, mu=0.0))
        assert cs.p_single == 1.0
        assert cs.p_coincidence == 0.0

    def test_empty_source(self):
        cs = tb.click_stats(params(p=0.0, T=0.5, mu=0.0))
        assert cs.p_none == 1.0

    @pytest.mark.parametrize("p", [0.1, 0.6, 1.0])
    @pytest.mark.parametrize("T", [0.01, 0.3, 0.95])
    @pytest.mark.parametrize("mu", [0.0, 0.05, 0.8])
    def test_total_probability(self, p, T, mu):
        cs = tb.click_stats(params(p=p, T=T, mu=mu))
        assert cs.p_single + cs.p_coincidence + cs.p_none == pytest.approx(1.0, abs=1e-12)

    def test_coincidence_matches_naive_difference_when_resolvable(self):
        pr = params(p=0.8, T=0.4, mu=0.3)
        cs = tb.click_stats(pr)
        s = pr.p * pr.T
        g_half = ps.pgf(ref.thinned(pr.bath(), 1.0 - pr.T), 0.5)
        pi0 = ref.pi_k(pr.bath(), pr.T, 0)
        naive = 1.0 - ((2.0 - s) * g_half**2 - 2.0 * (1.0 - s) * pi0**2) - (1.0 - s) * pi0**2
        assert cs.p_coincidence == pytest.approx(naive, rel=1e-9)


class TestOmega:
    def test_deterministic_photon(self):
        assert tb.omega(params(p=1.0, T=1.0, mu=0.0)) == (1.0, 0.0)

    def test_noise_only_leading_order(self):
        for mu in (1e-5, 1e-4):
            for T in (0.2, 0.7):
                w1, _ = tb.omega(params(p=0.0, T=T, mu=mu))
                assert w1 == pytest.approx(2.0 * mu * (1.0 - T), rel=5e-3)

    def test_excess_arrivals_nonnegative(self):
        for mu in (0.0, 0.2, 1.5):
            _, w2 = tb.omega(params(p=0.5, T=0.3, mu=mu))
            assert w2 >= 0.0

    def test_arrival_closure_against_direct_sum(self):
        pr = params(p=0.6, T=0.35, mu=0.25)
        w1, w2 = tb.omega(pr)
        arriving = ref.thinned(pr.bath(), 1.0 - pr.T)
        s = pr.p * pr.T
        p_zero_arrivals = (1.0 - s) * ref.pmf(arriving, 0) ** 2
        assert w1 + w2 + p_zero_arrivals == pytest.approx(1.0, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ParameterDomainError):
        params(p=1.2)
    with pytest.raises(ParameterDomainError):
        params(T=-0.1)
    with pytest.raises(ParameterDomainError):
        params(mu=-1.0)
    with pytest.raises(ParameterDomainError):
        params(d=1.0)
