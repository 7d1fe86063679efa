import math
import sys

import pytest

import _reference as ref
from dvqkd import spdc
from dvqkd import thermal_bath as tb
from dvqkd.errors import ParameterDomainError, UndefinedRateError


def params(nu=0.01, T=0.5, mu=0.1, e=0.0, d=0.0):
    return spdc.SpdcParams(nu=nu, T=T, mu=mu, e=e, d=d)


class TestHeraldedPmf:
    def test_empty_pulse_never_heralded(self):
        assert ref.heralded_pmf(0.3, 0) == 0.0

    def test_total_weight_is_herald_probability(self):
        nu = 0.1
        total = sum(ref.heralded_pmf(nu, i) for i in range(1, 60))
        assert total == pytest.approx(1.0 - math.exp(-nu), rel=1e-12)
        assert spdc.herald_prob(nu) == pytest.approx(total, rel=1e-12)

    def test_poisson_weights(self):
        nu = 0.2
        assert ref.heralded_pmf(nu, 2) == pytest.approx(
            math.exp(-nu) * nu**2 / 2.0, rel=1e-12
        )


class TestPairKernels:
    def test_opaque_channel(self):
        assert ref.pair_plus(params(T=0.0), 0, 0) == 0.0

    def test_single_pair_limit(self):
        nu = 1e-8
        pr = params(nu=nu, T=0.35, mu=0.05)
        pi0 = ref.pi_k(pr.bath(), pr.T, 0)
        assert ref.pair_plus(pr, 0, 0) / spdc.herald_prob(nu) == pytest.approx(
            0.35 * pi0**2, rel=1e-6
        )

    def test_split_by_transmission(self):
        pr = params(nu=0.3, T=0.6, mu=0.2)
        total = ref.pair_plus(pr, 1, 2) + ref.pair_minus(pr, 1, 2)
        pi = ref.pi_k(pr.bath(), pr.T, 1) * ref.pi_k(pr.bath(), pr.T, 2)
        assert total == pytest.approx(spdc.herald_prob(pr.nu) * pi, rel=1e-12)


class TestKeyStats:
    def test_lossless_noiseless(self):
        nu = 0.01
        st = spdc.key_stats(params(nu=nu, T=1.0, mu=0.0))
        assert st.p_exp == pytest.approx(spdc.herald_prob(nu), rel=1e-12)
        assert st.p_multi == pytest.approx(1.0 - math.exp(-nu) - nu * math.exp(-nu), rel=1e-9)
        assert st.single_photon_fraction == pytest.approx(1.0 - st.p_multi / st.p_exp, rel=1e-12)

    def test_depolarization_only_error(self):
        st = spdc.key_stats(params(nu=0.05, T=0.4, mu=0.0, e=0.07))
        assert st.qber == pytest.approx(0.035, rel=1e-12)

    def test_small_parameter_qber_form(self):
        pr = params(nu=1e-4, T=1e-2, mu=1e-6, e=0.05, d=0.0)
        assert spdc.key_stats(pr).qber == pytest.approx(ref.qber_small_t_approx_spdc(pr), rel=0.05)

    def test_small_parameter_qber_form_with_dark_counts(self):
        pr = params(nu=1e-4, T=1e-2, mu=1e-6, e=0.05, d=1e-4)
        assert spdc.key_stats(pr).qber == pytest.approx(ref.qber_small_t_approx_spdc(pr), rel=0.05)

    def test_fraction_bounds_and_limit(self):
        for nu in (1e-5, 1e-3, 0.1, 0.5):
            y = spdc.key_stats(params(nu=nu, T=0.3, mu=0.01, d=1e-4)).single_photon_fraction
            assert 0.0 <= y <= 1.0
        ys = [
            spdc.key_stats(params(nu=nu, T=0.3, mu=0.0)).single_photon_fraction
            for nu in (1e-2, 1e-4, 1e-6)
        ]
        assert ys[-1] > ys[0]
        assert ys[-1] == pytest.approx(1.0, abs=1e-5)

    def test_undefined_without_events(self):
        with pytest.raises(UndefinedRateError):
            spdc.key_stats(params(nu=0.1, T=0.0, mu=0.0, d=0.0))

    def test_key_stats_evaluates_multi_pair_weight_once_per_pair_mean(self, monkeypatch):
        spdc._multi_pair_prob.cache_clear()
        calls, real = [], spdc.ps.prob_at_least
        monkeypatch.setattr(spdc.ps, "prob_at_least", lambda *a: calls.append(a) or real(*a))
        for T, mu in [(0.5, 0.1), (1e-3, 0.0), (0.9, 2.0)]:
            st = spdc.key_stats(params(nu=0.0123, T=T, mu=mu))
            assert st.p_multi == real(spdc.ps.PhotonDistribution.poisson(0.0123), 2)
        assert len(calls) == 1
        spdc.key_stats(params(nu=0.0456))
        assert len(calls) == 2
        spdc._multi_pair_prob.cache_clear()


class TestClickStats:
    def test_single_pair_limit_is_attenuated_photon(self):
        cs = spdc.click_stats(params(nu=1e-7, T=0.45, mu=0.0))
        assert cs.p_single == pytest.approx(0.45, rel=1e-6)
        assert cs.p_coincidence == pytest.approx(0.0, abs=1e-7)

    def test_lossless_splitter_statistics(self):
        nu = 0.1
        cs = spdc.click_stats(params(nu=nu, T=1.0, mu=0.0))
        herald = spdc.herald_prob(nu)
        brute = sum(ref.heralded_pmf(nu, i) * 2.0 ** (1 - i) for i in range(1, 80)) / herald
        assert cs.p_single == pytest.approx(brute, rel=1e-10)
        assert cs.p_none == pytest.approx(0.0, abs=1e-15)
        assert cs.p_coincidence == pytest.approx(1.0 - brute, rel=1e-9)

    @pytest.mark.parametrize("nu,T,mu", [(0.01, 0.1, 0.05), (0.3, 0.8, 0.4), (1e-4, 0.02, 0.0)])
    def test_total_probability(self, nu, T, mu):
        cs = spdc.click_stats(params(nu=nu, T=T, mu=mu))
        assert cs.p_single + cs.p_coincidence + cs.p_none == pytest.approx(1.0, abs=1e-12)

    def test_requires_heralds(self):
        with pytest.raises(UndefinedRateError):
            spdc.click_stats(params(nu=0.0))

    def test_subnormal_pair_mean_is_refused(self):
        # the herald 1 - e^-nu divides the click statistics and keeps no digits there
        with pytest.raises(ParameterDomainError, match="^pair mean must be 0 or at least"):
            params(nu=5e-324)
        assert params(nu=sys.float_info.min).nu == sys.float_info.min


class TestOmega:
    def test_asymptotic_forms(self):
        nu, T, mu = 1e-5, 1e-2, 1e-4
        w1, w2 = spdc.omega(params(nu=nu, T=T, mu=mu))
        assert w1 == pytest.approx(T + 2 * mu, rel=0.10)
        assert w2 == pytest.approx(2 * T * mu + 3 * mu * mu, rel=0.10)

    def test_pure_source_excess_is_pair_driven(self):
        nu, T = 1e-4, 1e-2
        _, w2 = spdc.omega(params(nu=nu, T=T, mu=0.0))
        assert w2 / (nu * T * T / 2.0) == pytest.approx(1.0, abs=0.05)

    def test_opaque_channel_sees_only_bath(self):
        pr = params(nu=0.05, T=0.0, mu=0.3)
        w1, _ = spdc.omega(pr)
        pi0 = ref.pi_k(pr.bath(), 0.0, 0)
        pi1 = ref.pi_k(pr.bath(), 0.0, 1)
        assert w1 == pytest.approx(2.0 * pi0 * pi1, rel=1e-9)

    def test_requires_heralds(self):
        with pytest.raises(UndefinedRateError):
            spdc.omega(params(nu=0.0))


class TestModelContinuity:
    """At vanishing pair number the heralded source is an ideal single photon."""

    @pytest.mark.parametrize("T,mu,e,d", [(0.1, 0.05, 0.0, 0.0), (0.5, 0.2, 0.04, 1e-4)])
    def test_matches_single_photon_model(self, T, mu, e, d):
        nu = 1e-6
        herald = spdc.herald_prob(nu)
        spdc_params = params(nu=nu, T=T, mu=mu, e=e, d=d)
        ref = tb.ThermalBathParams(p=1.0, T=T, mu=mu, e=e, d=d)

        st = spdc.key_stats(spdc_params)
        assert st.p_exp / herald == pytest.approx(tb.key_rate(ref).p_exp, rel=1e-3)
        assert st.qber == pytest.approx(tb.key_rate(ref).qber, rel=1e-3)
        assert st.single_photon_fraction == pytest.approx(1.0, abs=1e-3)

        cs = spdc.click_stats(spdc_params)
        cs_ref = tb.click_stats(ref)
        assert cs.p_single == pytest.approx(cs_ref.p_single, rel=1e-3)
        assert cs.p_coincidence == pytest.approx(cs_ref.p_coincidence, rel=1e-3)
        assert cs.p_none == pytest.approx(cs_ref.p_none, rel=1e-3)

        w = spdc.omega(spdc_params)
        w_ref = tb.omega(ref)
        assert w[0] == pytest.approx(w_ref[0], rel=1e-3)
        assert w[1] == pytest.approx(w_ref[1], rel=1e-3)
