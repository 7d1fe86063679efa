import pytest

import _reference as ref
from dvqkd import noise_before as nb
from dvqkd import photon_stats as ps
from dvqkd.errors import UndefinedRateError


def params(p=1.0, T=0.5, mu=0.1, e=0.0, d=0.0, kind=ps.THERMAL):
    return nb.NoiseBeforeParams(p=p, T=T, mu=mu, e=e, d=d, noise_kind=kind)


class TestEventProbs:
    def test_no_noise(self):
        ev = nb.event_probs(params(p=0.8, T=0.25, mu=0.0, d=1e-3))
        assert ev.signal == pytest.approx(0.2, rel=1e-12)
        assert ev.noise == 0.0
        assert ev.noise_signal == 0.0
        assert ev.dark == pytest.approx(2e-3 * 0.8, rel=1e-12)

    def test_lossless_channel_blocks_nothing(self):
        # at T=1 only the i=0 noise term survives the (1-T)^i factor
        for kind in (ps.THERMAL, ps.POISSON):
            ev = nb.event_probs(params(p=1.0, T=1.0, mu=0.3, kind=kind))
            assert ev.signal == pytest.approx(
                ref.pmf(ps.PhotonDistribution(kind, 0.3), 0), rel=1e-12
            )

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_closed_forms_match_series(self, kind):
        for p, T, mu in [(0.5, 0.4, 0.2), (1.0, 0.05, 1.1), (0.3, 0.9, 0.6)]:
            pr = params(p=p, T=T, mu=mu, d=1e-3, kind=kind)
            exact = nb.event_probs(pr)
            series = ref.event_probs_series(pr)
            for a, b in zip(exact, series):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-15)


class TestQber:
    def test_depolarization_only(self):
        q = nb.key_rate(params(p=0.6, T=0.3, mu=0.0, e=0.1)).qber
        assert q == pytest.approx(0.05, rel=1e-12)

    def test_noise_only_clicks_are_random(self):
        assert nb.key_rate(params(p=0.0, T=0.3, mu=0.4)).qber == pytest.approx(0.5, abs=1e-15)

    def test_undefined_without_events(self):
        with pytest.raises(UndefinedRateError):
            nb.key_rate(params(p=0.0, T=0.5, mu=0.0)).qber

    def test_small_transmittance_asymptote(self):
        T = 1e-3
        for p in (0.3, 1.0):
            for mu, e in [(0.05, 0.0), (0.2, 0.06)]:
                q = nb.key_rate(params(p=p, T=T, mu=mu, e=e)).qber
                approx = (e * p + mu) / (2.0 * (p + mu))
                assert q == pytest.approx(approx, rel=0.05)

    def test_thermal_poisson_agree_at_low_transmittance(self):
        for mu in (0.05, 0.3, 1.0):
            qt = nb.key_rate(params(p=1.0, T=0.01, mu=mu)).qber
            qp = nb.key_rate(params(p=1.0, T=0.01, mu=mu, kind=ps.POISSON)).qber
            assert abs(qt - qp) / qt < 0.01


    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_key_statistics_evaluates_event_probs_once(self, kind, monkeypatch):
        pr = params(p=0.7, T=0.45, mu=0.25, e=0.04, d=1e-3, kind=kind)
        calls, real = [], nb.event_probs
        monkeypatch.setattr(nb, "event_probs", lambda x: calls.append(x) or real(x))
        stats = nb.key_statistics(pr)
        assert len(calls) == 1
        rate = nb.key_rate(pr)
        assert (stats["p_exp"], stats["qber"]) == (rate.p_exp, rate.qber)


class TestClickStats:
    def test_no_noise_single_photon(self):
        cs = nb.click_stats(params(p=0.7, T=0.4, mu=0.0))
        assert cs.p_single == pytest.approx(0.28, rel=1e-12)
        assert cs.p_coincidence == 0.0

    def test_noise_alone_can_coincide(self):
        cs = nb.click_stats(params(p=0.0, T=0.8, mu=1.0))
        assert cs.p_coincidence > 0.01

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    @pytest.mark.parametrize("p,T,mu", [(0.2, 0.1, 0.05), (1.0, 0.9, 0.7), (0.6, 0.5, 0.0)])
    def test_total_probability(self, kind, p, T, mu):
        cs = nb.click_stats(params(p=p, T=T, mu=mu, kind=kind))
        assert cs.p_single + cs.p_coincidence + cs.p_none == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_coincidence_matches_series_route(self, kind):
        pr = params(p=0.8, T=0.6, mu=0.4, kind=kind)
        dist = pr.noise()
        s = pr.p * pr.T
        one_arm = ref.expect(dist, lambda i: ref.s_i(pr.T, i))
        none = ref.expect(dist, lambda i: (1.0 - pr.T) ** i)
        p_single = s * none + (2.0 - s) * one_arm
        naive_pc = 1.0 - p_single - (1.0 - s) * none
        assert nb.click_stats(pr).p_coincidence == pytest.approx(naive_pc, rel=1e-9)


class TestOmega:
    def test_no_noise(self):
        assert nb.omega(params(p=0.45, T=0.2, mu=0.0)) == (pytest.approx(0.09), 0.0)

    def test_thermal_small_t_forms(self):
        T = 1e-3
        for p, mu in [(1.0, 0.1), (0.4, 0.03)]:
            w1, w2 = nb.omega(params(p=p, T=T, mu=mu))
            assert w1 / ((p + mu) * T) == pytest.approx(1.0, abs=0.02)
            assert w2 / (mu * (p + mu) * T * T) == pytest.approx(1.0, abs=0.05)

    def test_poisson_small_t_excess(self):
        T = 1e-3
        for p, mu in [(1.0, 0.1), (0.5, 0.2)]:
            _, w2 = nb.omega(params(p=p, T=T, mu=mu, kind=ps.POISSON))
            assert w2 / (mu * (p + mu / 2.0) * T * T) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_arrival_closure(self, kind):
        pr = params(p=0.6, T=0.35, mu=0.5, kind=kind)
        w1, w2 = nb.omega(pr)
        s = pr.p * pr.T
        none = ps.pgf(pr.noise(), 1.0 - pr.T)
        assert w1 + w2 + (1.0 - s) * none == pytest.approx(1.0, abs=1e-12)


def test_polarization_average_is_two_over_j_plus_one():
    # the same-detector weight of j identically polarized survivors, averaged
    # over the uniform polarization parameter, integrates to 2/(j+1)
    import numpy as np

    for j in (1, 2, 3, 5):
        xs = np.linspace(0.0, 1.0, 200001)
        avg = np.trapezoid(xs**j + (1 - xs) ** j, xs)
        assert avg == pytest.approx(2.0 / (j + 1.0), rel=1e-6)
        # and the kernel at T=1 reproduces it up to the factor-2 split
        assert ref.r_i(1.0, j) == pytest.approx(1.0 / (j + 1.0), rel=1e-12)
