import math

import numpy as np
import pytest

from dvqkd import boundary, noise_before, spdc, thermal_bath, witness
from dvqkd.errors import ParameterDomainError


def tb_params(p=1.0, T=0.1, mu=0.0, e=0.0, d=0.0):
    return thermal_bath.ThermalBathParams(p=p, T=T, mu=mu, e=e, d=d)


class TestMuMaxNumeric:
    def test_nongaussian_matches_quadratic_asymptote(self):
        got = boundary.mu_max_numeric(tb_params(T=1e-2), boundary.NONGAUSSIAN)
        assert got == pytest.approx(5e-5, rel=0.15)

    def test_nonclassical_noise_before_saturates_at_emission_probability(self):
        pr = noise_before.NoiseBeforeParams(p=0.5, T=1e-3, mu=0.0)
        got = boundary.mu_max_numeric(pr, boundary.NONCLASSICAL)
        assert got == pytest.approx(0.5, rel=0.20)

    def test_security_infeasible_below_minimal_transmittance(self):
        t_min = boundary.t_min_ideal_source(p=1.0, e=0.0, d=1e-3)
        pr = tb_params(T=0.5 * t_min, d=1e-3)
        assert boundary.mu_max_numeric(pr, boundary.SECURITY) is None

    def test_noise_free_transmittance_hits_ceiling(self):
        # at T = 1 the bath never couples into this channel: secure for any mu
        got = boundary.mu_max_numeric(tb_params(T=1.0), boundary.SECURITY)
        assert got == boundary.MU_CEILING

    def test_flags_by_construction(self):
        pr = tb_params(T=0.1)
        mu_ng = boundary.mu_max_numeric(pr, boundary.NONGAUSSIAN)
        below = boundary.model_clicks(tb_params(T=0.1, mu=0.5 * mu_ng))
        above = boundary.model_clicks(tb_params(T=0.1, mu=1.5 * mu_ng))
        assert witness.is_nongaussian(below)
        assert not witness.is_nongaussian(above)

    def test_unknown_criterion(self):
        with pytest.raises(ParameterDomainError):
            boundary.mu_max_numeric(tb_params(), "secure-ish")


class TestSearchFallback:
    def test_monotone_predicate_direct(self):
        got = boundary._search_mu_max(lambda mu: mu < 0.37)
        assert got == pytest.approx(0.37, rel=1e-6)

    def test_non_monotone_predicate_gives_edge_nearest_zero(self):
        # holds on [0, 0.01], fails, then holds again on a broad upper window:
        # the search assumes monotonicity and bisects the first failure it meets
        def pred(mu):
            return mu <= 0.01 or 1.0 <= mu <= 500.0

        got = boundary._search_mu_max(pred)
        assert got == pytest.approx(0.01, rel=1e-6)

    def test_always_true_hits_ceiling(self):
        assert boundary._search_mu_max(lambda mu: True) == boundary.MU_CEILING

    def test_boundary_between_last_doubling_and_ceiling_is_bisected(self):
        # the doubling from 1e-12 last lands on ~563 below the ceiling of 1e3
        got = boundary._search_mu_max(lambda mu: mu < 800.0)
        assert got == pytest.approx(800.0, rel=1e-6)

    def test_poisson_noise_before_nonclassical_boundary_below_ceiling(self):
        pr = noise_before.NoiseBeforeParams(p=1.0, T=1.5e-3, mu=0.0, noise_kind="poisson")
        got = boundary.mu_max_numeric(pr, boundary.NONCLASSICAL)
        assert got < boundary.MU_CEILING
        pred = boundary.criterion_predicate(pr, boundary.NONCLASSICAL)
        assert pred(got * (1.0 - 4e-6))
        assert not pred(got * (1.0 + 4e-6))

    def test_poisson_noise_before_nonclassical_holds_to_ceiling_at_tiny_transmittance(self):
        # the classical-bound margin is ~(p/mu)^2 ~ 1e-12 near the ceiling, so the
        # criterion holds there only if nc_boundary keeps its relative precision
        pr = noise_before.NoiseBeforeParams(p=1e-3, T=1e-9, mu=0.0, noise_kind="poisson")
        assert boundary.mu_max_numeric(pr, boundary.NONCLASSICAL) == boundary.MU_CEILING


class TestMonotoneInMu:
    """The search assumes every criterion, once failing, never holds again at larger mu."""

    VARIANTS = ("thermal-bath", "noise-before/thermal", "noise-before/poisson", "spdc")
    CONFIGS = 30
    MU_GRID = [0.0] + [float(mu) for mu in np.geomspace(boundary.MU_SEED, boundary.MU_CEILING, 200)]

    @staticmethod
    def _draw(rng, variant):
        p = 10.0 ** rng.uniform(-3.0, 0.0)
        T = float(rng.choice(
            [1.0, 1.0 - 10.0 ** rng.uniform(-12.0, -1.0), 10.0 ** rng.uniform(-12.0, 0.0)]
        ))
        e = rng.uniform(0.0, 0.25)
        d = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-10.0, -1.0)
        nu = 10.0 ** rng.uniform(-12.0, 1.0)
        if variant == "thermal-bath":
            return thermal_bath.ThermalBathParams(p=p, T=T, mu=0.0, e=e, d=d)
        if variant == "spdc":
            return spdc.SpdcParams(nu=nu, T=T, mu=0.0, e=e, d=d)
        kind = variant.split("/")[1]
        return noise_before.NoiseBeforeParams(p=p, T=T, mu=0.0, e=e, d=d, noise_kind=kind)

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_never_holds_again_after_failing(self, variant, criterion):
        rng = np.random.default_rng(
            [self.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        for _ in range(self.CONFIGS):
            params = self._draw(rng, variant)
            pred = boundary.criterion_predicate(params, criterion)
            flags = [pred(mu) for mu in self.MU_GRID]
            assert not any(not a and b for a, b in zip(flags, flags[1:])), params


class TestSweep:
    T_GRID = [1e-3, 1e-2, 1e-1, 0.5, 1.0]

    def test_dark_count_ordering(self):
        curves = {
            d: boundary.sweep(tb_params(d=d), boundary.SECURITY, self.T_GRID)
            for d in (0.0, 1e-5, 1e-3)
        }
        for a, b in [(0.0, 1e-5), (1e-5, 1e-3)]:
            for pa, pb in zip(curves[a].points, curves[b].points):
                assert pa.mu_max >= pb.mu_max

    def test_nongaussian_below_nonclassical(self):
        ng = boundary.sweep(tb_params(), boundary.NONGAUSSIAN, self.T_GRID)
        nc = boundary.sweep(tb_params(), boundary.NONCLASSICAL, self.T_GRID)
        for a, b in zip(ng.points, nc.points):
            assert a.mu_max <= b.mu_max

    def test_infeasible_points_flagged(self):
        curve = boundary.sweep(tb_params(d=1e-3), boundary.SECURITY, [1e-4, 1e-3, 0.5])
        assert not curve.points[0].feasible
        assert curve.points[0].mu_max == 0.0
        assert curve.points[2].feasible

    def test_deterministic(self):
        one = boundary.sweep(tb_params(), boundary.NONGAUSSIAN, [1e-3, 1e-2])
        two = boundary.sweep(tb_params(), boundary.NONGAUSSIAN, [1e-3, 1e-2])
        assert one.points == two.points

    def test_grid_validation(self):
        with pytest.raises(ParameterDomainError):
            boundary.sweep(tb_params(), boundary.SECURITY, [0.2, 0.1])
        with pytest.raises(ParameterDomainError):
            boundary.sweep(tb_params(), boundary.SECURITY, [0.0, 0.5])


class TestTMinNumeric:
    def test_single_photon_models_match_closed_form(self):
        for d in (1e-5, 1e-3):
            got = boundary.t_min_numeric(tb_params(d=d))
            assert got == pytest.approx(boundary.t_min_ideal_source(1.0, 0.0, d), rel=0.10)

    def test_dark_count_free_channel_has_no_threshold(self):
        assert boundary.t_min_numeric(tb_params(d=0.0)) == 0.0

    def test_spdc_rare_pairs(self):
        pr = spdc.SpdcParams(nu=1e-8, T=0.5, mu=0.0, e=0.0, d=1e-3)
        got = boundary.t_min_numeric(pr)
        assert got == pytest.approx(boundary.t_min_spdc_rare_pairs(0.0, 1e-3), rel=0.10)

    def test_spdc_bright_pairs(self):
        pr = spdc.SpdcParams(nu=1e-2, T=0.5, mu=0.0, e=0.0, d=1e-9)
        got = boundary.t_min_numeric(pr)
        assert got == pytest.approx(5e-3, rel=0.10)

    def test_infeasible_everywhere(self):
        pr = tb_params(e=0.25, d=0.0)  # depolarization alone exceeds the threshold
        assert boundary.t_min_numeric(pr) is None


class TestAnalyticFormulas:
    def test_minimal_transmittance_value(self):
        got = boundary.t_min_ideal_source(p=1.0, e=0.0, d=1e-5)
        assert got == pytest.approx(7.088e-5, rel=1e-3)

    def test_single_photon_and_heralded_sources_coincide_at_unit_emission(self):
        for T in (1e-3, 1e-2):
            for e in (0.0, 0.05):
                a = boundary.mu_max_security_thermal_bath(1.0, e, T)
                b = boundary.mu_max_security_spdc(e, T)
                assert a == b

    def test_bright_pair_threshold_matches_ng_threshold_without_depolarization(self):
        for nu in (1e-3, 1e-2):
            assert boundary.t_min_spdc_bright_pairs(0.0, nu) == pytest.approx(
                boundary.t_min_ng_spdc(nu), rel=1e-12
            )

    def test_depolarization_beyond_threshold_gives_zero(self):
        assert boundary.mu_max_security_thermal_bath(1.0, 0.5, 1e-3) == 0.0
        assert boundary.mu_max_security_noise_before(1.0, 0.23) == 0.0

    def test_depolarization_beyond_threshold_has_no_minimal_transmittance(self):
        assert boundary.t_min_ideal_source(1.0, 0.3, 1e-3) == math.inf
        assert boundary.t_min_ideal_source(0.0, 0.0, 1e-3) == math.inf
        assert boundary.t_min_spdc_rare_pairs(0.3, 1e-3) == math.inf
        assert boundary.t_min_spdc_bright_pairs(0.3, 1e-2) == math.inf

    def test_scalings(self):
        assert boundary.mu_max_nc_thermal_bath(0.5, 0.01) == pytest.approx(
            0.5 * 0.01 / math.sqrt(2.0)
        )
        assert boundary.mu_max_ng_thermal_bath(0.5, 0.01) == pytest.approx(1.25e-5)
        assert boundary.mu_max_nc_noise_before(0.3) == 0.3
        assert boundary.mu_max_ng_noise_before(0.5, 0.01) == pytest.approx(2.5e-3)
        assert boundary.mu_max_nc_spdc(0.01) == pytest.approx(0.01 / math.sqrt(2.0))
        assert boundary.mu_max_ng_spdc(0.01) == pytest.approx(5e-5)


class TestAsymptoteConvergence:
    """Numeric-to-analytic ratios tighten as the transmittance decreases."""

    CASES = [
        ("thermal-bath", boundary.SECURITY, lambda T: boundary.mu_max_security_thermal_bath(1.0, 0.0, T)),
        ("thermal-bath", boundary.NONCLASSICAL, lambda T: boundary.mu_max_nc_thermal_bath(1.0, T)),
        ("thermal-bath", boundary.NONGAUSSIAN, lambda T: boundary.mu_max_ng_thermal_bath(1.0, T)),
        ("noise-before", boundary.SECURITY, lambda T: boundary.mu_max_security_noise_before(1.0, 0.0)),
        ("noise-before", boundary.NONCLASSICAL, lambda T: boundary.mu_max_nc_noise_before(1.0)),
        ("noise-before", boundary.NONGAUSSIAN, lambda T: boundary.mu_max_ng_noise_before(1.0, T)),
        ("spdc", boundary.SECURITY, lambda T: boundary.mu_max_security_spdc(0.0, T)),
        ("spdc", boundary.NONCLASSICAL, lambda T: boundary.mu_max_nc_spdc(T)),
        ("spdc", boundary.NONGAUSSIAN, lambda T: boundary.mu_max_ng_spdc(T)),
    ]

    @staticmethod
    def _params(model: str, T: float):
        if model == "thermal-bath":
            return thermal_bath.ThermalBathParams(p=1.0, T=T, mu=0.0)
        if model == "noise-before":
            return noise_before.NoiseBeforeParams(p=1.0, T=T, mu=0.0)
        return spdc.SpdcParams(nu=1e-6 * T, T=T, mu=0.0)

    @pytest.mark.parametrize("model,criterion,analytic", CASES)
    @pytest.mark.parametrize("T,tol", [(1e-3, 0.05), (1e-2, 0.15)])
    def test_ratio_near_unity(self, model, criterion, analytic, T, tol):
        got = boundary.mu_max_numeric(self._params(model, T), criterion)
        assert got / analytic(T) == pytest.approx(1.0, abs=tol)


class TestDispatch:
    def test_model_names(self):
        assert boundary.model_name(tb_params()) == "thermal-bath"
        assert boundary.model_name(noise_before.NoiseBeforeParams(p=1, T=0.5, mu=0)) == "noise-before"
        assert boundary.model_name(spdc.SpdcParams(nu=0.1, T=0.5, mu=0)) == "spdc"

    def test_delta_i_positive_in_clean_regime(self):
        assert boundary.delta_i(tb_params(T=0.1, mu=1e-5)) > 0.0
        assert boundary.delta_i(spdc.SpdcParams(nu=1e-4, T=1e-2, mu=1e-6)) > 0.0

    def test_rejects_foreign_records(self):
        with pytest.raises(ParameterDomainError):
            boundary.delta_i(object())
