import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from dvqkd import witness
from dvqkd.errors import BoundaryDomainError, ParameterDomainError


def stats(ps, pc):
    return witness.ClickStats(p_single=ps, p_coincidence=pc, p_none=1.0 - ps - pc)


class TestClickStats:
    def test_sum_rule_enforced(self):
        with pytest.raises(ParameterDomainError):
            witness.ClickStats(p_single=0.5, p_coincidence=0.4, p_none=0.3)

    def test_rounding_noise_clamped(self):
        s = witness.ClickStats(p_single=0.3, p_coincidence=-1e-13, p_none=0.7)
        assert s.p_coincidence == 0.0


class TestNcBoundary:
    def test_closed_root_at_half(self):
        assert witness.nc_boundary(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_zero(self):
        assert witness.nc_boundary(0.0) == 0.0

    def test_weak_light_quarter_square(self):
        # the ratio approaches 1/4 linearly in P_S
        for p_s in (1e-5, 1e-4, 1e-3):
            assert witness.nc_boundary(p_s) / p_s**2 == pytest.approx(0.25, abs=0.3 * p_s)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-15.0, max_value=math.log10(0.5)).map(lambda k: min(10.0**k, 0.5))
    )
    @example(1e-12)
    def test_against_mpmath(self, p_s):
        # 0.5 (1 - sqrt(1 - 2 P_S)) differences near-equal terms for small P_S
        with mp.workdps(60):
            want = ((1 - mp.sqrt(1 - 2 * mpf(p_s))) / 2) ** 2
            assert abs(witness.nc_boundary(p_s) - want) <= 1e-15 * want

    def test_out_of_domain(self):
        with pytest.raises(BoundaryDomainError):
            witness.nc_boundary(0.51)
        with pytest.raises(ParameterDomainError):
            witness.nc_boundary(-0.1)


class TestGaussianFamily:
    def test_collapses_to_origin(self):
        pt = witness.gaussian_boundary_point(1.0 - 1e-9)
        assert pt.p_single == pytest.approx(0.0, abs=1e-8)
        assert pt.p_coincidence == pytest.approx(0.0, abs=1e-12)
        assert pt.n_of_v == pytest.approx(0.0, abs=1e-8)

    def test_displacement_formula(self):
        v = 0.5
        pt = witness.gaussian_boundary_point(v)
        expected = (1 - v * v) * (v + 3) / (v * (3 * v + 1))
        assert pt.n_of_v == pytest.approx(expected, rel=1e-12)
        assert pt.n_of_v >= 0.0

    def test_rejects_endpoints(self):
        with pytest.raises(ParameterDomainError):
            witness.gaussian_boundary_point(0.0)
        with pytest.raises(ParameterDomainError):
            witness.gaussian_boundary_point(1.0)


class TestNgCurve:
    def test_minimum_grid_size(self):
        with pytest.raises(ParameterDomainError):
            witness.ng_boundary_curve(8)

    def test_sorted_and_monotone(self):
        curve = witness.ng_boundary_curve()
        p_s = [pt.p_single for pt in curve]
        p_c = [pt.p_coincidence for pt in curve]
        assert all(b > a for a, b in zip(p_s, p_s[1:]))
        assert all(b >= a for a, b in zip(p_c, p_c[1:]))

    def test_cubic_scaling(self):
        # two-photon events coincide half the time, so the weak-light boundary
        # must approach half the cube of the single-click probability
        assert witness.ng_boundary(1e-4) / (1e-4) ** 3 == pytest.approx(0.5, abs=5e-3)
        assert witness.ng_boundary(1e-3) / (1e-3) ** 3 == pytest.approx(0.5, abs=5e-3)

    def test_loglog_slope_is_three(self):
        p_grid = np.geomspace(1e-4, 1e-2, 25)
        vals = [witness.ng_boundary(float(p)) for p in p_grid]
        slope = np.polyfit(np.log(p_grid), np.log(vals), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_deterministic(self):
        assert witness.ng_boundary(1e-3) == witness.ng_boundary(1e-3)
        c1 = witness.ng_boundary_curve(128)
        c2 = witness.ng_boundary_curve(128)
        assert c1 == c2

    def test_stricter_than_classical_boundary(self):
        for p_s in np.geomspace(1e-4, 0.5, 100):
            assert witness.ng_boundary(float(p_s)) < witness.nc_boundary(float(p_s))

    def test_out_of_span(self):
        with pytest.raises(BoundaryDomainError):
            witness.ng_boundary(0.99)
        with pytest.raises(BoundaryDomainError):
            witness.ng_boundary(1e-12)


class TestFlags:
    def test_pure_loss_single_photon_passes_both(self):
        for t in (0.05, 0.2, 0.5):
            s = stats(t, 0.0)
            assert witness.is_nonclassical(s)
            assert witness.is_nongaussian(s)

    def test_coherent_like_light_is_classical(self):
        p_s = 1e-3
        s = stats(p_s, witness.nc_boundary(p_s) * 1.01)
        assert not witness.is_nonclassical(s)

    def test_just_below_boundary_is_nonclassical(self):
        p_s = 1e-3
        s = stats(p_s, witness.nc_boundary(p_s) * 0.99)
        assert witness.is_nonclassical(s)

    def test_boundary_point_itself_not_flagged(self):
        p_s = 0.01
        s = stats(p_s, witness.nc_boundary(p_s))
        assert not witness.is_nonclassical(s)

    def test_bright_single_click_beyond_classical_reach(self):
        # no classical mixture produces P_S > 1/2, whatever the coincidences
        assert witness.is_nonclassical(stats(0.9, 0.05))

    def test_beyond_gaussian_span_is_nongaussian(self):
        assert witness.is_nongaussian(stats(0.9, 0.05))

    def test_between_boundaries_only_nonclassical(self):
        p_s = 1e-2
        pc = 0.5 * (witness.ng_boundary(p_s) + witness.nc_boundary(p_s))
        s = stats(p_s, pc)
        assert witness.is_nonclassical(s)
        assert not witness.is_nongaussian(s)


class TestSimplifiedCriteria:
    def test_noiseless(self):
        assert witness.simplified_nc(0.1, 0.0)
        assert witness.simplified_ng(0.1, 0.0)

    def test_separating_point(self):
        assert witness.simplified_nc(0.1, 0.004)
        assert not witness.simplified_ng(0.1, 0.004)

    def test_both_fail(self):
        assert not witness.simplified_nc(0.1, 0.006)
        assert not witness.simplified_ng(0.1, 0.006)


class TestDetectorDarkCounts:
    def test_identity_at_zero(self):
        s = stats(0.3, 0.05)
        assert witness.apply_detector_darkcounts(s, 0.0) == s

    def test_pure_dark_count_algebra(self):
        s = witness.apply_detector_darkcounts(stats(0.0, 0.0), 0.01)
        assert s.p_coincidence == pytest.approx(1e-4, rel=1e-12)
        assert s.p_single == pytest.approx(2 * 0.01 * 0.99, rel=1e-12)
        assert s.p_none == pytest.approx(0.99**2, rel=1e-12)

    def test_coincidences_never_decrease(self):
        s = stats(0.2, 0.01)
        out = witness.apply_detector_darkcounts(s, 1e-3)
        assert out.p_coincidence > s.p_coincidence

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            witness.apply_detector_darkcounts(stats(0.1, 0.0), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        ps=st.floats(min_value=0.0, max_value=1.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        d=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_total_probability_preserved(self, ps, frac, d):
        pc = (1.0 - ps) * frac
        s = witness.ClickStats(p_single=ps, p_coincidence=pc, p_none=1.0 - ps - pc)
        out = witness.apply_detector_darkcounts(s, d)
        assert out.p_single + out.p_coincidence + out.p_none == pytest.approx(1.0, abs=1e-12)


def test_boundaries_agree_with_direct_equation_solve():
    # independent route: fix P_S, solve the defining no-click pair for (V, P_C)
    # directly with a scalar root find on the family parametrization
    from scipy.optimize import brentq

    def family_ps(eps):
        return witness.gaussian_boundary_point(1.0 - eps).p_single

    for target in (1e-3, 3e-3, 1e-2, 0.1):
        eps = brentq(lambda t: family_ps(t) - target, 1e-9, 0.6, xtol=1e-15)
        pc = witness.gaussian_boundary_point(1.0 - eps).p_coincidence
        assert witness.ng_boundary(target) == pytest.approx(pc, rel=1e-6)


def test_p_c_precision_at_small_p_s():
    # the cancellation-safe form must keep relative precision where the naive
    # 1 - 2 R1 + R2 difference of near-unit numbers would lose it
    pt_lo = witness.ng_boundary(1.0e-4)
    pt_hi = witness.ng_boundary(1.001e-4)
    assert 0.0 < pt_lo < pt_hi
    assert (pt_hi - pt_lo) / pt_lo == pytest.approx(3 * 0.001, rel=0.05)
