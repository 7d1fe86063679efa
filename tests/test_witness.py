import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp, findroot, mp, mpf, sqrt

import _reference as ref
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

    def test_range_messages_name_the_first_offender_and_a_count(self):
        ps = np.full(50, 0.3)
        ps[[7, 20]] = 1.5
        with pytest.raises(ParameterDomainError) as info:
            witness.ClickStats(p_single=ps, p_coincidence=np.zeros(50), p_none=1.0 - ps)
        assert str(info.value) == "p_single out of [0, 1]: 1.5 at element 7 (2 of 50 outside)"
        none = np.full(40, 0.7)
        none[3] = 0.8
        with pytest.raises(ParameterDomainError, match=r"^click probabilities must sum to 1, "
                           r"off by 0\.1\d* at element 3 \(1 of 40 outside\)$"):
            witness.ClickStats(p_single=np.full(40, 0.3), p_coincidence=np.zeros(40), p_none=none)


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
        pt = ref.gaussian_boundary_point(1.0 - 1e-9)
        assert pt.p_single == pytest.approx(0.0, abs=1e-8)
        assert pt.p_coincidence == pytest.approx(0.0, abs=1e-12)
        assert pt.n_of_v == pytest.approx(0.0, abs=1e-8)

    def test_displacement_formula(self):
        v = 0.5
        pt = ref.gaussian_boundary_point(v)
        expected = (1 - v * v) * (v + 3) / (v * (3 * v + 1))
        assert pt.n_of_v == pytest.approx(expected, rel=1e-12)
        assert pt.n_of_v >= 0.0

    def test_rejects_endpoints(self):
        with pytest.raises(ParameterDomainError):
            ref.gaussian_boundary_point(0.0)
        with pytest.raises(ParameterDomainError):
            ref.gaussian_boundary_point(1.0)


class TestNgCurve:
    def test_minimum_grid_size(self):
        with pytest.raises(ParameterDomainError):
            witness.ng_boundary_curve(8)

    def test_sorted_and_monotone(self):
        curve = witness.ng_boundary_curve()
        p_s = curve.p_single.tolist()
        p_c = curve.p_coincidence.tolist()
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
        witness.ng_boundary_curve.cache_clear()
        c2 = witness.ng_boundary_curve(128)
        assert all(np.array_equal(a, b) for a, b in zip(c1, c2))

    @pytest.mark.parametrize("num_points", [16, witness.NG_POINTS, 1199])
    def test_table_is_the_family_on_libm(self, num_points):
        # P_C cancels at small eps, where numpy's vector kernels could change its last
        # bit: each row must be the family evaluated one float at a time on libm
        curve = witness.ng_boundary_curve(num_points)
        for eps, *row in zip(*(column.tolist() for column in curve)):
            assert witness._family(eps, math.log1p, math.expm1) == tuple(row)

    def test_cached_table_is_read_only(self):
        with pytest.raises(ValueError):
            witness.ng_boundary_curve().p_single[0] = 0.0

    def test_stricter_than_classical_boundary(self):
        for p_s in np.geomspace(1e-4, 0.5, 100):
            assert witness.ng_boundary(float(p_s)) < witness.nc_boundary(float(p_s))

    def test_out_of_span(self):
        with pytest.raises(BoundaryDomainError):
            witness.ng_boundary(0.99)
        # no floor below: P_C = P_S^3 (1/2 - 1.1041667 P_S + ...) down to P_S = 0
        want = 5e-37 * (1.0 - 2.2083333e-12)
        assert abs(witness.ng_boundary(1e-12) - want) <= 1e-15 * want
        assert witness.ng_boundary(0.0) == 0.0


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


class TestNonGaussianDecision:
    """is_nongaussian is the strict comparison against ng_boundary, bit for bit.

    The P_C offered sit at and around the boundary itself, k * 2^-52 relative
    off it and one ulp to either side of that, on both sides of every piece
    edge and of every row of the table, whose last row ends the domain.
    """

    KS = (0, 1, 2, 3, 10, 100, 1e3, 1e6, 1e9)

    @staticmethod
    def definition(ps, pc):
        top = witness.ng_boundary_curve().p_single[-1]
        return (ps > top) | (pc < witness.ng_boundary(np.clip(ps, 0.0, top)))

    def test_matches_the_comparison_against_ng_boundary(self):
        curve = witness.ng_boundary_curve()
        table, top = curve.p_single, curve.p_single[-1]
        rng = np.random.default_rng(20161)
        spread = np.exp(rng.uniform(np.log(1e-15), np.log(top), 2000))
        edges = np.array([0.0, 1e-15, *witness._EDGES, top])
        ps = np.concatenate(
            [spread, table, np.nextafter(table, 0.0), np.nextafter(table, 1.0)]
            + [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
        )
        bound = witness.ng_boundary(np.clip(ps, 0.0, top))
        offsets = np.array([s * k * 2.0**-52 for k in self.KS for s in (1.0, -1.0)])
        pc = bound[:, None] * (1.0 + offsets)
        pc = np.concatenate([pc, np.nextafter(pc, 0.0), np.nextafter(pc, 1.0)], axis=1)
        ps = np.broadcast_to(ps[:, None], pc.shape).ravel()
        pc = pc.ravel()
        want = self.definition(ps, pc)
        got = witness.is_nongaussian(stats(ps, pc))
        assert got.dtype == bool
        mismatch = np.flatnonzero(got != want)
        assert mismatch.size == 0, (ps[mismatch[:5]], pc[mismatch[:5]])

    @pytest.mark.parametrize(
        "ps",
        [
            float(witness.ng_boundary_curve().p_single[0]),
            float(witness.ng_boundary_curve().p_single[-1]),
            float(witness.ng_boundary_curve().p_single[17]),
            1e-3,
            0.6,
            1e-7,
            *witness._EDGES.tolist(),
        ],
    )
    @pytest.mark.parametrize("form", ["float", "0-d", "1-d"])
    def test_scalar_and_array_forms_keep_their_types(self, ps, form):
        curve = witness.ng_boundary_curve()
        bound = witness.ng_boundary(float(np.clip(ps, 0.0, curve.p_single[-1])))
        for pc in (bound, np.nextafter(bound, 0.0), 0.5 * bound, 2.0 * bound):
            pair = {
                "float": (float(ps), float(pc)),
                "0-d": (np.array(ps), np.array(pc)),
                "1-d": (np.array([ps, ps]), np.array([pc, 0.5 * pc])),
            }[form]
            # the click statistics as given, and as ClickStats turns them into numpy scalars
            for clicks in (SimpleNamespace(p_single=pair[0], p_coincidence=pair[1]), stats(*pair)):
                want = self.definition(clicks.p_single, clicks.p_coincidence)
                got = witness.is_nongaussian(clicks)
                assert type(got) is type(want)
                assert np.array_equal(got, want)

    def test_nan_single_click_is_rejected(self):
        with pytest.raises(ParameterDomainError):
            witness.is_nongaussian(SimpleNamespace(p_single=math.nan, p_coincidence=0.0))
        with pytest.raises(ParameterDomainError):
            witness.is_nongaussian(
                SimpleNamespace(p_single=np.array([1e-3, math.nan]), p_coincidence=np.zeros(2))
            )


class TestMargins:
    """Each witness margin is positive exactly where today's comparison flags, bit for
    bit: at and one ulp around the boundary, where P_S passes 1/2 or the Gaussian
    family's largest P_S, and at the ends of both."""

    @staticmethod
    def _points(bound, ps):
        """P_C at, k * 2^-52 relative off and one ulp around each boundary value."""
        offsets = np.array([s * k * 2.0**-52 for k in TestNonGaussianDecision.KS for s in (1, -1)])
        pc = np.clip(bound[:, None] * (1.0 + offsets), 0.0, 1.0 - ps[:, None])
        pc = np.concatenate([pc, np.nextafter(pc, 0.0), np.nextafter(pc, 1.0)], axis=1)
        pc = np.minimum(pc, 1.0 - ps[:, None])
        return np.broadcast_to(ps[:, None], pc.shape).ravel(), pc.ravel()

    @staticmethod
    def _single_clicks(top):
        rng = np.random.default_rng(17)
        edges = np.array([0.0, 1e-15, *witness._EDGES, top, 0.5, 0.75, 1.0])
        return np.concatenate(
            [np.exp(rng.uniform(np.log(1e-15), 0.0, 500)), edges]
            + [np.nextafter(edges, 0.0)[1:], np.nextafter(edges, 1.0)[:-1]]
        )

    def test_nonclassical_margin_is_positive_exactly_where_flagged(self):
        ps = self._single_clicks(witness.ng_boundary_curve().p_single[-1])
        ps, pc = self._points(witness.nc_boundary(np.minimum(ps, 0.5)), ps)
        want = (ps > 0.5) | (pc < witness.nc_boundary(np.minimum(ps, 0.5)))
        margin = witness.nonclassical_margin(stats(ps, pc))
        assert np.array_equal(margin > 0.0, want) and want.any() and not want.all()
        assert np.array_equal(witness.is_nonclassical(stats(ps, pc)), want)

    def test_nongaussian_margin_is_positive_exactly_where_flagged(self):
        top = witness.ng_boundary_curve().p_single[-1]
        ps = self._single_clicks(top)
        ps, pc = self._points(witness.ng_boundary(np.clip(ps, 0.0, top)), ps)
        want = TestNonGaussianDecision.definition(ps, pc)
        assert np.array_equal(witness.nongaussian_margin(stats(ps, pc)) > 0.0, want)
        assert want.any() and not want.all()

    def test_scalars_stay_scalars(self):
        for margin in (witness.nonclassical_margin, witness.nongaussian_margin):
            for ps, pc in ((1e-3, 0.0), (0.9, 0.05)):
                got = margin(stats(ps, pc))
                assert type(got) is np.float64 and got > 0.0

    def test_nan_single_click_is_rejected(self):
        for margin in (witness.nonclassical_margin, witness.nongaussian_margin):
            with pytest.raises(ParameterDomainError):
                margin(SimpleNamespace(p_single=math.nan, p_coincidence=0.0))


class TestSimplifiedCriteria:
    def test_noiseless(self):
        assert ref.simplified_nc(0.1, 0.0)
        assert ref.simplified_ng(0.1, 0.0)

    def test_separating_point(self):
        assert ref.simplified_nc(0.1, 0.004)
        assert not ref.simplified_ng(0.1, 0.004)

    def test_both_fail(self):
        assert not ref.simplified_nc(0.1, 0.006)
        assert not ref.simplified_ng(0.1, 0.006)


class TestDetectorDarkCounts:
    def test_identity_at_zero(self):
        s = stats(0.3, 0.05)
        assert ref.apply_detector_darkcounts(s, 0.0) == s

    def test_pure_dark_count_algebra(self):
        s = ref.apply_detector_darkcounts(stats(0.0, 0.0), 0.01)
        assert s.p_coincidence == pytest.approx(1e-4, rel=1e-12)
        assert s.p_single == pytest.approx(2 * 0.01 * 0.99, rel=1e-12)
        assert s.p_none == pytest.approx(0.99**2, rel=1e-12)

    def test_coincidences_never_decrease(self):
        s = stats(0.2, 0.01)
        out = ref.apply_detector_darkcounts(s, 1e-3)
        assert out.p_coincidence > s.p_coincidence

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            ref.apply_detector_darkcounts(stats(0.1, 0.0), 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        ps=st.floats(min_value=0.0, max_value=1.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        d=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_total_probability_preserved(self, ps, frac, d):
        pc = (1.0 - ps) * frac
        s = witness.ClickStats(p_single=ps, p_coincidence=pc, p_none=1.0 - ps - pc)
        out = ref.apply_detector_darkcounts(s, d)
        assert out.p_single + out.p_coincidence + out.p_none == pytest.approx(1.0, abs=1e-12)


# the end of the domain: ng_boundary answers for P_S up to the last table point
_TOP = float(witness.ng_boundary_curve().p_single[-1])


def _mp_family(eps):
    """(P_S, P_C) of the Gaussian family at eps = 1 - V, straight from its defining pair
    (no cancellation-safe rewriting needed at mpmath's working precision)."""
    v = 1 - eps
    n = (1 - v * v) * (v + 3) / (v * (3 * v + 1))
    r2 = 2 * sqrt(v) / (v + 1) * exp(-n / (2 + 2 * v))
    r1 = 4 * sqrt(v) / sqrt((3 * v + 1) * (3 + v)) * exp(-n / (6 + 2 * v))
    return 2 * (r1 - r2), 1 - 2 * r1 + r2


@lru_cache(maxsize=1)
def _turning_eps():
    """eps at the family's turning point, where dP_S/deps = 0, at 60 digits."""
    with mp.workdps(60):
        return findroot(lambda e: mp.diff(lambda x: _mp_family(x)[0], e), mpf("0.6445"))


def _mp_boundary(p_s):
    """P_C of the Gaussian family at P_S (an mpf), by inverting P_S on the kept branch."""
    lo, hi = mpf(0), _turning_eps()
    for _ in range(80):  # P_S rises with eps on the kept branch
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _mp_family(mid)[0] < p_s else (lo, mid)
    eps = findroot(lambda x: _mp_family(x)[0] - p_s, (lo, hi), solver="secant")
    return _mp_family(eps)[1]


def _ng_boundary_reference(p_s: float):
    """P_C of the Gaussian family at the given P_S, with 60 digits left after the
    defining pair cancels to P_C ~ P_S^3 / 2."""
    with mp.workdps(60 - 3 * min(0, math.floor(math.log10(p_s)))):
        return _mp_boundary(mpf(p_s))


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-15.0, max_value=math.log10(_TOP)).map(lambda k: min(10.0**k, _TOP))
)
@example(1e-15)
@example(5.000007500005834e-07)  # the first P_S of the ng-curve table
@example(1e-3)
@example(1e-2)
@example(0.04)
@example(0.1)
@example(_TOP)
@example(float(np.nextafter(_TOP, 0.0)))
@example(float(witness._EDGES[0]))
@example(float(np.nextafter(witness._EDGES[0], 1.0)))
@example(float(witness._EDGES[1]))
@example(float(np.nextafter(witness._EDGES[1], 1.0)))
@example(float(witness._EDGES[2]))
@example(float(np.nextafter(witness._EDGES[2], 1.0)))
@example(float(witness._EDGES[3]))
@example(float(np.nextafter(witness._EDGES[3], 1.0)))
@example(float(witness._EDGES[4]))
@example(float(np.nextafter(witness._EDGES[4], 1.0)))
def test_ng_boundary_against_mpmath(p_s):
    want = _ng_boundary_reference(p_s)
    assert abs(witness.ng_boundary(p_s) - want) <= 1e-15 * want


def test_turning_point_literal():
    with mp.workdps(60):
        turn = _mp_family(_turning_eps())[0]
    assert float(turn) == witness._TURN
    assert float(_turning_eps()) == pytest.approx(0.64450871885521, abs=1e-14)


def _piece_coefficients(k):
    """c_0 ... c_16 of piece k: the polynomial in t through the family's P_C / P_S^3
    (or P_C, in s) at the Chebyshev nodes of t in [-1, 1], solved at 60 digits."""
    size = witness._COEFFS.shape[0]
    centre, scale = mpf(float(witness._CENTRE[k])), mpf(float(witness._SCALE[k]))
    with mp.workdps(60):
        nodes = [mp.cos(mp.pi * (j + mpf(1) / 2) / size) for j in range(size)]
        values = []
        for t in nodes:
            x = centre + t / scale
            if k >= witness._NEAR:
                values.append(_mp_boundary(mpf(witness._TURN) - x * x))
            else:
                values.append(_mp_boundary(x) / x**3)
        vandermonde = mp.matrix([[t**j for j in range(size)] for t in nodes])
        return tuple(float(c) for c in mp.lu_solve(vandermonde, values))


@pytest.mark.parametrize("k", range(len(witness._PIECES)))
def test_piece_is_the_family_at_60_digits(k):
    assert _piece_coefficients(k) == witness._PIECES[k][1]


def test_pieces_cover_the_domain():
    # each piece's variable spans what the P_S it serves map to, the last one up to the top
    lo = np.concatenate([[0.0], witness._EDGES])
    hi = np.concatenate([witness._EDGES, [_TOP]])
    x_lo = np.where(np.arange(lo.size) >= witness._NEAR, np.sqrt(witness._TURN - hi), lo)
    x_hi = np.where(np.arange(lo.size) >= witness._NEAR, np.sqrt(witness._TURN - lo), hi)
    assert np.all(witness._LO <= x_lo) and np.all(x_hi <= witness._HI)


def test_boundaries_agree_with_direct_equation_solve():
    # independent route: fix P_S, solve the defining no-click pair for (V, P_C)
    # directly with a scalar root find on the family parametrization
    from scipy.optimize import brentq

    def family_ps(eps):
        return ref.gaussian_boundary_point(1.0 - eps).p_single

    for target in (1e-3, 3e-3, 1e-2, 0.1):
        eps = brentq(lambda t: family_ps(t) - target, 1e-9, 0.6, xtol=1e-15)
        pc = ref.gaussian_boundary_point(1.0 - eps).p_coincidence
        assert witness.ng_boundary(target) == pytest.approx(pc, rel=1e-6)


def test_p_c_precision_at_small_p_s():
    # the cancellation-safe form must keep relative precision where the naive
    # 1 - 2 R1 + R2 difference of near-unit numbers would lose it
    pt_lo = witness.ng_boundary(1.0e-4)
    pt_hi = witness.ng_boundary(1.001e-4)
    assert 0.0 < pt_lo < pt_hi
    assert (pt_hi - pt_lo) / pt_lo == pytest.approx(3 * 0.001, rel=0.05)
