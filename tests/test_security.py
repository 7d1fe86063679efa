import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from dvqkd import security
from dvqkd.errors import InfeasibleError, ParameterDomainError

# root of 1 - 2 H(q), frozen from an independent bisection run
QBER_THRESHOLD = 0.11002786443814691


class TestBinaryEntropy:
    def test_edges_vanish(self):
        assert security.binary_entropy(0.0) == 0.0
        assert security.binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert security.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_half_bit_point(self):
        assert security.binary_entropy(QBER_THRESHOLD) == pytest.approx(0.5, abs=1e-8)

    def test_against_mpmath(self):
        # log-uniform over the normal floats of (0, 1/2], where no term cancels
        rng = np.random.default_rng(11)
        q = np.append(10.0 ** rng.uniform(-307.6, math.log10(0.5), 400), [sys.float_info.min, 0.5])
        got = security.binary_entropy(q)
        for qi, hi in zip(q, got):
            want = ref.binary_entropy_mp(qi)
            assert abs(hi - want) <= 1e-15 * want, qi

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            security.binary_entropy(-0.01)
        with pytest.raises(ParameterDomainError):
            security.binary_entropy(1.01)

    @settings(max_examples=80, deadline=None)
    @given(q=st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, q):
        assert security.binary_entropy(q) == pytest.approx(
            security.binary_entropy(1.0 - q), abs=1e-12
        )


class TestSecretFractions:
    def test_noiseless_single_photon(self):
        assert security.secret_fraction_ideal(0.0) == 1.0

    def test_threshold_region(self):
        assert security.secret_fraction_ideal(0.11) == pytest.approx(0.0, abs=1e-3)
        assert security.secret_fraction_ideal(0.05) == pytest.approx(
            1.0 - 2.0 * security.binary_entropy(0.05), abs=1e-15
        )

    def test_multiphoton_reduces_to_ideal_at_unit_fraction(self):
        for q in np.linspace(0.0, 0.5, 26):
            assert security.secret_fraction_multiphoton(float(q), 1.0) == pytest.approx(
                security.secret_fraction_ideal(float(q)), abs=1e-14
            )

    def test_error_free_fraction_passthrough(self):
        assert security.secret_fraction_multiphoton(0.0, 1.0) == 1.0
        assert security.secret_fraction_multiphoton(0.0, 0.5) == pytest.approx(0.5)

    def test_errors_above_fraction_kill_key(self):
        assert security.secret_fraction_multiphoton(0.2, 0.1) == 0.0
        assert security.secret_fraction_multiphoton(0.3, 0.0) == 0.0

    def test_monotone_in_qber_and_fraction(self):
        qs = np.linspace(0.0, 0.4, 50)
        ys = np.linspace(0.01, 1.0, 50)
        for y in ys[::7]:
            vals = [security.secret_fraction_multiphoton(float(q), float(y)) for q in qs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for q in qs[::7]:
            vals = [security.secret_fraction_multiphoton(float(q), float(y)) for y in ys]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSecretBounds:
    """The bounds are the secret fractions before their clip at 0: a bound less a
    margin is positive exactly where the fraction exceeds that margin."""

    MARGINS = (0.0, 1e-12, 1e-3)

    def test_ideal_bound_is_the_fraction_unclipped(self):
        q = np.append(np.linspace(0.0, 0.5, 201), [QBER_THRESHOLD, security.qber_threshold()])
        q = np.sort(q)
        q = np.concatenate([q, np.nextafter(q, 0.0)[1:], np.nextafter(q, 1.0)[:-1]])
        bound, fraction = security.secret_bound_ideal(q), security.secret_fraction_ideal(q)
        assert np.array_equal(np.maximum(0.0, bound), fraction) and (bound < 0.0).any()
        for margin in self.MARGINS:
            assert np.array_equal(bound - margin > 0.0, fraction > margin)

    def test_multiphoton_bound_keeps_the_sign_of_the_fraction_over_any_margin(self):
        # y = 0, q > y, q = y and q = 0, on both sides of each
        rng = np.random.default_rng(5)
        q, y = rng.uniform(0.0, 0.5, 4000), rng.uniform(0.0, 1.0, 4000)
        y[:500], y[500:1000], y[1000:1500] = 0.0, q[500:1000], np.nextafter(q[1000:1500], 0.0)
        q[1500:2000], y[2000:2500] = 0.0, rng.uniform(0.0, 0.01, 500)
        bound = security.secret_bound_multiphoton(q, y)
        fraction = security.secret_fraction_multiphoton(q, y)
        live = (y > 0.0) & (q <= y)
        assert np.all(bound[~live] <= 0.0)
        assert np.array_equal(np.maximum(0.0, bound)[live], fraction[live])
        for margin in self.MARGINS:
            assert np.array_equal(bound - margin > 0.0, fraction > margin)
        for qi, yi in ((0.2, 0.1), (0.3, 0.0), (0.0, 0.0), (0.05, 0.5)):
            one = security.secret_bound_multiphoton(qi, yi)
            assert type(one) is np.float64
            assert (one > 1e-12) == (security.secret_fraction_multiphoton(qi, yi) > 1e-12)


class TestQberThreshold:
    def test_value(self):
        value = security.qber_threshold()
        assert type(value) is float
        assert abs(value - ref.qber_threshold_mp()) <= 2.0 * math.ulp(value)

    def test_root_properties(self):
        root = security.qber_threshold()
        assert security.secret_fraction_ideal(root) < 1e-8
        assert security.secret_fraction_ideal(root - 0.01) > 0.0


class TestYThreshold:
    def test_zero_depolarization_limit(self):
        assert security.y_threshold(0.0) == 0.0

    def test_root_substitutes_back(self):
        e = 0.05
        y = security.y_threshold(e)
        h_half = security.binary_entropy(e / 2.0)
        residual = y * (1.0 - security.binary_entropy(e / (2.0 * y))) - h_half
        assert abs(residual) < 1e-8
        assert e / 2.0 < y <= 1.0

    def test_monotone_in_depolarization(self):
        vals = [security.y_threshold(e) for e in (0.01, 0.05, 0.1, 0.15, 0.2)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_infeasible_above_double_threshold(self):
        # e = 0.22 still sits a hair below twice the QBER threshold (0.220056),
        # so its root exists just under 1; anything above is infeasible
        assert 0.9 < security.y_threshold(0.22) <= 1.0
        with pytest.raises(InfeasibleError):
            security.y_threshold(0.2201)
        with pytest.raises(InfeasibleError):
            security.y_threshold(2.0 * security.qber_threshold() + 0.001)

    def test_against_mpmath(self):
        rng = np.random.default_rng(12)
        top = 2.0 * security.qber_threshold()
        es = 10.0 ** rng.uniform(-15.0, math.log10(top), 60)
        edges = [sys.float_info.min, 1e-300, 1e-17, 0.22, math.nextafter(top, 0.0)]
        for e in [*es, *edges]:
            y = security.y_threshold(float(e))
            assert type(y) is float
            want = ref.y_threshold_mp(e)
            assert abs(y - want) <= 1e-14 * want, e

    def test_domain(self):
        for e in (-0.1, 1.5, math.nan):
            with pytest.raises(ParameterDomainError, match="depolarization probability"):
                security.y_threshold(e)

    def test_subnormal_depolarization_is_refused(self):
        for e in (5e-324, 1e-320, math.nextafter(sys.float_info.min, 0.0)):
            with pytest.raises(ParameterDomainError, match="depolarization probability"):
                security.y_threshold(e)
