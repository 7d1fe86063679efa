import hashlib
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

import _reference as ref
from dvqkd import boundary, channel, noise_before, roots, security, spdc, thermal_bath, witness
from dvqkd.errors import InfeasibleError, ParameterDomainError


def tb_params(p=1.0, T=0.1, mu=0.0, e=0.0, d=0.0):
    return thermal_bath.ThermalBathParams(p=p, T=T, mu=mu, e=e, d=d)


class TestMuMaxNumeric:
    def test_nongaussian_matches_quadratic_asymptote(self):
        got = boundary.mu_max_numeric(tb_params(T=1e-2), boundary.NONGAUSSIAN)
        assert got == pytest.approx(5e-5, rel=0.15)

    @pytest.mark.parametrize("T", [1e-7, 5e-7])
    def test_nongaussian_at_very_weak_light(self, T):
        # P_S ~ T here, far below 1e-6: the boundary has no floor, so mu_max exists
        got = boundary.mu_max_numeric(tb_params(T=T), boundary.NONGAUSSIAN)
        assert got == pytest.approx(T * T / 2, rel=1e-5)

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
    @staticmethod
    def _search(pred):
        """The search on one transmittance, for a hand-made predicate in mu alone."""
        mu_max, _ = boundary._search_mu_max(lambda mu, T: pred(mu), np.ones(1))
        return mu_max[0]

    def test_monotone_predicate_direct(self):
        got = self._search(lambda mu: mu < 0.37)
        assert got == pytest.approx(0.37, rel=1e-6)

    def test_non_monotone_predicate_gives_edge_nearest_zero(self):
        # holds on [0, 0.01], fails, then holds again on a broad upper window:
        # the search assumes monotonicity and bisects the first failure it meets
        def pred(mu):
            return (mu <= 0.01) | ((1.0 <= mu) & (mu <= 500.0))

        got = self._search(pred)
        assert got == pytest.approx(0.01, rel=1e-6)

    def test_always_true_hits_ceiling(self):
        assert self._search(lambda mu: np.full(mu.shape, True)) == boundary.MU_CEILING

    def test_boundary_between_last_doubling_and_ceiling_is_bisected(self):
        # the doubling from 1e-12 last lands on ~563 below the ceiling of 1e3
        got = self._search(lambda mu: mu < 800.0)
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


class TestCriterionMargin:
    """Each criterion's margin is positive exactly where the comparisons it replaces
    hold (``ref.criterion_holds``), bit for bit, over seeded draws crossed with the
    edge arrays of the batched sweep: T = 1, mu = 0 and the ceiling."""

    VARIANTS = TestMonotoneInMu.VARIANTS

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_margin_is_positive_exactly_where_the_criterion_holds(self, variant, criterion):
        rng = np.random.default_rng(
            [19, self.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        draw = (TestBatchedSweep._draw, TestMonotoneInMu._draw)
        draws = [draw[k % 2](rng, variant) for k in range(8)]
        if variant == "spdc":  # bright pairs: y = 0 at small T, and q > y > 0 above it
            draws.append(spdc.SpdcParams(nu=0.1, T=1.0, mu=0.0, e=0.05, d=1e-6))
        reached = set()
        for params in draws:
            ts = np.concatenate([TestBatchedSweep.T, 10.0 ** rng.uniform(-9.0, 0.0, 30)])
            mus = np.concatenate([TestBatchedSweep.MU, 10.0 ** rng.uniform(-12.0, 3.0, 30)])
            T, mu = (x.ravel() for x in np.meshgrid(ts, mus))
            want = ref.criterion_holds(params, criterion, mu, T)
            margin = boundary.criterion_margin(params, criterion)(mu, T)
            assert margin.dtype == float and np.array_equal(margin > 0.0, want), params
            assert np.array_equal(boundary.criterion_predicate(params, criterion)(mu, T), want)
            one = boundary.criterion_margin(params, criterion)(float(mu[7]), float(T[7]))
            assert type(one) is np.float64 and (one > 0.0) == want[7]
            reached |= self._edges(params, criterion, mu, T, want)
        assert {"holds", "fails"} <= reached
        if criterion == boundary.SECURITY and variant == "spdc":
            assert {"y = 0", "q > y > 0"} <= reached
        if criterion != boundary.SECURITY and variant == "thermal-bath":
            assert "P_S beyond the boundary" in reached

    @staticmethod
    def _edges(params, criterion, mu, T, want) -> set:
        """The edge cases the points reach."""
        point = replace(params, T=T, mu=mu)
        reached = {"holds"} if want.any() else set()
        reached |= {"fails"} if not want.all() else set()
        if isinstance(params, spdc.SpdcParams):
            stats = spdc.key_stats(point)
            y = stats.single_photon_fraction
            reached |= {"y = 0"} if np.any(y == 0.0) else set()
            reached |= {"q > y > 0"} if np.any((stats.qber > y) & (y > 0.0)) else set()
        if criterion != boundary.SECURITY:
            p_s = boundary.model_clicks(point).p_single
            top = witness.ng_boundary_curve().p_single[-1]
            top = 0.5 if criterion == boundary.NONCLASSICAL else top
            reached |= {"P_S beyond the boundary"} if np.any(p_s > top) else set()
        return reached

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    def test_nan_still_raises(self, criterion):
        margin = boundary.criterion_margin(tb_params(), criterion)
        with pytest.raises(ParameterDomainError):
            margin(np.array([1e-3, math.nan]))
        with pytest.raises(ParameterDomainError):
            boundary.criterion_predicate(tb_params(), criterion)(math.nan)


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
        for grid in (
            [0.1, math.nan, 0.5],
            [0.1, math.inf],
            [-math.inf, 0.1],
            [-0.1, 0.5],
            [0.5, 1.5],
            [0.1, 0.1, 0.5],
            [math.nan],
        ):
            with pytest.raises(ParameterDomainError):
                boundary.sweep(tb_params(), boundary.SECURITY, grid)

    @pytest.mark.parametrize(
        "params",
        [tb_params(d=1e-3), noise_before.NoiseBeforeParams(p=1, T=0.5, mu=0, d=1e-3),
         spdc.SpdcParams(nu=1e-3, T=0.5, mu=0, d=1e-3)],
        ids=lambda params: boundary.model_name(params),
    )
    def test_points_are_plain_python_values(self, params):
        # numpy scalars would print as True/False in the CLI's CSV and JSON
        curve = boundary.sweep(params, boundary.SECURITY, [1e-6, 1e-2, 1.0])
        assert [pt.feasible for pt in curve.points] == [False, True, True]
        for pt in curve.points:
            assert type(pt.mu_max) is float and type(pt.feasible) is bool


class TestBatchedSweep:
    """The sweep searches all its transmittances as one vector; each point must be the
    one-point search, bit for bit, and a boundary the criterion crosses there."""

    VARIANTS = TestMonotoneInMu.VARIANTS
    CURVES = 3
    POINTS = 10
    BRACKET = 4e-6  # four times roots.REL_TOL

    @staticmethod
    def _draw(rng, variant):
        # the distributions of the 8,880-point draw in CHANGES.md
        p = 10.0 ** rng.uniform(-2.0, 0.0)
        e = rng.uniform(0.0, 0.2)
        d = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-8.0, -3.0)
        nu = 10.0 ** rng.uniform(-9.0, -1.0)
        if variant == "thermal-bath":
            return thermal_bath.ThermalBathParams(p=p, T=1.0, mu=0.0, e=e, d=d)
        if variant == "spdc":
            return spdc.SpdcParams(nu=nu, T=1.0, mu=0.0, e=e, d=d)
        kind = variant.split("/")[1]
        return noise_before.NoiseBeforeParams(p=p, T=1.0, mu=0.0, e=e, d=d, noise_kind=kind)

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_points_are_one_point_searches_and_boundaries(self, variant, criterion):
        rng = np.random.default_rng(
            [7, self.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        for _ in range(self.CURVES):
            params = self._draw(rng, variant)
            grid = np.geomspace(10.0 ** rng.uniform(-6.0, -2.0), 1.0, self.POINTS)
            for pt in boundary.sweep(params, criterion, grid).points:
                alone = boundary.mu_max_numeric(replace(params, T=pt.T), criterion)
                assert (pt.mu_max, pt.feasible) == (alone or 0.0, alone is not None), pt
                pred = boundary.criterion_predicate(replace(params, T=pt.T), criterion)
                if pt.mu_max == boundary.MU_CEILING:
                    assert pred(boundary.MU_CEILING), pt
                elif pt.feasible:
                    assert pred(pt.mu_max * (1.0 - self.BRACKET)), pt
                    assert not pred(pt.mu_max * (1.0 + self.BRACKET)), pt

    # mu T on both sides of noise_before's series switch at 0.08, T = 1, and the
    # search's ends mu = 0 and the ceiling: every np.where computes both branches
    T = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.16, 1e-9, 1e-9, 0.3])
    MU = np.array([0.0, 1e3, 0.08, 0.16, 0.16000001, 0.5, 0.0, 1e3, 1e-12])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_arrays_evaluate_elementwise_without_warnings(self, variant):
        params = self._draw(np.random.default_rng(3), variant)
        module = channel.model(params).module
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = replace(params, T=self.T, mu=self.MU)
            rate, clicks = module.key_rate(batch), module.click_stats(batch)
            omega = module.omega(batch)
            flags = witness.is_nonclassical(clicks), witness.is_nongaussian(clicks)
            for i, (t, mu) in enumerate(zip(self.T.tolist(), self.MU.tolist())):
                one = replace(params, T=t, mu=mu)
                got = module.key_rate(one), module.click_stats(one), module.omega(one)
                assert rate.delta_i[i] == got[0].delta_i and rate.qber[i] == got[0].qber
                assert clicks.p_single[i] == got[1].p_single
                assert clicks.p_coincidence[i] == got[1].p_coincidence
                assert omega[0][i] == got[2][0] and omega[1][i] == got[2][1]
                assert flags[0][i] == witness.is_nonclassical(got[1])
                assert flags[1][i] == witness.is_nongaussian(got[1])


class TestLadderSearch:
    """The search tests several rungs of the doubling ladder per predicate call; every
    point must be the search doubling one rung per call, bit for bit."""

    VARIANTS = TestMonotoneInMu.VARIANTS
    POINTS = 60

    def test_ladder_is_the_repeated_doubling(self):
        rungs = [boundary.MU_SEED]
        while rungs[-1] < boundary.MU_CEILING:
            rungs.append(min(2.0 * rungs[-1], boundary.MU_CEILING))
        assert boundary._LADDER.tolist() == [0.0] + rungs  # mu = 0 first

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_points_match_the_one_rung_doubling_bit_for_bit(self, variant, criterion):
        rng = np.random.default_rng(
            [11, self.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        # one draw as the batched-sweep test draws, one over the monotonicity test's wider range
        for draw in (TestBatchedSweep._draw, TestMonotoneInMu._draw):
            pred = boundary.criterion_predicate(draw(rng, variant), criterion)
            ts = np.geomspace(10.0 ** rng.uniform(-9.0, -2.0), 1.0, self.POINTS)
            mu_max, feasible = boundary._search_mu_max(pred, ts)
            want_mu_max, want_feasible = ref.search_mu_max_doubling(pred, ts)
            assert mu_max.tobytes() == want_mu_max.tobytes()
            assert feasible.tobytes() == want_feasible.tobytes()

    def test_no_call_exceeds_the_ladder_width_or_the_points_climbing(self):
        ts = np.geomspace(1e-9, 1.0, 5000)
        calls = []  # (elements, points in the call, whether all are ladder rungs)

        def pred(mu, T):
            calls.append((mu.size, np.unique(T).size, np.isin(mu, boundary._LADDER).all()))
            return mu < 2e3 * T  # edges on every rung; the ceiling for T > 0.5

        mu_max, feasible = boundary._search_mu_max(pred, ts)
        assert calls[0] == (5000, 5000, True)  # more points than the width: mu = 0 each
        assert calls[1] == (5000, 5000, True)  # then one rung each
        for size, points, ladder in calls:
            assert size <= max(points, boundary._LADDER_WIDTH if ladder else roots._CALL_WIDTH)
        assert any(ladder and size > points for size, points, ladder in calls)
        want_mu_max, _ = ref.search_mu_max_doubling(pred, ts)
        assert mu_max.tobytes() == want_mu_max.tobytes() and feasible.all()
        assert np.sum(mu_max == boundary.MU_CEILING) == np.sum(ts > 0.5)

    def test_guessed_paths_stay_within_the_guess_width(self):
        ts = np.geomspace(1e-9, 0.5, 60)
        calls = []  # (elements, points in the call)

        def margin(mu, T):
            calls.append((mu.size, np.unique(T).size))
            return 2e3 * T - mu  # edges on every rung

        mu_max, feasible = boundary._search_mu_max(margin, ts)
        # the ladder, four tree levels of each bracket, and the paths of their guesses
        assert len(calls) == 3 and calls[1] == (60 * 15, 60)
        assert calls[2][1] == 60 and calls[2][0] <= roots._GUESS_WIDTH
        want_mu_max, _ = ref.search_mu_max_doubling(lambda mu, T: margin(mu, T) > 0.0, ts)
        assert mu_max.tobytes() == want_mu_max.tobytes() and feasible.all()

    def test_sixty_points_take_few_predicate_calls(self):
        # one rung per call takes 61: mu = 0, 40 doublings to 0.37, 20 bisection steps
        calls = []

        def margin(mu, T):
            calls.append(mu.size)
            return 0.37 - mu

        mu_max, _ = boundary._search_mu_max(margin, np.geomspace(1e-3, 1.0, 60))
        assert mu_max == pytest.approx(np.full(60, 0.37), rel=1e-6)
        # mu = 0 and the ladder in one, four tree levels in one, each guess's path in one
        assert len(calls) <= 3


class TestBisectionLevels:
    """The search bisects several levels per predicate call; every point and every
    t_min must be the search bisecting one level per call, bit for bit, in fewer calls."""

    VARIANTS = TestMonotoneInMu.VARIANTS
    POINTS = 60

    @classmethod
    def _configs(cls, variant, criterion, count):
        """Seeded configurations and grids, drawn alternately as the batched-sweep and
        the monotonicity tests draw them."""
        rng = np.random.default_rng(
            [13, cls.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        for k in range(count):
            draw = (TestBatchedSweep._draw, TestMonotoneInMu._draw)[k % 2]
            yield draw(rng, variant), np.geomspace(10.0 ** rng.uniform(-9.0, -2.0), 1.0, cls.POINTS)

    @staticmethod
    def _counting(monkeypatch):
        """Counts the calls of every margin the boundary module builds from here on, and
        so of every predicate too: a predicate calls its margin once per call."""
        calls = []
        build = boundary.criterion_margin

        def counted(params, criterion):
            margin = build(params, criterion)

            def call(*args):
                calls.append(1)
                return margin(*args)

            return call

        monkeypatch.setattr(boundary, "criterion_margin", counted)
        return calls

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sweep_and_t_min_match_the_one_level_search(self, variant, criterion):
        for params, grid in self._configs(variant, criterion, 4):
            curve = boundary.sweep(params, criterion, grid)
            pred = boundary.criterion_predicate(params, criterion)
            want_mu_max, want_feasible = ref.search_mu_max_doubling(pred, grid)
            assert np.array([pt.mu_max for pt in curve.points]).tobytes() == want_mu_max.tobytes()
            assert [pt.feasible for pt in curve.points] == want_feasible.tolist()
            t_min, want = boundary.t_min_numeric(params), ref.t_min_numeric_one_level(params)
            assert repr(t_min) == repr(want), params

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_t_min_takes_at_most_three_predicate_calls(self, variant, monkeypatch):
        # one level per call takes 20 to 50: the two ends, then one call per halving
        calls = self._counting(monkeypatch)
        for criterion in boundary.CRITERIA:
            for params, _ in self._configs(variant, criterion, 10):
                calls.clear()
                boundary.t_min_numeric(params)
                assert len(calls) <= 3, params

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sixty_point_sweep_takes_at_most_six_predicate_calls(
        self, variant, criterion, monkeypatch
    ):
        # one level per call takes about 24: mu = 0, a few ladder calls, 20 bisection steps;
        # here one call tests mu = 0 and the ladder, and each call after it four or more
        # bisection levels of every bracket, or the rest of the path its guess implies
        calls = self._counting(monkeypatch)
        for params, grid in self._configs(variant, criterion, 10):
            calls.clear()
            points = boundary.sweep(params, criterion, grid).points
            taken = len(calls)
            if not any(pt.feasible and pt.mu_max < boundary.MU_SEED for pt in points):
                assert taken <= 6, params
                continue
            # boundaries below the ladder's first rung, down to ~1e-25, bisect from
            # [0, MU_SEED]: at most a fifth of the calls the one-level search makes
            calls.clear()
            ref.search_mu_max_doubling(boundary.criterion_predicate(params, criterion), grid)
            assert 5 * taken <= len(calls), params


class TestFrozenNonGaussianSweeps:
    """Seeded 60-point non-Gaussian sweeps reproduce their recorded mu_max bit for bit.

    The one-level reference search cannot check the witness, since it calls
    the same one.  The models' click statistics read numpy's exp and expm1
    kernels, which these pin across CPUs.  Every recorded point brackets the
    edge of the strict comparison against a 60-digit mpmath boundary within
    4e-6 relative, including the weak-light points down to P_S ~ 1e-12.
    """

    # seeded draws whose points once moved with the last bit of the boundary's P_C
    SWEEPS = {
        "thermal-bath/0": (
            thermal_bath.ThermalBathParams(
                p=0.7417357370772736, T=1.0, mu=0.0, e=0.028681720908755537, d=7.720944214626774e-05
            ),
            1.9790090380776246e-05,
        ),
        "thermal-bath/1": (
            thermal_bath.ThermalBathParams(
                p=0.11152994434037386, T=1.0, mu=0.0, e=0.05182221775395868, d=0.0
            ),
            2.3554350858378086e-08,
        ),
        "noise-before/thermal": (
            noise_before.NoiseBeforeParams(
                p=0.7022401162883061, T=1.0, mu=0.0, e=0.011647484323251212, d=0.0,
                noise_kind="thermal",
            ),
            6.337171668441452e-09,
        ),
        "noise-before/poisson": (
            noise_before.NoiseBeforeParams(
                p=0.12948451273247552, T=1.0, mu=0.0, e=0.06357130773667889, d=0.0,
                noise_kind="poisson",
            ),
            2.1442687584658507e-05,
        ),
    }
    # sweep -> mu_max per grid point, in grid order
    FROZEN = {
        "thermal-bath/0": [
            1.0773898315429686e-10, 1.5191912841796875e-10, 2.1421636962890622e-10,
            3.020596923828125e-10, 4.2592565917968747e-10, 6.00585693359375e-10,
            8.46870849609375e-10, 1.19415283203125e-09, 1.6838500976562503e-09,
            2.3743681640625e-09, 3.3480634765625e-09, 4.721076171875e-09,
            6.657177734374999e-09, 9.387308593750001e-09, 1.3237160156250003e-08,
            1.86659921875e-08, 2.6321539062500005e-08, 3.7117203125e-08,
            5.234123437500001e-08, 7.381059375e-08, 1.0408790625000002e-07,
            1.467878125e-07, 2.0700918750000002e-07, 2.919446250000001e-07,
            4.1174212500000004e-07, 5.807192500000002e-07, 8.1908075e-07,
            1.1553405000000001e-06, 1.6297494999999998e-06, 2.2991350000000005e-06,
            3.2437450000000006e-06, 4.576941999999998e-06, 6.458906e-06,
            9.116084e-06, 1.2868731999999998e-05, 1.8170087999999998e-05,
            2.5661960000000003e-05, 3.6254031999999996e-05, 5.1236912e-05,
            7.244387199999998e-05, 0.000102482912, 0.0001450704,
            0.000205514304, 0.000291414144, 0.00041368691199999996,
            0.0005880742400000001, 0.000837383424, 0.0011948538880000002,
            0.001709271552, 0.002452886528, 0.003533865984,
            0.005116356608000001, 0.007453710336, 0.010945253376,
            0.016237244416000003, 0.024411086848000002, 0.037355274239999986,
            0.058555940864000004, 0.094942625792, 0.161772273664,
        ],
        "thermal-bath/1": [
            3.450605618127156e-18, 6.1131449911044915e-18, 1.0830142855411396e-17,
            1.9186853023711594e-17, 3.399171691853553e-17, 6.022027810104192e-17,
            1.0668710456229748e-16, 1.890085986815393e-16, 3.348506288602949e-16,
            5.932261701673271e-16, 1.0509691201150415e-15, 1.861913595348596e-15,
            3.2985946163535123e-15, 5.843842402100563e-15, 1.0353047400712968e-14,
            1.8341623246669767e-14, 3.249432146549225e-14, 5.756749212741852e-14,
            1.0198757052421569e-13, 1.806829571723938e-13, 3.2010138034820557e-13,
            5.670979022979737e-13, 1.0046820640563966e-12, 1.7799181938171385e-12,
            3.1533479690551763e-12, 5.58656120300293e-12, 9.897335052490234e-12,
            1.753450775146485e-11, 3.106495666503906e-11, 5.503645324707032e-11,
            9.750650024414063e-11, 1.7275115966796877e-10, 3.0606555175781255e-10,
            5.422707519531249e-10, 9.607893066406251e-10, 1.7023715820312501e-09,
            3.0164736328125004e-09, 5.345267578125e-09, 9.472683593750002e-09,
            1.67888515625e-08, 2.9759648437500002e-08, 5.276107812500001e-08,
            9.356309375e-08, 1.659724375e-07, 2.9454662500000004e-07,
            5.230247499999999e-07, 9.2944725e-07, 1.6533885000000003e-06,
            2.9452789999999996e-06, 5.256386000000001e-06, 9.404636e-06,
            1.6884312000000003e-05, 3.0455016000000003e-05, 5.5289744e-05,
            0.00010128988800000001, 0.00018797600000000002, 0.000355520896,
            0.0006920880640000001, 0.001411693056, 0.00313048576,
        ],
        "noise-before/thermal": [
            3.1251201171874997e-09, 4.253197265625001e-09, 5.788474609375e-09,
            7.877941406249999e-09, 1.0721652343750001e-08, 1.4591847656249999e-08,
            1.985907031250001e-08, 2.7027617187500003e-08, 3.6783796875000005e-08,
            5.0061671875e-08, 6.813246875e-08, 9.272621875e-08,
            1.2619768749999998e-07, 1.7175131249999998e-07, 2.3374843749999998e-07,
            3.181248750000001e-07, 4.3295837499999996e-07, 5.892437500000001e-07,
            8.019432500000001e-07, 1.0914205e-06, 1.4853914999999999e-06,
            2.0215730000000006e-06, 2.7513010000000005e-06, 3.7444389999999993e-06,
            5.09607e-06, 6.935598e-06, 9.439140000000002e-06,
            1.2846372e-05, 1.7483512000000002e-05, 2.3794504e-05,
            3.238353599999999e-05, 4.407288e-05, 5.998161599999999e-05,
            8.163267200000002e-05, 0.00011109871999999998, 0.00015120019200000003,
            0.00020577580800000002, 0.000280048512, 0.00038112652800000003,
            0.0005186808319999998, 0.0007058711040000001, 0.0009605982719999998,
            0.0013072143360000005, 0.001778840064, 0.002420509696,
            0.0032934410239999993, 0.00448082944, 0.006095685631999999,
            0.00829147136, 0.011276521472000003, 0.015333691391999998,
            0.020847370240000006, 0.028341280767999997, 0.038533185536000006,
            0.052418428928, 0.071408123904, 0.09758195711999999,
            0.13420756992, 0.186957365248, 0.26723339468799995,
        ],
        "noise-before/poisson": [
            3.5951362500000004e-07, 4.26328125e-07, 5.0555975e-07,
            5.9951675e-07, 7.1093525e-07, 8.430607500000001e-07,
            9.997417499999998e-07, 1.1855415000000001e-06, 1.4058715e-06,
            1.6671495e-06, 1.9769854999999994e-06, 2.3444030000000002e-06,
            2.7801070000000007e-06, 3.296785e-06, 3.9094889999999995e-06,
            4.636062000000002e-06, 5.4976699999999995e-06, 6.51941e-06,
            7.731046e-06, 9.167868e-06, 1.0871732e-05,
            1.2892267999999998e-05, 1.5288340000000003e-05, 1.8129752e-05,
            2.1499271999999996e-05, 2.5495080000000005e-05, 3.0233575999999996e-05,
            3.5852847999999995e-05, 4.2516656000000005e-05, 5.041912e-05,
            5.979063999999999e-05, 7.0904352e-05, 8.408419200000002e-05,
            9.971452800000002e-05, 0.000118251168, 0.00014023481600000003,
            0.00016630688000000002, 0.00019722848, 0.00023390252799999998,
            0.00027740044799999997, 0.0003289934080000001, 0.00039019123200000007,
            0.00046278540799999995, 0.00054890368, 0.0006510727680000001,
            0.0007722959360000002, 0.0009161413120000001, 0.001086854656,
            0.0012894868480000004, 0.001530055168, 0.0018157317120000003,
            0.002155076608, 0.0025583298560000007, 0.0030377523199999995,
            0.003608071168, 0.004287031296000001, 0.005096085504,
            0.00606133248, 0.007214675968, 0.008595451904,
        ],
    }

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_sweep_is_bit_identical(self, name):
        params, low = self.SWEEPS[name]
        grid = np.geomspace(low, 0.5, 60)
        got = [pt.mu_max for pt in boundary.sweep(params, boundary.NONGAUSSIAN, grid).points]
        assert [v.hex() for v in got] == [v.hex() for v in self.FROZEN[name]]


class TestWrongGuesses:
    """A guess only orders the tests: whatever the guesses, each point is the search
    doubling one rung and bisecting one level per call, bit for bit."""

    VARIANTS = TestMonotoneInMu.VARIANTS
    WRONG = {
        "1e-3 relative": lambda guess, holds, fails: guess * (1.0 + 1e-3),
        "1e-7 relative": lambda guess, holds, fails: guess * (1.0 - 1e-7),
        "NaN": lambda guess, holds, fails: np.full_like(guess, np.nan),
        "above the bracket": lambda guess, holds, fails: 2.0 * fails - holds,
        "below the bracket": lambda guess, holds, fails: 0.5 * holds,
    }

    @pytest.fixture(params=list(WRONG))
    def wrong(self, request, monkeypatch):
        """Every guess the search takes, moved as the case says."""
        true, move = roots._guess, self.WRONG[request.param]
        monkeypatch.setattr(roots, "_guess", lambda h, f, margin: move(true(h, f, margin), h, f))

    @pytest.mark.parametrize("criterion", boundary.CRITERIA)
    def test_sweeps_match_the_one_level_search(self, wrong, criterion):
        rng = np.random.default_rng([29, boundary.CRITERIA.index(criterion)])
        for variant in self.VARIANTS:
            for draw in (TestBatchedSweep._draw, TestMonotoneInMu._draw):
                params = draw(rng, variant)
                ts = np.geomspace(10.0 ** rng.uniform(-9.0, -2.0), 1.0, 60)
                pred = boundary.criterion_predicate(params, criterion)
                want = ref.search_mu_max_doubling(pred, ts)
                # the margin, and a margin that is only a boolean
                for margin in (boundary.criterion_margin(params, criterion), pred):
                    got = boundary._search_mu_max(margin, ts)
                    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), params

    def test_non_monotone_margins_match_the_one_level_search(self, wrong):
        ts = np.geomspace(1e-9, 1.0, 40)
        margins = (
            # the fallback test's window, and a real margin changing sign on each
            # 2^20-ulp block of a third of the values
            lambda mu, T: ((mu <= 0.01) | ((1.0 <= mu) & (mu <= 500.0))) - 0.5,
            lambda mu, T: ((mu.view(np.int64) >> 20) % 3 != 1) + T - 0.5 * (mu > 0.0),
            lambda mu, T: 1e-20 * T - mu,  # every edge below the first rung: brackets from 0
        )
        for margin in margins:
            got = boundary._search_mu_max(margin, ts)
            want = ref.search_mu_max_doubling(lambda mu, T: margin(mu, T) > 0.0, ts)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestFrozenSweeps:
    """Seeded 60-point security and nonclassical sweeps hash to the digests of the
    search doubling one rung and bisecting one level per call: sha256 over
    (T, mu_max, feasible) of each point, as little-endian double, double, bool."""

    VARIANTS = TestMonotoneInMu.VARIANTS
    DIGESTS = {
        ("thermal-bath", "security"): "01a312c861970ce5",
        ("noise-before/thermal", "security"): "0a1646b2d9faf58e",
        ("noise-before/poisson", "security"): "66ba63df48852e37",
        ("spdc", "security"): "fc0dcd9a0a79cc86",
        ("thermal-bath", "nonclassical"): "20dd9925d3df344b",
        ("noise-before/thermal", "nonclassical"): "36238f247e3b78f3",
        ("noise-before/poisson", "nonclassical"): "ad80a683839488e4",
        ("spdc", "nonclassical"): "e067b62f16c67ebf",
    }

    @pytest.mark.parametrize("variant, criterion", list(DIGESTS))
    def test_sweeps_hash_to_their_digest(self, variant, criterion):
        rng = np.random.default_rng(
            [17, self.VARIANTS.index(variant), boundary.CRITERIA.index(criterion)]
        )
        digest = hashlib.sha256()
        for _ in range(4):
            params = TestBatchedSweep._draw(rng, variant)
            grid = np.geomspace(10.0 ** rng.uniform(-9.0, -3.0), 0.5, 60)
            for pt in boundary.sweep(params, criterion, grid).points:
                digest.update(struct.pack("<dd?", pt.T, pt.mu_max, pt.feasible))
        assert digest.hexdigest()[:16] == self.DIGESTS[variant, criterion]


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

    def test_step_thresholds_match_the_one_level_search(self, monkeypatch):
        # security holding for T >= threshold; the rungs are the bisection's midpoints
        rungs = boundary._T_LADDER[1:-1]
        narrow = [j for j in range(1, rungs.size) if not roots.wide(rungs[j - 1], rungs[j])]
        thresholds = {
            "at a rung": [rungs[0], rungs[1], rungs[20], rungs[-2], rungs[-1]],
            "just above a rung": [np.nextafter(r, 1.0) for r in (rungs[0], rungs[20], rungs[-1])],
            "between two rungs": [0.5 * (rungs[5] + rungs[6]), 0.3, 1e-3],
            "between the last rung and T_FLOOR": [0.5 * (rungs[-1] + boundary.T_FLOOR)],
            "first failing rung already narrow": [rungs[j - 1] for j in narrow],
            "None": [np.nextafter(1.0, 2.0), 2.0],
            "0.0": [boundary.T_FLOOR, 0.5 * boundary.T_FLOOR],
        }
        assert narrow  # the ladder reaches brackets narrow from their first step
        calls = []

        def step(params, criterion):
            def pred(mu, T):
                calls.append(1)
                return np.asarray(T) >= threshold

            return pred

        monkeypatch.setattr(boundary, "criterion_predicate", step)
        for case, values in thresholds.items():
            for threshold in values:
                calls.clear()
                got = boundary.t_min_numeric(tb_params(d=1e-6))
                taken = len(calls)
                want = ref.t_min_numeric_one_level(tb_params(d=1e-6))
                assert repr(got) == repr(want), (case, threshold)
                assert taken <= 3, (case, threshold)
                if case not in ("at a rung", "just above a rung", "between two rungs"):
                    assert taken == 1, (case, threshold)  # no bracket left to bisect


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

    def test_one_infeasibility_rule_at_twice_the_qber_threshold(self):
        # inf at and above 2 Q_th and a finite value below it, for the floats next to it,
        # even where the root y_th rounds to 1
        edge = 2.0 * security.qber_threshold()
        below, above = [edge], [edge]
        for _ in range(4):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 1.0))
        for e in below[1:]:
            assert 0.0 < security.y_threshold(e) < 1.0
            assert math.isfinite(boundary.t_min_spdc_bright_pairs(e, 1e-3))
            assert math.isfinite(boundary.t_min_ideal_source(1.0, e, 1e-3))
        for e in above:
            with pytest.raises(InfeasibleError):
                security.y_threshold(e)
            assert boundary.t_min_spdc_bright_pairs(e, 1e-3) == math.inf
            assert boundary.t_min_ideal_source(1.0, e, 1e-3) == math.inf

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
