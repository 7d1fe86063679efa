import functools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import _reference as ref
from dvqkd import channel
from dvqkd import montecarlo as mc
from dvqkd import noise_before as nb
from dvqkd import spdc
from dvqkd import thermal_bath as tb
from dvqkd import photon_stats as ps
from dvqkd.errors import ParameterDomainError

CONFIG = mc.McConfig(samples=400_000, seed=20240611)


def check(analytic: float, est: mc.McEstimate, sigmas: float = 4.0) -> None:
    assert abs(analytic - est.value) <= sigmas * est.std_err + 1e-12


class TestDeterminism:
    def test_bitwise_reproducible(self):
        pr = tb.ThermalBathParams(p=0.6, T=0.4, mu=0.1, e=0.05, d=1e-3)
        a = mc.simulate(pr, mc.McConfig(samples=50_000, seed=7), mc.KEY)
        b = mc.simulate(pr, mc.McConfig(samples=50_000, seed=7), mc.KEY)
        assert a == b

    def test_seed_changes_estimates(self):
        pr = tb.ThermalBathParams(p=0.6, T=0.4, mu=0.1)
        a = mc.simulate(pr, mc.McConfig(samples=50_000, seed=7), mc.KEY)
        b = mc.simulate(pr, mc.McConfig(samples=50_000, seed=8), mc.KEY)
        assert a["p_exp"].value != b["p_exp"].value

    def test_partial_blocks_accepted(self):
        pr = tb.ThermalBathParams(p=0.6, T=0.4, mu=0.1)
        out = mc.simulate(pr, mc.McConfig(samples=(1 << 16) + 3, seed=1), mc.KEY)
        assert out["p_exp"].samples == (1 << 16) + 3


class TestTrivialPoints:
    def test_perfect_line(self):
        pr = tb.ThermalBathParams(p=1.0, T=1.0, mu=0.0, e=0.0, d=0.0)
        out = mc.simulate(pr, mc.McConfig(samples=10_000, seed=3), mc.KEY)
        assert out["p_exp"].value == 1.0
        assert out["qber"].value == 0.0

    def test_empty_line(self):
        pr = tb.ThermalBathParams(p=0.0, T=0.5, mu=0.0, e=0.0, d=0.0)
        out = mc.simulate(pr, mc.McConfig(samples=10_000, seed=3), mc.AUTOCORR)
        assert out["p_none"].value == 1.0


class TestThermalBathAgreement:
    PARAMS = tb.ThermalBathParams(p=0.5, T=0.3, mu=0.05, e=0.06, d=2e-3)

    def test_key_geometry(self):
        out = mc.simulate(self.PARAMS, CONFIG, mc.KEY)
        check(tb.key_rate(self.PARAMS).p_exp, out["p_exp"])
        check(tb.key_rate(self.PARAMS).qber, out["qber"])

    def test_weak_noise_error_rate(self):
        pr = tb.ThermalBathParams(p=1.0, T=0.5, mu=0.01, e=0.0, d=0.0)
        out = mc.simulate(pr, mc.McConfig(samples=1_000_000, seed=31415), mc.KEY)
        check(tb.key_rate(pr).qber, out["qber"])

    def test_autocorr_geometry(self):
        out = mc.simulate(self.PARAMS, CONFIG, mc.AUTOCORR)
        cs = tb.click_stats(self.PARAMS)
        w1, w2 = tb.omega(self.PARAMS)
        check(cs.p_single, out["p_single"])
        check(cs.p_coincidence, out["p_coincidence"])
        check(cs.p_none, out["p_none"])
        check(w1, out["omega1"])
        check(w2, out["omega2plus"])

    def test_arrival_closure(self):
        out = mc.simulate(self.PARAMS, CONFIG, mc.AUTOCORR)
        total = out["p_none"].value + out["omega1"].value + out["omega2plus"].value
        assert total == pytest.approx(1.0, abs=1e-12)


class TestNoiseBeforeAgreement:
    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_key_geometry(self, kind):
        pr = nb.NoiseBeforeParams(p=0.7, T=0.45, mu=0.25, e=0.04, d=1e-3, noise_kind=kind)
        out = mc.simulate(pr, CONFIG, mc.KEY)
        check(nb.key_rate(pr).p_exp, out["p_exp"])
        check(nb.key_rate(pr).qber, out["qber"])

    def test_event_classes_individually(self):
        pr = nb.NoiseBeforeParams(p=0.5, T=0.4, mu=0.2, e=0.0, d=1e-3)
        out = mc.simulate(pr, CONFIG, mc.KEY)
        ev = nb.event_probs(pr)
        check(ev.signal, out["p_exp_signal"])
        check(ev.noise, out["p_exp_noise"])
        check(ev.noise_signal, out["p_exp_noise_signal"])
        check(ev.dark, out["p_exp_dark"])

    @pytest.mark.parametrize("kind", [ps.THERMAL, ps.POISSON])
    def test_autocorr_geometry(self, kind):
        pr = nb.NoiseBeforeParams(p=0.7, T=0.45, mu=0.25, e=0.0, d=0.0, noise_kind=kind)
        out = mc.simulate(pr, CONFIG, mc.AUTOCORR)
        cs = nb.click_stats(pr)
        w1, w2 = nb.omega(pr)
        check(cs.p_single, out["p_single"])
        check(cs.p_coincidence, out["p_coincidence"])
        check(cs.p_none, out["p_none"])
        check(w1, out["omega1"])
        check(w2, out["omega2plus"])


class TestSpdcAgreement:
    PARAMS = spdc.SpdcParams(nu=0.05, T=0.35, mu=0.08, e=0.03, d=1e-3)

    def test_key_geometry(self):
        out = mc.simulate(self.PARAMS, CONFIG, mc.KEY)
        st = spdc.key_stats(self.PARAMS)
        herald = spdc.herald_prob(self.PARAMS.nu)
        check(st.p_exp / herald, out["p_exp"])
        check(st.qber, out["qber"])
        check(st.p_multi / herald, out["p_multi"])
        check(st.single_photon_fraction, out["y"])

    def test_autocorr_geometry(self):
        out = mc.simulate(self.PARAMS, CONFIG, mc.AUTOCORR)
        cs = spdc.click_stats(self.PARAMS)
        w1, w2 = spdc.omega(self.PARAMS)
        check(cs.p_single, out["p_single"])
        check(cs.p_coincidence, out["p_coincidence"])
        check(cs.p_none, out["p_none"])
        check(w1, out["omega1"])
        check(w2, out["omega2plus"])


class TestSpdcSmallNu:
    # at nu = 1e-12 the herald-conditioned uniform draw rounds up to 1 about
    # once in 2e4 samples, where the Poisson quantile is infinite
    PARAMS = spdc.SpdcParams(nu=1e-12, T=0.5, mu=0.1)
    SMALL = mc.McConfig(samples=200_000, seed=0)

    def test_key_geometry(self):
        out = mc.simulate(self.PARAMS, self.SMALL, mc.KEY)
        for name, value in spdc.key_statistics(self.PARAMS).items():
            check(value, out[name], sigmas=5.0)

    def test_autocorr_geometry(self):
        out = mc.simulate(self.PARAMS, self.SMALL, mc.AUTOCORR)
        cs = spdc.click_stats(self.PARAMS)
        w1, w2 = spdc.omega(self.PARAMS)
        analytic = {
            "p_single": cs.p_single,
            "p_coincidence": cs.p_coincidence,
            "p_none": cs.p_none,
            "omega1": w1,
            "omega2plus": w2,
        }
        for name, value in analytic.items():
            check(value, out[name], sigmas=5.0)


class TestPoissonQuantile:
    @pytest.mark.parametrize("seed, nu", enumerate(np.geomspace(1e-12, 1e4, 17).tolist()))
    def test_matches_scipy(self, seed, nu):
        from scipy.stats import poisson

        # the herald-conditioned, clipped draws the sampler feeds it
        p0 = math.exp(-nu)
        u = p0 + (1.0 - p0) * np.random.default_rng([11, seed]).random(1 << 16)
        u = np.clip(u, np.nextafter(p0, 1.0), np.nextafter(1.0, 0.0))
        assert np.array_equal(mc._poisson.ppf(u, nu), poisson.ppf(u, nu))

    @staticmethod
    def _around_tail(nu: float, j: int) -> np.ndarray:
        """u with 1 - u exactly P(N > j) as the table holds it, and one ulp of 1 - u to either side."""
        tail = -mc._minus_upper_tail(nu)[j]
        q = np.array([np.nextafter(tail, 0.0), tail, np.nextafter(tail, 1.0)])
        u = 1.0 - q
        assert np.array_equal(1.0 - u, q)  # exact while P(N > j) >= 1/2
        return u

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("nu", [2.0, 5.0, 30.0])
    def test_two_comparisons_keep_the_search_edges(self, nu, j):
        u = self._around_tail(nu, j)
        assert np.array_equal(mc._poisson.ppf(u, nu), ref._poisson_ppf(u, nu))

    @pytest.mark.parametrize("j", [0, 1])
    def test_edges_match_scipy(self, j):
        from scipy.stats import poisson

        # scipy inverts its CDF numerically, and the table's tails near 1 are
        # summed to within tens of ulps, so the two agree to the last ulp of
        # 1 - u only where both are rounded alike: at nu = 2 both tails are
        # within 0.3 ulp of exact
        u = self._around_tail(2.0, j)
        assert np.array_equal(mc._poisson.ppf(u, 2.0), poisson.ppf(u, 2.0))
        assert mc._poisson.ppf(u, 2.0).tolist() == [j + 1, j, j]

    @pytest.mark.parametrize("nu", [0.0, 2 * mc.NU_MAX, 1e12])
    def test_pair_mean_outside_table_rejected(self, nu):
        pr = spdc.SpdcParams(nu=nu, T=0.3, mu=0.05)
        with pytest.raises(ParameterDomainError):
            mc.simulate(pr, mc.McConfig(samples=20_000, seed=1), mc.AUTOCORR)

    def test_largest_pair_mean_runs(self):
        pr = spdc.SpdcParams(nu=mc.NU_MAX, T=0.3, mu=0.05)
        out = mc.simulate(pr, mc.McConfig(samples=20_000, seed=1), mc.AUTOCORR)
        check(spdc.omega(pr)[1], out["omega2plus"])


class TestPolarizationIntegration:
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_same_detector_fraction(self, j):
        est = ref.same_detector_fraction(j, samples=400_000, seed=99)
        check(2.0 / (j + 1.0), est)

    def test_rejects_empty_pulse(self):
        with pytest.raises(ParameterDomainError):
            ref.same_detector_fraction(0, samples=100, seed=1)


class TestConfigValidation:
    @pytest.mark.parametrize("samples", [0, -5, 1.5, float("nan"), 1e6, "10", None])
    def test_samples_must_be_a_positive_integer(self, samples):
        with pytest.raises(ParameterDomainError, match="samples"):
            mc.McConfig(samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.0, float("nan"), "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterDomainError, match="seed"):
            mc.McConfig(seed=seed)

    def test_numpy_integers_accepted(self):
        config = mc.McConfig(samples=np.int64(3), seed=np.uint64(2**64 - 1))
        pr = tb.ThermalBathParams(p=0.5, T=0.5, mu=0.0)
        assert mc.simulate(pr, config, mc.KEY)["p_exp"].samples == 3


def test_std_err_is_bernoulli():
    pr = tb.ThermalBathParams(p=0.5, T=0.5, mu=0.0)
    out = mc.simulate(pr, mc.McConfig(samples=100_000, seed=5), mc.KEY)
    v = out["p_exp"].value
    assert out["p_exp"].std_err == pytest.approx((v * (1 - v) / 100_000) ** 0.5, rel=1e-12)


def test_unknown_target_rejected():
    pr = tb.ThermalBathParams(p=0.5, T=0.5, mu=0.0)
    with pytest.raises(ParameterDomainError):
        mc.simulate(pr, mc.McConfig(samples=100, seed=1), "sideways")


class TestEveryDrawReference:
    """``simulate`` returns bit for bit what the samplers drawing every random number return.

    The grid covers each variant and geometry at dark counts on and off, no to
    bright noise, transmittances from 1e-6 to 1, and pair means from 1e-12 to
    ``NU_MAX``; the spdc pair mean and the depolarization move with (mu, T) so
    that each pairs with every value of both.  70,001 samples leave a partial
    last block.
    """

    CONFIG = mc.McConfig(samples=70_001, seed=3)
    GRID = [
        (d, mu, T, (1e-12, 2.0, mc.NU_MAX)[(i + j) % 3], (0.0, 0.05)[(i + j) % 2])
        for d in (0.0, 1e-3)
        for i, mu in enumerate((0.0, 1e-9, 0.2, 300.0))
        for j, T in enumerate((1e-6, 0.4, 1.0))
    ]

    @staticmethod
    def _params(variant, d, mu, T, nu, e):
        if variant == "thermal-bath":
            return tb.ThermalBathParams(p=0.7, T=T, mu=mu, e=e, d=d)
        if variant == "spdc":
            return spdc.SpdcParams(nu=nu, T=T, mu=mu, e=e, d=d)
        kind = variant.split("/")[1]
        return nb.NoiseBeforeParams(p=0.7, T=T, mu=mu, e=e, d=d, noise_kind=kind)

    @pytest.mark.parametrize("target", [mc.KEY, mc.AUTOCORR])
    @pytest.mark.parametrize(
        "variant", ["thermal-bath", "noise-before/thermal", "noise-before/poisson", "spdc"]
    )
    def test_same_estimates(self, variant, target):
        for point in self.GRID:
            params = self._params(variant, *point)
            expected = ref.simulate_every_draw(params, self.CONFIG, target)
            assert mc.simulate(params, self.CONFIG, target) == expected, point


class TestFrozenStream:
    """Every model variant and geometry reproduces its recorded seeded stream bit for bit.

    The table was written by ``simulate`` at 20,000 samples and seed 2024; a
    change to the draw order or to the counting shows up here as a changed value.
    """

    VARIANTS = {
        "thermal-bath": tb.ThermalBathParams(p=0.7, T=0.35, mu=0.15, e=0.05, d=1e-2),
        "noise-before/thermal": nb.NoiseBeforeParams(p=0.7, T=0.45, mu=0.25, e=0.05, d=1e-2),
        "noise-before/poisson": nb.NoiseBeforeParams(
            p=0.7, T=0.45, mu=0.25, e=0.05, d=1e-2, noise_kind=ps.POISSON
        ),
        "spdc": spdc.SpdcParams(nu=0.3, T=0.35, mu=0.15, e=0.05, d=1e-2),
    }
    # (variant, target) -> statistic -> (value, std_err, samples), in output order
    FROZEN = {
        ('thermal-bath', 'key'): {
            'p_exp': (0.35285, 0.0033789560333037775, 20000),
            'qber': (0.2094374380048179, 0.0048437890554987794, 7057),
        },
        ('thermal-bath', 'autocorr'): {
            'p_single': (0.3398, 0.0033491488470953333, 20000),
            'p_coincidence': (0.0298, 0.0012023302374971694, 20000),
            'p_none': (0.6304, 0.0034131791631849626, 20000),
            'omega1': (0.3135, 0.0032803791701570112, 20000),
            'omega2plus': (0.0561, 0.0016271568762722295, 20000),
        },
        ('noise-before/thermal', 'key'): {
            'p_exp': (0.3758, 0.0034247215945241447, 20000),
            'qber': (0.12746141564662053, 0.00384669987684508, 7516),
            'p_exp_signal': (0.28515, 0.003192487098642687, 20000),
            'p_exp_noise': (0.0645, 0.0017369477539638319, 20000),
            'p_exp_noise_signal': (0.01325, 0.0008085306889661022, 20000),
            'p_exp_dark': (0.0129, 0.0007979219886680652, 20000),
        },
        ('noise-before/thermal', 'autocorr'): {
            'p_single': (0.36385, 0.0034019345782951207, 20000),
            'p_coincidence': (0.0179, 0.0009375390658527249, 20000),
            'p_none': (0.61825, 0.0034352360726739, 20000),
            'omega1': (0.3458, 0.0033632005589913903, 20000),
            'omega2plus': (0.03595, 0.0013163889527795347, 20000),
        },
        ('noise-before/poisson', 'key'): {
            'p_exp': (0.3801, 0.0034323751980225004, 20000),
            'qber': (0.12970270981320706, 0.003853402793126074, 7602),
            'p_exp_signal': (0.2844, 0.003189957993453832, 20000),
            'p_exp_noise': (0.0685, 0.0017861655858290408, 20000),
            'p_exp_noise_signal': (0.0149, 0.0008566793449126691, 20000),
            'p_exp_dark': (0.0123, 0.0007793814855383723, 20000),
        },
        ('noise-before/poisson', 'autocorr'): {
            'p_single': (0.3673, 0.0034087439768923688, 20000),
            'p_coincidence': (0.0173, 0.0009219736981064047, 20000),
            'p_none': (0.6154, 0.0034400787781677326, 20000),
            'omega1': (0.3506, 0.0033740157083214655, 20000),
            'omega2plus': (0.034, 0.0012814835153056009, 20000),
        },
        ('spdc', 'key'): {
            'p_exp': (0.45935, 0.0035238301427566003, 20000),
            'qber': (0.14139545009252205, 0.0036351928202938153, 9187),
            'p_multi': (0.1394, 0.0024491594476472945, 20000),
            'y': (0.6965277021878742, 0.005544906960065512, 20000),
        },
        ('spdc', 'autocorr'): {
            'p_single': (0.4382, 0.0035084238626482975, 20000),
            'p_coincidence': (0.0496, 0.0015352498168050698, 20000),
            'p_none': (0.5122, 0.0035344812915051624, 20000),
            'omega1': (0.39505, 0.003456772320387908, 20000),
            'omega2plus': (0.09275, 0.0020511879180123895, 20000),
        },
    }

    @pytest.mark.parametrize("variant, target", list(FROZEN))
    def test_estimates_unchanged(self, variant, target):
        out = mc.simulate(self.VARIANTS[variant], mc.McConfig(samples=20_000, seed=2024), target)
        got = [(name, (est.value, est.std_err, est.samples)) for name, est in out.items()]
        assert got == list(self.FROZEN[variant, target].items())


VARIANTS = ["thermal-bath", "noise-before/thermal", "noise-before/poisson", "spdc"]


class TestEstimateOrder:
    """``simulate`` returns its estimates in the order its docstring gives, qber left
    out where no event is accepted (T = 0 with no noise and no dark counts)."""

    KEY_EXTRA = {
        "thermal-bath": [],
        "noise-before/thermal": ["p_exp_signal", "p_exp_noise", "p_exp_noise_signal", "p_exp_dark"],
        "noise-before/poisson": ["p_exp_signal", "p_exp_noise", "p_exp_noise_signal", "p_exp_dark"],
        "spdc": ["p_multi", "y"],
    }

    @pytest.mark.parametrize("accepted", [True, False])
    @pytest.mark.parametrize("target", [mc.KEY, mc.AUTOCORR])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_documented_order(self, variant, target, accepted):
        point = dict(d=1e-3, mu=0.2, T=0.4) if accepted else dict(d=0.0, mu=0.0, T=0.0)
        params = TestEveryDrawReference._params(variant, nu=2.0, e=0.05, **point)
        out = mc.simulate(params, mc.McConfig(samples=1000, seed=5), target)
        if target == mc.AUTOCORR:
            assert list(out) == ["p_single", "p_coincidence", "p_none", "omega1", "omega2plus"]
        else:
            key = ["p_exp", "qber"] if accepted else ["p_exp"]
            assert list(out) == key + self.KEY_EXTRA[variant]


class TestWorkerCount:
    """Estimates and errors do not depend on how many workers sample the blocks."""

    POINT = dict(d=1e-3, mu=0.2, T=0.4, nu=2.0, e=0.05)
    BAD_NU = spdc.SpdcParams(nu=2 * mc.NU_MAX, T=0.3, mu=0.05)

    @pytest.mark.parametrize("samples", [70_001, 5 * (1 << 16) + 1])
    @pytest.mark.parametrize("target", [mc.KEY, mc.AUTOCORR])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_same_estimates(self, monkeypatch, variant, target, samples):
        params = TestEveryDrawReference._params(variant, **self.POINT)
        config = mc.McConfig(samples=samples, seed=4)
        expected = ref.simulate_every_draw(params, config, target)
        for workers in (1, 2, 5):
            monkeypatch.setattr(mc, "_worker_count", lambda workers=workers: workers)
            assert mc.simulate(params, config, target) == expected, workers

    def test_same_error(self, monkeypatch):
        config = mc.McConfig(samples=5 * (1 << 16) + 1, seed=1)
        messages = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(mc, "_worker_count", lambda workers=workers: workers)
            with pytest.raises(ParameterDomainError) as raised:
                mc.simulate(self.BAD_NU, config, mc.AUTOCORR)
            messages.append(str(raised.value))
        assert messages == [messages[0]] * 3
        assert "nu" in messages[0]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_lowest_failing_block_wins(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)

        def run(i):
            if i == 2:
                time.sleep(0.05)  # on two workers or more, block 4 fails first
            if i in (2, 4):
                raise ValueError(f"block {i}")
            return i

        with pytest.raises(ValueError, match="block 2"):
            mc._map_blocks(run, 6)
        assert mc._map_blocks(lambda i: i, 6) == list(range(6))

    def test_every_block_runs_once_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                assert mc._map_blocks(lambda i: ran.append(i) or i, 200) == list(range(200))
                assert sorted(ran) == list(range(200))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_threads_joined(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        before = threading.active_count()
        params = TestEveryDrawReference._params("thermal-bath", **self.POINT)
        mc.simulate(params, mc.McConfig(samples=5 * (1 << 16) + 1, seed=1), mc.KEY)
        assert threading.active_count() == before
        with pytest.raises(ParameterDomainError):
            mc.simulate(self.BAD_NU, mc.McConfig(samples=5 * (1 << 16) + 1, seed=1), mc.KEY)
        assert threading.active_count() == before

    def test_quantile_table_is_built_once(self, monkeypatch):
        # a slow build keeps the cache empty while a second worker would start its block
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        build, built = mc._minus_upper_tail.__wrapped__, []

        def counted(nu):
            built.append(nu)
            time.sleep(0.05)
            return build(nu)

        monkeypatch.setattr(mc, "_minus_upper_tail", functools.lru_cache(maxsize=16)(counted))
        params = TestEveryDrawReference._params("spdc", **self.POINT)
        mc.simulate(params, mc.McConfig(samples=70_001, seed=4), mc.AUTOCORR)
        assert built == [params.nu]

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert mc._worker_count() == 1
        monkeypatch.setattr(mc, "threading", None)  # a thread or a lock would raise
        params = TestEveryDrawReference._params("spdc", **self.POINT)
        config = mc.McConfig(samples=70_001, seed=4)
        assert mc.simulate(params, config, mc.AUTOCORR) == ref.simulate_every_draw(
            params, config, mc.AUTOCORR
        )


class TestBlockWorkingSet:
    """One block's peak allocation stays below 2.25 MiB for every variant and geometry.

    Each worker in flight holds one block's arrays, so this bounds what sampling
    blocks at once adds to peak memory.  Before the blocks freed their arrays as
    soon as no count needed them, the peak ran from 2.19 to 3.55 MiB (spdc autocorr).
    """

    LIMIT = 2.25 * 2**20

    @pytest.mark.parametrize("target", [mc.KEY, mc.AUTOCORR])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_peak_allocation(self, variant, target):
        params = TestEveryDrawReference._params(variant, d=1e-3, mu=0.3, T=0.5, nu=0.3, e=0.05)
        signal, block = mc._BLOCKS[channel.model(params).name]
        block(np.random.default_rng([0, 0]), params, mc._BLOCK, target, signal)  # fills the caches
        rng = np.random.default_rng([0, 1])
        tracemalloc.start()
        try:
            block(rng, params, mc._BLOCK, target, signal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT, peak / 2**20
