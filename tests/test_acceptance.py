"""Acceptance battery: one test per shipped criterion, each printing a
PASS line (visible with ``pytest -s``) once its assertions hold.

Tolerances are fixed here and are not tuned at runtime.  The asymptotic
comparisons run at small transmittance where the closed forms are valid;
the Monte Carlo concordance uses frozen seeds, so reruns are bit-identical.
"""

import time

import numpy as np
import pytest

import _reference as ref
from dvqkd import boundary, montecarlo as mc, noise_before, security, spdc, thermal_bath, witness
from dvqkd import photon_stats as ps


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS - {text}")


def test_criterion_01_qber_threshold_value_and_speed():
    value = security.qber_threshold()
    assert 0.1095 <= value <= 0.1105
    start = time.perf_counter()
    fresh = security.qber_threshold.__wrapped__()
    elapsed = time.perf_counter() - start
    assert fresh == value
    assert elapsed < 1e-3
    _report(1, f"QBER threshold {value:.6f} computed in {elapsed * 1e6:.0f} us")


def test_criterion_02_thermal_bath_nongaussian_asymptote():
    start = time.perf_counter()
    ratios = []
    for p in (0.01, 0.5, 1.0):
        for T in (1e-3, 1e-2):
            params = thermal_bath.ThermalBathParams(p=p, T=T, mu=0.0)
            got = boundary.mu_max_numeric(params, boundary.NONGAUSSIAN)
            ratio = got / boundary.mu_max_ng_thermal_bath(p, T)
            ratios.append(ratio)
            assert 0.85 <= ratio <= 1.15, (p, T, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"NG boundary ratios in [{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.1f}s")


def test_criterion_03_thermal_bath_nonclassical_asymptote():
    ratios = []
    for p in (0.01, 0.5, 1.0):
        for T in (1e-3, 1e-2):
            params = thermal_bath.ThermalBathParams(p=p, T=T, mu=0.0)
            got = boundary.mu_max_numeric(params, boundary.NONCLASSICAL)
            ratio = got / boundary.mu_max_nc_thermal_bath(p, T)
            ratios.append(ratio)
            assert 0.85 <= ratio <= 1.15, (p, T, ratio)
    _report(3, f"NC boundary ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_04_noise_before_asymptotes():
    T = 1e-3
    nc_ratios, ng_ratios = [], []
    for p in (0.01, 0.5, 1.0):
        params = noise_before.NoiseBeforeParams(p=p, T=T, mu=0.0)
        nc = boundary.mu_max_numeric(params, boundary.NONCLASSICAL)
        ng = boundary.mu_max_numeric(params, boundary.NONGAUSSIAN)
        nc_ratio = nc / boundary.mu_max_nc_noise_before(p)
        ng_ratio = ng / boundary.mu_max_ng_noise_before(p, T)
        nc_ratios.append(nc_ratio)
        ng_ratios.append(ng_ratio)
        assert 0.8 <= nc_ratio <= 1.2, (p, nc_ratio)
        assert 0.85 <= ng_ratio <= 1.15, (p, ng_ratio)
    _report(
        4,
        f"noise-before NC ratios {min(nc_ratios):.3f}..{max(nc_ratios):.3f}, "
        f"NG ratios {min(ng_ratios):.3f}..{max(ng_ratios):.3f}",
    )


def test_criterion_05_security_asymptotes():
    T = 1e-3
    worst = 1.0
    for e in (0.0, 0.05):
        for p in (0.5, 1.0):
            got = boundary.mu_max_numeric(
                thermal_bath.ThermalBathParams(p=p, T=T, mu=0.0, e=e), boundary.SECURITY
            )
            ratio = got / boundary.mu_max_security_thermal_bath(p, e, T)
            assert 0.85 <= ratio <= 1.15, ("thermal-bath", p, e, ratio)
            worst = max(worst, abs(ratio - 1.0) + 1.0)

            got = boundary.mu_max_numeric(
                noise_before.NoiseBeforeParams(p=p, T=T, mu=0.0, e=e), boundary.SECURITY
            )
            ratio = got / boundary.mu_max_security_noise_before(p, e)
            assert 0.85 <= ratio <= 1.15, ("noise-before", p, e, ratio)
            worst = max(worst, abs(ratio - 1.0) + 1.0)

        got = boundary.mu_max_numeric(
            spdc.SpdcParams(nu=1e-6 * T, T=T, mu=0.0, e=e), boundary.SECURITY
        )
        ratio = got / boundary.mu_max_security_spdc(e, T)
        assert 0.85 <= ratio <= 1.15, ("spdc", e, ratio)
        worst = max(worst, abs(ratio - 1.0) + 1.0)
    _report(5, f"security asymptote ratios within {worst - 1.0:.3f} of unity")


def test_criterion_06_minimal_secure_transmittance():
    checked = 0
    for d in (1e-5, 1e-3):
        for p in (0.5, 1.0):
            for e in (0.0, 0.05):
                expected = boundary.t_min_ideal_source(p, e, d)
                for params in (
                    thermal_bath.ThermalBathParams(p=p, T=0.5, mu=0.0, e=e, d=d),
                    noise_before.NoiseBeforeParams(p=p, T=0.5, mu=0.0, e=e, d=d),
                ):
                    got = boundary.t_min_numeric(params)
                    assert got == pytest.approx(expected, rel=0.10), (params, got, expected)
                    checked += 1
    for e in (0.0, 0.05):
        got = boundary.t_min_numeric(spdc.SpdcParams(nu=1e-8, T=0.5, mu=0.0, e=e, d=1e-3))
        assert got == pytest.approx(boundary.t_min_spdc_rare_pairs(e, 1e-3), rel=0.10)
        checked += 1
    got = boundary.t_min_numeric(spdc.SpdcParams(nu=1e-2, T=0.5, mu=0.0, e=0.0, d=1e-9))
    assert got == pytest.approx(boundary.t_min_spdc_bright_pairs(0.0, 1e-2), rel=0.10)
    assert got == pytest.approx(0.5e-2, rel=0.10)
    checked += 1
    _report(6, f"{checked} minimal-transmittance comparisons within 10%")


def test_criterion_07_nongaussianity_sufficient_nonclassicality_necessary():
    fractions = (0.25, 0.5, 0.75, 0.95)
    t_grid = np.geomspace(1e-3, 1e-1, 15)
    model_points = [
        lambda T: thermal_bath.ThermalBathParams(p=1.0, T=T, mu=0.0),
        lambda T: noise_before.NoiseBeforeParams(p=1.0, T=T, mu=0.0),
        lambda T: spdc.SpdcParams(nu=1e-4, T=T, mu=0.0),
    ]
    checks = 0
    for make in model_points:
        for T in t_grid:
            base = make(float(T))
            mu_ng = boundary.mu_max_numeric(base, boundary.NONGAUSSIAN)
            mu_sec = boundary.mu_max_numeric(base, boundary.SECURITY)
            mu_nc = boundary.mu_max_numeric(base, boundary.NONCLASSICAL)
            assert mu_ng is not None and mu_sec is not None and mu_nc is not None
            for frac in fractions:
                # every state passing the non-Gaussianity witness is secure
                pred_sec = boundary.criterion_predicate(base, boundary.SECURITY)
                assert pred_sec(frac * mu_ng), (boundary.model_name(base), T, frac)
                # every secure state passes the nonclassicality witness
                pred_nc = boundary.criterion_predicate(base, boundary.NONCLASSICAL)
                assert pred_nc(frac * mu_sec), (boundary.model_name(base), T, frac)
                checks += 2
            assert mu_ng <= mu_sec <= mu_nc
    _report(7, f"{checks} sufficiency/necessity samples, zero violations")


def _draw_params(rng, model: str):
    p = rng.uniform(0.1, 1.0)
    T = rng.uniform(0.05, 1.0)
    mu = rng.uniform(0.0, 0.3)
    e = rng.uniform(0.0, 0.1)
    d = rng.uniform(0.0, 1e-2)
    nu = rng.uniform(1e-3, 0.2)
    kind = ps.THERMAL if rng.random() < 0.5 else ps.POISSON
    if model == "thermal-bath":
        return thermal_bath.ThermalBathParams(p=p, T=T, mu=mu, e=e, d=d)
    if model == "noise-before":
        return noise_before.NoiseBeforeParams(p=p, T=T, mu=mu, e=e, d=d, noise_kind=kind)
    return spdc.SpdcParams(nu=nu, T=T, mu=mu, e=e, d=d)


def _analytic_statistics(params) -> dict:
    clicks = boundary.model_clicks(params)
    w1, w2 = ref.model_omega(params)
    out = {
        "p_single": clicks.p_single,
        "p_coincidence": clicks.p_coincidence,
        "p_none": clicks.p_none,
        "omega1": w1,
        "omega2plus": w2,
    }
    if isinstance(params, spdc.SpdcParams):
        st = spdc.key_stats(params)
        herald = spdc.herald_prob(params.nu)
        out.update(
            p_exp=st.p_exp / herald,
            qber=st.qber,
            p_multi=st.p_multi / herald,
            y=st.single_photon_fraction,
        )
    elif isinstance(params, noise_before.NoiseBeforeParams):
        ev = noise_before.event_probs(params)
        rate = noise_before.key_rate(params)
        out.update(
            p_exp=rate.p_exp,
            qber=rate.qber,
            p_exp_signal=ev.signal,
            p_exp_noise=ev.noise,
            p_exp_noise_signal=ev.noise_signal,
            p_exp_dark=ev.dark,
        )
    else:
        rate = thermal_bath.key_rate(params)
        out.update(p_exp=rate.p_exp, qber=rate.qber)
    return out


def test_criterion_08_monte_carlo_concordance():
    start = time.perf_counter()
    rng = np.random.default_rng(880731)
    config = mc.McConfig(samples=1_000_000, seed=424242)
    compared = 0
    for model in ("thermal-bath", "noise-before", "spdc"):
        for _ in range(10):
            params = _draw_params(rng, model)
            analytic = _analytic_statistics(params)
            for target in (mc.KEY, mc.AUTOCORR):
                estimates = mc.simulate(params, config, target)
                for name, est in estimates.items():
                    if name not in analytic:
                        continue
                    gap = abs(analytic[name] - est.value)
                    assert gap <= 4.0 * est.std_err + 1e-12, (model, params, name, gap, est)
                    compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(8, f"{compared} statistics within 4 sigma in {elapsed:.0f}s")


def test_criterion_09_noise_statistics_divergence():
    # low transmittance: the two noise statistics give the same NG boundary
    thermal_ng = boundary.mu_max_numeric(
        noise_before.NoiseBeforeParams(p=1.0, T=0.05, mu=0.0), boundary.NONGAUSSIAN
    )
    poisson_ng = boundary.mu_max_numeric(
        noise_before.NoiseBeforeParams(p=1.0, T=0.05, mu=0.0, noise_kind=ps.POISSON),
        boundary.NONGAUSSIAN,
    )
    low_t_gap = abs(thermal_ng - poisson_ng) / thermal_ng
    assert low_t_gap < 0.05

    # high transmittance: the security-relevant statistics separate clearly.
    # At T = 0.9 the error rate itself differs by far more than 5% ...
    q_thermal = noise_before.key_rate(noise_before.NoiseBeforeParams(p=1.0, T=0.9, mu=1.0)).qber
    q_poisson = noise_before.key_rate(
        noise_before.NoiseBeforeParams(p=1.0, T=0.9, mu=1.0, noise_kind=ps.POISSON)
    ).qber
    qber_gap = abs(q_thermal - q_poisson) / q_thermal
    assert qber_gap > 0.05

    # ... and with depolarization the Poisson security boundary is finite
    # while the thermal one never closes below the search ceiling
    sec_thermal = boundary.mu_max_numeric(
        noise_before.NoiseBeforeParams(p=1.0, T=0.9, mu=0.0, e=0.05), boundary.SECURITY
    )
    sec_poisson = boundary.mu_max_numeric(
        noise_before.NoiseBeforeParams(p=1.0, T=0.9, mu=0.0, e=0.05, noise_kind=ps.POISSON),
        boundary.SECURITY,
    )
    assert sec_thermal == boundary.MU_CEILING
    assert sec_poisson < boundary.MU_CEILING
    security_gap = abs(sec_thermal - sec_poisson) / sec_thermal
    assert security_gap > 0.05
    _report(
        9,
        f"NG gap {low_t_gap * 100:.2f}% at T=0.05; at T=0.9 QBER gap "
        f"{qber_gap * 100:.0f}% and security gap {security_gap * 100:.0f}%",
    )


def test_criterion_10_untrusted_detectors_shrink_but_stay_secure():
    d = 1e-3
    t_grid = np.geomspace(1e-3, 1e-1, 20)
    mu_grid = np.geomspace(1e-8, 1e-1, 20)
    flagged_ideal = set()
    flagged_noisy = set()
    for i, T in enumerate(t_grid):
        for j, mu in enumerate(mu_grid):
            params = thermal_bath.ThermalBathParams(p=1.0, T=float(T), mu=float(mu), e=0.0, d=d)
            clicks = thermal_bath.click_stats(params)
            if witness.is_nongaussian(clicks):
                flagged_ideal.add((i, j))
            if witness.is_nongaussian(ref.apply_detector_darkcounts(clicks, d)):
                flagged_noisy.add((i, j))
    assert flagged_noisy, "untrusted-detector witness region is empty"
    assert flagged_noisy < flagged_ideal  # strict subset
    for i, j in flagged_noisy:
        params = thermal_bath.ThermalBathParams(
            p=1.0, T=float(t_grid[i]), mu=float(mu_grid[j]), e=0.0, d=d
        )
        assert boundary.delta_i(params) > 0.0, (t_grid[i], mu_grid[j])
    _report(
        10,
        f"raw-readout NG region shrinks {len(flagged_ideal)} -> {len(flagged_noisy)} "
        "grid points, all of them secure",
    )


def test_criterion_11_witness_geometry():
    for p_s in np.geomspace(1e-4, 0.5, 100):
        assert witness.ng_boundary(float(p_s)) < witness.nc_boundary(float(p_s))
    assert witness.nc_boundary(0.5) == 0.25
    grid = np.geomspace(1e-4, 1e-2, 30)
    values = [witness.ng_boundary(float(x)) for x in grid]
    slope = float(np.polyfit(np.log(grid), np.log(values), 1)[0])
    assert abs(slope - 3.0) <= 0.2
    _report(11, f"NG below NC at 100 points; log-log slope {slope:.3f}")
