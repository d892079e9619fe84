from dataclasses import replace

import numpy as np
import pytest

from casimirlab import analysis, assemble
from casimirlab.analysis import (COARSE_BLOCK_ELEMENTS, DRIFT_REGION_MIN_NM,
                                 Z0_BRACKET_NM, _coarse_chi2, average_scans,
                                 calibrate_spring_constant, compare_to_theory,
                                 extract_casimir, fit_contact_separation,
                                 fit_drift_coefficient, model_force_pn,
                                 resample_force)
from casimirlab.corrections import TheoryCurve
from casimirlab.electrostatics import sphere_plane_force_pfa
from casimirlab.errors import CalibrationError, DataError, FitError
from casimirlab.forcecurve import ForceCurve
from casimirlab.synth import generate_scans, generate_stiffness_scans


@pytest.fixture(scope="module")
def noiseless_scans(default_cfg, drude_curve, e_cfg):
    quiet = replace(default_cfg, noise_pn=0.0, n_scans=2)
    return quiet, generate_scans(quiet, drude_curve, e_cfg)


def test_chi2_coarse_argmin_at_truth(noiseless_scans, drude_curve, e_cfg):
    quiet, (_, voltage_scans) = noiseless_scans
    scan = voltage_scans[0]
    v_cfg = replace(e_cfg, V1=scan.applied_voltage)

    def chi2(z0):
        sep = scan.piezo_nm + z0
        model = sphere_plane_force_pfa(sep * 1e-9, v_cfg) * 1e12 \
            + drude_curve((sep + quiet.cap_offset_nm) * 1e-9) * 1e12
        return float(np.sum((scan.force_pn - model) ** 2))

    coarse = np.arange(1.0, 200.5, 1.0)
    best = coarse[int(np.argmin([chi2(z) for z in coarse]))]
    assert abs(best - quiet.z0_true_nm) <= 1.0


@pytest.mark.parametrize("grid_points", [982, 4910])
def test_blocked_coarse_chi2_is_bitwise_the_one_at_a_time_chi2(
        default_cfg, drude_curve, e_cfg, grid_points):
    cfg = replace(default_cfg, n_scans=1, grid_points=grid_points)
    _, voltage_scans = generate_scans(cfg, drude_curve, e_cfg)
    scan = voltage_scans[0]
    z, f, v = scan.piezo_nm, scan.force_pn, scan.applied_voltage
    sigma = cfg.pooled_noise_pn
    coarse = np.arange(max(Z0_BRACKET_NM[0], 1.0), Z0_BRACKET_NM[1] + 0.5, 1.0)
    rows = COARSE_BLOCK_ELEMENTS // z.size
    # blocks of several rows, the last one short, none filling COARSE_BLOCK_ELEMENTS
    assert 1 < rows and coarse.size % rows and COARSE_BLOCK_ELEMENTS % z.size

    def chi2(z0):
        r = (f - model_force_pn(z, z0, v, drude_curve, e_cfg, cfg.cap_offset_nm)) / sigma
        return float(np.dot(r, r))

    one_at_a_time = np.array([chi2(z0) for z0 in coarse])
    blocked = _coarse_chi2(z, f, coarse, v, drude_curve, e_cfg, cfg.cap_offset_nm,
                           sigma)
    assert blocked.tobytes() == one_at_a_time.tobytes()


def test_fit_contact_separation_noiseless(noiseless_scans, drude_curve, e_cfg):
    quiet, (_, voltage_scans) = noiseless_scans
    fit = fit_contact_separation(voltage_scans[0], drude_curve, e_cfg,
                                 quiet.cap_offset_nm, quiet.pooled_noise_pn)
    assert fit.z0_nm == pytest.approx(quiet.z0_true_nm, rel=1e-6)
    assert fit.z0_sigma_nm > 0
    assert fit.voltage == voltage_scans[0].applied_voltage


def test_fit_matches_bounded_brent(campaign, drude_curve, e_cfg, default_cfg):
    # reference: scipy's bounded Brent on the same chi2 and +-1 nm bracket
    from scipy.optimize import minimize_scalar

    cap, sigma = default_cfg.cap_offset_nm, default_cfg.pooled_noise_pn
    for scan in campaign[1]:
        fit = fit_contact_separation(scan, drude_curve, e_cfg, cap, sigma)

        def chi2(z0):
            model = model_force_pn(scan.piezo_nm, z0, scan.applied_voltage,
                                   drude_curve, e_cfg, cap)
            return float(np.sum(((scan.force_pn - model) / sigma) ** 2))

        ref = minimize_scalar(chi2, bounds=(round(fit.z0_nm) - 1.0, round(fit.z0_nm) + 1.0),
                              method="bounded", options={"xatol": 1e-9})
        assert abs(fit.z0_nm - ref.x) <= 1e-6
        assert fit.chi2 == pytest.approx(ref.fun, rel=1e-10)


@pytest.fixture(scope="module")
def cal_fits(campaign, drude_curve, e_cfg, default_cfg):
    """(scan id, z0 fit, chi2 as a function of z0) for each cal scan."""
    cap, sigma = default_cfg.cap_offset_nm, default_cfg.pooled_noise_pn
    fits = []
    for scan in campaign[1]:
        def chi2(z0, scan=scan):
            model = model_force_pn(scan.piezo_nm, z0, scan.applied_voltage, drude_curve,
                                   e_cfg, cap)
            return float(np.sum(((scan.force_pn - model) / sigma) ** 2))

        fit = fit_contact_separation(scan, drude_curve, e_cfg, cap, sigma)
        fits.append((scan.scan_id, fit, chi2))
    return fits


def test_fit_z0_is_a_stationary_point_of_chi2(cal_fits):
    # the offset to the minimum that the chi2 slope implies, slope * sigma^2 / 2,
    # is far below z0_sigma (>= 4e-3 nm): the fit stops on the minimum, not near it
    h = 1e-4
    for scan_id, fit, chi2 in cal_fits:
        slope = (chi2(fit.z0_nm + h) - chi2(fit.z0_nm - h)) / (2 * h)
        assert abs(slope * fit.z0_sigma_nm**2 / 2) < 1e-9, scan_id


def test_fit_z0_sigma_is_the_delta_chi2_of_one(cal_fits):
    for scan_id, fit, chi2 in cal_fits:
        rise = (chi2(fit.z0_nm + fit.z0_sigma_nm) + chi2(fit.z0_nm - fit.z0_sigma_nm)) / 2
        assert rise - fit.chi2 == pytest.approx(1.0, abs=1e-3), scan_id


@pytest.fixture()
def balanced_scan(default_cfg, drude_curve, e_cfg):
    """A noiseless scan at z0 = 48.9 nm whose voltage equals the residual
    potential, so the Jacobian is the theory slope alone; with its config."""
    cfg = replace(e_cfg, V2=0.5)
    z = np.linspace(30.0, 920.0, 120)
    force = model_force_pn(z, 48.9, 0.5, drude_curve, cfg, default_cfg.cap_offset_nm)
    return ForceCurve("balanced", 0.5, z, force_pn=force), cfg


def fit_balanced(balanced_scan, drude_curve, default_cfg):
    scan, cfg = balanced_scan
    return fit_contact_separation(scan, drude_curve, cfg, default_cfg.cap_offset_nm,
                                  default_cfg.pooled_noise_pn)


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_gauss_newton_refuses_a_non_finite_step(monkeypatch, balanced_scan, drude_curve,
                                                default_cfg, fill):
    # a zero slope makes J^T J = 0, a NaN slope a NaN Jacobian
    monkeypatch.setattr(TheoryCurve, "slope", lambda self, z: np.full_like(z, fill))
    with pytest.raises(FitError, match="scan balanced: non-finite Gauss-Newton step"):
        fit_balanced(balanced_scan, drude_curve, default_cfg)


def test_gauss_newton_refuses_a_step_out_of_the_bracket(monkeypatch, balanced_scan,
                                                        drude_curve, default_cfg):
    # a slope 1e6 times too flat turns the 0.1 nm step into 1e5 nm
    slope = TheoryCurve.slope
    monkeypatch.setattr(TheoryCurve, "slope", lambda self, z: slope(self, z) * 1e-6)
    with pytest.raises(FitError, match=r"scan balanced: Gauss-Newton left the \+-1 nm"):
        fit_balanced(balanced_scan, drude_curve, default_cfg)


def test_gauss_newton_refuses_to_stop_unconverged(monkeypatch, balanced_scan, drude_curve,
                                                  default_cfg):
    # the scan the failure tests patch fits unpatched
    assert fit_balanced(balanced_scan, drude_curve, default_cfg).z0_nm == \
        pytest.approx(48.9, abs=1e-9)
    monkeypatch.setattr(analysis, "GAUSS_NEWTON_MAX_STEPS", 1)
    with pytest.raises(FitError, match="scan balanced: Gauss-Newton not converged in 1 "):
        fit_balanced(balanced_scan, drude_curve, default_cfg)


def test_fit_voltage_range_guard(noiseless_scans, drude_curve, e_cfg, default_cfg):
    quiet, (_, voltage_scans) = noiseless_scans
    bad = replace(voltage_scans[0], applied_voltage=0.9)
    with pytest.raises(DataError, match="voltage"):
        fit_contact_separation(bad, drude_curve, e_cfg, quiet.cap_offset_nm,
                               default_cfg.pooled_noise_pn)


def test_fit_bracket_edge_raises(drude_curve, e_cfg, default_cfg):
    # zero data pulls chi2 monotonically toward the far bracket edge
    z = np.linspace(30.0, 920.0, 120)
    flat = ForceCurve("flat", 0.31, z, force_pn=np.zeros_like(z))
    with pytest.raises(FitError, match="scan flat: chi2 minimum at the bracket edge"):
        fit_contact_separation(flat, drude_curve, e_cfg, default_cfg.cap_offset_nm,
                               default_cfg.pooled_noise_pn)


def test_drift_fit_matches_normal_equations(noiseless_scans, drude_curve, e_cfg):
    quiet, (grounded, _) = noiseless_scans
    scan = grounded[0]
    mask = scan.piezo_nm > DRIFT_REGION_MIN_NM
    z = scan.piezo_nm[mask]
    f = scan.force_pn[mask]
    drift = fit_drift_coefficient(z, f, quiet.z0_true_nm, drude_curve, e_cfg,
                                  quiet.cap_offset_nm)
    assert drift.C_pn_per_nm == pytest.approx(quiet.c_true_pn_per_nm, rel=1e-9)
    # independent least-squares check on the same residuals
    sep = z + quiet.z0_true_nm
    resid = f - (sphere_plane_force_pfa(sep * 1e-9, e_cfg) * 1e12
                 + drude_curve((sep + quiet.cap_offset_nm) * 1e-9) * 1e12)
    lstsq_c = float(np.linalg.lstsq(z[:, None], resid, rcond=None)[0][0])
    assert drift.C_pn_per_nm == pytest.approx(lstsq_c, rel=1e-12)
    with pytest.raises(DataError):
        fit_drift_coefficient(np.array([]), np.array([]), 48.9, drude_curve,
                              e_cfg, quiet.cap_offset_nm)


def test_extract_casimir_axis(noiseless_scans, drude_curve, e_cfg):
    quiet, (grounded, _) = noiseless_scans
    scan = grounded[0]
    drift = fit_drift_coefficient(scan.piezo_nm, scan.force_pn - 0.0,
                                  quiet.z0_true_nm, drude_curve, e_cfg,
                                  quiet.cap_offset_nm)
    out = extract_casimir(scan, quiet.z0_true_nm, drift, e_cfg,
                          quiet.cap_offset_nm)
    np.testing.assert_allclose(
        out.piezo_nm,
        scan.piezo_nm + quiet.z0_true_nm + quiet.cap_offset_nm)
    # noiseless extraction lands on the theory curve
    np.testing.assert_allclose(out.force_pn,
                               drude_curve(out.piezo_nm * 1e-9) * 1e12,
                               atol=1e-6)


def test_average_scans():
    z = np.linspace(0, 10, 11)
    a = ForceCurve("a", 0.0, z, force_pn=np.ones(11))
    b = ForceCurve("b", 0.0, z, force_pn=3.0 * np.ones(11))
    mean, std = average_scans([a, b])
    np.testing.assert_allclose(mean.force_pn, 2.0)
    np.testing.assert_allclose(std, np.sqrt(2.0))
    with pytest.raises(DataError):
        average_scans([a])
    c = ForceCurve("c", 0.0, z + 0.5, force_pn=np.ones(11))
    with pytest.raises(DataError):
        average_scans([a, c])


def test_resample_force_guards():
    z = np.linspace(0, 10, 11)
    with pytest.raises(DataError):
        resample_force(z, z, np.array([-1.0, 5.0]))
    with pytest.raises(DataError):
        resample_force(z[::-1], z, z)
    out = resample_force(z, 2 * z, np.array([0.25, 9.75]))
    np.testing.assert_allclose(out, [0.5, 19.5])


def test_sigma_rms_scales_with_residual(drude_curve, window):
    axis = np.linspace(95.0, 505.0, 300)
    theory_pn = drude_curve(axis * 1e-9) * 1e12
    rng = np.random.default_rng(3)
    resid = rng.normal(0.0, 1.0, axis.size)
    std = np.ones_like(axis)
    s1 = compare_to_theory(ForceCurve("m", 0.0, axis, force_pn=theory_pn + resid),
                           std, 27, drude_curve, *window)
    s2 = compare_to_theory(ForceCurve("m", 0.0, axis, force_pn=theory_pn + 2 * resid),
                           std, 27, drude_curve, *window)
    assert s2.sigma_rms_pn == pytest.approx(2.0 * s1.sigma_rms_pn, rel=1e-9)
    assert s1.n_points == 441


def test_axis_shift_increases_sigma_rms(campaign_results):
    results, _, _ = campaign_results
    base = results["sigma_rms_pn"]
    for value in results["variants"].values():
        assert value > base


def test_compare_names_an_overflowing_statistic(drude_curve, window):
    axis = np.linspace(95.0, 505.0, 300)
    huge = ForceCurve("m", 0.0, axis, force_pn=np.full_like(axis, 1e300))
    with pytest.raises(DataError, match="'sigma_rms_pn' overflows: inf"):
        compare_to_theory(huge, np.ones_like(axis), 27, drude_curve, *window)


def test_drift_fit_names_an_overflow(drude_curve, e_cfg, default_cfg):
    z = np.linspace(520.0, 920.0, 50)
    with pytest.raises(DataError, match="drift fit overflows"):
        fit_drift_coefficient(z, 1e300 * z * (1 + 1e-3 * np.sin(z)), 48.9, drude_curve,
                              e_cfg, default_cfg.cap_offset_nm)


def test_compare_window_guard(drude_curve, window):
    axis = np.linspace(495.0, 600.0, 12)
    curve = ForceCurve("m", 0.0, axis, force_pn=drude_curve(axis * 1e-9) * 1e12)
    with pytest.raises(DataError, match="window"):
        compare_to_theory(curve, np.ones(12), 27, drude_curve, *window)


def test_calibrate_spring_constant(default_cfg, e_cfg):
    k_true = default_cfg.spring_constant_n_per_m
    quiet = replace(default_cfg, noise_pn=0.0)
    cal = assemble.calibration_params(default_cfg)
    scans = generate_stiffness_scans(quiet, e_cfg)
    k, k_sigma = calibrate_spring_constant(scans, e_cfg, cal)
    assert k == pytest.approx(k_true, rel=1e-12)
    assert k_sigma >= 0
    # noisy scans still land within a few percent
    noisy = generate_stiffness_scans(default_cfg, e_cfg)
    k_n, _ = calibrate_spring_constant(noisy, e_cfg, cal)
    assert k_n == pytest.approx(k_true, rel=0.05)


def test_calibrate_spring_constant_guards(default_cfg, e_cfg):
    cal = assemble.calibration_params(default_cfg)
    quiet = replace(default_cfg, noise_pn=0.0)
    scans = generate_stiffness_scans(quiet, e_cfg)
    forced = ForceCurve("f", 0.31, scans[0].piezo_nm,
                        force_pn=np.ones_like(scans[0].piezo_nm))
    with pytest.raises(CalibrationError, match="raw signal"):
        calibrate_spring_constant([forced], e_cfg, cal)
    grounded = replace(scans[0], applied_voltage=0.0)
    with pytest.raises(CalibrationError, match="zero"):
        calibrate_spring_constant([grounded], e_cfg, cal)
    short = generate_stiffness_scans(quiet, e_cfg,
                                     separations_nm=(2050.0, 2400.0, 12),
                                     voltages=(0.31,))
    with pytest.raises(DataError, match="points"):
        calibrate_spring_constant(short, e_cfg, cal)
