from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab import analysis, assemble
from casimirlab.analysis import (DRIFT_REGION_MIN_NM, Z0_BRACKET_NM,
                                 average_scans, calibrate_spring_constant,
                                 compare_to_theory, extract_casimir,
                                 fit_contact_separation, fit_drift_coefficient,
                                 gauss_newton)
from casimirlab.corrections import TheoryCurve
from casimirlab.electrostatics import sphere_plane_force_pfa
from casimirlab.errors import DataError, FitError
from casimirlab.forcecurve import ForceCurve
from conftest import analyze_scans, campaign_scans, traced_peak_above_inputs
from oracles import generate_stiffness_scans


@pytest.fixture(scope="module")
def noiseless_scans(default_cfg, forward_model):
    quiet = replace(default_cfg, noise_pn=0.0, n_scans=2)
    return quiet, campaign_scans(quiet, forward_model)


def test_chi2_coarse_argmin_at_truth(noiseless_scans, drude_curve, e_cfg):
    quiet, (_, voltage_scans) = noiseless_scans
    scan = voltage_scans[0]

    def chi2(z0):
        sep = scan.piezo_nm + z0
        model = sphere_plane_force_pfa(sep * 1e-9, e_cfg, scan.applied_voltage) * 1e12 \
            + drude_curve((sep + quiet.cap_offset_nm) * 1e-9) * 1e12
        return float(np.sum((scan.force_pn - model) ** 2))

    coarse = np.arange(1.0, 200.5, 1.0)
    best = coarse[int(np.argmin([chi2(z) for z in coarse]))]
    assert abs(best - quiet.z0_true_nm) <= 1.0


def fit_starts(monkeypatch):
    """The start of each ``gauss_newton`` call ``fit_contact_separation`` makes."""
    starts = []
    gauss_newton_ = analysis.gauss_newton

    def recorded(residual_jacobian, p0, box, what):
        starts.append(float(p0[0]))
        return gauss_newton_(residual_jacobian, p0, box, what)
    monkeypatch.setattr(analysis, "gauss_newton", recorded)
    return starts


# truths at both ends of the z0 range and the default one, at the default noise;
# the start lies at most 5.3 nm below the fit. At 3.5 nm the line's z0 at 0.31
# and 0.4 V is below the bracket, and the start is its bottom
@pytest.mark.parametrize("z0_true_nm", [3.5, 48.9, 197.5])
def test_the_start_lies_in_the_bracket_near_the_fit(monkeypatch, default_cfg, forward_model,
                                                    z0_true_nm):
    cfg = replace(default_cfg, n_scans=1, z0_true_nm=z0_true_nm)
    starts = fit_starts(monkeypatch)
    fits = [fit_contact_separation(scan, forward_model).z0_nm
            for scan in campaign_scans(cfg, forward_model)[1]]
    assert len(starts) == len(fits) == 6
    assert all(Z0_BRACKET_NM[0] <= s <= Z0_BRACKET_NM[1] for s in starts)
    assert all(0 <= fit - start < 6.0 for start, fit in zip(starts, fits))
    assert (starts[:2] == [Z0_BRACKET_NM[0]] * 2) == (z0_true_nm == 3.5)


def test_a_truth_beyond_the_bracket_starts_at_its_top_and_leaves_the_box(
        monkeypatch, default_cfg, forward_model):
    # a draw at 197.5 nm on an axis moved down by 10 nm: a truth of 207.5 nm
    cfg = replace(default_cfg, n_scans=1, z0_true_nm=197.5)
    scan = campaign_scans(cfg, forward_model)[1][0]
    starts = fit_starts(monkeypatch)
    with pytest.raises(FitError, match=r"^scan cal_00: Gauss-Newton left its box \[1, 200\] nm$"):
        fit_contact_separation(replace(scan, piezo_nm=scan.piezo_nm - 10.0), forward_model)
    assert starts == [Z0_BRACKET_NM[1]]


def unit_chi2(scan, model):
    """The no-drift unit-weight chi2 of ``scan`` under ``model`` as a function of z0."""
    def chi2(z0):
        r = scan.force_pn - model.force_pn(scan.piezo_nm, z0, scan.applied_voltage)
        return float(np.dot(r, r))
    return chi2


# the default draw, and truths at both ends of the z0 range at 1 and 10 times
# the default noise
@pytest.mark.parametrize("z0_true_nm, noise_pn, grid_points", [
    (48.9, 7.0, 982),
    *((z0, noise, n) for z0 in (3.5, 197.5) for noise in (7.0, 70.0) for n in (120, 982))])
def test_fit_is_the_chi2_minimum_over_the_bracket(default_cfg, forward_model, z0_true_nm,
                                                  noise_pn, grid_points):
    # reference: the argmin of chi2 on a 0.1 nm grid over the bracket, refined
    # by scipy's bounded Brent within a grid step of it, in the offset from the
    # argmin, so that Brent's relative tolerance is well below 1e-6 nm; a
    # minimum at the bracket's edge is one the fit must refuse
    from scipy.optimize import minimize_scalar

    cfg = replace(default_cfg, n_scans=1, grid_points=grid_points, z0_true_nm=z0_true_nm,
                  noise_pn=noise_pn)
    lo, hi = Z0_BRACKET_NM
    grid = np.linspace(lo, hi, 1991)
    for scan in campaign_scans(cfg, forward_model)[1]:
        rows = [scan.force_pn - forward_model.force_pn(scan.piezo_nm, block[:, None],
                                                        scan.applied_voltage)
                for block in np.array_split(grid, 20)]
        best = grid[int(np.argmin(np.concatenate([np.einsum("ij,ij->i", r, r) for r in rows])))]
        chi2 = unit_chi2(scan, forward_model)
        ref = minimize_scalar(lambda t: chi2(best + t), method="bounded",
                              bounds=(max(lo - best, -0.1), min(hi - best, 0.1)),
                              options={"xatol": 1e-9})
        z0 = best + ref.x
        if min(z0 - lo, hi - z0) < 1e-6:
            with pytest.raises(FitError, match=f"scan {scan.scan_id}: Gauss-Newton left its box"):
                fit_contact_separation(scan, forward_model)
            continue
        fit = fit_contact_separation(scan, forward_model)
        assert abs(fit.z0_nm - z0) <= 1e-6, scan.scan_id
        assert fit.rss_pn2 == pytest.approx(ref.fun, rel=1e-10), scan.scan_id


def test_a_minimum_near_the_top_of_the_bracket_is_fitted(default_cfg, forward_model):
    # a truth at the top of the z0 range, at 2 times the default noise, whose
    # cal_00 has its chi2 minimum 1.2 nm below the bracket's top, at 198.78 nm
    cfg = replace(default_cfg, n_scans=2, grid_points=120, window_lo_nm=250.0,
                  z0_true_nm=197.5, noise_pn=14.0, seed=4)
    scan = campaign_scans(cfg, forward_model)[1][0]
    fit = fit_contact_separation(scan, forward_model)
    assert fit.z0_nm == pytest.approx(198.78, abs=0.005)
    chi2, h = unit_chi2(scan, forward_model), 1e-4
    assert chi2(fit.z0_nm) < min(chi2(fit.z0_nm - h), chi2(fit.z0_nm + h))


def test_fit_contact_separation_noiseless(noiseless_scans, forward_model):
    quiet, (_, voltage_scans) = noiseless_scans
    fit = fit_contact_separation(voltage_scans[0], forward_model)
    assert fit.z0_nm == pytest.approx(quiet.z0_true_nm, rel=1e-6)
    assert fit.jtj > 0
    assert fit.voltage == voltage_scans[0].applied_voltage


def test_a_gauss_newton_step_evaluates_the_theory_once(monkeypatch, default_cfg,
                                                      forward_model):
    # six fits at 4910 points: one theory call per Gauss-Newton step, whose
    # force and slope share it, and none besides. The step count belongs to
    # seed 7's noise draw: 26 steps.
    cfg = replace(default_cfg, n_scans=1, grid_points=4910, seed=7)
    voltage_scans = campaign_scans(cfg, forward_model)[1]
    calls = {"theory": 0, "steps": 0}
    theory, force_and_slope = TheoryCurve.__call__, TheoryCurve.force_and_slope

    def counted_theory(self, z):
        calls["theory"] += 1
        return theory(self, z)

    def counted_step(self, z):
        calls["steps"] += 1
        return force_and_slope(self, z)
    monkeypatch.setattr(TheoryCurve, "__call__", counted_theory)
    monkeypatch.setattr(TheoryCurve, "force_and_slope", counted_step)
    for scan in voltage_scans:
        fit_contact_separation(scan, forward_model)
    steps = calls["steps"]
    assert calls["theory"] == steps
    assert steps == 26


@pytest.fixture(scope="module")
def cal_fits(campaign, forward_model):
    """(scan id, z0 fit at unit noise, unit-weight chi2 as a function of z0)
    for each cal scan."""
    fits = []
    for scan in campaign[1]:
        def chi2(z0, scan=scan):
            model = forward_model.force_pn(scan.piezo_nm, z0, scan.applied_voltage)
            return float(np.sum((scan.force_pn - model) ** 2))

        fit = fit_contact_separation(scan, forward_model).record(1.0)
        fits.append((scan.scan_id, fit, chi2))
    return fits


def test_fit_z0_is_a_stationary_point_of_chi2(cal_fits):
    # the offset to the minimum that the chi2 slope implies, slope * sigma^2 / 2,
    # is far below z0_sigma (>= 4e-3 nm at 7 pN): the fit stops on the
    # minimum, not near it
    h = 1e-4
    for scan_id, fit, chi2 in cal_fits:
        slope = (chi2(fit["z0_nm"] + h) - chi2(fit["z0_nm"] - h)) / (2 * h)
        assert abs(slope * fit["z0_sigma_nm"]**2 / 2) < 1e-9, scan_id


def test_fit_z0_sigma_is_the_delta_chi2_of_one(cal_fits):
    for scan_id, fit, chi2 in cal_fits:
        z0, sigma = fit["z0_nm"], fit["z0_sigma_nm"]
        rise = (chi2(z0 + sigma) + chi2(z0 - sigma)) / 2
        assert rise - fit["chi2"] == pytest.approx(1.0, abs=1e-3), scan_id


@pytest.fixture()
def balanced_scan(forward_model):
    """A noiseless scan at z0 = 48.9 nm whose voltage equals the residual
    potential, so the Jacobian is the theory slope alone; with its model."""
    model = replace(forward_model, electro=replace(forward_model.electro, V2=0.5))
    z = np.linspace(30.0, 920.0, 120)
    force = model.force_pn(z, 48.9, 0.5)
    return ForceCurve("balanced", 0.5, z, force_pn=force), model


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_gauss_newton_refuses_a_non_finite_step(monkeypatch, balanced_scan, fill):
    # a zero slope makes J^T J = 0, a NaN slope a NaN Jacobian
    force_and_slope = TheoryCurve.force_and_slope
    monkeypatch.setattr(TheoryCurve, "force_and_slope", lambda self, z: (
        force_and_slope(self, z)[0], np.full_like(z, fill)))
    with pytest.raises(FitError, match="scan balanced: non-finite Gauss-Newton step"):
        fit_contact_separation(*balanced_scan)


def test_gauss_newton_refuses_a_step_out_of_the_bracket(monkeypatch, balanced_scan):
    # a slope 1e6 times too flat turns the 0.1 nm step into 1e5 nm
    force_and_slope = TheoryCurve.force_and_slope

    def flat(self, z):
        force, slope = force_and_slope(self, z)
        return force, slope * 1e-6
    monkeypatch.setattr(TheoryCurve, "force_and_slope", flat)
    with pytest.raises(FitError, match=r"scan balanced: Gauss-Newton left its box "
                                       r"\[1, 200\] nm"):
        fit_contact_separation(*balanced_scan)


def test_gauss_newton_refuses_to_stop_unconverged(monkeypatch, balanced_scan):
    # the scan the failure tests patch fits unpatched
    assert fit_contact_separation(*balanced_scan).z0_nm == pytest.approx(48.9, abs=1e-9)
    monkeypatch.setattr(analysis, "GAUSS_NEWTON_MAX_STEPS", 1)
    with pytest.raises(FitError, match="scan balanced: Gauss-Newton not converged in 1 "):
        fit_contact_separation(*balanced_scan)


def exponential(x, y):
    """residual_jacobian of the model a exp(-b x) against data y on x."""
    def residual_jacobian(p):
        a, b = p
        e = np.exp(-b * x)
        return y - a * e, np.column_stack([e, -a * x * e])
    return residual_jacobian


def test_gauss_newton_finds_a_two_parameter_minimum():
    # noiseless 2 exp(-0.3 x): the minimum is the truth, where J^T J has the
    # closed form below; at unit noise the Schur complement of its a row is 1 / sigma_b^2
    x = np.linspace(0.0, 10.0, 50)
    e = np.exp(-0.3 * x)
    box = ((1.0, 3.0, "pN"), (0.1, 0.5, "1/nm"))
    p, r, jtj = gauss_newton(exponential(x, 2.0 * e), [1.5, 0.2], box, "decay")
    np.testing.assert_allclose(p, [2.0, 0.3], rtol=1e-12)
    assert np.abs(r).max() < 1e-9
    ab = -2.0 * np.sum(x * e * e)
    closed = np.array([[np.sum(e * e), ab], [ab, 4.0 * np.sum(x * x * e * e)]])
    np.testing.assert_allclose(jtj, closed, rtol=1e-12)
    schur = jtj[1, 1] - jtj[1, 0] * jtj[0, 1] / jtj[0, 0]
    assert schur == pytest.approx(1.0 / np.linalg.inv(jtj)[1, 1], rel=1e-12)
    # the first step, to b = 0.295, leaves a box that ends at 0.25
    narrow = ((1.0, 3.0, "pN"), (0.15, 0.25, "1/nm"))
    with pytest.raises(FitError, match=r"^decay: Gauss-Newton left its box "
                                       r"\[1, 3\] pN x \[0.15, 0.25\] 1/nm$"):
        gauss_newton(exponential(x, 2.0 * e), [1.5, 0.2], narrow, "decay")
    # two equal columns: J^T J is singular
    with pytest.raises(FitError, match=r"^decay: non-finite Gauss-Newton step"):
        gauss_newton(lambda p: (e, np.column_stack([e, e])), [1.5, 0.2], box, "decay")


class Stepped(Exception):
    """The loop's second call, at p0 + step."""


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000),
       scales=st.tuples(st.floats(-100, 100), st.floats(-100, 100)))
def test_a_one_parameter_step_is_the_scalar_division_bit_for_bit(seed, n, scales):
    # at k = 1 the z0 fit is byte-identical to the scalar step dot(J, r) / dot(J, J)
    # only while a 1 x 1 solve of J^T J reproduces that division: from p0 = 0
    # the point after one step is the step itself
    rng = np.random.default_rng(seed)
    r, jac = (rng.standard_normal(n) * 10.0**scale for scale in scales)

    def residual_jacobian(p):
        if p[0] != 0.0:
            raise Stepped(p[0])
        return r, jac[:, None]
    expected = np.dot(jac, r) / np.dot(jac, jac)
    try:
        step = gauss_newton(residual_jacobian, [0.0], ((-np.inf, np.inf, ""),), "draw")[0][0]
    except Stepped as stepped:
        step = stepped.args[0]
    assert step == expected


def test_fit_voltage_range_guard(noiseless_scans, forward_model):
    quiet, (_, voltage_scans) = noiseless_scans
    bad = replace(voltage_scans[0], applied_voltage=0.9)
    with pytest.raises(DataError, match="voltage"):
        fit_contact_separation(bad, forward_model)


def test_a_flat_scan_leaves_the_box(forward_model):
    # zero data pulls chi2 monotonically out of the bracket
    z = np.linspace(30.0, 920.0, 120)
    flat = ForceCurve("flat", 0.31, z, force_pn=np.zeros_like(z))
    with pytest.raises(FitError, match=r"^scan flat: Gauss-Newton left its box \[1, 200\] nm$"):
        fit_contact_separation(flat, forward_model)


def test_drift_fit_matches_normal_equations(noiseless_scans, forward_model, drude_curve,
                                            e_cfg):
    quiet, (grounded, _) = noiseless_scans
    scan = grounded[0]
    mask = scan.piezo_nm > DRIFT_REGION_MIN_NM
    z = scan.piezo_nm[mask]
    f = scan.force_pn[mask]
    grounded_pn = forward_model.force_pn(z, quiet.z0_true_nm, 0.0)
    drift = fit_drift_coefficient(z, f, grounded_pn)
    assert drift == pytest.approx(quiet.c_true_pn_per_nm, rel=1e-9)
    # independent least-squares check on the same residuals
    sep = z + quiet.z0_true_nm
    resid = f - (sphere_plane_force_pfa(sep * 1e-9, e_cfg, 0.0) * 1e12
                 + drude_curve((sep + quiet.cap_offset_nm) * 1e-9) * 1e12)
    lstsq_c = float(np.linalg.lstsq(z[:, None], resid, rcond=None)[0][0])
    assert drift == pytest.approx(lstsq_c, rel=1e-12)


def test_extract_casimir_axis(noiseless_scans, forward_model, drude_curve):
    quiet, (grounded, voltage_scans) = noiseless_scans
    scan = grounded[0]
    sep = scan.piezo_nm + quiet.z0_true_nm
    grounded_pn = forward_model.force_pn(scan.piezo_nm, quiet.z0_true_nm, 0.0)
    drift = fit_drift_coefficient(scan.piezo_nm, scan.force_pn - 0.0, grounded_pn)
    out = extract_casimir(scan.force_pn, scan.piezo_nm,
                          forward_model.electrostatic_pn(sep, 0.0), drift)
    # the mean curve's axis is the metal-to-metal separation z + z0 + cap
    results, (axis, _, _) = analyze_scans(voltage_scans, grounded, forward_model, quiet)
    np.testing.assert_allclose(
        axis,
        scan.piezo_nm + results["z0_nm"] + quiet.cap_offset_nm)
    # noiseless extraction lands on the theory curve
    np.testing.assert_allclose(out,
                               drude_curve((sep + quiet.cap_offset_nm) * 1e-9) * 1e12,
                               atol=1e-6)


def test_z0_fits_state_the_noise_the_grounded_scans_measure(default_cfg, forward_model):
    # a campaign drawn at twice the default noise: each fit's chi2 per point
    # is near 1, and its sigma that of a fit weighted by the true 14 pN,
    # 14 / sqrt(J^T J)
    loud = replace(default_cfg, noise_pn=14.0)
    grounded, voltage_scans = campaign_scans(loud, forward_model)
    results, _ = analyze_scans(voltage_scans, grounded, forward_model, loud)
    assert results["measured_noise_pn"] == pytest.approx(14.0, rel=0.02)
    for scan, fit in zip(voltage_scans, results["z0_fits"], strict=True):
        assert 0.8 <= fit["chi2"] / fit["n_points"] <= 1.2, scan.scan_id
        _, jac = forward_model.force_and_dz0_pn(scan.piezo_nm, fit["z0_nm"],
                                                scan.applied_voltage)
        assert fit["z0_sigma_nm"] == pytest.approx(14.0 / np.sqrt(np.dot(jac, jac)),
                                                   rel=0.02), scan.scan_id


def test_a_noiseless_campaign_states_no_fit_sigma_or_chi2(noiseless_scans, forward_model):
    # the grounded scans measure no noise: no fit states a sigma or a chi2,
    # nor z0 a sigma of one fit; z0 itself is recovered
    quiet, (grounded, voltage_scans) = noiseless_scans
    for scans in (voltage_scans, voltage_scans[:1]):
        results, _ = analyze_scans(scans, grounded, forward_model, quiet)
        assert results["measured_noise_pn"] == 0.0
        assert results["z0_nm"] == pytest.approx(quiet.z0_true_nm, rel=1e-6)
        assert [(fit["z0_sigma_nm"], fit["chi2"]) for fit in results["z0_fits"]] == \
            [(None, None)] * len(scans)
    assert results["z0_sigma_nm"] is None


def test_analyze_campaign_keeps_the_spring_constant_sigma(campaign, campaign_results,
                                                          forward_model, default_cfg, e_cfg):
    # null without a stiffness scan, calibrate_spring_constant's sigma with them
    assert campaign_results[0]["spring_constant_sigma_n_per_m"] is None
    grounded, voltage_scans = campaign
    stiffness = generate_stiffness_scans(default_cfg, e_cfg)
    results, _ = analyze_scans([*voltage_scans, *stiffness], grounded, forward_model,
                               default_cfg)
    k, k_sigma = calibrate_spring_constant(stiffness, e_cfg,
                                           assemble.calibration_params(default_cfg))
    assert (results["spring_constant_n_per_m"],
            results["spring_constant_sigma_n_per_m"]) == (k, k_sigma)
    assert 0 < k_sigma < 0.01 * k


def test_average_scans():
    mean, std = average_scans(np.vstack([np.ones(11), 3.0 * np.ones(11)]))
    np.testing.assert_allclose(mean, 2.0)
    np.testing.assert_allclose(std, np.sqrt(2.0))
    with pytest.raises(DataError):
        average_scans(np.ones((1, 11)))


@pytest.mark.parametrize("stream", [False, True])
@pytest.mark.parametrize("n", [2, 37])
def test_average_scans_mean_is_bitwise_numpys(n, stream):
    rng = np.random.default_rng(n)
    rows = [rng.normal(-100.0, 7.0, 982) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]
    mean, std = average_scans(iter(rows) if stream else np.vstack(rows))
    np.testing.assert_array_equal(mean, np.vstack(rows).mean(0))


def exact_std(rows):
    """Per-column sample standard deviation of the float rows: the variance
    exact in rationals, its square root to 40 digits."""
    rows = np.asarray(rows)
    n = rows.shape[0]
    std = []
    for column in rows.T:
        values = [Fraction(float(v)) for v in column]
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std.append((Decimal(var.numerator) / Decimal(var.denominator)).sqrt())
    return std


def std_fixture(kind, drude_curve):
    rng = np.random.default_rng(11)
    if kind == "27x982":     # the default campaign's extracted forces
        axis = np.linspace(30.0, 920.0, 982) + 48.9 + 15.8
        return drude_curve(axis * 1e-9) * 1e12 + rng.normal(0.0, 7.0, (27, 982))
    if kind == "270x150":
        axis = np.linspace(100.0, 500.0, 150)
        return drude_curve(axis * 1e-9) * 1e12 + rng.normal(0.0, 7.0, (270, 150))
    if kind == "offset":     # a common offset 2e4 times the noise
        return 1e4 + rng.normal(0.0, 0.5, (27, 982))
    rows = rng.normal(-160.0, 7.0, (27, 982))   # the shift row 4 sigma off the mean
    rows[0] = rows[1:].mean(axis=0) + 4 * 7.0
    return rows


@pytest.mark.parametrize("kind", ["27x982", "270x150", "offset", "first_row_4_sigma_off"])
def test_average_scans_std_is_within_64_eps_of_the_exact_one(kind, drude_curve):
    # the std comes from running sums of deviations from the first row; the
    # mean stays bitwise numpy's
    rows = std_fixture(kind, drude_curve)
    mean, std = average_scans(iter(list(rows)))
    np.testing.assert_array_equal(mean, rows.mean(axis=0))
    eps = Decimal(np.finfo(float).eps)
    worst = max(abs(Decimal(float(s)) - e) / e for s, e in zip(std, exact_std(rows)))
    assert worst <= 64 * eps, float(worst / eps)


def test_analyze_campaign_memory_stays_flat_as_the_scans_double(default_cfg, forward_model):
    # the grounded scans are folded into running sums one at a time: doubling
    # the scans held in memory leaves the peak above them where it was, up to
    # the per-scan drift list
    n_scans = 40
    peaks = []
    for n in (n_scans, 2 * n_scans):
        noisy = replace(default_cfg, n_scans=n)
        grounded, voltage_scans = campaign_scans(noisy, forward_model)
        peaks.append(traced_peak_above_inputs(lambda: analyze_scans(
            voltage_scans, grounded, forward_model, noisy)))
    row_bytes = default_cfg.grid_points * 8
    assert peaks[1] - peaks[0] <= 2 * row_bytes, peaks


def test_sigma_rms_scales_with_residual(drude_curve, comparison):
    axis = np.linspace(95.0, 505.0, 300)
    theory_pn = drude_curve(axis * 1e-9) * 1e12
    rng = np.random.default_rng(3)
    resid = rng.normal(0.0, 1.0, axis.size)
    std = np.ones_like(axis)
    s1 = compare_to_theory(axis, theory_pn + resid, std, 27, drude_curve, *comparison)
    s2 = compare_to_theory(axis, theory_pn + 2 * resid, std, 27, drude_curve, *comparison)
    assert s2["sigma_rms_pn"] == pytest.approx(2.0 * s1["sigma_rms_pn"], rel=1e-9)
    assert s1["n_points"] == np.count_nonzero((axis >= 100.0) & (axis <= 500.0)) == 292


def test_the_opaque_cap_variant_follows_the_configured_cap(drude_curve, comparison):
    # the opaque cap collapses the cap offset to 0.9 nm: at a 5 nm cap the
    # theory is read 4.1 nm closer, not at the default cap's 14.9 nm, at the
    # curve's own points inside the window
    window_nm, _ = comparison
    axis = np.linspace(95.0, 505.0, 300)
    mean = drude_curve(axis * 1e-9) * 1e12 + np.random.default_rng(3).normal(0.0, 1.0, 300)
    stats = compare_to_theory(axis, mean, np.ones_like(axis), 27, drude_curve, window_nm, 5.0)
    points = (axis >= window_nm[0]) & (axis <= window_nm[1])
    shifted = drude_curve((axis[points] - 4.1) * 1e-9) * 1e12
    expected = np.sqrt(np.mean((shifted - mean[points]) ** 2))
    assert stats["variants"]["opaque_cap"] == pytest.approx(expected, rel=1e-12)


def test_axis_shift_increases_sigma_rms(campaign_results):
    results, _ = campaign_results
    base = results["sigma_rms_pn"]
    for value in results["variants"].values():
        assert value > base


def test_drift_fit_names_an_overflow(forward_model):
    z = np.linspace(520.0, 920.0, 50)
    with pytest.raises(DataError, match="drift fit overflows"):
        fit_drift_coefficient(z, 1e300 * z * (1 + 1e-3 * np.sin(z)),
                              forward_model.force_pn(z, 48.9, 0.0))


def test_compare_window_guard(drude_curve, comparison):
    axis = np.linspace(495.0, 600.0, 12)
    with pytest.raises(DataError, match="window"):
        compare_to_theory(axis, drude_curve(axis * 1e-9) * 1e12, np.ones(12), 27,
                          drude_curve, *comparison)


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
    grounded = replace(scans[0], applied_voltage=0.0)
    with pytest.raises(FitError, match="scan stiff_00: zero applied voltage"):
        calibrate_spring_constant([grounded], e_cfg, cal)
    short = generate_stiffness_scans(quiet, e_cfg,
                                     separations_nm=(2050.0, 2400.0, 12),
                                     voltages=(0.31,))
    with pytest.raises(DataError, match="points"):
        calibrate_spring_constant(short, e_cfg, cal)
