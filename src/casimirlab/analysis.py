"""Fitting and statistics for the force-curve pipeline.

Steps, in the order the pipeline runs them: spring-constant calibration from
large-separation electrostatic scans, contact-separation (z0) extraction per
applied voltage, drift-coefficient fit in region 3, pointwise subtraction of
the systematic terms, scan averaging, and the comparison against theory.

Axis conventions: scans enter with a separation-from-contact axis z in nm;
extraction re-expresses it as the metal-to-metal separation z + z0 + cap.
All fits run in nm / pN, physics calls in SI.

``model_force_pn`` is the one forward model: the synthetic generator draws
its scans from it and the z0 and drift fits fit it, so the loop closes on
the same expression. The z0 fit needs no optimisation library: a 1 nm
coarse chi2 scan brackets the minimum and a golden-section search
locates it to 1e-9 nm. The coarse scan evaluates the model for a block of
z0 values per call, since ``TheoryCurve`` and the proximity force broadcast,
so numpy's per-call overhead is paid once per block, not once per z0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .corrections import TheoryCurve
from .electrostatics import (ElectrostaticConfig, sphere_plane_force_exact,
                             sphere_plane_force_pfa)
from .errors import CalibrationError, DataError, FitError
from .forcecurve import CalibrationParams, ForceCurve

MIN_CALIBRATION_POINTS = 20
MIN_WINDOW_POINTS = 10
CALIBRATION_MIN_SEPARATION_NM = 2000.0
Z0_VOLTAGE_RANGE = (0.3, 0.8)
Z0_BRACKET_NM = (0.0, 200.0)
# model values per block of the coarse z0 scan: at most 2**14 float64
# (128 KiB) per temporary array, small enough to stay in cache
COARSE_BLOCK_ELEMENTS = 2**14
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Z0FitResult:
    z0_nm: float
    z0_sigma_nm: float
    chi2: float
    n_points: int
    voltage: float

    def __post_init__(self):
        if self.z0_nm <= 0 or self.z0_sigma_nm <= 0:
            raise ValueError("z0 and its uncertainty must be positive")


@dataclass(frozen=True)
class DriftFit:
    C_pn_per_nm: float
    C_sigma_pn_per_nm: float


@dataclass(frozen=True)
class ComparisonStats:
    sigma_rms_pn: float
    n_points: int
    reduced_chi2: float
    variants: dict


def model_force_pn(z_nm, z0_nm: float, voltage: float, theory: TheoryCurve,
                   cfg: ElectrostaticConfig, cap_offset_nm: float,
                   drift_pn_per_nm: float = 0.0):
    """Force in pN a scan measures at separations from contact z_nm.

    z0_nm may be a column of values, giving one model row per value. The
    theory force at the metal-to-metal separation z + z0 + cap, plus
    the proximity electrostatic force of the plate voltage against the
    sphere's residual potential at z + z0, plus the linear drift C * z.
    """
    sep = z_nm + z0_nm
    force = (theory((sep + cap_offset_nm) * 1e-9) * 1e12
             + sphere_plane_force_pfa(sep * 1e-9, replace(cfg, V1=voltage)) * 1e12)
    if drift_pn_per_nm:
        force = force + drift_pn_per_nm * z_nm
    return force


def calibrate_spring_constant(curves, cfg: ElectrostaticConfig,
                              cal: CalibrationParams):
    """Least-squares spring constant from large-separation electrostatic scans.

    Curves must carry raw signal with the piezo axis holding absolute
    separations > 2 um. Returns (k, k_sigma) in N/m.
    """
    deflections, forces = [], []
    for curve in curves:
        if curve.has_force:
            raise CalibrationError("calibration curves must carry raw signal")
        if curve.applied_voltage == 0:
            raise CalibrationError(f"scan {curve.scan_id}: zero applied voltage")
        mask = curve.piezo_nm > CALIBRATION_MIN_SEPARATION_NM
        e_cfg = replace(cfg, V1=curve.applied_voltage)
        for z_nm, sig in zip(curve.piezo_nm[mask], curve.signal[mask]):
            deflections.append(sig * cal.deflection_sensitivity * 1e-9)  # m
            forces.append(sphere_plane_force_exact(z_nm * 1e-9, e_cfg))  # N
    if len(forces) < MIN_CALIBRATION_POINTS:
        raise DataError(
            f"need >= {MIN_CALIBRATION_POINTS} usable points, got {len(forces)}"
        )
    dz = np.array(deflections)
    f = np.array(forces)
    k = float(np.dot(f, dz) / np.dot(dz, dz))
    resid = f - k * dz
    k_sigma = float(np.sqrt(np.dot(resid, resid) / ((dz.size - 1) * np.dot(dz, dz))))
    return k, k_sigma


def _golden_section_min(f, a: float, b: float, xtol: float):
    """(x, f(x)) at the minimum of f, unimodal on [a, b], located to xtol."""
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return (float(c), fc) if fc < fd else (float(d), fd)


def _coarse_chi2(z, f, z0_values, voltage, theory, cfg, cap_offset_nm, sigma):
    """chi2 of the no-drift model at each of z0_values, a block of rows at a time.

    Each row's chi2 is the same dot product the one-z0 chi2 takes, so the
    values are bitwise those of evaluating one z0 at a time.
    """
    rows = max(1, COARSE_BLOCK_ELEMENTS // z.size)
    values = np.empty(z0_values.size)
    for start in range(0, z0_values.size, rows):
        block = z0_values[start:start + rows, None]
        r = (f - model_force_pn(z, block, voltage, theory, cfg, cap_offset_nm)) / sigma
        values[start:start + rows] = [float(np.dot(ri, ri)) for ri in r]
    return values


def fit_contact_separation(curve: ForceCurve, theory: TheoryCurve,
                           cfg: ElectrostaticConfig, cap_offset_nm: float,
                           pooled_noise_pn: float) -> Z0FitResult:
    """Chi-squared fit of the separation on contact from one voltage scan.

    The model is ``model_force_pn`` at the scan's voltage, without drift;
    z0 is found by a 1 nm coarse scan (``_coarse_chi2``) followed by a
    golden-section search of the +-1 nm bracket around its minimum, and its
    uncertainty from the delta-chi2 = 1 curvature.
    """
    if not curve.has_force:
        raise DataError("curve must be force-valued")
    v = curve.applied_voltage
    if not Z0_VOLTAGE_RANGE[0] <= v <= Z0_VOLTAGE_RANGE[1]:
        raise DataError(f"applied voltage {v} V outside {Z0_VOLTAGE_RANGE}")
    z = curve.piezo_nm
    f = curve.force_pn
    sigma = pooled_noise_pn

    def chi2(z0):
        model = model_force_pn(z, z0, v, theory, cfg, cap_offset_nm)
        r = (f - model) / sigma
        return float(np.dot(r, r))

    lo, hi = Z0_BRACKET_NM
    coarse = np.arange(max(lo, 1.0), hi + 0.5, 1.0)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        values = _coarse_chi2(z, f, coarse, v, theory, cfg, cap_offset_nm, sigma)
    if not np.isfinite(values).all():
        raise FitError(f"non-finite chi2 over the coarse scan "
                       f"(pooled_noise_pn={sigma:g} pN)")
    imin = int(np.argmin(values))
    if imin in (0, values.size - 1):
        raise FitError("chi2 minimum at the bracket edge")
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    if int(interior.sum()) > 1:
        raise FitError("non-unimodal chi2 over the coarse scan")

    z0, chi2_min = _golden_section_min(chi2, coarse[imin - 1], coarse[imin + 1],
                                       1e-9)
    h = 1e-2
    curvature = (chi2(z0 + h) - 2.0 * chi2(z0) + chi2(z0 - h)) / h**2
    if curvature <= 0:
        raise FitError("non-positive chi2 curvature at the minimum")
    return Z0FitResult(z0_nm=z0, z0_sigma_nm=float(np.sqrt(2.0 / curvature)),
                       chi2=chi2_min, n_points=int(z.size), voltage=v)


def fit_drift_coefficient(z_nm, force_pn, z0_nm: float, theory: TheoryCurve,
                          cfg: ElectrostaticConfig, cap_offset_nm: float) -> DriftFit:
    """Closed-form linear least squares for the scattered-light/drift slope C.

    The grounded model without drift (``model_force_pn`` at 0 V) is
    subtracted first; the remaining F = C * z is solved by the normal
    equation.
    """
    z = np.asarray(z_nm, dtype=float)
    f = np.asarray(force_pn, dtype=float)
    if z.size == 0:
        raise DataError("region 3 is empty")
    resid = f - model_force_pn(z, z0_nm, 0.0, theory, cfg, cap_offset_nm)
    denom = float(np.dot(z, z))
    c = float(np.dot(z, resid) / denom)
    r = resid - c * z
    dof = max(z.size - 1, 1)
    c_sigma = float(np.sqrt(np.dot(r, r) / (dof * denom)))
    return DriftFit(C_pn_per_nm=c, C_sigma_pn_per_nm=c_sigma)


def extract_casimir(curve: ForceCurve, z0_nm: float, drift: DriftFit,
                    cfg: ElectrostaticConfig, cap_offset_nm: float) -> ForceCurve:
    """Subtract the residual electrostatic and drift terms from one scan.

    Returns a curve whose axis is the metal-to-metal separation
    z + z0 + cap and whose force is the measured Casimir force.
    """
    if not curve.has_force:
        raise DataError("curve must be force-valued")
    z = curve.piezo_nm
    sep = z + z0_nm
    f_e = sphere_plane_force_pfa(sep * 1e-9, replace(cfg, V1=0.0)) * 1e12
    force = curve.force_pn - f_e - drift.C_pn_per_nm * z
    return replace(curve, piezo_nm=sep + cap_offset_nm, force_pn=force)


def average_scans(scans):
    """Arithmetic mean and per-point sample standard deviation over scans."""
    if len(scans) < 2:
        raise DataError("need at least 2 scans to average")
    grid = scans[0].piezo_nm
    for scan in scans[1:]:
        if scan.piezo_nm.size != grid.size or not np.allclose(
                scan.piezo_nm, grid, rtol=0, atol=1e-9):
            raise DataError("scan grids differ; resample before averaging")
        if not scan.has_force:
            raise DataError("scans must be force-valued")
    stack = np.vstack([scan.force_pn for scan in scans])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1)
    mean_curve = replace(scans[0], scan_id="mean", force_pn=mean)
    return mean_curve, std


def resample_force(z_nm, force_pn, grid_nm):
    """Linear interpolation of a force curve onto a new separation grid."""
    z = np.asarray(z_nm, dtype=float)
    if not np.all(np.diff(z) > 0):
        raise DataError("separation axis must be strictly increasing")
    grid = np.asarray(grid_nm, dtype=float)
    if grid[0] < z[0] - 1e-9 or grid[-1] > z[-1] + 1e-9:
        raise DataError("target grid extends beyond the curve")
    return np.interp(grid, z, np.asarray(force_pn, dtype=float))


# Variant separation shifts in nm: +-3 nm axis uncertainty, and the
# opaque-cap scenario where the 15.8 nm transparent-cap offset collapses
# to 0.9 nm (axis overstated by 14.9 nm).
VARIANT_SHIFTS_NM = {
    "shift_minus_3nm": -3.0,
    "shift_plus_3nm": 3.0,
    "opaque_cap": -14.9,
}


def compare_to_theory(mean_curve: ForceCurve, std_pn, n_scans: int,
                      theory: TheoryCurve, window_nm, n_nodes: int) -> ComparisonStats:
    """Statistics of experiment vs theory over the comparison window.

    The mean curve (metal-to-metal axis) and the theory sampled on its grid
    are both resampled onto the canonical window grid, so binning affects
    both sides identically. sigma_rms = sqrt(sum (F_th - F_exp)^2 / N).
    Reduced chi2 uses per-point standard errors std/sqrt(n_scans) on the
    curve's own in-window points: interpolating correlated residuals onto
    the canonical grid would bias chi2 low by ~2/3.
    """
    if not mean_curve.has_force:
        raise DataError("mean curve must be force-valued")
    axis = mean_curve.piezo_nm
    lo, hi = window_nm
    in_window = (axis >= lo) & (axis <= hi)
    if int(in_window.sum()) < MIN_WINDOW_POINTS:
        raise DataError(
            f"window [{lo}, {hi}] nm contains {int(in_window.sum())} points "
            f"(< {MIN_WINDOW_POINTS})"
        )
    grid = np.linspace(lo, hi, n_nodes)
    exp = resample_force(axis, mean_curve.force_pn, grid)
    # the theory is needed only on the curve points that bracket the window:
    # linear resampling onto the window grid reads no other point
    near = axis[max(int(np.searchsorted(axis, lo, side="right")) - 1, 0):
                int(np.searchsorted(axis, hi, side="left")) + 1]
    th = resample_force(near, theory(near * 1e-9) * 1e12, grid)
    resid = th - exp
    sigma_rms = float(np.sqrt(np.mean(resid**2)))

    std = np.asarray(std_pn, dtype=float)
    if std.shape != axis.shape:
        raise DataError("std array must match the mean-curve grid")
    native_resid = (theory(axis[in_window] * 1e-9) * 1e12
                    - mean_curve.force_pn[in_window])
    stderr = np.maximum(std[in_window] / np.sqrt(n_scans), 1e-30)
    reduced_chi2 = float(np.mean((native_resid / stderr) ** 2))

    variants = {}
    for label, shift in VARIANT_SHIFTS_NM.items():
        th_s = resample_force(near, theory((near + shift) * 1e-9) * 1e12, grid)
        variants[label] = float(np.sqrt(np.mean((th_s - exp) ** 2)))

    return ComparisonStats(sigma_rms_pn=sigma_rms, n_points=int(grid.size),
                           reduced_chi2=reduced_chi2, variants=variants)


# Region 3, where the drift is fitted: separation from contact > 516 nm.
DRIFT_REGION_MIN_NM = 516.0


def analyze_campaign(voltage_scans, casimir_scans, theory: TheoryCurve,
                     cfg: ElectrostaticConfig, cap_offset_nm: float,
                     window_nm, n_nodes: int, pooled_noise_pn: float,
                     spring_constant=None) -> tuple[dict, ForceCurve, np.ndarray]:
    """End-to-end pipeline on calibrated scans.

    voltage_scans: force-valued scans at applied voltages 0.3-0.8 V used for
    the z0 fits. casimir_scans: force-valued grounded scans sharing a common
    separation-from-contact grid.
    """
    if not voltage_scans:
        raise DataError("no voltage scans for the z0 fit")
    if not casimir_scans:
        raise DataError("no grounded scans to analyze")

    z0_fits = [fit_contact_separation(c, theory, cfg, cap_offset_nm, pooled_noise_pn)
               for c in voltage_scans]
    z0_values = np.array([fit.z0_nm for fit in z0_fits])
    z0 = float(z0_values.mean())
    if z0_values.size > 1:
        z0_rms = float(z0_values.std(ddof=1))
        z0_sigma = z0_rms / math.sqrt(z0_values.size)
    else:
        z0_rms = 0.0
        z0_sigma = z0_fits[0].z0_sigma_nm

    extracted = []
    drifts = []
    for scan in casimir_scans:
        region3 = scan.piezo_nm > DRIFT_REGION_MIN_NM
        drift = fit_drift_coefficient(scan.piezo_nm[region3], scan.force_pn[region3],
                                      z0, theory, cfg, cap_offset_nm)
        drifts.append(drift.C_pn_per_nm)
        extracted.append(extract_casimir(scan, z0, drift, cfg, cap_offset_nm))

    mean_curve, std = average_scans(extracted)
    stats = compare_to_theory(mean_curve, std, len(extracted), theory,
                              window_nm, n_nodes)
    results = {
        "z0_nm": z0,
        "z0_sigma_nm": z0_sigma,
        "z0_rms_over_voltages_nm": z0_rms,
        "spring_constant_n_per_m": spring_constant,
        "drift_pn_per_nm": float(np.mean(drifts)),
        "sigma_rms_pn": stats.sigma_rms_pn,
        "reduced_chi2": stats.reduced_chi2,
        "n_points": stats.n_points,
        "variants": stats.variants,
        "window_nm": [float(window_nm[0]), float(window_nm[1])],
    }
    return results, mean_curve, std
