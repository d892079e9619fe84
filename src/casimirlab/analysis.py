"""Fitting and statistics for the force-curve pipeline.

Steps, in the order the pipeline runs them: contact-separation (z0)
extraction per applied voltage; then, as each grounded scan streams in, the
drift-coefficient fit in region 3, pointwise subtraction of the systematic
terms and folding into the scan average; spring-constant calibration from
large-separation electrostatic scans; and the comparison against theory.

Axis conventions: scans enter with a separation-from-contact axis z in nm;
extraction re-expresses it as the metal-to-metal separation z + z0 + cap.
All fits run in nm / pN, physics calls in SI.

``ForwardModel`` is the one forward model, and the only code that composes
the theory, the electrostatics, the cap offset, the units and the drift:
the synthetic generator draws its scans from it, the z0 and drift fits fit
it and extraction subtracts its electrostatic term, so the loop closes on
the same expression. The z0 fit needs no optimisation library: a coarse
chi2 scan of about 1 nm steps on the scan's joint grid brackets the minimum
and Gauss-Newton on the model's closed-form dF/dz0 refines it (Numerical
Recipes 3rd ed. 15.5). Without drift the model depends on z + z0 alone, so
on a uniform axis the coarse scan evaluates it once, on a grid that holds
every z + z0 it needs, and reads each z0's row as a strided window of that
one array.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corrections import TheoryCurve
from .electrostatics import (ElectrostaticConfig, sphere_plane_force_exact,
                             sphere_plane_force_pfa)
from .errors import DataError, FitError
from .forcecurve import CalibrationParams, ForceCurve

MIN_CALIBRATION_POINTS = 20
MIN_WINDOW_POINTS = 10
CALIBRATION_MIN_SEPARATION_NM = 2000.0
Z0_VOLTAGE_RANGE = (0.3, 0.8)
# a z0 fit's bracket, in nm: the coarse scan's first z0, and the bound that
# its last z0 lies below by up to one coarse step (4/3 nm at most)
Z0_BRACKET_NM = (1.0, 200.0)
# the range table keeps z0_true_nm this far inside the bracket, in nm. The fit
# refuses a chi2 minimum on the coarse scan's first or last z0, so the truth
# must lie half a step (2/3 nm) above the first and a step and a half (2 nm)
# below 200 nm; the other 0.5 nm leaves the noise room to move the minimum
Z0_BRACKET_MARGIN_NM = 2.5
# model values per block of the coarse z0 scan: at most 2**14 float64
# (128 KiB) per temporary array, small enough to stay in cache
COARSE_BLOCK_ELEMENTS = 2**14
GAUSS_NEWTON_MAX_STEPS = 20


@dataclass(frozen=True)
class Z0FitResult:
    """A z0 fit at unit weight: its residual sum of squares rss_pn2 (pN^2)
    and J^T J (pN^2/nm^2) at z0, from which ``record`` states sigma and chi2
    for a given noise."""

    z0_nm: float
    rss_pn2: float
    jtj: float
    n_points: int
    voltage: float

    def __post_init__(self):
        if not (self.z0_nm > 0 and 0 < self.jtj < math.inf):
            raise ValueError("z0 and J^T J must be positive, J^T J finite")

    def record(self, noise_pn: float) -> dict:
        """The fit as ``fit-z0`` writes it and ``results.json`` lists it, for
        residuals of standard deviation noise_pn: z0_sigma_nm = noise /
        sqrt(J^T J) (delta-chi2 = 1) and chi2 = rss / noise^2, both None at a
        noise of 0."""
        sigma = chi2 = None
        if noise_pn > 0:
            sigma = noise_pn / math.sqrt(self.jtj)
            chi2 = self.rss_pn2 / noise_pn / noise_pn  # noise_pn**2 may underflow to 0
        return {"voltage_v": self.voltage, "z0_nm": self.z0_nm,
                "z0_sigma_nm": sigma, "chi2": chi2, "n_points": self.n_points}


@dataclass(frozen=True)
class DriftFit:
    C_pn_per_nm: float
    C_sigma_pn_per_nm: float


@dataclass(frozen=True)
class ForwardModel:
    """The force in pN a scan measures at separations from contact z in nm:
    the theory at the metal-to-metal separation z + z0 + cap, plus the
    proximity electrostatic force of the plate voltage against the sphere's
    residual potential at z + z0, plus the linear drift C * z.
    ``assemble.forward_model`` builds it from a ``RunConfig``.
    """

    theory: TheoryCurve
    electro: ElectrostaticConfig
    cap_offset_nm: float

    def electrostatic_pn(self, sep_nm, voltage: float):
        """The electrostatic term in pN at separations sep_nm = z + z0."""
        return sphere_plane_force_pfa(sep_nm * 1e-9, self.electro, voltage) * 1e12

    def force_pn(self, z_nm, z0_nm, voltage: float, drift_pn_per_nm: float = 0.0):
        """The force at z_nm; z0_nm may be a column, giving one row per value."""
        sep = z_nm + z0_nm
        force = (self.theory((sep + self.cap_offset_nm) * 1e-9) * 1e12
                 + self.electrostatic_pn(sep, voltage))
        if drift_pn_per_nm:
            force = force + drift_pn_per_nm * z_nm
        return force

    def force_and_dz0_pn(self, z_nm, z0_nm: float, voltage: float):
        """(force without drift, dF/dz0) in pN and pN/nm, from one theory and
        one electrostatic evaluation: dF/dz0 = theory slope - F_el / (z + z0)."""
        sep = z_nm + z0_nm
        f_th, slope = self.theory.force_and_slope((sep + self.cap_offset_nm) * 1e-9)
        f_el = self.electrostatic_pn(sep, voltage)
        return f_th * 1e12 + f_el, slope * 1e3 - f_el / sep


def calibrate_spring_constant(curves, cfg: ElectrostaticConfig,
                              cal: CalibrationParams):
    """Least-squares spring constant from large-separation electrostatic scans.

    Curves must carry raw signal with the piezo axis holding absolute
    separations > 2 um. Returns (k, k_sigma) in N/m.
    """
    signals, forces = [], []
    for curve in curves:
        if curve.applied_voltage == 0:
            raise FitError(f"scan {curve.scan_id}: zero applied voltage")
        mask = curve.piezo_nm > CALIBRATION_MIN_SEPARATION_NM
        signals.append(curve.signal[mask])
        forces += [sphere_plane_force_exact(z_nm * 1e-9, cfg, curve.applied_voltage)
                   for z_nm in curve.piezo_nm[mask]]  # N
    if len(forces) < MIN_CALIBRATION_POINTS:
        raise DataError(
            f"need >= {MIN_CALIBRATION_POINTS} usable points, got {len(forces)}"
        )
    f = np.array(forces)
    usable = f"{f.size} points beyond {CALIBRATION_MIN_SEPARATION_NM:g} nm"
    with np.errstate(over="ignore", invalid="ignore"):
        dz = np.concatenate(signals) * cal.deflection_sensitivity * 1e-9  # m
        dz2 = np.dot(dz, dz)
        fdz = np.dot(f, dz)
    if not (math.isfinite(dz2) and math.isfinite(fdz)):
        raise DataError(f"the deflection is too large at the usable points ({usable}, "
                        f"largest |deflection| {np.abs(dz).max():.3g} m): "
                        f"its least squares overflow")
    if dz2 == 0:
        raise DataError(f"the deflection is zero at every usable point ({usable}): "
                        f"no spring constant to fit")
    k = float(fdz / dz2)
    resid = f - k * dz
    k_sigma = float(np.sqrt(np.dot(resid, resid) / ((dz.size - 1) * dz2)))
    return k, k_sigma


def _coarse_chi2(z, f, voltage, model: ForwardModel):
    """Coarse z0 values about 1 nm apart, and the no-drift chi2 at each, at
    unit weight.

    With h the axis step, the joint step g = h / ceil(h) divides h, and the
    coarse step m * g is the multiple of g nearest 1 nm, so every separation
    z_i + z0_k lies on one joint grid z[0] + j g. On a uniform axis the model
    is evaluated once on that grid and row k is a strided window of it; any
    other axis, or a joint grid longer than the rows it replaces, evaluates a
    block of z0 rows per call. An axis is uniform when it lies within
    1e-8 max|z| of z[0] + i h, as a uniform axis read back from the 9
    significant digits of the CSV dialect does.
    Each row's chi2 is one dot product.
    """
    n = z.size
    # finite for any finite axis, where z[-1] - z[0] can overflow
    h = z[-1] / (n - 1) - z[0] / (n - 1)
    q = max(1, math.ceil(h))
    g = h / q
    m = max(1, round(1 / g))
    lo, hi = Z0_BRACKET_NM
    coarse = lo + m * g * np.arange(int((hi - lo) / (m * g)) + 1)
    coarse = coarse[coarse <= hi]
    width = (n - 1) * q + 1
    joint_size = width + (coarse.size - 1) * m
    uniform = np.abs(z - (z[0] + h * np.arange(n))).max() <= 1e-8 * np.abs(z).max()
    if uniform and joint_size <= coarse.size * n:
        joint = model.force_pn(z[0] + g * np.arange(joint_size), lo, voltage)
        windows = sliding_window_view(joint, width)[::m, ::q]

        def model_rows(block):
            return windows[block]
    else:
        def model_rows(block):
            return model.force_pn(z, coarse[block, None], voltage)
    rows = max(1, COARSE_BLOCK_ELEMENTS // n)
    values = np.empty(coarse.size)
    for start in range(0, coarse.size, rows):
        block = slice(start, start + rows)
        r = f - model_rows(block)
        values[block] = [float(np.dot(ri, ri)) for ri in r]
    return coarse, values


def fit_contact_separation(curve: ForceCurve, model: ForwardModel) -> Z0FitResult:
    """Least-squares fit of the separation on contact from one voltage scan.

    The model is ``model`` at the scan's voltage, without drift. The fit runs
    at unit weight: with a constant noise neither the coarse argmin nor the
    Gauss-Newton steps depend on its value, so ``Z0FitResult.record`` scales
    sigma and chi2 by the noise afterwards. A coarse scan of about 1 nm steps
    on the scan's joint grid (``_coarse_chi2``) brackets the minimum;
    Gauss-Newton from there, on ``ForwardModel.force_and_dz0_pn``, stops at a
    step below 1e-10 nm.
    """
    v = curve.applied_voltage
    if not Z0_VOLTAGE_RANGE[0] <= v <= Z0_VOLTAGE_RANGE[1]:
        raise DataError(f"scan {curve.scan_id}: applied voltage {v} V outside "
                        f"{Z0_VOLTAGE_RANGE}")
    z = curve.piezo_nm
    f = curve.force_pn
    with np.errstate(over="ignore"):  # an overflow is reported just below
        coarse, values = _coarse_chi2(z, f, v, model)
    if not np.isfinite(values).all():
        raise FitError(f"scan {curve.scan_id}: non-finite chi2 over the coarse scan "
                       f"(largest |force| {np.abs(f).max():.3g} pN)")
    imin = int(np.argmin(values))
    if imin in (0, values.size - 1):
        raise FitError(f"scan {curve.scan_id}: chi2 minimum at the bracket edge")
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    if int(interior.sum()) > 1:
        raise FitError(f"scan {curve.scan_id}: non-unimodal chi2 over the coarse scan")

    z0 = float(coarse[imin])
    for _ in range(GAUSS_NEWTON_MAX_STEPS):
        force, jac = model.force_and_dz0_pn(z, z0, v)
        r = f - force
        jtj = np.dot(jac, jac)
        with np.errstate(all="ignore"):  # a non-finite step is reported just below
            step = float(np.dot(jac, r) / jtj)
        if not math.isfinite(step):
            raise FitError(f"scan {curve.scan_id}: non-finite Gauss-Newton step (J^T J = {jtj:g})")
        z0 += step
        if not coarse[imin - 1] <= z0 <= coarse[imin + 1]:
            raise FitError(f"scan {curve.scan_id}: Gauss-Newton left the coarse bracket "
                           f"[{coarse[imin - 1]:.6g}, {coarse[imin + 1]:.6g}] nm")
        if abs(step) < 1e-10:  # r and J, from < 1e-10 nm back, give rss and J^T J at z0
            return Z0FitResult(z0_nm=z0, rss_pn2=float(np.dot(r, r)), jtj=float(jtj),
                               n_points=int(z.size), voltage=v)
    raise FitError(f"scan {curve.scan_id}: Gauss-Newton not converged in "
                   f"{GAUSS_NEWTON_MAX_STEPS} steps")


@np.errstate(over="ignore")  # an overflow is reported as a non-finite C sigma
def fit_drift_coefficient(z_nm, force_pn, grounded_pn) -> DriftFit:
    """Closed-form linear least squares for the scattered-light/drift slope C.

    grounded_pn, the model without drift (``ForwardModel.force_pn`` at 0 V) on
    z_nm, is subtracted first; the remaining F = C * z is solved by the
    normal equation.
    """
    z = np.asarray(z_nm, dtype=float)
    f = np.asarray(force_pn, dtype=float)
    if z.size == 0:
        raise DataError("region 3 is empty")
    resid = f - grounded_pn
    denom = float(np.dot(z, z))
    c = float(np.dot(z, resid) / denom)
    r = resid - c * z
    dof = max(z.size - 1, 1)
    c_sigma = float(np.sqrt(np.dot(r, r) / (dof * denom)))
    if not math.isfinite(c_sigma):  # also when C is not finite
        raise DataError(f"drift fit overflows: C = {c:g} +- {c_sigma:g} pN/nm")
    return DriftFit(C_pn_per_nm=c, C_sigma_pn_per_nm=c_sigma)


def extract_casimir(force_pn, z_nm, electrostatic_pn, drift: DriftFit):
    """The measured Casimir force of one scan: its force on the axis z_nm of
    separations from contact, less the model's grounded electrostatic term
    there and the fitted drift."""
    return force_pn - electrostatic_pn - drift.C_pn_per_nm * z_nm


def average_scans(rows):
    """(mean, sample standard deviation) per point over scans.

    ``rows`` yields one scan's force at a time, all on one axis; a matrix
    works too. Each row is folded into running sums and dropped, so the
    memory is a few rows whatever the number of scans. The mean is the row
    sum, in row order, over n: bitwise ``np.mean(axis=0)`` of the stacked
    rows. The variance sums the deviations d = x - x_0 from the first row
    and their squares, var = (sum d^2 - (sum d)^2 / n) / (n - 1): a fixed
    shift (Chan, Golub & LeVeque, Am. Stat. 37, 242 (1983)) taken from the
    data, so d is exact where x and x_0 are within a factor of 2 and a large
    common offset costs no digits. Both sums are compensated
    (``_compensated_add``): measured against the exact std, plain sums were
    up to 74 eps off at 270 scans, compensated ones up to 12 eps and numpy's
    two-pass std up to 3 eps.
    """
    n = 0
    for row in rows:
        if n == 0:
            shift = np.array(row, dtype=float)
            total = shift.copy()
            dev, dev_carry, dev2, dev2_carry, d, y, t = np.zeros((7, shift.size))
        else:
            total += row
            np.subtract(row, shift, out=d)
            _compensated_add(dev, dev_carry, d, y, t)
            d *= d
            _compensated_add(dev2, dev2_carry, d, y, t)
        n += 1
    if n < 2:
        raise DataError("need at least 2 scans to average")
    var = dev2 - dev * dev / n
    var /= n - 1
    std = np.sqrt(np.maximum(var, 0.0, out=var), out=var)  # rounding may dip below 0
    return total / n, std


def _compensated_add(total, carry, x, y, t):
    """total += x by Kahan's compensated summation: carry holds the low-order
    part total has lost (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 4.3); y and t are scratch."""
    np.subtract(x, carry, out=y)
    np.add(total, y, out=t)
    np.subtract(t, total, out=carry)
    carry -= y
    total[...] = t


# The cap offset of the opaque-cap variant: the transparent cap's offset
# (cap_offset_nm, 15.8 nm by default) collapses to 0.9 nm.
OPAQUE_CAP_NM = 0.9


def variant_shifts_nm(cap_offset_nm: float) -> dict:
    """Separation shifts in nm of the comparison's variants: +-3 nm of axis
    uncertainty, and the opaque cap, which overstates the axis by the cap
    offset less ``OPAQUE_CAP_NM``."""
    return {"shift_minus_3nm": -3.0, "shift_plus_3nm": 3.0,
            "opaque_cap": OPAQUE_CAP_NM - cap_offset_nm}


def theory_span_nm(axes_nm, cap_offset_nm, window_nm=None, metal_to_metal=False,
                   first_name="the first separation read"):
    """(lo, hi): the metal-to-metal separations in nm at which a command reads
    the theory, and so caches it, from the axes it reads.

    A z0 fit over an axis z of separations from contact reads the model at
    z + z0 > 0 for z0 in ``Z0_BRACKET_NM`` and the theory at z + z0 + cap.
    A metal-to-metal axis (``compare``'s mean curve, ``theory``'s grid) is
    read where it lies.
    A mean curve inside that span that covers the window (to
    compare_to_theory's 1e-9 nm; 2e-9 here allows for rounding) is compared at
    its points bracketing it, at most one axis step outside, unshifted and at
    ``variant_shifts_nm(cap_offset_nm)``. A span that reaches contact is
    refused, naming the axes' first separation as ``first_name``.
    """
    z0_lo, z0_hi, cap = (0.0, 0.0, 0.0) if metal_to_metal else (*Z0_BRACKET_NM, cap_offset_nm)
    first = min(float(np.min(a)) for a in axes_nm)
    if first + z0_lo <= 0:
        plus_z0 = "" if metal_to_metal else f", plus z0 = {z0_lo:g} nm"
        raise DataError(f"the model would be read at a separation of {first + z0_lo:.6g} nm, "
                        f"at or below contact ({first_name} = {first:.6g} nm{plus_z0})")
    lo = first + z0_lo + cap
    hi = max(float(np.max(a)) for a in axes_nm) + z0_hi + cap
    if window_nm is not None and lo - 2e-9 <= window_nm[0] and window_nm[1] <= hi + 2e-9:
        step = max(float(np.diff(a).max(initial=0.0)) for a in axes_nm)
        shifts = variant_shifts_nm(cap_offset_nm).values()
        lo = min(lo, window_nm[0] - step + min(0.0, *shifts))
        hi = max(hi, window_nm[1] + step + max(0.0, *shifts))
    return lo, hi


@np.errstate(over="ignore")  # an overflow is reported as a non-finite statistic
def compare_to_theory(axis, mean_pn, std_pn, n_scans: int, theory: TheoryCurve,
                      window_nm, window_points: int, cap_offset_nm: float) -> dict:
    """Statistics of experiment vs theory over the comparison window, and at
    the separation shifts of ``variant_shifts_nm(cap_offset_nm)``, as
    ``compare`` writes them and ``results.json`` holds them.

    The mean curve ``mean_pn``, with per-point ``std_pn``, on ``axis``
    (increasing metal-to-metal separations in nm) and the theory sampled on
    that axis are both resampled onto the canonical window grid, so binning
    affects both sides identically. sigma_rms = sqrt(sum (F_th - F_exp)^2 / N).
    Reduced chi2 uses per-point standard errors std/sqrt(n_scans) on the
    curve's own in-window points: interpolating correlated residuals onto
    the canonical grid would bias chi2 low by ~2/3. It is None, undefined,
    where some of those points have std 0, as where every scan holds the
    same value.
    """
    lo, hi = window_nm
    if axis[0] > lo + 1e-9 or axis[-1] < hi - 1e-9:
        raise DataError(
            f"mean curve spans [{axis[0]:.6g}, {axis[-1]:.6g}] nm and does not cover "
            f"the comparison window [{lo:.6g}, {hi:.6g}] nm (window_lo_nm, window_hi_nm)"
        )
    in_window = (axis >= lo) & (axis <= hi)
    if int(in_window.sum()) < MIN_WINDOW_POINTS:
        raise DataError(
            f"window [{lo}, {hi}] nm contains {int(in_window.sum())} points "
            f"(< {MIN_WINDOW_POINTS})"
        )
    grid = np.linspace(lo, hi, window_points)
    exp = np.interp(grid, axis, mean_pn)
    # the theory is needed only on the curve points that bracket the window:
    # linear resampling onto the window grid reads no other point
    near = axis[max(int(np.searchsorted(axis, lo, side="right")) - 1, 0):
                int(np.searchsorted(axis, hi, side="left")) + 1]
    th = np.interp(grid, near, theory(near * 1e-9) * 1e12)
    resid = th - exp
    sigma_rms = float(np.sqrt(np.mean(resid**2)))

    native_resid = theory(axis[in_window] * 1e-9) * 1e12 - mean_pn[in_window]
    stderr = std_pn[in_window] / np.sqrt(n_scans)
    reduced_chi2 = (float(np.mean((native_resid / stderr) ** 2))
                    if np.all(stderr > 0) else None)

    variants = {}
    for label, shift in variant_shifts_nm(cap_offset_nm).items():
        th_s = np.interp(grid, near, theory((near + shift) * 1e-9) * 1e12)
        variants[label] = float(np.sqrt(np.mean((th_s - exp) ** 2)))
    for name, value in {"sigma_rms_pn": sigma_rms, "reduced_chi2": reduced_chi2,
                        **variants}.items():
        if value is not None and not math.isfinite(value):
            raise DataError(f"comparison statistic '{name}' overflows: {value:g}")

    return {"sigma_rms_pn": sigma_rms, "reduced_chi2": reduced_chi2,
            "n_points": int(grid.size), "variants": variants,
            "window_nm": [float(w) for w in window_nm]}


# Region 3, where the drift is fitted: separation from contact > 516 nm.
DRIFT_REGION_MIN_NM = 516.0


def analyze_campaign(scans, axis, forces, model_for, window_nm, window_points: int,
                     cal: CalibrationParams):
    """End-to-end pipeline on a campaign, in one pass over its grounded scans.

    ``scans``, ``axis`` and ``forces`` are ``synth.load_campaign``'s: the
    force-valued scans at 0.3-0.8 V for the z0 fits and the raw stiffness
    scans for the spring constant (with ``cal``); the grounded scans' axis,
    None without one; and a closable stream of their force columns, closed
    however this ends. ``model_for(axes)`` is the forward model over the
    axes read. The voltage scans give z0, and with the grounded axis the
    model and the 0 V electrostatic term; then each force column is
    drift-fitted over region 3, extracted, folded into ``average_scans``'s
    sums and dropped. A missing side of the campaign or a z0 fit failure
    raises before the stream is read, a bad file when its turn comes. Each
    z0 fit's sigma and chi2 are stated for the measured noise: the grounded
    scans' std pooled over the window, sqrt(mean(std^2)), None where it is 0.
    Returns the results.json payload and the mean curve's columns
    (separation_nm, force_pn, std_pn) on the metal-to-metal axis.
    """
    with closing(forces):
        voltage_scans = [c for c in scans if c.has_force]
        if not voltage_scans:
            raise DataError("no voltage scans for the z0 fit")
        if axis is None:
            raise DataError("no grounded scans to analyze")
        model = model_for([*(c.piezo_nm for c in voltage_scans), axis])
        z0_fits = [fit_contact_separation(c, model) for c in voltage_scans]
        z0_values = np.array([fit.z0_nm for fit in z0_fits])
        z0 = float(z0_values.mean())
        region3 = axis > DRIFT_REGION_MIN_NM
        z3 = axis[region3]
        model_pn = model.force_pn(z3, z0, 0.0)
        sep = axis + z0
        electrostatic_pn = model.electrostatic_pn(sep, 0.0)
        drifts = []

        def extracted():
            for force in forces:
                drift = fit_drift_coefficient(z3, force[region3], model_pn)
                drifts.append(drift.C_pn_per_nm)
                yield extract_casimir(force, axis, electrostatic_pn, drift)

        mean, std = average_scans(extracted())

    stiffness = [c for c in scans if not c.has_force]
    spring, spring_sigma = (calibrate_spring_constant(stiffness, model.electro, cal)
                            if stiffness else (None, None))
    separation = sep + model.cap_offset_nm
    stats = compare_to_theory(separation, mean, std, len(drifts), model.theory,
                              window_nm, window_points, model.cap_offset_nm)
    # the noise per point, pooled over the grounded scans' std at the points
    # compare_to_theory's reduced chi2 reads; an overflow is refused as a
    # non-finite value of the results
    in_window = (separation >= window_nm[0]) & (separation <= window_nm[1])
    with np.errstate(over="ignore"):
        noise = float(np.sqrt(np.mean(std[in_window] ** 2)))
    fits = [fit.record(noise) for fit in z0_fits]
    if z0_values.size > 1:
        z0_rms = float(z0_values.std(ddof=1))
        z0_sigma = z0_rms / math.sqrt(z0_values.size)
    else:
        z0_rms = 0.0
        z0_sigma = fits[0]["z0_sigma_nm"]
    results = {
        "z0_nm": z0,
        "z0_sigma_nm": z0_sigma,
        "z0_rms_over_voltages_nm": z0_rms,
        "z0_fits": fits,
        "measured_noise_pn": noise,
        "spring_constant_n_per_m": spring,
        "spring_constant_sigma_n_per_m": spring_sigma,
        "drift_pn_per_nm": float(np.mean(drifts)),
        **stats,
    }
    return results, (separation, mean, std)
