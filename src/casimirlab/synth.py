"""Deterministic synthetic-scan generator.

Produces the inverse of the analysis pipeline from the run configuration
(``RunConfig`` for the truth, grid, noise and seed) and the
``analysis.ForwardModel`` the fits use: grounded scans carrying theory +
residual electrostatic + linear drift + iid Gaussian noise, and
applied-voltage scans for the z0 fit. Sub-seeds derive
deterministically from (seed, scan index) via numpy's SeedSequence, so
identical seeds give byte-identical output. Both directions hold one scan
at a time: ``write_campaign`` writes each scan as it is drawn, and
``load_campaign`` keeps a grounded scan only as one row of the force matrix
that ``analysis.analyze_campaign`` averages.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import COARSE_Z0_NM, ForwardModel
from .config import RunConfig
from .electrostatics import ElectrostaticConfig, sphere_plane_force_exact
from .errors import DataError
from .forcecurve import ForceCurve, load_scan, save_scan

DEFAULT_CAL_VOLTAGES = (0.31, 0.4, 0.5, 0.6, 0.7, 0.8)


def generate_scans(cfg: RunConfig, model: ForwardModel):
    """Yield the campaign's scans one at a time, as ForceCurves.

    The grounded scans come first, then the applied-voltage scans, in the
    order ``write_campaign`` writes them. Grounded scans carry the drift
    term; voltage scans do not, matching the z0 fit model. Noise streams are
    independent per scan and reproducible from (seed, scan index): grounded
    scan i draws from stream i, voltage scan j from stream 10000 + j. A scan
    is drawn only when it is asked for, so a caller that drops each one
    holds one scan at a time.
    """
    z = np.linspace(cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points)
    plan = [(f"scan_{i:03d}", 0.0, i, cfg.c_true_pn_per_nm) for i in range(cfg.n_scans)]
    plan += [(f"cal_{j:02d}", v, 10_000 + j, 0.0)
             for j, v in enumerate(DEFAULT_CAL_VOLTAGES)]
    models = {}
    for scan_id, voltage, stream, drift in plan:
        # one noiseless model per (voltage, drift): all grounded scans share one
        if (voltage, drift) not in models:
            models[voltage, drift] = model.force_pn(z, cfg.z0_true_nm, voltage, drift)
        force = models[voltage, drift]
        if cfg.noise_pn > 0:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
            force = force + rng.normal(0.0, cfg.noise_pn, z.size)
        yield ForceCurve(scan_id, voltage, z, force_pn=force,
                         spring_constant=cfg.spring_constant_n_per_m)


def check_fit_range(cfg: RunConfig) -> None:
    """Raise DataError unless ``analyze`` can fit z0 on the campaign of cfg.

    The coarse z0 scan reads the theory at z + z0 + cap for every z of the
    grid and every z0 of ``COARSE_Z0_NM``: that span of metal-to-metal
    separations must lie inside the theory cache.
    """
    lo = cfg.grid_lo_nm + COARSE_Z0_NM[0] + cfg.cap_offset_nm
    hi = cfg.grid_hi_nm + COARSE_Z0_NM[1] + cfg.cap_offset_nm
    if lo < cfg.theory_cache_lo_nm or hi > cfg.theory_cache_hi_nm:
        raise DataError(
            f"the z0 fit would read the theory over [{lo:.6g}, {hi:.6g}] nm "
            f"(grid_lo_nm + {COARSE_Z0_NM[0]:g} to grid_hi_nm + {COARSE_Z0_NM[1]:g}, "
            f"plus cap_offset_nm), beyond the theory cache "
            f"[{cfg.theory_cache_lo_nm:.6g}, {cfg.theory_cache_hi_nm:.6g}] nm "
            "(theory_cache_lo_nm, theory_cache_hi_nm)"
        )


def generate_stiffness_scans(cfg: RunConfig, e_cfg: ElectrostaticConfig,
                             separations_nm=(2050.0, 3000.0, 40),
                             voltages=(0.31, 0.5)):
    """Raw-signal scans at separations > 2 um for the spring-constant fit.

    The deflection is the exact electrostatic force over the configured
    spring constant, so a noiseless fit must return it; noise (in pN) is
    added on the force before conversion to signal.
    """
    lo, hi, n = separations_nm
    z = np.linspace(lo, hi, int(n))
    scans = []
    for j, v in enumerate(voltages):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 20_000 + j]))
        force_n = np.array([sphere_plane_force_exact(zi * 1e-9, e_cfg, v) for zi in z])
        if cfg.noise_pn > 0:
            force_n = force_n + rng.normal(0.0, cfg.noise_pn, z.size) * 1e-12
        deflection_nm = force_n / cfg.spring_constant_n_per_m * 1e9
        signal = deflection_nm / cfg.deflection_sensitivity_nm
        scans.append(ForceCurve(f"stiff_{j:02d}", v, z, signal=signal))
    return scans


@np.errstate(over="ignore")  # an overflowing model gives non-finite cells, refused below
def write_campaign(outdir, cfg: RunConfig, model: ForwardModel) -> None:
    """Emit a campaign directory: scan CSVs plus the truth.json sidecar.

    Each scan is written as it is drawn, so one scan is held at a time.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for curve in generate_scans(cfg, model):
        path = outdir / f"{curve.scan_id}.csv"
        tmp = path.with_suffix(".csv.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            save_scan(curve, fh)
        tmp.replace(path)
    truth = {
        "z0_true_nm": cfg.z0_true_nm,
        "c_true_pn_per_nm": cfg.c_true_pn_per_nm,
        "k_true_n_per_m": cfg.spring_constant_n_per_m,
        "cal_voltages_v": list(DEFAULT_CAL_VOLTAGES),
        "v2_residual_v": model.electro.V2,
        "noise_sigma_pn": cfg.noise_pn,
        "n_scans": cfg.n_scans,
        "grid_nm": [cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points],
        "seed": cfg.seed,
        "cap_offset_nm": cfg.cap_offset_nm,
    }
    tmp = outdir / "truth.json.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tmp.replace(outdir / "truth.json")


def load_campaign(indir):
    """Read back a campaign directory, one scan file at a time.

    Returns (first grounded scan, grounded forces, applied-voltage scans,
    raw stiffness scans). Signal-valued curves are stiffness-calibration
    scans; force-valued ones split on applied voltage. A grounded scan is
    kept only as its force, one row of a (scans x points) matrix whose k-th
    row is the k-th grounded file in name order; the first grounded scan
    gives the axis, and every other one must share it (``DataError`` naming
    the scan otherwise). The matrix is allocated at the first grounded scan
    with one row per file, and the rows of the other files are never
    written. Without grounded scans the first is None and the matrix empty.
    """
    indir = Path(indir)
    paths = sorted(indir.glob("*.csv"))
    if not paths:
        raise DataError(f"no scan files found in {indir}")
    first, forces, k = None, np.empty((0, 0)), 0
    voltage_scans, stiffness = [], []
    for path in paths:
        curve = load_scan(path)
        if not curve.has_force:
            stiffness.append(curve)
        elif curve.applied_voltage != 0.0:
            voltage_scans.append(curve)
        else:
            if first is None:
                first = curve
                forces = np.empty((len(paths), curve.piezo_nm.size))
            elif (curve.piezo_nm.size != first.piezo_nm.size
                  or np.abs(curve.piezo_nm - first.piezo_nm).max() > 1e-9):
                raise DataError(f"scan {curve.scan_id} ({path.name}): scan grids differ "
                                f"from scan {first.scan_id}'s; resample before averaging")
            forces[k] = curve.force_pn
            k += 1
    return first, forces[:k], voltage_scans, stiffness
