"""Deterministic synthetic-scan generator.

Produces the inverse of the analysis pipeline from the run configuration
(``RunConfig`` for the truth, grid, noise and seed; ``ElectrostaticConfig``
for the sphere's residual potential): grounded scans carrying theory +
residual electrostatic + linear drift + iid Gaussian noise, and
applied-voltage scans for the z0 fit. The force comes from
``analysis.model_force_pn``, the model the fits use. Sub-seeds derive
deterministically from (seed, scan index) via numpy's SeedSequence, so
identical seeds give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import model_force_pn
from .config import RunConfig
from .corrections import TheoryCurve
from .electrostatics import ElectrostaticConfig, sphere_plane_force_exact
from .errors import DataError
from .forcecurve import ForceCurve, load_scan, save_scan

DEFAULT_CAL_VOLTAGES = (0.31, 0.4, 0.5, 0.6, 0.7, 0.8)


def generate_scans(cfg: RunConfig, theory: TheoryCurve, e_cfg: ElectrostaticConfig):
    """Generate (grounded scans, applied-voltage scans) as ForceCurve lists.

    Grounded scans carry the drift term; voltage scans do not, matching the
    z0 fit model. Noise streams are independent per scan and reproducible
    from (seed, scan index): grounded scan i draws from stream i, voltage
    scan j from stream 10000 + j.
    """
    z = np.linspace(cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points)
    plan = [(f"scan_{i:03d}", 0.0, i, cfg.c_true_pn_per_nm) for i in range(cfg.n_scans)]
    plan += [(f"cal_{j:02d}", v, 10_000 + j, 0.0)
             for j, v in enumerate(DEFAULT_CAL_VOLTAGES)]
    scans, models = [], {}
    for scan_id, voltage, stream, drift in plan:
        # one noiseless model per (voltage, drift): all grounded scans share one
        if (voltage, drift) not in models:
            models[voltage, drift] = model_force_pn(z, cfg.z0_true_nm, voltage, theory,
                                                    e_cfg, cfg.cap_offset_nm, drift)
        force = models[voltage, drift]
        if cfg.noise_pn > 0:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
            force = force + rng.normal(0.0, cfg.noise_pn, z.size)
        scans.append(ForceCurve(scan_id, voltage, z, force_pn=force,
                                spring_constant=cfg.spring_constant_n_per_m))
    return scans[:cfg.n_scans], scans[cfg.n_scans:]


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
        v_cfg = replace(e_cfg, V1=v)
        force_n = np.array([sphere_plane_force_exact(zi * 1e-9, v_cfg) for zi in z])
        if cfg.noise_pn > 0:
            force_n = force_n + rng.normal(0.0, cfg.noise_pn, z.size) * 1e-12
        deflection_nm = force_n / cfg.spring_constant_n_per_m * 1e9
        signal = deflection_nm / cfg.deflection_sensitivity_nm
        scans.append(ForceCurve(f"stiff_{j:02d}", v, z, signal=signal))
    return scans


def write_campaign(outdir, cfg: RunConfig, theory: TheoryCurve,
                   e_cfg: ElectrostaticConfig) -> None:
    """Emit a campaign directory: scan CSVs plus the truth.json sidecar."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grounded, voltage_scans = generate_scans(cfg, theory, e_cfg)
    for curve in grounded + voltage_scans:
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
        "v2_residual_v": e_cfg.V2,
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
    """Read back a campaign directory.

    Returns (grounded scans, applied-voltage scans, raw stiffness scans,
    truth dict or None). Signal-valued curves are stiffness-calibration
    scans; force-valued ones split on applied voltage.
    """
    indir = Path(indir)
    grounded, voltage_scans, stiffness = [], [], []
    for path in sorted(indir.glob("*.csv")):
        curve = load_scan(path)
        if not curve.has_force:
            stiffness.append(curve)
        elif curve.applied_voltage == 0.0:
            grounded.append(curve)
        else:
            voltage_scans.append(curve)
    truth = None
    truth_path = indir / "truth.json"
    if truth_path.exists():
        truth = json.loads(truth_path.read_text())
    if not grounded and not voltage_scans and not stiffness:
        raise DataError(f"no scan files found in {indir}")
    return grounded, voltage_scans, stiffness, truth
