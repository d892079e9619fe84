import math
from dataclasses import replace

import numpy as np
import pytest

from casimirlab.config import RunConfig
from casimirlab.constants import CONST
from casimirlab.synth import (DEFAULT_CAL_VOLTAGES, generate_scans,
                              generate_stiffness_scans, load_campaign,
                              write_campaign)


def small_cfg(**kw):
    base = dict(n_scans=4, grid_points=160, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_generation_is_deterministic(drude_curve, e_cfg):
    t = small_cfg()
    g1, v1 = generate_scans(t, drude_curve, e_cfg)
    g2, v2 = generate_scans(t, drude_curve, e_cfg)
    for a, b in zip(g1 + v1, g2 + v2):
        np.testing.assert_array_equal(a.force_pn, b.force_pn)
    g3, _ = generate_scans(replace(t, seed=6), drude_curve, e_cfg)
    assert not np.array_equal(g1[0].force_pn, g3[0].force_pn)
    # scan streams are mutually independent
    assert not np.array_equal(g1[0].force_pn, g1[1].force_pn)


def test_noiseless_voltage_scans_equal_model(drude_curve, e_cfg):
    t = small_cfg(noise_pn=0.0, n_scans=1)
    _, voltage_scans = generate_scans(t, drude_curve, e_cfg)
    scan = voltage_scans[0]
    sep = scan.piezo_nm + t.z0_true_nm
    dv = scan.applied_voltage - t.v2_residual_mv * 1e-3
    radius = t.sphere_radius_um * 1e-6
    pfa_pn = -math.pi * CONST.eps0 * radius * dv * dv / (sep * 1e-9) * 1e12
    model = drude_curve((sep + t.cap_offset_nm) * 1e-9) * 1e12 + pfa_pn
    np.testing.assert_allclose(scan.force_pn, model, rtol=1e-14)


def test_ensemble_mean_converges_at_root_n(drude_curve, e_cfg):
    sigma = 7.0
    rms = {}
    for n in (27, 108):
        t = small_cfg(n_scans=n, noise_pn=sigma)
        grounded, _ = generate_scans(t, drude_curve, e_cfg)
        quiet, _ = generate_scans(replace(t, noise_pn=0.0, n_scans=1),
                                  drude_curve, e_cfg)
        stack = np.vstack([s.force_pn for s in grounded])
        rms[n] = float(np.sqrt(np.mean((stack.mean(axis=0)
                                        - quiet[0].force_pn) ** 2)))
        expected = sigma / np.sqrt(n)
        assert 0.7 * expected < rms[n] < 1.4 * expected
    assert rms[108] < rms[27]


def test_campaign_round_trip(tmp_path, drude_curve, e_cfg):
    t = small_cfg(n_scans=2)
    write_campaign(tmp_path, t, drude_curve, e_cfg)
    grounded, voltage_scans, stiffness, truth_doc = load_campaign(tmp_path)
    assert len(grounded) == 2
    assert len(voltage_scans) == len(DEFAULT_CAL_VOLTAGES)
    assert stiffness == []
    assert truth_doc == {
        "z0_true_nm": t.z0_true_nm, "c_true_pn_per_nm": t.c_true_pn_per_nm,
        "k_true_n_per_m": t.spring_constant_n_per_m,
        "cal_voltages_v": list(DEFAULT_CAL_VOLTAGES), "v2_residual_v": e_cfg.V2,
        "noise_sigma_pn": t.noise_pn, "n_scans": 2,
        "grid_nm": [t.grid_lo_nm, t.grid_hi_nm, t.grid_points], "seed": 5,
        "cap_offset_nm": t.cap_offset_nm}
    fresh_g, fresh_v = generate_scans(t, drude_curve, e_cfg)
    for disk, fresh in zip(grounded + voltage_scans, fresh_g + fresh_v):
        np.testing.assert_allclose(disk.piezo_nm, fresh.piezo_nm, rtol=1e-8)
        np.testing.assert_allclose(disk.force_pn, fresh.force_pn, rtol=1e-8,
                                   atol=1e-7)


def test_load_campaign_classifies_stiffness(tmp_path, drude_curve, e_cfg):
    from casimirlab.forcecurve import save_scan

    t = small_cfg(n_scans=1)
    write_campaign(tmp_path, t, drude_curve, e_cfg)
    for scan in generate_stiffness_scans(t, e_cfg):
        with open(tmp_path / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    grounded, voltage_scans, stiffness, _ = load_campaign(tmp_path)
    assert len(stiffness) == 2
    assert all(not s.has_force for s in stiffness)


def test_load_campaign_empty_dir(tmp_path):
    from casimirlab.errors import DataError

    with pytest.raises(DataError):
        load_campaign(tmp_path)
