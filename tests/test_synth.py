import json
import math
from dataclasses import replace

import numpy as np
import pytest

from casimirlab import synth
from casimirlab.config import RunConfig
from casimirlab.constants import CONST
from casimirlab.errors import DataError, ParseError
from casimirlab.forcecurve import load_scan, save_scan
from casimirlab.synth import (DEFAULT_CAL_VOLTAGES, generate_stiffness_scans,
                              load_campaign, write_campaign)
from conftest import campaign_scans, traced_peak_above_inputs


def small_cfg(**kw):
    base = dict(n_scans=4, grid_points=160, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_generation_is_deterministic(forward_model):
    t = small_cfg()
    g1, v1, _ = campaign_scans(t, forward_model)
    g2, v2, _ = campaign_scans(t, forward_model)
    for a, b in zip(g1 + v1, g2 + v2):
        np.testing.assert_array_equal(a.force_pn, b.force_pn)
    g3, _, _ = campaign_scans(replace(t, seed=6), forward_model)
    assert not np.array_equal(g1[0].force_pn, g3[0].force_pn)
    # scan streams are mutually independent
    assert not np.array_equal(g1[0].force_pn, g1[1].force_pn)


def test_noiseless_voltage_scans_equal_model(drude_curve, forward_model):
    t = small_cfg(noise_pn=0.0, n_scans=1)
    _, voltage_scans, _ = campaign_scans(t, forward_model)
    scan = voltage_scans[0]
    sep = scan.piezo_nm + t.z0_true_nm
    dv = scan.applied_voltage - t.v2_residual_mv * 1e-3
    radius = t.sphere_radius_um * 1e-6
    pfa_pn = -math.pi * CONST.eps0 * radius * dv * dv / (sep * 1e-9) * 1e12
    model = drude_curve((sep + t.cap_offset_nm) * 1e-9) * 1e12 + pfa_pn
    np.testing.assert_allclose(scan.force_pn, model, rtol=1e-14)


def test_ensemble_mean_converges_at_root_n(forward_model):
    sigma = 7.0
    rms = {}
    for n in (27, 108):
        t = small_cfg(n_scans=n, noise_pn=sigma)
        grounded, _, _ = campaign_scans(t, forward_model)
        quiet, _, _ = campaign_scans(replace(t, noise_pn=0.0, n_scans=1), forward_model)
        stack = np.vstack([s.force_pn for s in grounded])
        rms[n] = float(np.sqrt(np.mean((stack.mean(axis=0)
                                        - quiet[0].force_pn) ** 2)))
        expected = sigma / np.sqrt(n)
        assert 0.7 * expected < rms[n] < 1.4 * expected
    assert rms[108] < rms[27]


def test_campaign_round_trip(tmp_path, forward_model, e_cfg):
    t = small_cfg(n_scans=2)
    write_campaign(tmp_path, t, forward_model)
    first, forces, voltage_scans, stiffness = load_campaign(tmp_path)
    truth_doc = json.loads((tmp_path / "truth.json").read_text())
    assert len(forces) == 2
    assert len(voltage_scans) == len(DEFAULT_CAL_VOLTAGES)
    assert stiffness == []
    assert truth_doc == {
        "z0_true_nm": t.z0_true_nm, "c_true_pn_per_nm": t.c_true_pn_per_nm,
        "k_true_n_per_m": t.spring_constant_n_per_m,
        "cal_voltages_v": list(DEFAULT_CAL_VOLTAGES), "v2_residual_v": e_cfg.V2,
        "noise_sigma_pn": t.noise_pn, "n_scans": 2,
        "grid_nm": [t.grid_lo_nm, t.grid_hi_nm, t.grid_points], "seed": 5,
        "cap_offset_nm": t.cap_offset_nm}
    fresh_g, fresh_v, _ = campaign_scans(t, forward_model)
    grounded = [replace(first, scan_id=f"scan_{k:03d}", force_pn=row)
                for k, row in enumerate(forces)]
    for disk, fresh in zip(grounded + voltage_scans, fresh_g + fresh_v):
        assert disk.scan_id == fresh.scan_id
        np.testing.assert_allclose(disk.piezo_nm, fresh.piezo_nm, rtol=1e-8)
        np.testing.assert_allclose(disk.force_pn, fresh.force_pn, rtol=1e-8,
                                   atol=1e-7)


def test_load_campaign_classifies_stiffness(tmp_path, forward_model, e_cfg):
    t = small_cfg(n_scans=1)
    write_campaign(tmp_path, t, forward_model)
    for scan in generate_stiffness_scans(t, e_cfg):
        with open(tmp_path / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    _, _, _, stiffness = load_campaign(tmp_path)
    assert len(stiffness) == 2
    assert all(not s.has_force for s in stiffness)


def test_load_campaign_empty_dir(tmp_path):
    with pytest.raises(DataError):
        load_campaign(tmp_path)


def write_with_extra_scans(outdir, cfg, model, e_cfg):
    """A campaign plus stiffness scans, which sort after the grounded ones,
    and a voltage scan that sorts among them."""
    write_campaign(outdir, cfg, model)
    extra = [replace(load_scan(outdir / "cal_00.csv"), scan_id="cal_mid"),
             *generate_stiffness_scans(cfg, e_cfg)]
    for scan, name in zip(extra, ["scan_002v", "stiff_00", "stiff_01"]):
        with open(outdir / f"{name}.csv", "w", encoding="utf-8") as fh:
            save_scan(scan, fh)


@pytest.mark.parametrize("ways", [None, 4])
def test_a_split_campaign_equals_the_inline_one(tmp_path, forward_model, e_cfg,
                                                monkeypatch, split, ways):
    # ways=4: three workers, more processes than this host may have CPUs
    if ways:
        monkeypatch.setattr(synth, "_processes", lambda work, break_even: ways)
    t = small_cfg(n_scans=5)
    write_with_extra_scans(tmp_path / "split", t, forward_model, e_cfg)
    loaded = load_campaign(tmp_path / "split")
    monkeypatch.undo()   # back to the break-even: this campaign stays inline
    write_with_extra_scans(tmp_path / "inline", t, forward_model, e_cfg)
    files = sorted(p.name for p in (tmp_path / "inline").iterdir())
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == files
    for name in files:
        assert ((tmp_path / "split" / name).read_bytes()
                == (tmp_path / "inline" / name).read_bytes()), name
    first, forces, voltage_scans, stiffness = loaded
    inline = load_campaign(tmp_path / "inline")
    assert first.scan_id == inline[0].scan_id == "scan_000"
    np.testing.assert_array_equal(first.piezo_nm, inline[0].piezo_nm)
    np.testing.assert_array_equal(forces, inline[1])
    assert forces.shape == (5, t.grid_points)
    for k, row in enumerate(forces):
        np.testing.assert_array_equal(
            row, load_scan(tmp_path / "split" / f"scan_{k:03d}.csv").force_pn)
    assert voltage_scans[-1].scan_id == "cal_mid"
    for got, want in ((voltage_scans, inline[2]), (stiffness, inline[3])):
        assert [c.scan_id for c in got] == [c.scan_id for c in want]
        for a, b in zip(got, want):
            assert a.applied_voltage == b.applied_voltage
            for name in ("piezo_nm", "signal", "force_pn"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert [c.scan_id for c in stiffness] == ["stiff_00", "stiff_01"]


def corrupt(path):
    """Make the first data row of a scan file non-finite; return its line."""
    lines = path.read_text().splitlines()
    row = lines.index("piezo_nm,force_pn") + 1
    lines[row] = lines[row].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    return row + 1


@pytest.mark.parametrize("bad", [("scan_002", "scan_003"), ("scan_001", "scan_004")])
def test_a_split_read_raises_the_first_failing_file(tmp_path, forward_model, monkeypatch,
                                                    split, bad):
    # with two processes, after scan_000 this one reads scan_001, scan_003,
    # ... and the worker scan_002, scan_004, ...: either may hold the first bad file
    write_campaign(tmp_path, small_cfg(n_scans=6), forward_model)
    lines = [corrupt(tmp_path / f"{name}.csv") for name in bad]
    with pytest.raises(ParseError) as split_error:
        load_campaign(tmp_path)
    monkeypatch.undo()
    with pytest.raises(ParseError) as inline_error:
        load_campaign(tmp_path)
    for exc in (split_error.value, inline_error.value):
        assert (str(exc), exc.line, exc.path) == (
            f"{tmp_path / (bad[0] + '.csv')}: non-finite value at line {lines[0]}",
            lines[0], tmp_path / f"{bad[0]}.csv")


def test_a_split_read_names_the_scan_whose_grid_differs(tmp_path, forward_model, split):
    write_campaign(tmp_path, small_cfg(n_scans=6), forward_model)
    path = tmp_path / "scan_004.csv"   # in the worker's share, with two processes
    scan = load_scan(path)
    with open(path, "w", encoding="utf-8") as fh:
        save_scan(replace(scan, piezo_nm=scan.piezo_nm + 0.5), fh)
    with pytest.raises(DataError, match=r"scan scan_004 \(scan_004.csv\): scan grids "
                                        r"differ from scan scan_000's"):
        load_campaign(tmp_path)


def rows_added_by_doubling(fn):
    """Growth of the traced peak of ``fn(n_scans)`` from 40 to 80 scans, in
    rows of the default 982-point grid. An untraced call first fills what
    only a first call allocates."""
    fn(40)
    peaks = [traced_peak_above_inputs(lambda: fn(n)) for n in (40, 80)]
    return (peaks[1] - peaks[0]) / (RunConfig().grid_points * 8)


def test_write_campaign_memory_holds_one_scan(tmp_path, forward_model):
    # each scan is written as it is drawn: doubling the scans leaves the peak
    # where it was. The scans are noisy because only a drawn scan has a force
    # array of its own; noiseless ones share their model's.
    rows = rows_added_by_doubling(lambda n: write_campaign(
        tmp_path / str(n), RunConfig(n_scans=n), forward_model))
    assert rows <= 0.5 * 40, rows


def test_load_campaign_memory_grows_by_one_row_per_scan(tmp_path, forward_model):
    # a grounded scan is kept only as its force row: doubling the scans adds
    # about 40 rows, not the axis and the force of every scan
    for n in (40, 80):
        write_campaign(tmp_path / str(n), RunConfig(n_scans=n, noise_pn=0.0),
                       forward_model)
    rows = rows_added_by_doubling(lambda n: load_campaign(tmp_path / str(n)))
    assert rows <= 1.5 * 40, rows
