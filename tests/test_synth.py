import itertools
import json
import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from casimirlab import assemble, synth
from casimirlab.analysis import analyze_campaign
from casimirlab.cli import main
from casimirlab.config import RunConfig
from casimirlab.constants import CONST
from casimirlab.errors import DataError, ParseError
from casimirlab.forcecurve import ForceCurve, load_scan, save_scan
from casimirlab.synth import DEFAULT_CAL_VOLTAGES, load_campaign, write_campaign
from conftest import campaign_scans, traced_peak_above_inputs
from oracles import generate_stiffness_scans


def small_cfg(**kw):
    base = dict(n_scans=4, grid_points=160, seed=5)
    base.update(kw)
    return RunConfig(**base)


def test_generation_is_deterministic(forward_model):
    t = small_cfg()
    g1, v1 = campaign_scans(t, forward_model)
    g2, v2 = campaign_scans(t, forward_model)
    for a, b in zip(g1 + v1, g2 + v2):
        np.testing.assert_array_equal(a.force_pn, b.force_pn)
    g3, _ = campaign_scans(replace(t, seed=6), forward_model)
    assert not np.array_equal(g1[0].force_pn, g3[0].force_pn)
    # scan streams are mutually independent
    assert not np.array_equal(g1[0].force_pn, g1[1].force_pn)


def test_a_noise_stream_is_a_function_of_its_seed_and_stream():
    draw = synth._normal(5, 3, 4911)
    assert draw.shape == (4911,) and draw.dtype == np.float64
    assert draw.tobytes() == synth._normal(5, 3, 4911).tobytes()
    # neighbouring seeds and streams, and pairs whose digits run together
    others = [(4, 3), (6, 3), (5, 2), (5, 4), (3, 5), (0, 0), (51, 3), (5, 33), (53, 3)]
    draws = [draw] + [synth._normal(seed, stream, 4911) for seed, stream in others]
    for i, a in enumerate(draws):
        for b in draws[i + 1:]:
            assert not np.any(a == b)
    assert synth._normal(5, 3, 1).shape == (1,) and synth._normal(5, 3, 0).shape == (0,)


def test_the_noise_is_standard_normal():
    # about 200k draws laid out as a campaign's: 40 scans of 4910 points
    from scipy import stats
    draws = np.concatenate([synth._normal(11, stream, 4910) for stream in range(40)])
    n = draws.size
    assert abs(draws.mean()) < 5 / math.sqrt(n)
    assert abs(draws.var() - 1) < 5 * math.sqrt(2 / n)
    assert stats.kstest(draws, "norm").pvalue > 1e-3
    # the two normals of a Box-Muller pair are independent
    pairs = draws[:4910].reshape(2, -1)
    assert abs(np.corrcoef(*pairs)[0, 1]) < 5 / math.sqrt(pairs.shape[1])


def test_noiseless_voltage_scans_equal_model(drude_curve, forward_model):
    t = small_cfg(noise_pn=0.0, n_scans=1)
    _, voltage_scans = campaign_scans(t, forward_model)
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
        grounded, _ = campaign_scans(t, forward_model)
        quiet, _ = campaign_scans(replace(t, noise_pn=0.0, n_scans=1), forward_model)
        stack = np.vstack([s.force_pn for s in grounded])
        rms[n] = float(np.sqrt(np.mean((stack.mean(axis=0)
                                        - quiet[0].force_pn) ** 2)))
        expected = sigma / np.sqrt(n)
        assert 0.7 * expected < rms[n] < 1.4 * expected
    assert rms[108] < rms[27]


def sorted_out(campaign):
    """(grounded axis, grounded force columns, applied-voltage scans, stiffness
    scans) of a ``load_campaign`` result, each in order."""
    scans, axis, forces = campaign
    return (axis, list(forces), [c for c in scans if c.has_force],
            [c for c in scans if not c.has_force])


def test_campaign_round_trip(tmp_path, forward_model, e_cfg):
    t = small_cfg(n_scans=2)
    write_campaign(tmp_path, t, forward_model)
    axis, grounded, voltage_scans, stiffness = sorted_out(load_campaign(tmp_path))
    truth_doc = json.loads((tmp_path / "truth.json").read_text())
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
    fresh_g, fresh_v = campaign_scans(t, forward_model)
    for disk, fresh in zip(voltage_scans, fresh_v):
        assert disk.scan_id == fresh.scan_id
        np.testing.assert_allclose(disk.piezo_nm, fresh.piezo_nm, rtol=1e-8)
        np.testing.assert_allclose(disk.force_pn, fresh.force_pn, rtol=1e-8,
                                   atol=1e-7)
    for k, (force, fresh) in enumerate(zip(grounded, fresh_g)):
        assert load_scan(tmp_path / f"scan_{k:03d}.csv").scan_id == fresh.scan_id
        np.testing.assert_allclose(axis, fresh.piezo_nm, rtol=1e-8)
        np.testing.assert_allclose(force, fresh.force_pn, rtol=1e-8, atol=1e-7)


def test_load_campaign_classifies_stiffness(tmp_path, forward_model, e_cfg):
    t = small_cfg(n_scans=1)
    write_campaign(tmp_path, t, forward_model)
    for scan in generate_stiffness_scans(t, e_cfg):
        with open(tmp_path / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    *_, stiffness = sorted_out(load_campaign(tmp_path))
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


def test_load_campaign_reads_the_grounded_scans_last(tmp_path, forward_model, e_cfg):
    # the voltage and stiffness scans come first, wherever their names sort
    write_with_extra_scans(tmp_path, small_cfg(n_scans=3), forward_model, e_cfg)
    scans, axis, forces = load_campaign(tmp_path)
    assert [c.grounded for c in scans] == 9 * [False]
    assert [c.scan_id for c in scans if c.has_force] == [
        *(f"cal_{j:02d}" for j in range(len(DEFAULT_CAL_VOLTAGES))), "cal_mid"]
    grounded = [load_scan(tmp_path / f"scan_{k:03d}.csv") for k in range(3)]
    np.testing.assert_array_equal(axis, grounded[0].piezo_nm)
    np.testing.assert_array_equal(list(forces), [c.force_pn for c in grounded])


def test_load_campaign_classifies_every_file_before_it_reads_one(tmp_path, forward_model):
    write_campaign(tmp_path, small_cfg(n_scans=3), forward_model)
    path = tmp_path / "scan_002.csv"
    path.write_text(path.read_text().replace("piezo_nm,force_pn", "piezo_nm,force"))
    with pytest.raises(ParseError) as error:
        load_campaign(tmp_path)   # raised before any file is read
    assert (str(error.value), error.value.path) == (
        f"{path}: unrecognized header 'piezo_nm,force', expected piezo_nm,signal or "
        f"piezo_nm,force_pn at line 4", path)


def test_analyze_parses_each_scan_file_once(tmp_path, forward_model, e_cfg, monkeypatch):
    # a voltage scan whose name sorts among the grounded scans is read with
    # the other voltage scans, not in a second read of the campaign
    t = small_cfg(n_scans=2)
    campaign = tmp_path / "campaign"
    write_with_extra_scans(campaign, t, forward_model, e_cfg)
    parsed = []
    monkeypatch.setattr(synth, "load_scan", lambda path: parsed.append(path.name)
                        or load_scan(path))
    analyze_bytes(campaign, t, tmp_path / "analysis")
    files = sorted(p.name for p in campaign.glob("*.csv"))
    assert len(files) == 11 and sorted(parsed) == files


def test_analyze_builds_one_curve_per_file_it_reads(tmp_path, forward_model, e_cfg,
                                                    monkeypatch):
    # the grounded scans travel from the reader to the mean curve as force
    # columns on one axis: no scan is rebuilt as a curve on the way
    t = small_cfg(n_scans=2)
    campaign = tmp_path / "campaign"
    write_with_extra_scans(campaign, t, forward_model, e_cfg)
    built = []
    init = ForceCurve.__init__
    monkeypatch.setattr(ForceCurve, "__init__", lambda curve, scan_id, *args, **kwargs:
                        built.append(scan_id) or init(curve, scan_id, *args, **kwargs))
    analyze_bytes(campaign, t, tmp_path / "analysis")
    assert len(list(campaign.glob("*.csv"))) == 11 and len(built) == 11, built


def test_a_read_worker_sends_back_only_force_columns(tmp_path, forward_model, monkeypatch,
                                                     split):
    write_campaign(tmp_path, small_cfg(n_scans=6), forward_model)
    sizes = tmp_path / "sizes.txt"   # a forked worker's list would stay in the worker

    def dumps(result, protocol):
        data = pickle.dumps(result, protocol)
        with open(sizes, "a", encoding="utf-8") as fh:
            fh.write(f"{len(data)}\n")
        return data

    monkeypatch.setattr(synth, "pickle", SimpleNamespace(
        dumps=dumps, load=pickle.load, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
    _, axis, forces = load_campaign(tmp_path)
    assert len(list(forces)) == 6
    sent = [int(n) for n in sizes.read_text().split()]
    assert sent and max(sent) <= axis.nbytes + 1024, (sent, axis.nbytes)


@pytest.mark.parametrize("k", [0, 1])
def test_a_grounded_scan_that_sets_its_voltage_again_is_refused(tmp_path, forward_model, k):
    # a scan is classified from its voltage before the rows; the reader refuses
    # one that sets it again among them, naming its file and both lines
    write_campaign(tmp_path, small_cfg(n_scans=3), forward_model)
    path = tmp_path / f"scan_{k:03d}.csv"
    lines = path.read_text().splitlines()
    lines.insert(9, "# applied_voltage_v=0.31")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as error:
        list(load_campaign(tmp_path)[2])
    assert (str(error.value), error.value.path, error.value.line) == (
        f"{path}: metadata key 'applied_voltage_v' set at line 2 and again at line 10",
        path, 10)


@pytest.mark.parametrize("ways", [None, 4])
def test_a_split_campaign_equals_the_inline_one(tmp_path, forward_model, e_cfg,
                                                monkeypatch, split, ways):
    # ways=4: three workers, more processes than this host may have CPUs
    if ways:
        monkeypatch.setattr(synth, "_processes", lambda rows: ways)
    t = small_cfg(n_scans=5)
    write_with_extra_scans(tmp_path / "split", t, forward_model, e_cfg)
    loaded = load_campaign(tmp_path / "split")
    axis, grounded, voltage_scans, stiffness = sorted_out(loaded)
    monkeypatch.undo()   # back to the break-even: this campaign stays inline
    write_with_extra_scans(tmp_path / "inline", t, forward_model, e_cfg)
    files = sorted(p.name for p in (tmp_path / "inline").iterdir())
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == files
    for name in files:
        assert ((tmp_path / "split" / name).read_bytes()
                == (tmp_path / "inline" / name).read_bytes()), name
    inline = load_campaign(tmp_path / "inline")
    assert [c.scan_id for c in loaded[0]] == [c.scan_id for c in inline[0]]
    inline = sorted_out(inline)
    first = load_scan(tmp_path / "split" / "scan_000.csv")
    assert first.scan_id == load_scan(tmp_path / "inline" / "scan_000.csv").scan_id == "scan_000"
    np.testing.assert_array_equal(axis, inline[0])
    np.testing.assert_array_equal(axis, first.piezo_nm)
    forces = np.vstack(grounded)
    np.testing.assert_array_equal(forces, np.vstack(inline[1]))
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
        list(load_campaign(tmp_path)[2])
    monkeypatch.undo()
    with pytest.raises(ParseError) as inline_error:
        list(load_campaign(tmp_path)[2])
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
        list(load_campaign(tmp_path)[2])


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
    # array of its own; noiseless ones share their model's. Each call writes
    # into a new directory, as write_campaign refuses one that is not empty.
    calls = itertools.count()
    rows = rows_added_by_doubling(lambda n: write_campaign(
        tmp_path / str(next(calls)), RunConfig(n_scans=n), forward_model))
    assert rows <= 0.5 * 40, rows


def test_analyze_memory_stays_flat_as_the_campaign_doubles(tmp_path, default_cfg,
                                                          forward_model):
    # analyze folds each grounded scan into running sums as it is read and
    # drops it: doubling the scans on disk leaves the peak where it was, up to
    # the per-scan drift list. The scans are noisy, so each has a force array
    # of its own.
    for n in (40, 80):
        write_campaign(tmp_path / str(n), RunConfig(n_scans=n), forward_model)
    window = (default_cfg.window_lo_nm, default_cfg.window_hi_nm)
    rows = rows_added_by_doubling(lambda n: analyze_campaign(
        *load_campaign(tmp_path / str(n)), lambda axes: forward_model,
        window, assemble.calibration_params(default_cfg)))
    assert rows <= 2, rows


def analyze_bytes(campaign, cfg, out):
    """(results.json, mean_curve.csv) bytes of ``analyze`` on campaign with cfg."""
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text(cfg.to_text())
    result = CliRunner().invoke(main, ["analyze", "--config", str(cfg_path),
                                       "--scans", str(campaign), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return [(out / name).read_bytes() for name in ("results.json", "mean_curve.csv")]


@pytest.mark.parametrize("layout", ["plain", "late_voltage_scan"])
def test_analyze_writes_the_same_bytes_in_1_2_and_4_processes(tmp_path, forward_model,
                                                              e_cfg, monkeypatch, layout):
    # the scans are merged back in the serial read's order, so the split moves no bit
    t = small_cfg(n_scans=5)
    campaign = tmp_path / "campaign"
    if layout == "plain":
        write_campaign(campaign, t, forward_model)
    else:
        write_with_extra_scans(campaign, t, forward_model, e_cfg)
    outputs = {}
    for ways in (1, 2, 4):
        monkeypatch.setattr(synth, "_processes", lambda rows: ways)
        outputs[ways] = analyze_bytes(campaign, t, tmp_path / f"analysis{ways}")
    assert outputs[2] == outputs[1] and outputs[4] == outputs[1]


def test_a_late_voltage_scan_gives_the_results_of_one_read_first(tmp_path, forward_model,
                                                                  e_cfg):
    # scan_002v sorts among the grounded scans: analyze reads it before them,
    # with the other voltage scans, and writes what it writes when the same
    # scan sorts before them (cal_mid, after cal_05)
    t = small_cfg(n_scans=5)
    late, early = tmp_path / "late", tmp_path / "early"
    write_with_extra_scans(late, t, forward_model, e_cfg)
    early.mkdir()
    for path in late.iterdir():
        name = "cal_mid.csv" if path.name == "scan_002v.csv" else path.name
        (early / name).write_bytes(path.read_bytes())
    outputs = [analyze_bytes(d, t, tmp_path / f"analysis_{d.name}") for d in (late, early)]
    assert outputs[0] == outputs[1]
    fits = json.loads(outputs[0][0])["z0_fits"]
    assert [f["voltage_v"] for f in fits] == [*DEFAULT_CAL_VOLTAGES, DEFAULT_CAL_VOLTAGES[0]]
