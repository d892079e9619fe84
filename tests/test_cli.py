import json
import os
import math
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import casimirlab
from casimirlab import __version__
from casimirlab.cli import MEAN_CURVE_COLUMNS, main, output_meta
from casimirlab.analysis import Z0_BRACKET_MARGIN_NM, Z0_BRACKET_NM
from casimirlab.config import RunConfig, parse_config
from casimirlab.corrections import ROUGHNESS_SERIES_MAX_RATIO, TemperatureParams
from casimirlab.forcecurve import csv_text, read_csv
from casimirlab.synth import DEFAULT_CAL_VOLTAGES, campaign_span_nm
from conftest import FAST_CONFIG, TABLE

# the ends of the z0_true_nm range
Z0_LOWEST_NM = Z0_BRACKET_NM[0] + Z0_BRACKET_MARGIN_NM
Z0_HIGHEST_NM = Z0_BRACKET_NM[1] - Z0_BRACKET_MARGIN_NM


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def run_fresh(script, env):
    """Run ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(casimirlab.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def read_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[1:].strip().partition("=")
        meta[key.strip()] = value.strip()
    return meta


def test_epsilon_command(runner, workdir):
    out = workdir / "eps.csv"
    result = runner.invoke(main, ["epsilon", "--xi-ev", "0.1:10:5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = read_meta(out)
    assert meta["version"] == __version__
    assert meta["config_hash"] == parse_config("").digest()
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("xi_ev")]
    assert len(rows) == 5
    eps = [float(r.split(",")[1]) for r in rows]
    assert all(a > b >= 1.0 for a, b in zip(eps, eps[1:]))


def test_theory_command(runner, workdir):
    out = workdir / "theory.csv"
    result = runner.invoke(main, ["theory", "--z", "100:500:5",
                                  "--config", str(workdir / "run.cfg"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "separation_nm"))]
    forces = [float(r[1]) for r in rows]
    assert all(f < 0 for f in forces)
    assert -185.0 < forces[0] < -140.0


def test_electro_command(runner, workdir):
    out = workdir / "electro.csv"
    result = runner.invoke(main, ["electro", "--z", "100:500:3",
                                  "--voltage", "0.31", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith(("#", "separation_nm"))]
    for _, exact, pfa in rows:
        assert abs(float(exact) / float(pfa) - 1.0) < 0.03


def test_csv_text_refuses_non_finite_cells():
    meta = output_meta(RunConfig())
    assert csv_text(meta, ("a", "b"), ([1.0], [2.0])).endswith("a,b\n1,2\n")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite value in the a, b output"):
            csv_text(meta, ("a", "b"), ([1.0, 2.0], [3.0, bad]))


def test_epsilon_drude_takes_an_xi_below_the_tables_range(runner, tmp_path):
    # the Drude closed form has no squared ratio to underflow: any xi > 0
    out = tmp_path / "eps.csv"
    result = runner.invoke(main, ["epsilon", "--xi-ev", "1e-20:1e-16:3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert np.isfinite(read_csv(out, 2, 1, (("xi_ev", "eps"),)).columns).all()


@pytest.mark.parametrize("command,option,spec,header", [
    ("theory", "--z", "100:500:5", ("separation_nm", "force_pn")),
    ("epsilon", "--xi-ev", "0.01:100:5", ("xi_ev", "eps"))])
def test_a_tiny_drude_gamma_gives_the_table_model_without_a_warning(runner, tmp_path, command,
                                                                    option, spec, header):
    # no xi is near gamma = 1e-300 eV, so the Drude segment's degenerate
    # branch, which divides by gamma^3, is not evaluated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("drude_gamma_ev=1e-300\ntheory_cache_points=4\n")
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [command, "--material", TABLE, option, spec,
                                  "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert np.isfinite(read_csv(out, 2, 1, (header,)).columns).all()


@settings(max_examples=20, deadline=None)
@example(radius_um=1e-300)
@example(radius_um=1e-320)  # 0 m once scaled: the range table refuses it
@example(radius_um=1e6)     # the series' slowest decay the range table allows
@given(radius_um=st.floats(0.0, 1e6, exclude_min=True))
def test_electro_over_the_sphere_radius_ends_in_a_documented_exit(radius_um):
    # exit 0 with finite forces, or 2 or 3 with a message; a RuntimeWarning
    # fails the test (pytest turns it into an error)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "electro.csv"
        cfg.write_text(f"sphere_radius_um={radius_um!r}\n")
        result = runner.invoke(main, ["electro", "--z", "100:500:3", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code in (0, 2, 3), result.output
        if result.exit_code:
            assert result.output.startswith("error: ") and not out.exists()
        else:
            assert np.isfinite(read_csv(out, 3, 1, (
                ("separation_nm", "force_exact_pn", "force_pfa_pn"),)).columns).all()


def test_theory_with_a_table_and_no_drude_damping_is_finite(runner, tmp_path):
    # gamma = 0: the Drude segment below the table has no closed-form part
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theory_cache_points=40\ndrude_gamma_ev=0\n")
    out = tmp_path / "theory.csv"
    result = runner.invoke(main, ["theory", "--material", TABLE, "--z", "100:500:5",
                                  "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    forces = read_csv(out, 2, 1, (("separation_nm", "force_pn"),)).columns[1]
    assert forces.size == 5 and np.all(forces < 0)


def test_synth_campaign_layout(campaign_dir):
    assert (campaign_dir / "truth.json").exists()
    assert (campaign_dir / "manifest.txt").exists()
    scans = sorted(campaign_dir.glob("*.csv"))
    assert len(scans) == 2 + 6   # grounded + voltage scans
    meta = read_meta(campaign_dir / "manifest.txt")
    assert meta["seed"] == "11"


def test_analyze_outputs(analysis_dir):
    doc = json.loads((analysis_dir / "results.json").read_text())
    assert doc["meta"]["version"] == __version__
    assert abs(doc["z0_nm"] - 48.9) < 1.5
    # the mean curve's points inside the default window [100, 500] nm
    separation = read_csv(analysis_dir / "mean_curve.csv", 3, 1, (MEAN_CURVE_COLUMNS,)).columns[0]
    assert doc["n_points"] == np.count_nonzero((separation >= 100.0) & (separation <= 500.0)) == 54
    assert set(doc["variants"]) == {"shift_minus_3nm", "shift_plus_3nm",
                                    "opaque_cap"}
    mean = (analysis_dir / "mean_curve.csv").read_text().splitlines()
    assert any(line.startswith("separation_nm,force_pn,std_pn") for line in mean)


def test_analyze_refuses_to_write_among_its_scans(runner, workdir, campaign_dir, tmp_path):
    # mean_curve.csv among the scans would make every later analyze of them
    # exit 2 on its header
    scans = tmp_path / "campaign"
    shutil.copytree(campaign_dir, scans)
    before = sorted(p.name for p in scans.iterdir())
    (tmp_path / "x").mkdir()
    out = tmp_path / "x" / ".." / "campaign"   # the same directory, spelled otherwise
    result = runner.invoke(main, ["analyze", "--scans", str(scans), "--out", str(out),
                                  "--config", str(workdir / "run.cfg")])
    assert result.exit_code == 2, result.output
    assert result.output == (f"error: --out {out} is the --scans directory {scans}: "
                             "write the results into another directory\n")
    assert sorted(p.name for p in scans.iterdir()) == before
    result = runner.invoke(main, ["analyze", "--scans", str(scans),
                                  "--out", str(tmp_path / "analysis"),
                                  "--config", str(workdir / "run.cfg")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("argv,stale,outputs", [
    ("analyze --scans {campaign} --out {tmp}/results", "results/mean_curve.csv.tmp",
     ["results/mean_curve.csv", "results/results.json"]),
    ("fit-z0 --scan {campaign}/cal_00.csv --emit-curve --out {tmp}/z0.json", "z0.curve.csv.tmp",
     ["z0.curve.csv", "z0.json"]),
    ("theory --z 100:500:5 --material {tmp}/t.csv.tmp --out {tmp}/t.csv", "t.csv.tmp",
     ["t.csv"]),
], ids=["analyze", "fit-z0", "theory"])
def test_a_file_named_as_an_outputs_tmp_is_left_as_it_was(runner, workdir, campaign_dir,
                                                          tmp_path, argv, stale, outputs):
    # a temporary is named after its process: a killed run's stale <out>.tmp,
    # or an input named so, neither stops a command nor is written over. The
    # stale file is an optical table, which theory reads.
    (tmp_path / stale).parent.mkdir(exist_ok=True)
    (tmp_path / stale).write_text("# material=x\n0.04,1.0\n1.0,2.0\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = argv.format(campaign=campaign_dir, tmp=tmp_path).split()
    result = runner.invoke(main, [*argv, "--config", str(workdir / "run.cfg")])
    assert result.exit_code == 0, result.output
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert sorted(str(p.relative_to(tmp_path)) for p in after.keys() - before.keys()) == outputs
    assert {p: after[p] for p in before} == before


def test_compare_command(runner, workdir, analysis_dir):
    out = workdir / "compare.json"
    result = runner.invoke(main, ["compare",
                                  "--curve", str(analysis_dir / "mean_curve.csv"),
                                  "--config", str(workdir / "run.cfg"),
                                  "--n-scans", "2", "--emit-curve",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert set(doc) == {"meta", "sigma_rms_pn", "reduced_chi2", "n_points", "variants",
                        "window_nm"}
    assert doc["sigma_rms_pn"] > 0 and doc["window_nm"] == [100.0, 500.0]
    assert (workdir / "compare.curve.csv").exists()


def test_compare_defaults_to_config_n_scans(runner, workdir, analysis_dir):
    # without --n-scans the standard error uses the config's n_scans (2 here),
    # so compare reproduces analyze's chi2 up to the 9-digit mean-curve CSV
    out = workdir / "compare_default.json"
    result = runner.invoke(main, ["compare",
                                  "--curve", str(analysis_dir / "mean_curve.csv"),
                                  "--config", str(workdir / "run.cfg"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    analyzed = json.loads((analysis_dir / "results.json").read_text())
    compared = json.loads(out.read_text())
    assert compared["reduced_chi2"] == pytest.approx(analyzed["reduced_chi2"],
                                                     rel=1e-6)


def test_a_noiseless_campaign_writes_reduced_chi2_as_null(runner, tmp_path):
    # every scan holds the same value, so each in-window std is 0 and the
    # chi2 per standard error is undefined
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise_pn=0\nn_scans=2\ngrid_points=120\ntheory_cache_points=8\n")
    args = ["--config", str(cfg)]
    for command in (["synth", "--out", str(tmp_path / "campaign")],
                    ["analyze", "--scans", str(tmp_path / "campaign"),
                     "--out", str(tmp_path / "analysis")],
                    ["compare", "--curve", str(tmp_path / "analysis" / "mean_curve.csv"),
                     "--out", str(tmp_path / "compare.json")]):
        result = runner.invoke(main, [*command, *args])
        assert result.exit_code == 0, result.output
    for doc in (tmp_path / "analysis" / "results.json", tmp_path / "compare.json"):
        stats = json.loads(doc.read_text())
        assert stats["reduced_chi2"] is None, doc
        assert math.isfinite(stats["sigma_rms_pn"])


def test_no_command_loads_scipy_openssl_or_numpy_random(workdir, campaign_dir, analysis_dir,
                                                        tmp_path):
    # numpy is the package's only numerical library, so no command loads scipy.
    # config_hash comes from CPython's built-in SHA-256 and synth's noise from
    # the standard library's Mersenne Twister, so no command loads OpenSSL's
    # libcrypto (_hashlib) or numpy.random, which imports secrets -> hmac ->
    # _hashlib and eleven extension modules of its own.
    from casimirlab.assemble import electrostatic_config
    from casimirlab.forcecurve import save_scan
    from oracles import generate_stiffness_scans

    stiff_dir = tmp_path / "stiff"
    stiff_dir.mkdir()
    for scan in generate_stiffness_scans(RunConfig(), electrostatic_config(RunConfig())):
        with open(stiff_dir / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    cfg = str(workdir / "run.cfg")
    commands = [
        ["synth", "--seed", "3", "--config", cfg],
        ["theory", "--z", "100:500:5"],
        ["theory", "--material", TABLE, "--z", "100:500:5", "--config", cfg],
        ["epsilon", "--material", TABLE, "--xi-ev", "0.01:100:5"],
        ["electro", "--z", "100:500:5"],
        ["calibrate-k", "--scans", str(stiff_dir)],
        ["analyze", "--scans", str(campaign_dir), "--config", cfg],
        ["compare", "--curve", str(analysis_dir / "mean_curve.csv"), "--config", cfg],
        ["fit-z0", "--scan", str(campaign_dir / "cal_00.csv"), "--config", cfg],
    ]
    commands = [c + ["--out", str(tmp_path / f"out{i}")] for i, c in enumerate(commands)]
    script = f"""
import sys
from casimirlab.cli import main
for args in {commands!r}:
    main(args, standalone_mode=False)
print(any(m.split(".")[0] == "scipy" for m in sys.modules), "_hashlib" in sys.modules,
      "numpy.random" in sys.modules)
"""
    proc = run_fresh(script, os.environ)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / f"out{i}").exists() for i in range(len(commands)))
    assert proc.stdout.strip() == "False False False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("setting", [None, "2"])
def test_cli_runs_one_blas_thread_unless_set(setting):
    # importing the CLI, and with it numpy, starts no OpenBLAS worker thread;
    # a value the user set is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = run_fresh("import os, casimirlab.cli\n"
                     "print(len(os.listdir('/proc/self/task')),"
                     " os.environ['OPENBLAS_NUM_THREADS'])", env)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    if setting is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == setting


def test_analyze_lists_each_z0_fit_as_fit_z0_writes_it(runner, workdir, campaign_dir,
                                                        analysis_dir, tmp_path):
    doc = json.loads((analysis_dir / "results.json").read_text())
    fits = doc["z0_fits"]
    assert [f["voltage_v"] for f in fits] == list(DEFAULT_CAL_VOLTAGES)
    assert np.mean([f["z0_nm"] for f in fits]) == doc["z0_nm"]
    out = tmp_path / "z0.json"
    result = runner.invoke(main, ["fit-z0", "--scan", str(campaign_dir / "cal_00.csv"),
                                  "--config", str(workdir / "run.cfg"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    single = json.loads(out.read_text())
    del single["meta"]
    assert set(single) == set(fits[0])   # one formatter
    assert single["voltage_v"] == fits[0]["voltage_v"]
    assert single["n_points"] == fits[0]["n_points"]
    assert single["z0_nm"] == pytest.approx(fits[0]["z0_nm"], rel=1e-9)


def test_fit_z0_weights_by_its_own_residual_rms(runner, workdir, campaign_dir, tmp_path):
    # with no grounded scan to measure the noise, fit-z0 takes its own
    # residual rms over n - 1 degrees of freedom: chi2 is n - 1 by construction
    out = tmp_path / "z0.json"
    result = runner.invoke(main, ["fit-z0", "--scan", str(campaign_dir / "cal_00.csv"),
                                  "--config", str(workdir / "run.cfg"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    fit = json.loads(out.read_text())
    assert fit["chi2"] == pytest.approx(fit["n_points"] - 1, rel=1e-9)


def test_fit_z0_command(runner, workdir, campaign_dir):
    out = workdir / "z0.json"
    scan = sorted(campaign_dir.glob("cal_*.csv"))[0]
    result = runner.invoke(main, ["fit-z0", "--scan", str(scan),
                                  "--config", str(workdir / "run.cfg"),
                                  "--emit-curve", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert abs(doc["z0_nm"] - 48.9) < 1.5
    curve = (workdir / "z0.curve.csv").read_text().splitlines()
    assert any(line.startswith("separation_nm,force_pn,model_pn")
               for line in curve)


def test_fit_z0_converts_a_raw_signal_scan_through_the_config(runner, workdir,
                                                               campaign_dir, tmp_path):
    # cal_00 written as the raw signal that the config's spring constant and
    # deflection sensitivity turn back into its force: the same z0
    from casimirlab.forcecurve import ForceCurve, load_scan, save_scan

    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CONFIG + "spring_constant_n_per_m=0.02\n"
                   "deflection_sensitivity_nm=2.5\n")
    scan = load_scan(campaign_dir / "cal_00.csv")
    raw = tmp_path / "cal_00_signal.csv"
    with open(raw, "w") as fh:
        save_scan(ForceCurve(scan.scan_id, scan.applied_voltage, scan.piezo_nm,
                             signal=scan.force_pn / (0.02 * 2.5 * 1e3)), fh)
    z0 = []
    for path in (campaign_dir / "cal_00.csv", raw):
        out = tmp_path / f"{path.stem}.json"
        result = runner.invoke(main, ["fit-z0", "--scan", str(path), "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        z0.append(json.loads(out.read_text())["z0_nm"])
    assert "signal" in raw.read_text().splitlines()[2]
    assert z0[1] == pytest.approx(z0[0], rel=1e-9)


def test_calibrate_k_command(runner, workdir, tmp_path_factory):
    from casimirlab.assemble import electrostatic_config
    from casimirlab.config import RunConfig
    from casimirlab.forcecurve import save_scan
    from oracles import generate_stiffness_scans

    stiff_dir = tmp_path_factory.mktemp("stiff")
    cfg = RunConfig(noise_pn=0.0, seed=11)
    for scan in generate_stiffness_scans(cfg, electrostatic_config(cfg)):
        with open(stiff_dir / f"{scan.scan_id}.csv", "w") as fh:
            save_scan(scan, fh)
    out = workdir / "k.json"
    result = CliRunner().invoke(main, ["calibrate-k", "--scans", str(stiff_dir),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["spring_constant_n_per_m"] == pytest.approx(0.0169, rel=1e-6)


@pytest.mark.parametrize("z0_true_nm", [Z0_LOWEST_NM, Z0_HIGHEST_NM])
def test_synth_analyze_at_the_ends_of_the_z0_range(runner, tmp_path, z0_true_nm):
    # the z0 fit finds a truth at either end of the range the range table
    # accepts; the window starts past the scans' first separation at the top,
    # grid_lo_nm + z0 + cap_offset_nm = 243.3 nm
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_scans=2\ngrid_points=120\nseed=5\nwindow_lo_nm=250\n"
                   f"z0_true_nm={z0_true_nm!r}\n")
    for args in (["synth", "--out", str(tmp_path / "campaign")],
                 ["analyze", "--scans", str(tmp_path / "campaign"),
                  "--out", str(tmp_path / "analysis")]):
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 0, (args[0], result.output)
    results = json.loads((tmp_path / "analysis" / "results.json").read_text())
    assert abs(results["z0_nm"] - z0_true_nm) < 0.5


def test_a_force_that_does_not_converge_exits_3_in_bounded_memory(tmp_path):
    # with a negative absolute tolerance no estimate converges, so the order
    # is doubled to the largest, 128, whose rule takes 10 MiB an array
    src = str(Path(casimirlab.__file__).resolve().parents[1])
    script = ("import sys; from casimirlab import cli, lifshitz; lifshitz.ABS_TOL = -1.0; "
              "cli.main(sys.argv[1:])")
    with subprocess.Popen([sys.executable, "-c", script, "theory", "--z", "100:500:5",
                           "--out", str(tmp_path / "theory.csv")],
                          env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = proc.stderr.read().decode()
    assert proc.returncode == 3
    # the first node of the cache over 100-500 nm, its order-64 estimate and
    # the change to order 128
    assert re.fullmatch(r"error: no convergence to rel_tol=0\.0001 within 4 refinements "
                        r"at 100\.\d+ nm: last estimate -\d\.\d+e-\d+ N, "
                        r"last change \d\.\d+e-\d+ N\n", stderr), stderr
    assert usage.ru_maxrss < 256 * 1024   # KiB


def test_fit_z0_on_a_two_node_theory_cache(runner, campaign_dir, tmp_path):
    # two nodes leave the derivative series of TheoryCurve.force_and_slope one coefficient
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CONFIG.replace("theory_cache_points=40", "theory_cache_points=2"))
    out = tmp_path / "z.json"
    result = runner.invoke(main, ["fit-z0", "--scan", str(campaign_dir / "cal_00.csv"),
                                  "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    fit = json.loads(out.read_text())
    assert fit["z0_nm"] > 0 and fit["z0_sigma_nm"] > 0


def copy_campaign(campaign_dir, tmp_path):
    scans = tmp_path / "campaign"
    scans.mkdir()
    for path in campaign_dir.iterdir():
        (scans / path.name).write_bytes(path.read_bytes())
    return scans


def test_analyze_does_not_read_truth_json(runner, workdir, campaign_dir, analysis_dir,
                                          tmp_path):
    # truth.json is the generator's record for the tests, not an analyze input
    scans = copy_campaign(campaign_dir, tmp_path)
    (scans / "truth.json").write_text("{not json")
    out = tmp_path / "analysis"
    result = runner.invoke(main, ["analyze", "--config", str(workdir / "run.cfg"),
                                  "--scans", str(scans), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "results.json").read_bytes() == \
        (analysis_dir / "results.json").read_bytes()


def test_package_written_csv_takes_the_bulk_path(monkeypatch, campaign_dir, analysis_dir):
    # the line-by-line reader is only for bodies numpy refuses in one call
    from casimirlab import forcecurve
    from casimirlab.synth import load_campaign

    def refuse(*args):
        raise AssertionError("package-written CSV read line by line")

    monkeypatch.setattr(forcecurve, "_read_body_by_line", refuse)
    scans, _, forces = load_campaign(campaign_dir)
    assert [c.applied_voltage == 0.0 for c in scans] == [False] * 6
    assert len(list(forces)) == 2
    table = forcecurve.read_csv(analysis_dir / "mean_curve.csv", 3, 1, (MEAN_CURVE_COLUMNS,))
    assert table.line[0] == 4 and table.columns.shape == (3, 120)  # grid_points


@pytest.mark.parametrize("line", ["grid_lo_nm=25", "grid_hi_nm=1100"])
def test_a_grid_read_beyond_45_to_1250_nm_runs_the_loop(runner, tmp_path, line):
    # the z0 fit reads the theory from 25 + 1 + cap = 41.8 nm, or up to
    # 1100 + 200 + cap = 1315.8 nm
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_scans=2\ngrid_points=120\n{line}\n")
    run_chain(runner, cfg, tmp_path)
    out = tmp_path / "compare.json"
    curve = tmp_path / "analysis" / "mean_curve.csv"
    result = runner.invoke(main, ["compare", "--curve", str(curve), "--config", str(cfg),
                                  "--emit-curve", "--out", str(out)])
    assert result.exit_code == 0, result.output
    for path in (tmp_path / "analysis" / "results.json", out):
        doc = json.loads(path.read_text())
        assert all(math.isfinite(v) for v in doc.values() if isinstance(v, float))
    for path, header in ((tmp_path / "analysis" / "mean_curve.csv", MEAN_CURVE_COLUMNS),
                         (out.with_suffix(".curve.csv"),
                          ("separation_nm", "force_exp_pn", "force_theory_pn"))):
        assert np.isfinite(read_csv(path, 3, 1, (header,)).columns).all()


def test_synth_and_analyze_build_the_same_cache(runner, tmp_path, monkeypatch):
    # synth derives analyze's span from the grid it writes, analyze from the
    # scans it reads back: at the default grid the two caches are bitwise equal
    from casimirlab import assemble
    built, theory_curve = [], assemble.theory_curve

    def recorded(cfg, span_nm, *args):
        built.append(theory_curve(cfg, span_nm, *args))
        return built[-1]

    monkeypatch.setattr(assemble, "theory_curve", recorded)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theory_cache_points=8\nn_scans=2\n")
    run_chain(runner, cfg, tmp_path)
    synth_cache, analyze_cache = built
    assert (synth_cache.z_min, synth_cache.z_max) == pytest.approx((46.8e-9, 1135.8e-9),
                                                                   rel=1e-15)
    assert (analyze_cache.z_min, analyze_cache.z_max) == (synth_cache.z_min, synth_cache.z_max)
    assert analyze_cache._coef.tobytes() == synth_cache._coef.tobytes()


def test_analyze_on_one_voltage_scan_takes_its_fit(runner, workdir, campaign_dir,
                                                    tmp_path):
    # with one z0 fit there is no scatter over voltages: z0 carries the fit's sigma
    scans = copy_campaign(campaign_dir, tmp_path)
    for j in range(1, len(DEFAULT_CAL_VOLTAGES)):
        (scans / f"cal_{j:02d}.csv").unlink()
    out = tmp_path / "analysis"
    result = runner.invoke(main, ["analyze", "--config", str(workdir / "run.cfg"),
                                  "--scans", str(scans), "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "results.json").read_text())
    [fit] = doc["z0_fits"]
    assert fit["voltage_v"] == DEFAULT_CAL_VOLTAGES[0]
    assert (doc["z0_nm"], doc["z0_sigma_nm"]) == (fit["z0_nm"], fit["z0_sigma_nm"])
    assert doc["z0_rms_over_voltages_nm"] == 0.0


def run_chain(runner, cfg, out):
    """synth then analyze on cfg, into out/campaign and out/analysis."""
    for args in (["synth", "--out", str(out / "campaign")],
                 ["analyze", "--scans", str(out / "campaign"), "--out", str(out / "analysis")]):
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 0, result.output


def test_a_split_run_writes_the_bytes_of_an_inline_one(runner, workdir, tmp_path,
                                                       monkeypatch, split):
    run_chain(runner, workdir / "run.cfg", tmp_path / "split")
    monkeypatch.undo()
    run_chain(runner, workdir / "run.cfg", tmp_path / "inline")
    files = sorted(p.relative_to(tmp_path / "inline")
                   for p in (tmp_path / "inline").rglob("*") if p.is_file())
    assert len(files) == 2 + 6 + 2 + 2   # scans, truth and manifest, analysis
    assert sorted(p.relative_to(tmp_path / "split")
                  for p in (tmp_path / "split").rglob("*") if p.is_file()) == files
    for name in files:
        assert (tmp_path / "split" / name).read_bytes() == \
            (tmp_path / "inline" / name).read_bytes(), name


ANALYZE_IN_A_FRESH_PROCESS = """
import os, sys
from casimirlab import synth
from casimirlab.cli import main
if {split}:
    synth.SPLIT_MIN_ROWS = 1
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
try:
    main(["analyze", "--scans", {scans!r}, "--config", {cfg!r}, "--out", {out!r}])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child process is left", file=sys.stderr)
    except ChildProcessError:
        pass
    print(f"forked={{bool(forks)}}", file=sys.stderr)
"""


@pytest.mark.parametrize("bad", [("scan_002", "scan_003"), ("scan_001", "scan_004")])
def test_a_split_analyze_names_the_first_bad_file(runner, workdir, tmp_path, bad):
    # one bad file in each process's share: with two processes, after scan_000
    # the command reads scan_001, scan_003, ... and the worker scan_002, scan_004, ...
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one allowed CPU: a campaign is never split")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CONFIG.replace("n_scans=2", "n_scans=6"))
    scans = tmp_path / "campaign"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(scans)])
    assert result.exit_code == 0, result.output
    for name in bad:
        lines = (scans / f"{name}.csv").read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",inf"
        (scans / f"{name}.csv").write_text("\n".join(lines) + "\n")
    runs = {}
    for split in (False, True):
        out = tmp_path / f"analysis{split}"
        runs[split] = run_fresh(ANALYZE_IN_A_FRESH_PROCESS.format(
            split=split, scans=str(scans), cfg=str(cfg), out=str(out)), os.environ)
        assert runs[split].returncode == 2, runs[split].stderr
        assert f"forked={split}" in runs[split].stderr
        assert not out.exists()
    assert runs[True].stderr.replace("forked=True", "forked=False") == runs[False].stderr
    assert (f"error: {scans / (bad[0] + '.csv')}: non-finite value at line 5"
            in runs[True].stderr)
    assert "child process" not in runs[True].stderr
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def around_or_anywhere(lo, hi, **bounds):
    """Finite floats in [lo, hi] half the time, else anywhere within ``bounds``."""
    return st.floats(lo, hi) | st.floats(allow_nan=False, allow_infinity=False, **bounds)


# grid ends around the default grid, where the z0 fits run; the comparison
# window, roughness amplitude and coefficients, temperature, sphere radius,
# Drude energies, quadrature tolerance, residual potential, cap offset,
# calibration, drift and the noise level around their defaults or
# anywhere in their ranges; the cache nodes, window points and scans within
# cost bounds. The theory cache's span depends on the grid, the cap, the
# window and, through the series regime, the roughness amplitude.
CONFIG_KEY_DRAWS = {
    "grid_lo_nm": st.floats(-60.0, 120.0), "grid_hi_nm": st.floats(100.0, 1300.0),
    "grid_points": st.integers(10, 600), "z0_true_nm": st.floats(Z0_LOWEST_NM, Z0_HIGHEST_NM),
    "seed": st.integers(0, 2**32 - 1),
    "sphere_radius_um": around_or_anywhere(10.0, 1000.0, min_value=0.0, max_value=1e6,
                                           exclude_min=True),
    "drude_wp_ev": around_or_anywhere(5.0, 20.0, min_value=1.0, max_value=1e6),
    "drude_gamma_ev": around_or_anywhere(0.0, 0.2, min_value=0.0, max_value=10.0),
    "roughness_c2": around_or_anywhere(0.0, 3.0),
    "roughness_c3": around_or_anywhere(0.0, 3.0),
    "roughness_c4": around_or_anywhere(0.0, 3.0),
    # the range table's floor, 1e-8, is met by the quadrature's largest order
    "rel_tol": around_or_anywhere(1e-6, 1e-2, min_value=1e-8, max_value=1e-2),
    "theory_cache_points": st.integers(2, 40),
    "v2_residual_mv": around_or_anywhere(-100.0, 100.0),
    "spring_constant_n_per_m": around_or_anywhere(0.01, 0.03, min_value=0.0,
                                                  exclude_min=True),
    "deflection_sensitivity_nm": around_or_anywhere(0.5, 2.0, min_value=0.0,
                                                    exclude_min=True),
    "cap_offset_nm": around_or_anywhere(0.0, 40.0, min_value=0.0),
    "window_lo_nm": around_or_anywhere(50.0, 200.0),
    "window_hi_nm": around_or_anywhere(300.0, 1200.0),
    "roughness_amplitude_nm": around_or_anywhere(0.0, 20.0, min_value=0.0),
    "temperature_k": around_or_anywhere(0.0, 400.0, min_value=0.0),
    "noise_pn": around_or_anywhere(0.0, 20.0, min_value=0.0),
    "n_scans": st.integers(1, 4),
    "c_true_pn_per_nm": around_or_anywhere(-0.01, 0.01),
}


def window_in_order(values):
    """``values`` with the window's two ends in increasing order: a pair the range
    table accepts is kept as drawn, and a reversed pair becomes one it accepts."""
    lo, hi = sorted((values["window_lo_nm"], values["window_hi_nm"]))
    return dict(values, window_lo_nm=lo, window_hi_nm=hi)


def config_keys_at(**changes):
    """An explicit example: the drawn keys at their defaults, 120 grid points,
    2 scans and seed 5, with ``changes``."""
    values = {key: getattr(RunConfig(), key) for key in CONFIG_KEY_DRAWS}
    values.update({"grid_points": 120, "n_scans": 2, "seed": 5, **changes})
    return example(values=values)


@settings(max_examples=40, deadline=None)
# noise that overflows the scan (synth exits 2), noise that overflows the
# fits (analyze exits 4), and the least noise there is (exit 0)
@config_keys_at(noise_pn=1e308)
@config_keys_at(noise_pn=1e300)
@config_keys_at(noise_pn=5e-324)
@config_keys_at(v2_residual_mv=1e160)
@config_keys_at(grid_lo_nm=20.0)
@config_keys_at(grid_lo_nm=0.0, grid_hi_nm=100.0, grid_points=10,
                z0_true_nm=Z0_LOWEST_NM, seed=0, sphere_radius_um=10.0,
                v2_residual_mv=0.0, cap_offset_nm=0.0, window_lo_nm=50.0,
                window_hi_nm=300.0, roughness_amplitude_nm=0.0)
# a temperature whose eta overflows at the separations the cap offset reaches
@config_keys_at(grid_lo_nm=0.0, grid_hi_nm=100.0, grid_points=10,
                z0_true_nm=Z0_LOWEST_NM, seed=0,
                sphere_radius_um=10.0, v2_residual_mv=0.0,
                cap_offset_nm=5.159582356334435e+16, window_lo_nm=50.0,
                window_hi_nm=300.0, roughness_amplitude_nm=0.0,
                temperature_k=7.978377701977232e+297)
# a smooth surface at 0 K, the corrections' physical zeros, at the default grid
@config_keys_at(roughness_amplitude_nm=0.0, temperature_k=0.0)
# the largest Drude energies the range table accepts
@config_keys_at(drude_wp_ev=1e6, drude_gamma_ev=10.0)
@given(values=st.fixed_dictionaries(CONFIG_KEY_DRAWS).map(window_in_order))
def test_synth_analyze_over_the_config_keys_ends_in_a_documented_exit(values):
    # every config the range table passes must reach exit 0 with finite
    # results, or 2, 3 or 4 with a message; no command reads the theory
    # outside the cache it built
    try:
        RunConfig(**values)
    except ValueError:   # outside a range rule
        assume(False)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        cfg = ["--config", str(tmp / "run.cfg")]
        result = runner.invoke(main, ["synth", *cfg, "--out", str(tmp / "campaign")])
        if result.exit_code == 0:
            result = runner.invoke(main, ["analyze", *cfg, "--scans", str(tmp / "campaign"),
                                          "--out", str(tmp / "analysis")])
        assert result.exit_code in (0, 2, 3, 4), result.output
        assert "Traceback" not in result.output and "RuntimeWarning" not in result.output
        assert "outside the cached theory range" not in result.output
        if result.exit_code:
            assert result.output.startswith("error: "), result.output
            return
        results = json.loads((tmp / "analysis" / "results.json").read_text())
        assert all(math.isfinite(v) for v in results.values() if isinstance(v, float))
        curve = read_csv(tmp / "analysis" / "mean_curve.csv", 3, 1, (MEAN_CURVE_COLUMNS,))
        assert np.isfinite(curve.columns).all()


@settings(max_examples=40, deadline=None)
# a gamma no xi is near (the Drude segment's degenerate branch divides by
# gamma^3), the plasma limit at the tolerance floor, and an xi grid from
# below the representable range
@example(values={"drude_wp_ev": 12.398, "drude_gamma_ev": 1e-300, "rel_tol": 1e-4},
         xi_ev=[0.01, 100.0])
@example(values={"drude_wp_ev": 12.398, "drude_gamma_ev": 0.0, "rel_tol": 1e-8},
         xi_ev=[1e-300, 1.0])
@given(values=st.fixed_dictionaries({key: CONFIG_KEY_DRAWS[key] for key in (
           "drude_wp_ev", "drude_gamma_ev", "rel_tol")}),
       xi_ev=st.lists(around_or_anywhere(1e-3, 1e3), min_size=2, max_size=2,
                      unique=True).map(sorted))
def test_theory_and_epsilon_over_the_dielectric_keys_end_in_a_documented_exit(values, xi_ev):
    # with the packaged table, every Drude pair and tolerance the range table
    # passes and every xi grid --xi-ev parses reach exit 0, or 2 or 3 with a
    # message on stderr
    try:
        RunConfig(**values)
    except ValueError:   # outside a range rule
        assume(False)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("theory_cache_points=4\n" + "".join(
            f"{k}={v!r}\n" for k, v in values.items()))
        for args in (["theory", "--z", "100:500:5"],
                     ["epsilon", "--xi-ev", f"{xi_ev[0]!r}:{xi_ev[1]!r}:5"]):
            result = runner.invoke(main, [*args, "--material", TABLE, "--config",
                                          str(tmp / "run.cfg"), "--out", str(tmp / "out.csv")])
            assert result.exit_code in (0, 2, 3), (args[0], result.output)
            assert "Traceback" not in result.output and "RuntimeWarning" not in result.output
            if result.exit_code:
                assert result.stderr.startswith("error: "), (args[0], result.output)


# smoke size, as perfbench's smoke config
SMOKE_KEYS = {"n_scans": 2, "grid_points": 120, "theory_cache_points": 8}
NEAR_DEFAULT_KEYS = [f.name for f in fields(RunConfig) if type(f.default) in (int, float)
                     and f.name not in (*SMOKE_KEYS, "seed")]


def near_default(key):
    """Values of key within +-20% of its default."""
    default = getattr(RunConfig(), key)
    if isinstance(default, int):
        return st.integers(math.ceil(0.8 * default), math.floor(1.2 * default))
    return st.floats(0.8 * default, 1.2 * default)


def finite_floats(value):
    """Every float in a JSON document is finite."""
    if isinstance(value, dict):
        return all(finite_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_floats(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=30, deadline=None)
@given(values=st.fixed_dictionaries({key: near_default(key) for key in NEAR_DEFAULT_KEYS}),
       seed=st.integers(0, 2**32 - 1))
def test_synth_analyze_compare_around_the_defaults_ends_in_finite_results(values, seed):
    # every numeric key within +-20% of its default runs the loop to exit 0
    # with finite outputs, where the loop is defined: the comparison window
    # inside the mean curve (grid + z0 + cap, 1 nm to spare for the fitted
    # z0) and the roughness series inside its regime at the closest
    # separation the z0 fit reads (grid_lo_nm + 1 nm + cap). Elsewhere the
    # property above checks the documented exit 2 naming the cause.
    values = dict(values, seed=seed, **SMOKE_KEYS)
    offset = values["z0_true_nm"] + values["cap_offset_nm"]
    assume(values["grid_lo_nm"] + offset + 1 <= values["window_lo_nm"])
    assume(values["window_hi_nm"] <= values["grid_hi_nm"] + offset - 1)
    closest = values["grid_lo_nm"] + Z0_BRACKET_NM[0] + values["cap_offset_nm"]
    assume(values["roughness_amplitude_nm"] < ROUGHNESS_SERIES_MAX_RATIO * closest)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        cfg = ["--config", str(tmp / "run.cfg")]
        curve = tmp / "analysis" / "mean_curve.csv"
        for args in (["synth", "--out", str(tmp / "campaign")],
                     ["analyze", "--scans", str(tmp / "campaign"),
                      "--out", str(tmp / "analysis")],
                     ["compare", "--curve", str(curve), "--out", str(tmp / "compare.json")]):
            result = runner.invoke(main, [*args, *cfg])
            assert result.exit_code == 0, (args[0], result.output)
            assert "RuntimeWarning" not in result.output
        for doc in ("analysis/results.json", "compare.json"):
            assert finite_floats(json.loads((tmp / doc).read_text())), doc
        assert np.isfinite(read_csv(curve, 3, 1, (MEAN_CURVE_COLUMNS,)).columns).all()


@st.composite
def runnable_wide_values(draw):
    """Config values on which synth -> analyze is defined, at smoke size.

    The grid and window ends, the cap offset, the sphere radius and the
    residual potential lie within +-20% of their defaults. The roughness
    amplitude and the temperature lie inside their series regimes (A/z < 0.3,
    eta < 0.5) over the span the commands read the theory on, with 1% to
    spare. The noise, the drift, the seed and z0 are wide.
    """
    values = {key: draw(near_default(key)) for key in (
        "grid_lo_nm", "grid_hi_nm", "window_lo_nm", "window_hi_nm", "cap_offset_nm",
        "sphere_radius_um", "v2_residual_mv")}
    values.update(SMOKE_KEYS)
    # the mean curve starts at grid_lo + z0 + cap, with z0 as fitted, and
    # must cover the window: 2 nm is 8 times the fit's rms error at 100 pN of
    # noise. From the lowest z0 the range table accepts.
    values["z0_true_nm"] = draw(st.floats(Z0_LOWEST_NM, values["window_lo_nm"]
                                          - values["grid_lo_nm"] - values["cap_offset_nm"] - 2.0))
    lo_nm, hi_nm = campaign_span_nm(RunConfig(**values))
    values["roughness_amplitude_nm"] = draw(
        st.floats(0.0, 0.99 * ROUGHNESS_SERIES_MAX_RATIO * lo_nm))
    values["temperature_k"] = draw(
        st.floats(0.0, 0.99 * 0.5 / TemperatureParams(1.0).eta(hi_nm * 1e-9)))
    # the drift fit removes the drift, whose force keeps 9 digits in a scan file
    values.update(noise_pn=draw(st.floats(0.0, 100.0)),
                  c_true_pn_per_nm=draw(st.floats(-1e100, 1e100)),
                  seed=draw(st.integers(0, 2**32 - 1)))
    return values


@settings(max_examples=30, deadline=None)
@given(values=runnable_wide_values())
def test_synth_analyze_over_the_wide_keys_runs_to_finite_results(values):
    # the runnable side of the config-key property above, whose wide draws
    # end mostly in a refusal: where the loop is defined it exits 0, with
    # finite outputs and no warning
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text("".join(f"{k}={v!r}\n" for k, v in values.items()))
        cfg = ["--config", str(tmp / "run.cfg")]
        for args in (["synth", "--out", str(tmp / "campaign")],
                     ["analyze", "--scans", str(tmp / "campaign"),
                      "--out", str(tmp / "analysis")]):
            result = runner.invoke(main, [*args, *cfg])
            assert result.exit_code == 0, (args[0], result.output)
            assert "Warning" not in result.output, (args[0], result.output)
        assert finite_floats(json.loads((tmp / "analysis" / "results.json").read_text()))
        curve = read_csv(tmp / "analysis" / "mean_curve.csv", 3, 1, (MEAN_CURVE_COLUMNS,))
        assert np.isfinite(curve.columns).all()
