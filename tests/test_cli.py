import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import casimirlab
from casimirlab import __version__
from casimirlab.cli import MEAN_CURVE_COLUMNS, csv_text, main, parse_grid
from casimirlab.config import RunConfig, parse_config
from casimirlab.errors import ParseError

FAST_CONFIG = """\
theory_cache_points=40
n_scans=2
grid_points=120
seed=11
"""


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "run.cfg").write_text(FAST_CONFIG)
    return d


@pytest.fixture(scope="module")
def campaign_dir(runner, workdir):
    out = workdir / "campaign"
    result = runner.invoke(main, ["synth", "--config", str(workdir / "run.cfg"),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def analysis_dir(runner, workdir, campaign_dir):
    out = workdir / "analysis"
    result = runner.invoke(main, ["analyze", "--config", str(workdir / "run.cfg"),
                                  "--scans", str(campaign_dir),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


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


def test_parse_grid():
    np.testing.assert_allclose(parse_grid("1:3:3"), [1.0, 2.0, 3.0])
    for bad in ("1:3", "3:1:5", "a:b:c", "1:3:1"):
        with pytest.raises(ParseError):
            parse_grid(bad)


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


@pytest.mark.parametrize("voltage", ["nan", "inf", "-inf"])
def test_electro_rejects_non_finite_voltage(runner, tmp_path, voltage):
    out = tmp_path / "electro.csv"
    result = runner.invoke(main, ["electro", "--voltage", voltage, "--out", str(out)])
    assert result.exit_code == 2
    assert "--voltage" in result.output
    assert not out.exists()


def test_csv_text_refuses_non_finite_cells():
    assert csv_text(RunConfig(), ["a", "b"], ([1.0], [2.0])).endswith("a,b\n1,2\n")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            csv_text(RunConfig(), ["a", "b"], ([1.0, 2.0], [3.0, bad]))


@pytest.mark.parametrize("spec", ["-10:500:5", "0:500:5"])
def test_theory_rejects_non_positive_separation(runner, tmp_path, spec):
    # refused before any log of the separation: no RuntimeWarning on the way
    out = tmp_path / "theory.csv"
    result = runner.invoke(main, ["theory", "--z", spec, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert re.search(r"separation \S+ nm must be > 0", result.output)
    assert "RuntimeWarning" not in result.output
    assert not out.exists()


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
    assert doc["n_points"] == 441
    assert set(doc["variants"]) == {"shift_minus_3nm", "shift_plus_3nm",
                                    "opaque_cap"}
    mean = (analysis_dir / "mean_curve.csv").read_text().splitlines()
    assert any(line.startswith("separation_nm,force_pn,std_pn") for line in mean)


def test_compare_command(runner, workdir, analysis_dir):
    out = workdir / "compare.json"
    result = runner.invoke(main, ["compare",
                                  "--curve", str(analysis_dir / "mean_curve.csv"),
                                  "--config", str(workdir / "run.cfg"),
                                  "--n-scans", "2", "--emit-curve",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["sigma_rms_pn"] > 0
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


@pytest.mark.parametrize("n_scans", ["0", "-3"])
def test_compare_rejects_non_positive_n_scans(runner, workdir, analysis_dir, tmp_path,
                                              n_scans):
    out = tmp_path / "compare.json"
    result = runner.invoke(main, ["compare",
                                  "--curve", str(analysis_dir / "mean_curve.csv"),
                                  "--config", str(workdir / "run.cfg"),
                                  "--n-scans", n_scans, "--out", str(out)])
    assert result.exit_code == 2
    assert "--n-scans" in result.output
    assert not out.exists()


def test_compare_needs_the_cache_only_around_the_window(runner, campaign_results,
                                                       tmp_path):
    # a default-config mean curve reaches ~985 nm; the window ends at 500 nm
    _, mean_curve, std = campaign_results
    curve = tmp_path / "mean_curve.csv"
    curve.write_text(csv_text(RunConfig(), MEAN_CURVE_COLUMNS,
                              (mean_curve.piezo_nm, mean_curve.force_pn, std)))

    def compare(hi, *flags):
        cfg = tmp_path / f"hi{hi}.cfg"
        cfg.write_text(f"theory_cache_hi_nm={hi}\n")
        out = tmp_path / f"compare{hi}{''.join(flags)}.json"
        result = runner.invoke(main, ["compare", "--curve", str(curve),
                                      "--config", str(cfg), "--out", str(out), *flags])
        return result, out

    sigma = []
    for hi in (1250, 600):
        result, out = compare(hi)
        assert result.exit_code == 0, result.output
        sigma.append(json.loads(out.read_text())["sigma_rms_pn"])
    assert sigma[1] == pytest.approx(sigma[0], rel=1e-6)
    result, _ = compare(400)   # the window itself leaves the cache
    assert result.exit_code == 2
    assert "nm outside the cached theory range" in result.output
    assert "theory_cache_hi_nm" in result.output
    # the emitted curve needs the whole mean curve, beyond 600 nm: exit 2,
    # naming the separation, before anything is written
    result, out = compare(600, "--emit-curve")
    assert result.exit_code == 2
    named = re.search(r"separation ([0-9.]+) nm outside the cached theory range",
                      result.output)
    assert named and float(named.group(1)) > 600, result.output
    assert not out.exists()
    assert not out.with_suffix(".curve.csv").exists()


def test_commands_import_no_scipy(workdir, campaign_dir, tmp_path):
    # numpy is the package's only numerical library: a fresh process that runs
    # theory and fit-z0 (cache build plus z0 fit) never loads scipy
    script = f"""
import sys
from casimirlab.cli import main
main(["theory", "--z", "100:500:5", "--out", {str(tmp_path / "t.csv")!r}],
     standalone_mode=False)
main(["fit-z0", "--scan", {str(campaign_dir / "cal_00.csv")!r},
      "--config", {str(workdir / "run.cfg")!r}, "--out", {str(tmp_path / "z.json")!r}],
     standalone_mode=False)
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    proc = run_fresh(script, os.environ)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "z.json").exists()
    assert proc.stdout.strip() == ""


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


def test_calibrate_k_command(runner, workdir, tmp_path_factory):
    from casimirlab.assemble import electrostatic_config
    from casimirlab.config import RunConfig
    from casimirlab.forcecurve import save_scan
    from casimirlab.synth import generate_stiffness_scans

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


def test_exit_code_input_errors(runner, workdir, tmp_path):
    result = runner.invoke(main, ["epsilon", "--xi-ev", "nope",
                                  "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,scan\n")
    result = runner.invoke(main, ["fit-z0", "--scan", str(bad),
                                  "--out", str(tmp_path / "y.json")])
    assert result.exit_code == 2


def assert_config_line_exits_2(runner, tmp_path, line, key):
    """`electro` with ``line`` on line 2 of its config exits 2 naming key and line."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed=1\n{line}\n")
    out = tmp_path / "e.csv"
    result = runner.invoke(main, ["electro", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, line
    assert f"bad value for '{key}'" in result.output
    assert "at line 2" in result.output
    assert not out.exists()


def test_config_out_of_range_exits_2(runner, tmp_path):
    for line in ("sphere_radius_um=nan", "v2_residual_mv=inf", "noise_pn=-1",
                 "n_scans=0", "grid_points=9", "grid_hi_nm=20", "grid_lo_nm=-60"):
        assert_config_line_exits_2(runner, tmp_path, line, line.partition("=")[0])


@pytest.mark.parametrize("line,key", [
    ("theory_cache_points=1", "theory_cache_points"),
    ("window_points=9", "window_points"),
    ("pooled_noise_pn=0", "pooled_noise_pn"),
    ("spring_constant_n_per_m=0", "spring_constant_n_per_m"),
    ("deflection_sensitivity_nm=0", "deflection_sensitivity_nm"),
    ("table_refine=0", "table_refine"),
    ("rel_tol=0", "rel_tol"),
    ("rel_tol=0.02", "rel_tol"),
    ("sphere_radius_um=-5", "sphere_radius_um"),
    ("xi_cut_multiplier=5", "xi_cut_multiplier"),
    ("xi_cut_multiplier=60", "xi_cut_multiplier"),
    ("temperature_k=-1", "temperature_k"),
    ("roughness_amplitude_nm=-1", "roughness_amplitude_nm"),
    ("drude_wp_ev=0", "drude_wp_ev"),
    ("drude_gamma_ev=-0.01", "drude_gamma_ev"),
    ("theory_cache_lo_nm=0", "theory_cache_lo_nm"),
    ("theory_cache_lo_nm=2000", "theory_cache_hi_nm"),
    ("window_hi_nm=50", "window_hi_nm"),
    ("seed=-1", "seed"),
    ("z0_true_nm=250", "z0_true_nm"),
])
def test_config_range_entry_exits_2(runner, tmp_path, line, key):
    assert_config_line_exits_2(runner, tmp_path, line, key)


def test_exit_code_fit_failure(runner, workdir, tmp_path):
    lines = ["# scan_id=flat", "# applied_voltage_v=0.31", "piezo_nm,force_pn"]
    lines += [f"{z},0" for z in np.linspace(30.0, 920.0, 60)]
    scan = tmp_path / "flat.csv"
    scan.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["fit-z0", "--scan", str(scan),
                                  "--config", str(workdir / "run.cfg"),
                                  "--out", str(tmp_path / "z.json")])
    assert result.exit_code == 4


def test_analyze_rejects_non_finite_scan(runner, workdir, campaign_dir, tmp_path):
    scans = tmp_path / "campaign"
    scans.mkdir()
    for path in campaign_dir.glob("*.csv"):
        (scans / path.name).write_text(path.read_text())
    lines = (scans / "scan_000.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("piezo_nm")) + 2
    lines[row] = lines[row].split(",")[0] + ",nan"
    (scans / "scan_000.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "analysis"
    result = runner.invoke(main, ["analyze", "--config", str(workdir / "run.cfg"),
                                  "--scans", str(scans), "--out", str(out)])
    assert result.exit_code == 2
    assert f"non-finite value at line {row + 1}" in result.output
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("lineno,bad", [
    (3, "separation_nm,force_pn,sigma_pn"),
    (5, "100.5,-160.2"),
    (5, "100.5,-160.2,abc"),
])
def test_compare_rejects_bad_mean_curve(runner, workdir, analysis_dir, tmp_path,
                                        lineno, bad):
    lines = (analysis_dir / "mean_curve.csv").read_text().splitlines()
    assert lines[2] == "separation_nm,force_pn,std_pn"
    lines[lineno - 1] = bad
    curve = tmp_path / "mean_curve.csv"
    curve.write_text("\n".join(lines) + "\n")
    out = tmp_path / "compare.json"
    result = runner.invoke(main, ["compare", "--curve", str(curve),
                                  "--config", str(workdir / "run.cfg"),
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert f"at line {lineno}" in result.output
    assert not out.exists()


def test_package_written_csv_takes_the_bulk_path(monkeypatch, campaign_dir, analysis_dir):
    # the line-by-line reader is only for bodies numpy refuses in one call
    from casimirlab import forcecurve
    from casimirlab.synth import load_campaign

    def refuse(*args):
        raise AssertionError("package-written CSV read line by line")

    monkeypatch.setattr(forcecurve, "_read_body_by_line", refuse)
    grounded, voltage_scans, _, _ = load_campaign(campaign_dir)
    assert len(grounded) == 2 and len(voltage_scans) == 6
    table = forcecurve._read_csv(analysis_dir / "mean_curve.csv", 3, (MEAN_CURVE_COLUMNS,))
    assert table.line[0] == 4 and table.columns.shape == (3, 120)  # grid_points


# the overflowing sums warn in numpy before the output check names the key
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_analyze_names_a_non_finite_result(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c_true_pn_per_nm=1e300\nn_scans=3\ngrid_points=120\n")
    campaign, out = tmp_path / "campaign", tmp_path / "analysis"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(campaign)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["analyze", "--config", str(cfg),
                                  "--scans", str(campaign), "--out", str(out)])
    assert result.exit_code == 2
    assert "non-finite value at 'sigma_rms_pn'" in result.output
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("command", ["fit-z0", "analyze"])
def test_z0_fit_names_an_overflowing_chi2(runner, workdir, campaign_dir, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CONFIG + "pooled_noise_pn=1e-300\n")
    args = (["fit-z0", "--scan", str(campaign_dir / "cal_00.csv"),
             "--out", str(tmp_path / "z.json")] if command == "fit-z0" else
            ["analyze", "--scans", str(campaign_dir), "--out", str(tmp_path / "analysis")])
    result = runner.invoke(main, [*args, "--config", str(cfg)])
    assert result.exit_code == 4
    assert "non-finite chi2" in result.output and "pooled_noise_pn" in result.output
    assert not any(p.suffix == ".json" for p in tmp_path.rglob("*"))
