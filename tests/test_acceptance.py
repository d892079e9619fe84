"""Acceptance gate: one test per criterion, each emitting a pass/fail line
in the terminal summary.

Criterion 1's constant-permittivity clause is asserted exactly as stated;
the eps = 1e6 force converges to 98.6% of the perfect-conductor value (the
TE reflection deficit decays only like ln(eps)/sqrt(eps)), so that check
fails honestly at ~1.4% against the 1% tolerance.
"""

import importlib.resources
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import conftest
from casimirlab import assemble
from casimirlab.cli import main
from casimirlab.corrections import (corrected_force, roughness_factor,
                                    temperature_factor)
from casimirlab.electrostatics import (sphere_plane_force_exact,
                                       sphere_plane_force_pfa)
from casimirlab.lifshitz import casimir_force_sphere_plate
from oracles import (ConstantModel, ideal_casimir_sphere_plate,
                     roughness_factor_from_distribution)

Z_SET = (100e-9, 200e-9, 300e-9, 500e-9)


def check(num, desc, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc} [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_ideal_limit_oracle(drude_params):
    geom, q = drude_params.geom, drude_params.quad
    closed = ideal_casimir_sphere_plate(100e-9, geom)
    closed_ok = abs(closed * 1e12 + 274.6) <= 0.001 * 274.6
    model = ConstantModel(1e6)
    devs = [abs(casimir_force_sphere_plate(z, geom, model, q)
                / ideal_casimir_sphere_plate(z, geom) - 1.0) for z in Z_SET]
    ok = closed_ok and max(devs) <= 0.01
    check(1, "ideal-limit oracle (eps=1e6 within 1%, closed form -274.6 pN)",
          ok, f"closed={closed * 1e12:.4g} pN, max deviation={max(devs):.3%}")


def test_criterion_02_vacuum_null(drude_params):
    model = ConstantModel(1.0)
    worst = max(abs(casimir_force_sphere_plate(z, drude_params.geom, model,
                                               drude_params.quad)) for z in Z_SET)
    check(2, "vacuum null (eps=1 gives |F| < 1e-15 N)", worst < 1e-15,
          f"max |F|={worst:.3g} N")


def test_criterion_03_full_theory_bracket(drude_params):
    f_pn = corrected_force(100e-9, drude_params) * 1e12
    check(3, "full Al theory at 100 nm in [-185, -140] pN",
          -185.0 <= f_pn <= -140.0, f"F={f_pn:.4g} pN")


def test_criterion_04_representation_spread(default_cfg, drude_params):
    path = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    if not path.is_file():
        conftest.ACCEPTANCE_LINES.append(
            "criterion 04: SKIP - no tabulated Al dataset provided")
        pytest.skip("no tabulated Al dataset provided")
    tab = assemble.dielectric_model(default_cfg, material_csv=str(path))
    geom, drude, q = drude_params.geom, drude_params.model, drude_params.quad
    spread = max(
        abs(casimir_force_sphere_plate(z, geom, tab, q)
            / casimir_force_sphere_plate(z, geom, drude, q) - 1.0)
        for z in np.linspace(100e-9, 500e-9, 5))
    check(4, "Drude vs tabulated forces within 5% over 100-500 nm",
          spread <= 0.05, f"max spread={spread:.3%}")


def test_criterion_05_temperature_bound(drude_params):
    temp = drude_params.temp   # 300 K
    worst = max(temperature_factor(z, temp) - 1.0
                for z in np.linspace(60e-9, 500e-9, 45))
    at_100 = temperature_factor(100e-9, temp) - 1.0
    ok = worst < 0.01 and abs(at_100 / 3.09e-5 - 1.0) <= 0.05
    check(5, "temperature correction < 1% up to 500 nm, 3.09e-5 at 100 nm",
          ok, f"max={worst:.3g}, at 100 nm={at_100:.4g}")


def test_criterion_06_roughness_consistency(drude_params):
    excess = roughness_factor(100e-9, drude_params.rough) - 1.0
    ok = excess <= 0.015
    worst = 0.0
    for ratio in (0.05, 0.10, 0.15):
        z = 100e-9
        a = ratio * z
        oracle = roughness_factor_from_distribution(
            z, ((a, 0.5), (-a, 0.5)), ((0.0, 1.0),))
        expansion = 1.0 + 6.0 * ratio**2 + 15.0 * ratio**4
        omitted = 28.0 * ratio**6
        worst = max(worst, abs(oracle - expansion) / omitted)
        ok = ok and abs(oracle - expansion) <= 1.05 * omitted
    check(6, "roughness factor <= 1.5% at 100 nm; distribution oracle",
          ok, f"excess={excess:.4%}, oracle gap / omitted term={worst:.2f}")


def test_criterion_07_electrostatic_pfa_convergence(e_cfg):
    devs = {}
    for z in (100e-9, 500e-9):
        ratio = (sphere_plane_force_exact(z, e_cfg, 0.31)
                 / sphere_plane_force_pfa(z, e_cfg, 0.31))
        devs[z] = abs(ratio - 1.0)
    ok = devs[100e-9] <= 0.01 and devs[500e-9] <= 0.03
    check(7, "exact/pfa within 1% at 100 nm and 3% at 500 nm", ok,
          f"100 nm: {devs[100e-9]:.3%}, 500 nm: {devs[500e-9]:.3%}")


def test_criterion_08_end_to_end_statistics(campaign_results, default_cfg):
    results, _ = campaign_results
    dz = abs(results["z0_nm"] - default_cfg.z0_true_nm)
    chi2 = results["reduced_chi2"]
    srms = results["sigma_rms_pn"]
    ok = dz <= 1.5 and 0.7 <= chi2 <= 1.3 and 1.0 <= srms <= 1.8
    check(8, "synthetic campaign: z0 +-1.5 nm, chi2 in [0.7,1.3], "
             "sigma_rms in [1.0,1.8] pN", ok,
          f"dz0={dz:.3g} nm, chi2={chi2:.3g}, sigma_rms={srms:.3g} pN")


def test_criterion_09_sensitivity_monotonicity(campaign_results):
    results, _ = campaign_results
    base = results["sigma_rms_pn"]
    v = results["variants"]
    ok = (v["shift_minus_3nm"] >= 1.2 * base
          and v["shift_plus_3nm"] >= 1.2 * base
          and v["opaque_cap"] >= 3.0 * base)
    check(9, "+-3 nm shifts raise sigma_rms >= 20%, opaque cap >= 3x", ok,
          f"base={base:.3g}, -3nm={v['shift_minus_3nm']:.3g}, "
          f"+3nm={v['shift_plus_3nm']:.3g}, opaque={v['opaque_cap']:.3g} pN")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("theory_cache_points=40\nn_scans=2\ngrid_points=120\n"
                        "seed=11\n")
    runner = CliRunner()
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        result = runner.invoke(main, ["synth", "--config", str(cfg_path),
                                      "--out", str(d)])
        assert result.exit_code == 0, result.output
    names = sorted(p.name for p in dirs[0].iterdir())
    same = names == sorted(p.name for p in dirs[1].iterdir()) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for d in outs:
        result = runner.invoke(main, ["analyze", "--config", str(cfg_path),
                                      "--scans", str(dirs[0]),
                                      "--out", str(d)])
        assert result.exit_code == 0, result.output
        same = same and (outs[0] / "results.json").read_bytes() == \
            (d / "results.json").read_bytes()
        same = same and (outs[0] / "mean_curve.csv").read_bytes() == \
            (d / "mean_curve.csv").read_bytes()
    check(10, "identical seed/config reproduce byte-identical outputs", same,
          f"{len(names)} synth files + results.json + mean_curve.csv compared")


def test_criterion_11_noiseless_inversion(default_cfg, forward_model):
    quiet = replace(default_cfg, noise_pn=0.0, n_scans=2)
    grounded, voltage_scans = conftest.campaign_scans(quiet, forward_model)
    results, _ = conftest.analyze_scans(voltage_scans, grounded, forward_model, quiet)
    dz0 = abs(results["z0_nm"] / quiet.z0_true_nm - 1.0)
    dc = abs(results["drift_pn_per_nm"] / quiet.c_true_pn_per_nm - 1.0)
    srms = results["sigma_rms_pn"]
    ok = dz0 <= 1e-6 and dc <= 1e-6 and srms < 1e-3
    check(11, "noiseless pipeline recovers z0 and C to 1e-6, sigma_rms < 1e-3 pN",
          ok, f"dz0={dz0:.2g}, dC={dc:.2g}, sigma_rms={srms:.2g} pN")
