"""Command-line surface for the theory engine and analysis pipeline.

One subcommand per pipeline stage: epsilon, theory, electro, calibrate-k,
fit-z0, analyze, synth, compare. All outputs are written atomically and
carry the version and config hash (``output_meta``), so identical inputs
reproduce identical bytes; every CSV is ``forcecurve.csv_text``'s, every
JSON ``json_text``'s. Each command's ``_Command`` loads its config, refuses
an output over an input or under a file, and maps errors onto the exit
codes: 2 input/parse/allocation, 3 numerical non-convergence, 4 fit failure.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

# numpy's BLAS calls here are tiny vector products: OpenBLAS's default thread
# pool only costs start-up time and spins a second CPU, so one thread unless set
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__, assemble
from .analysis import (analyze_campaign, calibrate_spring_constant,
                       compare_to_theory, fit_contact_separation, theory_span_nm)
from .config import RunConfig, load_config
from .constants import energy_ev_to_angular_frequency
from .electrostatics import sphere_plane_force_exact, sphere_plane_force_pfa
from .errors import ConvergenceError, DataError, FitError, ParseError
from .forcecurve import MIN_SAMPLES, atomic_write, csv_text, load_scan, read_csv, signal_to_force
from .synth import campaign_span_nm, load_campaign, write_campaign

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_FIT = 4
MEAN_CURVE_COLUMNS = ("separation_nm", "force_pn", "std_pn")


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' (nm) into a linear grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"expected lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"malformed grid spec {spec!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ParseError(f"need finite lo and hi in {spec!r}")
    if not np.isfinite(hi - lo):   # numpy would overflow spacing the grid
        raise ParseError(f"need hi - lo finite in {spec!r}")
    if not (lo < hi and n >= 2):
        raise ParseError(f"need lo < hi and n >= 2 in {spec!r}")
    return np.linspace(lo, hi, n)


def output_meta(cfg: RunConfig) -> dict:
    """The metadata every output carries: the package version and the config hash."""
    return {"version": __version__, "config_hash": cfg.digest()}


def json_text(cfg: RunConfig, payload: dict) -> str:
    """The one JSON writer: ``payload`` after ``output_meta``; a NaN or inf raises."""
    bad = _non_finite_key(payload)
    if bad is not None:
        raise ValueError(f"non-finite value at {bad!r} in the JSON output")
    doc = {"meta": output_meta(cfg)}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _non_finite_key(value, path=""):
    """Key path ('sigma_rms_pn', 'variants.opaque_cap') of the first NaN or inf."""
    if isinstance(value, float):
        return None if np.isfinite(value) else path
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else str(k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return None
    for key, item in items:
        found = _non_finite_key(item, key)
        if found is not None:
            return found
    return None


def _finite(ctx, param, value: float) -> float:
    """Click callback: reject a NaN or infinite option value (exit 2)."""
    if not np.isfinite(value):
        raise click.BadParameter(f"must be finite, got {value}", param=param)
    return value


def _curve_path(out) -> Path:
    """The ``--emit-curve`` file written next to ``out``."""
    return Path(out).with_suffix(".curve.csv")


config_option = click.option("--config", "cfg", type=click.Path(exists=True), default=None,
                             help="key=value run configuration file")
material_option = click.option("--material", "material", type=click.Path(exists=True),
                               default=None, help="optical table CSV")
out_option = click.option("--out", "out", required=True, type=click.Path(),
                          help="output path")


class _Command(click.Command):
    """A command whose ``invoke`` holds its boundary: (1) its inputs are its
    ``click.Path(exists=True)`` options; (2) ``cfg`` becomes the RunConfig of
    --config or the defaults, its ``material_csv``, if set, an input; (3) an
    output (--out, the --emit-curve file) that resolves to an input exits 2,
    and so does one under an existing path that is not a directory, before
    any work; (4) an error of any step or of the command exits with its code."""

    def invoke(self, ctx):
        params = ctx.params
        try:
            inputs = [(p.opts[0], params[p.name]) for p in self.params
                      if isinstance(p.type, click.Path) and p.type.exists]
            cfg = params["cfg"] = load_config(params["cfg"]) if params["cfg"] else RunConfig()
            inputs.append(("material_csv", cfg.material_csv))
            outputs = [("--out", params["out"])]
            if params.get("emit_curve"):
                outputs.append(("--emit-curve", _curve_path(params["out"])))
            for out_option, target in outputs:
                for in_option, source in inputs:
                    if source and Path(target).resolve() == Path(source).resolve():
                        kind = "directory" if Path(source).is_dir() else "file"
                        raise DataError(f"{out_option} {target} is the {in_option} {kind} "
                                        f"{source}: write the results into another {kind}")
                existing = next((p for p in Path(target).parents if p.exists()), None)
                if existing is not None and not existing.is_dir():
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                             str(existing))
            return super().invoke(ctx)
        except (ConvergenceError, FitError, ValueError, OSError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL if isinstance(exc, ConvergenceError)
                     else EXIT_FIT if isinstance(exc, FitError) else EXIT_INPUT)


@click.group()
@click.version_option(__version__)
def main():
    """Casimir-force theory engine and AFM force-curve analysis pipeline."""


main.command_class = _Command


@main.command()
@click.option("--xi-ev", "xi_spec", default="0.01:100:61", show_default=True,
              help="imaginary-frequency grid lo:hi:n in eV")
@material_option
@config_option
@out_option
def epsilon(xi_spec, material, cfg, out):
    """Tabulate eps(i*xi) for the configured dielectric model."""
    model = assemble.dielectric_model(cfg, material_csv=material)
    grid = parse_grid(xi_spec)
    # one call on the whole grid; a tuple because perfbench/tracer.py keeps
    # the eps arguments in a set, of Python floats, which overflow to inf
    # without a warning, for the model to refuse
    eps = model.eps(tuple(energy_ev_to_angular_frequency(e) for e in grid.tolist()))
    atomic_write(out, csv_text(output_meta(cfg), ("xi_ev", "eps"), (grid, eps)))


@main.command()
@click.option("--z", "z_spec", default="100:500:441", show_default=True,
              help="metal-to-metal separation grid lo:hi:n in nm")
@material_option
@config_option
@out_option
def theory(z_spec, material, cfg, out):
    """Tabulate the corrected theory force versus separation."""
    model = assemble.dielectric_model(cfg, material_csv=material)
    grid = parse_grid(z_spec)
    curve = assemble.theory_curve(
        cfg, theory_span_nm([grid], cfg.cap_offset_nm, metal_to_metal=True), model)
    force = curve(grid * 1e-9) * 1e12
    atomic_write(out, csv_text(output_meta(cfg), ("separation_nm", "force_pn"), (grid, force)))


@main.command()
@click.option("--z", "z_spec", default="100:500:41", show_default=True)
@click.option("--voltage", type=float, default=0.31, show_default=True,
              callback=_finite,
              help="plate voltage V1 in volts")
@config_option
@out_option
def electro(z_spec, voltage, cfg, out):
    """Tabulate the exact and proximity electrostatic forces."""
    e_cfg = assemble.electrostatic_config(cfg)
    grid = parse_grid(z_spec)
    # the proximity form's z/R guard first: at a radius too small for the grid
    # it names the separation, where the image series would overflow alpha
    pfa = sphere_plane_force_pfa(grid * 1e-9, e_cfg, voltage) * 1e12
    exact = [sphere_plane_force_exact(z * 1e-9, e_cfg, voltage) * 1e12 for z in grid]
    atomic_write(out, csv_text(output_meta(cfg), ("separation_nm", "force_exact_pn",
                                                  "force_pfa_pn"), (grid, exact, pfa)))


@main.command("calibrate-k")
@click.option("--scans", "scans_dir", required=True, type=click.Path(exists=True),
              help="directory of raw stiffness scans")
@config_option
@out_option
def calibrate_k(scans_dir, cfg, out):
    """Fit the cantilever spring constant from large-separation scans."""
    curves = [load_scan(p) for p in sorted(Path(scans_dir).glob("*.csv"))]
    curves = [c for c in curves if not c.has_force]
    if not curves:
        raise DataError(f"no raw-signal scans in {scans_dir}")
    e_cfg = assemble.electrostatic_config(cfg)
    cal = assemble.calibration_params(cfg)
    k, k_sigma = calibrate_spring_constant(curves, e_cfg, cal)
    atomic_write(out, json_text(cfg, {
        "spring_constant_n_per_m": k,
        "spring_constant_sigma_n_per_m": k_sigma,
        "n_scans": len(curves),
    }))


@main.command("fit-z0")
@click.option("--scan", "scan_path", required=True, type=click.Path(exists=True))
@click.option("--emit-curve", is_flag=True,
              help="also write the data-vs-model curve CSV")
@config_option
@out_option
def fit_z0(scan_path, emit_curve, cfg, out):
    """Fit the separation on contact from one applied-voltage scan."""
    curve = load_scan(scan_path)
    if not curve.has_force:
        curve = signal_to_force(curve, assemble.calibration_params(cfg))
    model = assemble.forward_model(cfg, theory_span_nm([curve.piezo_nm], cfg.cap_offset_nm))
    fit = fit_contact_separation(curve, model)
    # one scan and no grounded one: the noise is the fit's own residual rms,
    # so chi2 = n_points - 1 and checks no model
    atomic_write(out, json_text(cfg, fit.record(
        math.sqrt(fit.rss_pn2 / (fit.n_points - 1)))))
    if emit_curve:
        model_pn = model.force_pn(curve.piezo_nm, fit.z0_nm, fit.voltage)
        columns = (curve.piezo_nm + fit.z0_nm, curve.force_pn, model_pn)
        atomic_write(_curve_path(out), csv_text(
            output_meta(cfg), ("separation_nm", "force_pn", "model_pn"), columns))


@main.command()
@click.option("--seed", type=int, default=None, help="override the config seed")
@config_option
@out_option
def synth(seed, cfg, out):
    """Generate a deterministic synthetic campaign directory."""
    run = cfg if seed is None else replace(cfg, seed=seed)
    truth = write_campaign(out, run, assemble.forward_model(cfg, campaign_span_nm(cfg)))
    # the config hash is that of the file as loaded, without the --seed override
    atomic_write(Path(out) / "truth.json", json_text(cfg, truth))


@main.command()
@click.option("--scans", "scans_dir", required=True, type=click.Path(exists=True))
@config_option
@out_option
def analyze(scans_dir, cfg, out):
    """Run the full pipeline on a campaign directory."""
    # an --out that is a file is refused before any work, as by synth
    if Path(out).exists() and not Path(out).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(Path(out)))
    window = (cfg.window_lo_nm, cfg.window_hi_nm)

    def model_for(axes):
        return assemble.forward_model(cfg, theory_span_nm(axes, cfg.cap_offset_nm, window))

    results, mean_curve = analyze_campaign(
        *load_campaign(scans_dir), model_for, window, assemble.calibration_params(cfg))
    atomic_write(Path(out) / "results.json", json_text(cfg, results))
    atomic_write(Path(out) / "mean_curve.csv",
                 csv_text(output_meta(cfg), MEAN_CURVE_COLUMNS, mean_curve))


def _load_mean_curve(path):
    """(separation_nm, force_pn, std_pn) columns of a mean-curve CSV."""
    table = read_csv(path, 3, MIN_SAMPLES, (MEAN_CURVE_COLUMNS,))
    separation, _, std = table.columns
    table.reject(np.diff(separation, prepend=-np.inf) <= 0, "non-increasing separation_nm")
    table.reject(std < 0, "negative std_pn")
    return table.columns


@main.command()
@click.option("--curve", "curve_path", required=True, type=click.Path(exists=True),
              help="mean-curve CSV (separation_nm,force_pn,std_pn)")
@click.option("--n-scans", type=click.IntRange(min=1), default=None,
              help="scans averaged into the mean curve (default: n_scans of the config)")
@click.option("--emit-curve", is_flag=True,
              help="also write experiment-vs-theory plot data")
@config_option
@out_option
def compare(curve_path, n_scans, emit_curve, cfg, out):
    """Compare an extracted mean force curve against the theory."""
    axis, force, std = _load_mean_curve(curve_path)
    window = (cfg.window_lo_nm, cfg.window_hi_nm)
    th = assemble.theory_curve(cfg, theory_span_nm([axis], cfg.cap_offset_nm, window,
                                                   metal_to_metal=True))
    stats = compare_to_theory(axis, force, std,
                              cfg.n_scans if n_scans is None else n_scans, th,
                              window, cfg.cap_offset_nm)
    atomic_write(out, json_text(cfg, stats))
    if emit_curve:
        atomic_write(_curve_path(out), csv_text(
            output_meta(cfg), ("separation_nm", "force_exp_pn", "force_theory_pn"),
            (axis, force, th(axis * 1e-9) * 1e12)))


if __name__ == "__main__":
    main()
