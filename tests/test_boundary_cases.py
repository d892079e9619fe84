"""The commands' input contract: one row per refused input.

Each row runs one command in-process on inputs built for it and checks its
exit code (2 input, 3 numerical, 4 fit), its message, and that it wrote
nothing: every file under the row's directory is as before the run, and no
path is added. pyproject turns a RuntimeWarning into an error (exit 1), so a
row also shows that the refusal comes before numpy warns. The README's
"Where inputs are checked" table names rows by id, and
``test_the_readme_names_only_rows`` ties the two.
"""

import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from casimirlab.cli import MEAN_CURVE_COLUMNS, _Command, main, output_meta
from casimirlab.config import RunConfig
from casimirlab.forcecurve import ForceCurve, csv_text, load_scan, save_scan
from conftest import FAST_CONFIG, TABLE

README = Path(__file__).resolve().parents[1] / "README.md"


@dataclass(frozen=True)
class Case:
    """One refused input. ``argv`` is split on spaces; ``{tmp}`` in it, in
    ``out`` and in ``message`` is the row's directory."""
    id: str
    argv: str
    exit: int
    message: str               # the whole output is "error: <message>\n"
    exact: bool = True         # else the output holds ``message`` (click's usage errors)
    config: str | None = None  # written to {tmp}/run.cfg and passed as --config
    inputs: tuple = ()         # builders, each called as build(tmp, fixture)
    patch: tuple = ()          # (target, value) set for the run
    split: bool = False        # also run with every campaign shared between processes
    empty_out: bool = False    # the command leaves --out as an empty directory
    out: str = "{tmp}/out"     # passed as --out


# -- input builders ----------------------------------------------------------

def text_file(name, text):
    """{tmp}/<name> holding ``text``."""
    def build(tmp, fixture):
        (tmp / name).write_text(text)
    return build


def scan_file(scan_id, voltage, axis, force):
    """{tmp}/<scan_id>.csv: a force scan of ``force`` at every point of ``axis``."""
    head = f"# scan_id={scan_id}\n# applied_voltage_v={voltage}\npiezo_nm,force_pn\n"
    return text_file(f"{scan_id}.csv", head + "".join(f"{z!r},{force}\n" for z in axis))


def mean_curve(axis, force=1.0, std=1.0, lines=(), name="mean_curve.csv"):
    """{tmp}/<name> as ``compare`` reads it, with (line number, text) ``lines``
    put in place of those lines."""
    def build(tmp, fixture):
        columns = [np.broadcast_to(np.asarray(c, dtype=float), np.shape(axis))
                   for c in (axis, force, std)]
        text = csv_text(output_meta(RunConfig()), MEAN_CURVE_COLUMNS, columns).splitlines()
        for lineno, line in lines:
            text[lineno - 1] = line
        (tmp / name).write_text("\n".join(text) + "\n")
    return build


def optical_table(rows):
    """{tmp}/table.csv: an optical table of (energy eV, eps'') ``rows``."""
    return text_file("table.csv", "# material=x\n" + rows)


def material_config(config=""):
    """{tmp}/m.cfg: ``config`` and a ``material_csv`` that names {tmp}/table.csv."""
    def build(tmp, fixture):
        (tmp / "m.cfg").write_text(f"{config}material_csv={tmp / 'table.csv'}\n")
    return build


def directory(name):
    """{tmp}/<name>, an empty directory."""
    def build(tmp, fixture):
        (tmp / name).mkdir()
    return build


def stiffness_scans(signal, voltages=(0.31, 0.5), span_nm=(2050.0, 3000.0), into="stiff"):
    """{tmp}/<into>: raw-signal scans, one at each of ``voltages``, of ``signal``
    at 40 points over ``span_nm``."""
    def build(tmp, fixture):
        (tmp / into).mkdir(exist_ok=True)
        z = np.linspace(*span_nm, 40)
        for j, v in enumerate(voltages):
            with open(tmp / into / f"stiff_{j:02d}.csv", "w") as fh:
                save_scan(ForceCurve(f"stiff_{j:02d}", v, z, signal=np.full_like(z, signal)), fh)
    return build


def campaign_copy(edit=lambda scans: None):
    """{tmp}/campaign: the shared FAST_CONFIG campaign, then ``edit(directory)``."""
    def build(tmp, fixture):
        shutil.copytree(fixture("campaign_dir"), tmp / "campaign")
        edit(tmp / "campaign")
    return build


def synth_campaign(into="campaign", config=None, edit=lambda scans: None):
    """{tmp}/<into>: ``synth`` on ``config``, written to {tmp}/first.cfg, or on the
    row's, then ``edit(directory)``."""
    def build(tmp, fixture):
        cfg = tmp / "run.cfg"
        if config is not None:
            cfg = tmp / "first.cfg"
            cfg.write_text(config)
        result = CliRunner().invoke(main, ["synth", "--config", str(cfg),
                                           "--out", str(tmp / into)])
        assert result.exit_code == 0, result.output
        edit(tmp / into)
    return build


# -- edits of a campaign copy --------------------------------------------------

def set_force(name, lineno, value):
    """The force cell on line ``lineno`` of scan file ``name`` becomes ``value``."""
    def edit(scans):
        lines = (scans / name).read_text().splitlines()
        lines[lineno - 1] = lines[lineno - 1].partition(",")[0] + "," + value
        (scans / name).write_text("\n".join(lines) + "\n")
    return edit


def set_voltage(name, old, new):
    def edit(scans):
        text = (scans / name).read_text()
        (scans / name).write_text(text.replace(f"applied_voltage_v={old}\n",
                                               f"applied_voltage_v={new}\n"))
    return edit


def remove(pattern):
    def edit(scans):
        for path in scans.glob(pattern):
            path.unlink()
    return edit


def shift_axis(name, by_nm):
    """The piezo axis of scan file ``name`` moved by ``by_nm``."""
    def edit(scans):
        scan = load_scan(scans / name)
        with open(scans / name, "w", encoding="utf-8") as fh:
            save_scan(replace(scan, piezo_nm=scan.piezo_nm + by_nm), fh)
    return edit


def cut_grounded_axis(top_nm):
    """The grounded scans keep their points up to ``top_nm``."""
    def edit(scans):
        for path in scans.glob("scan_*.csv"):
            scan = load_scan(path)
            keep = scan.piezo_nm <= top_nm
            with open(path, "w", encoding="utf-8") as fh:
                save_scan(replace(scan, piezo_nm=scan.piezo_nm[keep],
                                  force_pn=scan.force_pn[keep]), fh)
    return edit


# -- the rows -----------------------------------------------------------------

GRID_OPTIONS = (("theory", "--z"), ("electro", "--z"), ("epsilon", "--xi-ev"))
# a size numpy refuses at once, 7.11 PiB of float64: no host grants it lazily
UNALLOCATABLE = 10**15
ALLOCATE = "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type"
Z0_RULE = "in [3.5, 197.5], the z0 fit bracket (1.0, 200.0) less 2.5 nm at each end"
OUT_OF_BOX = "Gauss-Newton left its box [1, 200] nm"


def range_case(line, requirement, got):
    """``electro`` with ``line`` on line 2 of its config: the range table names key and line."""
    key = line.partition("=")[0]
    return Case(f"range-{line}", "electro", 2, f"{{tmp}}/run.cfg: bad value for '{key}': must "
                f"be {requirement}, got {got} at line 2", config=f"seed=1\n{line}\n")


CASES = [
    # the CLI options
    *(Case(f"electro-voltage-{v}", f"electro --voltage {v}", 2,
           f"Invalid value for '--voltage': must be finite, got {v}", exact=False)
      for v in ("nan", "inf", "-inf")),
    *(Case(f"compare-n-scans-{n}", f"compare --curve {{tmp}}/mean_curve.csv --n-scans {n}", 2,
           f"Invalid value for '--n-scans': {n} is not in the range x>=1.", exact=False,
           inputs=(mean_curve(np.linspace(95.0, 505.0, 300)),))
      for n in ("0", "-3")),
    *(Case(f"grid-{name}", f"epsilon --xi-ev {spec}", 2, message) for name, spec, message in (
        ("malformed", "nope", "expected lo:hi:n, got 'nope'"),
        ("two-fields", "1:3", "expected lo:hi:n, got '1:3'"),
        ("not-numbers", "a:b:c", "malformed grid spec 'a:b:c'"),
        ("reversed", "3:1:5", "need lo < hi and n >= 2 in '3:1:5'"),
        ("one-point", "1:3:1", "need lo < hi and n >= 2 in '1:3:1'"))),
    *(Case(f"grid-infinite-{command}-{spec}", f"{command} {option} {spec}", 2,
           f"need finite lo and hi in '{spec}'")
      for command, option in GRID_OPTIONS for spec in ("100:inf:5", "-inf:500:5")),
    *(Case(f"grid-span-overflows-{command}", f"{command} {option} -1e308:1e308:5", 2,
           "need hi - lo finite in '-1e308:1e308:5'") for command, option in GRID_OPTIONS),
    *(Case(f"grid-unallocatable-{command}", f"{command} {option} 100:500:{UNALLOCATABLE}", 2,
           f"{ALLOCATE} float64") for command, option in GRID_OPTIONS),
    # the config file: its lines, the range table, and the keys it no longer has
    Case("config-not-key-value", "electro", 2,
         "{tmp}/run.cfg: expected key=value, got 'just a line' at line 1", config="just a line\n"),
    Case("config-not-an-int", "electro", 2, "{tmp}/run.cfg: bad value for 'seed': invalid "
         "literal for int() with base 10: 'abc' at line 1", config="seed=abc\n"),
    range_case("cap_offset_nm=-0.5", ">= 0", "-0.5"),
    range_case("sphere_radius_um=nan", "finite", "nan"),
    range_case("v2_residual_mv=inf", "finite", "inf"),
    range_case("noise_pn=-1", ">= 0", "-1.0"),
    range_case("n_scans=0", ">= 1", "0"),
    range_case("grid_points=9", ">= 10", "9"),
    range_case("grid_hi_nm=20", "> grid_lo_nm", "20.0"),
    range_case("grid_lo_nm=-60", "> -z0_true_nm (above contact)", "-60.0"),
    range_case("theory_cache_points=1", ">= 2", "1"),
    range_case("spring_constant_n_per_m=0", "> 0", "0.0"),
    range_case("deflection_sensitivity_nm=0", "> 0", "0.0"),
    *(range_case(f"rel_tol={v}", "in [1e-8, 1e-2]", got) for v, got in (
        ("0", "0.0"), ("0.02", "0.02"), ("1e-11", "1e-11"), ("9e-9", "9e-09"))),
    *(range_case(f"sphere_radius_um={v}", "in (0, 1e6], and > 0 in metres", got)
      for v, got in (("-5", "-5.0"), ("1.0000001e6", "1000000.1"),
                     ("1e-320", "1e-320"))),   # 0 m once scaled to metres
    range_case("temperature_k=-1", ">= 0", "-1.0"),
    range_case("roughness_amplitude_nm=-1", ">= 0", "-1.0"),
    *(range_case(f"drude_wp_ev={v}", "in [1, 1e6]", got) for v, got in (
        ("0", "0.0"), ("1.0000001e6", "1000000.1"), ("0.99", "0.99"))),
    *(range_case(f"drude_gamma_ev={v}", "in [0, 10]", got) for v, got in (
        ("10.01", "10.01"), ("-0.01", "-0.01"), ("1.0000001e6", "1000000.1"))),
    range_case("window_hi_nm=50", "> window_lo_nm", "50.0"),
    range_case("seed=-1", ">= 0", "-1"),
    # below and at the bracket's first z0, 1 nm, then inside the bracket but
    # within the margin that keeps a truth's chi2 minimum inside it
    *(range_case(f"z0_true_nm={v}", Z0_RULE, v) for v in ("250.0", "0.5", "1.0", "1.2", "198.9")),
    # omega_p**2 and gamma**2 would overflow a Python float in the Drude forms
    *(Case(f"range-{line}-{name}", command, 2, f"{{tmp}}/run.cfg: bad value for "
           f"'{line.partition('=')[0]}': must be {rule}, got {got} at line 1", config=line + "\n")
      for line, rule, got in (("drude_wp_ev=1e200", "in [1, 1e6]", "1e+200"),
                              ("drude_gamma_ev=1e290", "in [0, 10]", "1e+290"))
      for name, command in (("theory", "theory"), ("theory-table", f"theory --material {TABLE}"),
                            ("synth", "synth"))),
    # at R = 1e300 um the proximity guard would let 1e120 nm through, where the
    # Lifshitz force estimate overflows z**3
    Case("range-sphere_radius_um=1e300", "theory --z 1e120:2e120:3", 2,
         "{tmp}/run.cfg: bad value for 'sphere_radius_um': must be in (0, 1e6], and > 0 in "
         "metres, got 1e+300 at line 1", config="sphere_radius_um=1e300\ntemperature_k=0\n"),
    # each command derives its cache's span, a correction is left out at its
    # physical zero, the y cut, table refinement and Drude crossover are fixed
    # where they are used, and the z0 fits' noise is measured
    *(Case(f"unknown-key-{key}", "synth", 2,
           f"{{tmp}}/run.cfg: unknown config key '{key}' at line 2", config=f"seed=1\n{key}={v}\n")
      for key, v in (("theory_cache_lo_nm", "45"), ("theory_cache_hi_nm", "45"),
                     ("enable_roughness", "false"), ("enable_temperature", "false"),
                     ("xi_cut_multiplier", "40"), ("table_refine", "4"), ("crossover_ev", "0.04"),
                     ("pooled_noise_pn", "7"), ("window_points", "441"))),
    *(Case(f"config-unallocatable-{key}", command, 2, f"{ALLOCATE} {dtype}",
           config=f"{key}={UNALLOCATABLE}\n")
      for key, command, dtype in (("theory_cache_points", "theory", "int64"),
                                  ("grid_points", "synth", "float64"))),
    # the three file loaders: scans, optical tables, mean curves
    Case("scan-header", "fit-z0 --scan {tmp}/bad.csv", 2,
         "{tmp}/bad.csv: unrecognized header 'not,a,scan', expected piezo_nm,signal or "
         "piezo_nm,force_pn at line 1", inputs=(text_file("bad.csv", "not,a,scan\n"),)),
    Case("scan-9-rows", "fit-z0 --scan {tmp}/short.csv", 2,
         "{tmp}/short.csv: need at least 10 rows, got 9",
         inputs=(scan_file("short", 0.5, range(30, 39), -1),)),
    Case("scan-non-monotone", "fit-z0 --scan {tmp}/unsorted.csv", 2,
         "{tmp}/unsorted.csv: non-monotone piezo at line 5",
         inputs=(scan_file("unsorted", 0.5, [30, 29, *range(31, 40)], -1),)),
    Case("scan-non-finite-analyze", "analyze --scans {tmp}/campaign", 2,
         "{tmp}/campaign/scan_000.csv: non-finite value at line 6", config=FAST_CONFIG,
         inputs=(campaign_copy(set_force("scan_000.csv", 6, "nan")),)),
    *(Case(f"scan-infinite-{command}", f"{command} --scans {{tmp}}/campaign", 2,
           "{tmp}/campaign/scan_001.csv: non-finite value at line 5", config=FAST_CONFIG,
           inputs=(campaign_copy(set_force("scan_001.csv", 5, "inf")),))
      for command in ("analyze", "calibrate-k")),
    *(Case(f"table-{command.partition(' ')[0]}-{name}", f"{command} --material {{tmp}}/table.csv",
           2, message, inputs=(optical_table(rows),))
      for name, rows, message in (
          ("energy-0", "0.0,1.0\n1.0,2.0\n", "{tmp}/table.csv: energy must be > 0 eV at line 2"),
          ("energy-order", "0.04,1.0\n0.02,2.0\n",
           "{tmp}/table.csv: non-increasing energy at line 3"),
          ("negative-eps2", "0.04,1.0\n0.05,-2.0\n", "{tmp}/table.csv: negative eps2 at line 3"),
          ("one-row", "0.04,1.0\n", "{tmp}/table.csv: need at least 2 rows, got 1"),
          *((f"overflow-{n}", rows, "the optical table overflows its dispersion integral in "
             f"float64: energies up to {top}") for n, rows, top in (
                ("eps2", "0.04,1e308\n1.0,2.0\n", "1 eV, eps2 up to 1e+308"),
                ("energy", "0.04,1.0\n1e300,2.0\n", "1e+300 eV, eps2 up to 2"),
                ("tail", "0.04,1.0\n1e100,2.0\n", "1e+100 eV, eps2 up to 2"))))  # omega^3
      for command in ("theory --z 100:500:3", "epsilon")),
    *(Case(f"mean-curve-line-{lineno}-{name}", "compare --curve {tmp}/mean_curve.csv", 2,
           f"{{tmp}}/mean_curve.csv: {message} at line {lineno}", config=FAST_CONFIG,
           inputs=(mean_curve(np.linspace(95.0, 505.0, 300), lines=((lineno, line),)),))
      for lineno, name, line, message in (
          (3, "header", "separation_nm,force_pn,sigma_pn", "unrecognized header "
           "'separation_nm,force_pn,sigma_pn', expected separation_nm,force_pn,std_pn"),
          (5, "columns", "100.5,-160.2", "expected 3 columns, got '100.5,-160.2'"),
          (5, "number", "100.5,-160.2,abc", "malformed number in '100.5,-160.2,abc'"),
          (6, "order", "1,-160.2,0.5", "non-increasing separation_nm"))),
    # the chi2 weights would floor a negative standard error at 1e-30 pN
    Case("mean-curve-negative-std", "compare --curve {tmp}/mean_curve.csv", 2,
         "{tmp}/mean_curve.csv: negative std_pn at line 5", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(95.0, 505.0, 300), std=[1.0, -1.0] + [1.0] * 298),)),
    Case("mean-curve-5-rows", "compare --curve {tmp}/mean_curve.csv", 2,
         "{tmp}/mean_curve.csv: need at least 10 rows, got 5", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(95.0, 505.0, 5)),)),
    # a campaign directory
    Case("campaign-grids-differ", "analyze --scans {tmp}/campaign", 2,
         "scan scan_001 (scan_001.csv): scan grids differ from scan scan_000's; resample "
         "before averaging", config=FAST_CONFIG,
         inputs=(campaign_copy(shift_axis("scan_001.csv", 0.5)),)),
    Case("campaign-no-voltage-scans", "analyze --scans {tmp}/campaign", 2,
         "no voltage scans for the z0 fit", config=FAST_CONFIG,
         inputs=(campaign_copy(remove("cal_*.csv")),)),
    Case("campaign-no-grounded-scans", "analyze --scans {tmp}/campaign", 2,
         "no grounded scans to analyze", config=FAST_CONFIG,
         inputs=(campaign_copy(remove("scan_*.csv")),)),
    Case("calibrate-k-no-raw-scans", "calibrate-k --scans {tmp}/campaign", 2,
         "no raw-signal scans in {tmp}/campaign", inputs=(campaign_copy(),)),
    # eps(i xi): the eV to rad/s conversion, and the xi range of the formulas;
    # 1e-300 eV squares to 0 in the table's tail, and 1e300 eV overflows in rad/s
    *(Case(f"epsilon-xi-{spec}", f"epsilon --material {TABLE} --xi-ev {spec}", 2, message)
      for spec, message in (("1e-300:1:5", "xi must be in (2, 1e+150] rad/s, got 1.51925e-285"),
                            ("1:1e300:3", "xi must be in (2, 1e+150] rad/s, got inf"),
                            ("0:1:3", "xi must be in (2, 1e+150] rad/s, got 0"),
                            ("-1:1:3", "energy must be >= 0 eV, got -1.0"))),
    # the electrostatics: the proximity form's separation and z/R, the image series
    Case("electro-separation-negative", "electro --z -5:500:5", 2,
         "separation must be > 0, got -5 nm"),
    # at R = 1e-300 um, z/R overflows the image series' alpha to inf
    Case("electro-radius-1e-300", "electro --z 100:500:5", 2,
         "separation 500 nm: z/R = 5e+299 outside the proximity regime (< 0.05) at R = 1e-300 um",
         config="sphere_radius_um=1e-300\n"),
    # acosh(1 + z/R) = 4.5e-18, and e^-acosh rounds to 1: the terms would not decay
    Case("electro-series-unsummable", "electro --z 1e-30:500:5", 2,
         "separation 1e-30 nm too small for the image series at R = 100.85 um: e^-alpha "
         "rounds to 1 at alpha = 4.45e-18"),
    Case("electro-series-not-converged", "electro --z 1e-12:1:3", 3,
         "series not converged after 100000 terms at separation 1e-12 nm (alpha=4.45e-09): "
         "last estimate 0.00109068 N, last term -1.61e-07 N"),
    # the span rule: every separation the theory is read at lies above contact
    *(Case(f"theory-separation-{lo}", f"theory --z {lo}:500:5", 2,
           f"the model would be read at a separation of {lo} nm, at or below contact (the "
           f"first separation read = {lo} nm)") for lo in ("-10", "0")),
    # 1e-320 nm is above 0 in nm and 0 in m, where the cache takes its log
    Case("theory-separation-0-in-metres", "theory --z 1e-320:1:5", 2,
         "the model would be read at a separation of 9.99989e-321 nm, at or below contact "
         "(the first separation read = 9.99989e-321 nm)"),
    # two ends apart in metres whose logs are equal: no span to interpolate over
    Case("theory-span-one-point-in-log-z", "theory --z 100:100.00000000000001:2", 2,
         "the theory would be cached over [100.0, 100.00000000000001] nm, one point in log z"),
    Case("fit-z0-axis-overflows", "fit-z0 --scan {tmp}/wide.csv", 2,
         "the model would be read at a separation of -1e+308 nm, at or below contact (the "
         "first separation read = -1e+308 nm, plus z0 = 1 nm)", config=FAST_CONFIG,
         inputs=(scan_file("wide", 0.5, [-1e308, *(k * 1e307 for k in range(-8, 10, 2)),
                                         1e308, 1.5e308], 1),)),
    Case("fit-z0-axis-below-contact", "fit-z0 --scan {tmp}/low.csv", 2,
         "the model would be read at a separation of -4 nm, at or below contact (the first "
         "separation read = -5 nm, plus z0 = 1 nm)", config=FAST_CONFIG,
         inputs=(scan_file("low", 0.5, np.linspace(-5.0, 500.0, 60).tolist(), 1),)),
    Case("compare-curve-below-contact", "compare --curve {tmp}/mean_curve.csv", 2,
         "the model would be read at a separation of -5 nm, at or below contact (the first "
         "separation read = -5 nm)", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(-5.0, 600.0, 200)),)),
    # the window's first point, 10 nm, read at the opaque cap's 0.9 - 15.8 nm shift
    Case("compare-variant-shift-below-contact", "compare --curve {tmp}/mean_curve.csv", 2,
         "the comparison would read the theory at -4.9 nm, at or below contact "
         "(window_lo_nm = 10 nm, at the variant shift -14.9 nm)", config="window_lo_nm=10\n",
         inputs=(mean_curve(np.linspace(10.0, 600.0, 200)),)),
    # the z0 bracket starts at 1 nm: analyze would read the model at -9 nm
    Case("synth-grid-below-contact", "synth", 2,
         "the model would be read at a separation of -9 nm, at or below contact "
         "(grid_lo_nm = -10 nm, plus z0 = 1 nm)",
         config="n_scans=2\ngrid_points=120\ngrid_lo_nm=-10\ncap_offset_nm=60\n"),
    # the Lifshitz force's regimes, and the temperature correction's
    Case("theory-below-continuum", "theory --z 0.5:10:3", 2,
         "z = 0.502 nm below the continuum regime (>= 1 nm)",
         config="roughness_amplitude_nm=0\n"),
    Case("theory-proximity-regime", "theory", 2,
         "z/R = 0.1 outside the proximity regime (< 0.05)", config="sphere_radius_um=1\n"),
    Case("theory-temperature-regime", "theory", 2,
         "eta = 43.8 at 100.248 nm outside the series regime (< 0.5)",
         config="temperature_k=1e6\n"),
    # the theory cache's node values
    Case("theory-cache-changes-sign", "theory", 2, "theory values must be finite and of one "
         "sign on the nodes", config="roughness_c2=-100\n"),
    Case("theory-cache-repulsive", "theory", 2, "theory force must be attractive on the nodes",
         config="roughness_c2=-10000\n"),
    # the corrections' series regimes: the z0 fit would read the theory from
    # 20 + 1 + cap = 36.8 nm
    Case("synth-roughness-regime", "synth", 2,
         "A/z = 0.319 at 36.995 nm outside the series regime (< 0.3)",
         config="n_scans=2\ngrid_points=120\ngrid_lo_nm=20\n"),
    # a campaign is written into a new directory: three scans over five would
    # leave scan_003 and scan_004 of the first campaign, and analyze would
    # average all five grounded scans
    Case("synth-over-another-campaign", "synth --seed 2", 2, "{tmp}/out is not empty: write "
         "the campaign into a new directory",
         config=FAST_CONFIG.replace("n_scans=2", "n_scans=3"), inputs=(synth_campaign(
             "out", FAST_CONFIG.replace("n_scans=2", "n_scans=5").replace("seed=11", "seed=1")),)),
    # a killed run's temporary among the scans: refused before one scan is
    # redrawn, or the campaign would mix two seeds
    Case("synth-over-a-killed-run", "synth --seed 3", 2, "{tmp}/campaign is not empty: write "
         "the campaign into a new directory", config=FAST_CONFIG, out="{tmp}/campaign",
         inputs=(campaign_copy(lambda scans: (scans / "scan_001.csv.tmp").write_text("# a\n")),)),
    # the writer: 9 digits must resolve the grid, here 1e-7 nm wide, or one
    # float64 step from 30 nm, which rounds 120 points onto two values
    *(Case(f"synth-grid-unresolved-{hi}", "synth", 2,
           f"grid_lo_nm = 30.0, grid_hi_nm = {hi}, grid_points = 120: piezo axis not "
           "increasing in 9 digits", config=f"n_scans=2\ngrid_points=120\ngrid_hi_nm={hi}\n")
      for hi in ("30.0000001", "30.000000000000004")),
    # a residual potential of 1e157 V overflows the electrostatic force in pN:
    # no file is left, not even a temporary one
    Case("synth-model-overflows", "synth", 2, "non-finite value in scan scan_000",
         config="theory_cache_points=8\nn_scans=2\ngrid_points=120\nv2_residual_mv=1e160\n",
         split=True, empty_out=True),
    # the z0 fit
    Case("analyze-voltage-outside-z0-range", "analyze --scans {tmp}/campaign", 2,
         "scan cal_04: applied voltage 0.9 V outside (0.3, 0.8)", config=FAST_CONFIG,
         inputs=(campaign_copy(set_voltage("cal_04.csv", "0.7", "0.9")),)),
    # no force: the start is z0 = 1 nm, and chi2 falls all the way out of the box
    Case("fit-z0-flat-scan", "fit-z0 --scan {tmp}/flat.csv", 4, "scan flat: " + OUT_OF_BOX,
         config=FAST_CONFIG,
         inputs=(scan_file("flat", 0.31, np.linspace(30.0, 920.0, 60).tolist(), 0),)),
    # a campaign drawn at the top of the z0 range from 40 nm, with cal_00's
    # axis moved down by 10 nm: cal_00's truth is 207.5 nm, beyond the bracket
    Case("analyze-z0-beyond-the-bracket", "analyze --scans {tmp}/campaign", 4,
         "scan cal_00: " + OUT_OF_BOX,
         config="n_scans=2\ngrid_points=120\ngrid_lo_nm=40\nwindow_lo_nm=260\nz0_true_nm=197.5\n",
         inputs=(synth_campaign(edit=shift_axis("cal_00.csv", -10.0)),)),
    # a force of 1e200 pN: chi2 would square past the largest float, and the
    # first Gauss-Newton step leaves the box
    *(Case(f"{command}-chi2-overflows", args, 4, "scan cal_00: " + OUT_OF_BOX,
           config=FAST_CONFIG,
           inputs=(campaign_copy(set_force("cal_00.csv", 9, "1e200")),))
      for command, args in (("fit-z0", "fit-z0 --scan {tmp}/campaign/cal_00.csv"),
                            ("analyze", "analyze --scans {tmp}/campaign"))),
    # a residual potential of 1e79 mV: J^T J overflows at the start
    Case("fit-z0-step-overflows", "fit-z0 --scan {tmp}/campaign/cal_00.csv", 4,
         "scan cal_00: non-finite Gauss-Newton step (J^T J = [[inf]])",
         config=FAST_CONFIG + "v2_residual_mv=1e79\n", inputs=(campaign_copy(),)),
    Case("analyze-gauss-newton-not-converged", "analyze --scans {tmp}/campaign", 4,
         "scan cal_00: Gauss-Newton not converged in 1 steps", config=FAST_CONFIG,
         inputs=(campaign_copy(),), patch=(("casimirlab.analysis.GAUSS_NEWTON_MAX_STEPS", 1),)),
    # drift, average and comparison
    Case("analyze-drift-overflows", "analyze --scans {tmp}/campaign", 2,
         "drift fit overflows: C = 1e+300 +- inf pN/nm",
         config="c_true_pn_per_nm=1e300\nn_scans=3\ngrid_points=120\n",
         inputs=(synth_campaign(),)),
    # the mean curve starts near 60 + z0 + cap = 124.7 nm, above the window
    Case("analyze-window-above-curve-start", "analyze --scans {tmp}/campaign", 2,
         "mean curve spans [124.677, 984.677] nm and does not cover the comparison window "
         "[100, 500] nm (window_lo_nm, window_hi_nm)",
         config="n_scans=2\ngrid_points=120\ngrid_lo_nm=60\n", inputs=(synth_campaign(),)),
    # no mean curve of this grid covers a window from 10 nm, so neither command
    # caches the theory at its opaque-cap shift, 10 - 7.5 - 14.9 nm < 0
    Case("analyze-window-from-10-nm", "analyze --scans {tmp}/campaign", 2,
         "mean curve spans [94.6842, 984.684] nm and does not cover the comparison window "
         "[10, 500] nm (window_lo_nm, window_hi_nm)",
         config="n_scans=2\ngrid_points=120\nwindow_lo_nm=10\n", inputs=(synth_campaign(),)),
    # region 3, beyond 516 nm, is where analyze fits the drift: synth writes no
    # campaign without it, and analyze refuses one before it reads a force column
    Case("synth-no-region-3", "synth", 2, "grid_hi_nm = 450.0: no scan point beyond 516 nm, "
         "the region 3 where analyze fits the drift",
         config="n_scans=2\ngrid_points=120\ngrid_hi_nm=450\n"),
    Case("analyze-no-region-3", "analyze --scans {tmp}/campaign", 2,
         "the grounded scans end at 508.655 nm, short of region 3 (beyond 516 nm), where the "
         "drift is fitted", config=FAST_CONFIG,
         inputs=(campaign_copy(cut_grounded_axis(516.0)),)),
    Case("analyze-one-grounded-scan", "analyze --scans {tmp}/campaign", 2,
         "need at least 2 scans to average", config="n_scans=1\ngrid_points=120\n",
         inputs=(synth_campaign(),)),
    Case("compare-window-9-points", "compare --curve {tmp}/mean_curve.csv", 2,
         "window [100.0, 500.0] nm contains 9 points (< 10)", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(95.0, 505.0, 11)),)),
    # (F_theory - 1e300 pN)^2 overflows: the JSON writer names the statistic
    Case("compare-statistic-overflows", "compare --curve {tmp}/mean_curve.csv", 2,
         "non-finite value at 'sigma_rms_pn' in the JSON output", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(95.0, 505.0, 300), force=1e300),)),
    # the calibration: refused by cause, before the least squares divides 0
    # by 0 or overflows, and not written as a spring constant of -0.0
    Case("calibrate-k-zero-deflection", "calibrate-k --scans {tmp}/stiff", 2,
         "the deflection is zero at every usable point (80 points beyond 2000 nm): no spring "
         "constant to fit", inputs=(stiffness_scans(0.0),)),
    Case("calibrate-k-zero-voltage", "calibrate-k --scans {tmp}/stiff", 4,
         "scan stiff_00: zero applied voltage", inputs=(stiffness_scans(1.0, (0.0, 0.5)),)),
    Case("calibrate-k-no-usable-points", "calibrate-k --scans {tmp}/stiff", 2,
         "need >= 20 usable points, got 0",
         inputs=(stiffness_scans(1.0, span_nm=(1000.0, 1900.0)),)),
    *(Case(f"calibrate-k-deflection-overflows-{largest}", "calibrate-k --scans {tmp}/stiff", 2,
           "the deflection is too large at the usable points (80 points beyond 2000 nm, "
           f"largest |deflection| {largest} m): its least squares overflow",
           config=f"deflection_sensitivity_nm={sensitivity}\n", inputs=(stiffness_scans(signal),))
      for signal, sensitivity, largest in ((1e200, 1.0, "1e+191"), (1e10, 1e300, "inf"))),
    # a spring constant that is not positive: no force at V1 = V2 (7.9 mV),
    # or a deflection of the sign of a repulsion
    Case("calibrate-k-voltage-at-v2", "calibrate-k --scans {tmp}/stiff", 4,
         "spring constant 0 N/m from the usable points (80 points beyond 2000 nm): there is "
         "no force, with V1 = V2 at every scan", inputs=(stiffness_scans(1.0, (0.0079, 0.0079)),)),
    *(Case(f"{command}-{row}", f"{command} --scans {{tmp}}/{into}", 4,
           "spring constant -319.166 N/m from the usable points (80 points beyond 2000 nm): "
           "the deflection does not follow the attractive electrostatic force",
           config=FAST_CONFIG, inputs=(*setup, stiffness_scans(1e-3, (0.5, 0.6), into=into)))
      for command, row, into, setup in (
          ("calibrate-k", "repulsive-deflection", "stiff", ()),
          ("analyze", "stiffness-repulsive", "campaign", (campaign_copy(),)))),
    # an output path that is an input: written over, the input would be lost
    Case("compare-out-is-curve", "compare --curve {tmp}/m.csv", 2, "--out {tmp}/m.csv is the "
         "--curve file {tmp}/m.csv: write the results into another file", config=FAST_CONFIG,
         inputs=(mean_curve(np.linspace(95.0, 505.0, 300), name="m.csv"),), out="{tmp}/m.csv"),
    Case("compare-emit-curve-is-curve", "compare --curve {tmp}/x.curve.csv --emit-curve", 2,
         "--emit-curve {tmp}/x.curve.csv is the --curve file {tmp}/x.curve.csv: write the "
         "results into another file", config=FAST_CONFIG, out="{tmp}/x.json",
         inputs=(mean_curve(np.linspace(95.0, 505.0, 300), name="x.curve.csv"),)),
    Case("fit-z0-out-is-scan", "fit-z0 --scan {tmp}/s.csv", 2, "--out {tmp}/s.csv is the "
         "--scan file {tmp}/s.csv: write the results into another file", config=FAST_CONFIG,
         inputs=(scan_file("s", 0.5, np.linspace(30.0, 920.0, 60).tolist(), -1),),
         out="{tmp}/s.csv"),
    Case("theory-out-is-material", "theory --material {tmp}/table.csv", 2, "--out "
         "{tmp}/table.csv is the --material file {tmp}/table.csv: write the results into "
         "another file", inputs=(optical_table("0.04,1.0\n1.0,2.0\n"),), out="{tmp}/table.csv"),
    Case("epsilon-out-is-config", "epsilon", 2, "--out {tmp}/run.cfg is the --config file "
         "{tmp}/run.cfg: write the results into another file", config="seed=1\n",
         out="{tmp}/run.cfg"),
    Case("analyze-out-is-scans", "analyze --scans {tmp}/campaign", 2, "--out {tmp}/campaign "
         "is the --scans directory {tmp}/campaign: write the results into another directory",
         config=FAST_CONFIG, inputs=(campaign_copy(),), out="{tmp}/campaign"),
    # the config's optical table is an input too, though no option names it
    *(Case(f"{command}-out-is-material_csv", f"{command} {args} --config {{tmp}}/m.cfg", 2,
           "--out {tmp}/table.csv is the material_csv file {tmp}/table.csv: write the results "
           "into another file", inputs=(optical_table("0.04,1.0\n1.0,2.0\n"),
                                        material_config(FAST_CONFIG), *setup),
           out="{tmp}/table.csv")
      for command, args, setup in (
          ("theory", "--z 100:500:5", ()),
          ("compare", "--curve {tmp}/mean_curve.csv",
           (mean_curve(np.linspace(95.0, 505.0, 300)),)))),
    # an --out that is a directory, however spelled: refused before a temporary
    # file is made
    Case("electro-out-is-directory", "electro", 2, "[Errno 21] Is a directory: '{tmp}/odir'",
         inputs=(directory("odir"),), out="{tmp}/odir"),
    Case("electro-out-is-root", "electro", 2, "[Errno 21] Is a directory: '/'", out="/"),
    Case("electro-out-is-a-directory-via-dotdot", "electro", 2,
         "[Errno 21] Is a directory: '{tmp}/odir/..'", inputs=(directory("odir"),),
         out="{tmp}/odir/.."),
    # an --out directory that is a regular file: synth refuses it before the
    # first scan, analyze before it reads a scan, even from a directory it
    # would refuse
    Case("synth-out-is-a-file", "synth", 2, "[Errno 20] Not a directory: '{tmp}/o.txt'",
         config=FAST_CONFIG, inputs=(text_file("o.txt", "kept\n"),), out="{tmp}/o.txt"),
    Case("analyze-out-is-a-file", "analyze --scans {tmp}/campaign", 2,
         "[Errno 20] Not a directory: '{tmp}/o.txt'", config=FAST_CONFIG,
         inputs=(campaign_copy(), text_file("o.txt", "kept\n")), out="{tmp}/o.txt"),
    Case("analyze-out-is-a-file-before-the-scans", "analyze --scans {tmp}/campaign", 2,
         "[Errno 20] Not a directory: '{tmp}/o.txt'", config=FAST_CONFIG,
         inputs=(directory("campaign"), text_file("o.txt", "kept\n")), out="{tmp}/o.txt"),
    # an output under a regular file: every command refuses it before any work
    *(Case(f"{command}-out-under-a-file", f"{command} {args}", 2,
           "[Errno 20] Not a directory: '{tmp}/o.txt'", config=FAST_CONFIG,
           inputs=(*setup, text_file("o.txt", "kept\n")), out="{tmp}/o.txt/out")
      for command, args, setup in (
          ("epsilon", "", ()),
          ("theory", "--z 100:500:5", ()),
          ("electro", "", ()),
          ("calibrate-k", "--scans {tmp}/stiff", (stiffness_scans(-1e-3, (0.5, 0.6)),)),
          ("fit-z0", "--scan {tmp}/campaign/cal_00.csv", (campaign_copy(),)),
          ("synth", "", ()),
          ("analyze", "--scans {tmp}/campaign", (campaign_copy(),)),
          ("compare", "--curve {tmp}/mean_curve.csv",
           (mean_curve(np.linspace(95.0, 505.0, 300)),)))),
]
IDS = [case.id for case in CASES]


def tree(root):
    """Every path under root: a file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("case,split", [
    pytest.param(case, split, id=case.id + ("-split" if split else ""))
    for case in CASES for split in (False, True)[:1 + case.split]])
def test_a_refused_input_exits_with_its_code_and_message_and_writes_nothing(
        case, split, tmp_path, request, monkeypatch):
    if case.config is not None:
        (tmp_path / "run.cfg").write_text(case.config)
    for build in case.inputs:
        build(tmp_path, request.getfixturevalue)
    for target, value in case.patch:
        monkeypatch.setattr(target, value)
    if split:
        request.getfixturevalue("split")
    before = tree(tmp_path)
    argv = [word.replace("{tmp}", str(tmp_path)) for word in case.argv.split()]
    if case.config is not None:
        argv += ["--config", str(tmp_path / "run.cfg")]
    out = case.out.replace("{tmp}", str(tmp_path))
    result = CliRunner().invoke(main, [*argv, "--out", out])
    assert result.exit_code == case.exit, result.output
    message = case.message.replace("{tmp}", str(tmp_path))
    if case.exact:
        assert result.output == f"error: {message}\n"
    else:
        assert message in result.output
    after = tree(tmp_path)
    if case.empty_out:
        assert after.pop(tmp_path / "out") is None
    assert after == before


# -- no output over an input, for every input of every command ----------------

def path_inputs(command):
    """The options of ``command`` that name an existing path."""
    return [p.opts[0] for p in command.params
            if isinstance(p.type, click.Path) and p.type.exists]


def test_every_command_holds_the_boundary():
    assert all(isinstance(command, _Command) for command in main.commands.values())
    assert {o for c in main.commands.values() for o in path_inputs(c)} == {
        "--config", "--material", "--scans", "--scan", "--curve"}


@pytest.mark.parametrize("name,source,via", [
    pytest.param(name, source, via, id=f"{name}-{via.strip('-')}-is-{source.strip('-')}")
    for name, command in main.commands.items()
    for source in [*path_inputs(command), "material_csv"]
    for via in ("--out", "--emit-curve")[:1 + any(p.name == "emit_curve" for p in command.params)]])
def test_an_output_over_any_input_of_a_command_is_refused(name, source, via, tmp_path):
    """--out, or the --emit-curve file, over any input the command names exits 2
    before anything is read or written. Every input is at
    {tmp}/<option>.curve.csv (a directory for --scans), so that --out
    {tmp}/<option>.json makes it the --emit-curve file."""
    paths = {o: tmp_path / f"{o.strip('-')}.curve.csv"
             for o in [*path_inputs(main.commands[name]), "material_csv"]}
    argv = [name]
    for option, path in paths.items():
        if option == "--scans":
            path.mkdir()
        else:
            path.write_text("# not read\n")
        if option != "material_csv":
            argv += [option, str(path)]
    paths["--config"].write_text(f"material_csv={paths['material_csv']}\n")
    if via == "--emit-curve":
        argv += [via, "--out", str(paths[source].with_name(f"{source.strip('-')}.json"))]
    else:
        argv += ["--out", str(paths[source])]
    before = tree(tmp_path)
    result = CliRunner().invoke(main, argv)
    kind = "directory" if source == "--scans" else "file"
    assert result.exit_code == 2, result.output
    assert result.output == (f"error: {via} {paths[source]} is the {source} {kind} "
                             f"{paths[source]}: write the results into another {kind}\n")
    assert tree(tmp_path) == before


def test_the_readme_names_only_rows():
    assert len(set(IDS)) == len(IDS)
    text = README.read_text(encoding="utf-8")
    section = text.partition("**Where inputs are checked.**")[2].partition("\n\n")[2]
    table = [line for line in section.partition("\n\n")[0].splitlines() if line.startswith("|")]
    named = [i for line in table[2:] for i in re.findall(r"`([^`]+)`", line.split("|")[-2])]
    assert named, "no rows named under 'Where inputs are checked'"
    assert set(named) <= set(IDS), sorted(set(named) - set(IDS))
