"""casimirlab benchmark: the paper's loop as users run it, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it runs the package in ``src/``
with ``python3 -m casimirlab.cli`` and writes only under ``.perfbench_work/``,
where a traced run leaves its span files (``traces/<workload>/``).

Each workload is a chain of casimirlab commands. The loop is closed with one
client: each command starts after the previous one exits, one at a time. A
pass is one run of the chain; every pass checks its outputs, and a command
that exits non-zero or fails a check counts as a failed operation.

``--trace 0`` sets up three times (fresh work directory, seeded inputs and a
warm-up: the chain's first command at smoke size) and then starts passes
until ``--seconds`` have elapsed. It reports the end-to-end metrics. ``--trace 1`` runs
one untraced pass and one traced pass, where each command runs through
``perfbench/tracer.py``, plus an import-time breakdown, and reports the
per-layer metrics. ``--smoke`` runs every workload at smoke size through both
paths and checks that every metric is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the same metrics with their sample counts, and the environment.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MATERIAL = SRC / "casimirlab" / "data" / "al_eps2_drude.csv"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"   # workload and metric names, units and bounds

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s; a stuck command is killed
SMOKE_CONFIG = "theory_cache_points=8\nn_scans=2\ngrid_points=120\n"

# Criterion 8 bounds (README): z0 within 1.5 nm of the truth, reduced chi2 in [0.7, 1.3].
Z0_TOLERANCE_NM = 1.5
CHI2_RANGE = (0.7, 1.3)
K_REL_TOLERANCE = 1e-6
THEORY_REL_TOLERANCE = 1e-4  # the default config's rel_tol

# ---------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Command:
    """One finished child process: exit code, wall time and rusage."""

    def __init__(self, label, argv, cwd, deadline):
        self.label = label
        log_path = Path(cwd) / f"{label}.stderr"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=log)
            watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = log_path.read_text(errors="replace")[-2000:]


def casimirlab(*args):
    return [sys.executable, "-m", "casimirlab.cli", *map(str, args)]


# ------------------------------------------------------------ output checks

def strict_json(path):
    """Parse a JSON output, rejecting NaN and infinities anywhere in it."""
    def reject(token):
        raise ValueError(f"non-finite value {token} in {Path(path).name}")
    return json.loads(Path(path).read_text(), parse_constant=reject)


def read_csv_rows(path):
    """Numeric rows of a casimirlab output CSV (metadata and header skipped)."""
    rows = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        row = [float(v) for v in line.split(",")]
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"non-finite value in {Path(path).name}: {line}")
        rows.append(row)
    return rows


def digest(top):
    """sha256 over the names and bytes of every file under directory ``top``."""
    h = hashlib.sha256()
    for p in sorted(p for p in Path(top).rglob("*") if p.is_file()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def row_at(rows, x):
    return min(rows, key=lambda r: abs(r[0] - x))


# ---------------------------------------------------------------- workloads

class Workload:
    """A command chain with its seeded inputs and its output checks.

    ``full`` selects the benchmark size; smoke size (``full=False``) is the
    warm-ups and the smoke path, and checks structure but not physics.
    """

    name = ""
    theory_model = "none"   # the reference model the traced run checks theory against

    def prepare(self, inputs, seed):
        """Write the seeded inputs (configs, scans) into ``inputs``."""
        (inputs / "smoke.cfg").write_text(SMOKE_CONFIG)

    def commands(self, inputs, out, seed, full):
        raise NotImplementedError

    def check(self, label, inputs, out, full):
        """Raise on a wrong output of command ``label``."""
        raise NotImplementedError

    def digests(self, out):
        """Outputs that must be byte-identical across passes at one seed."""
        return {}


class Campaign(Workload):
    """synth -> analyze -> compare (-> fit-z0) on a seeded campaign."""

    theory_model = "drude"

    def __init__(self, name, config, compare_args, fit_z0):
        self.name = name
        self.config, self.compare_args, self.fit_z0 = config, compare_args, fit_z0

    def prepare(self, inputs, seed):
        super().prepare(inputs, seed)
        if self.config:
            (inputs / "run.cfg").write_text(self.config)

    def commands(self, inputs, out, seed, full):
        if full:
            cfg = ["--config", inputs / "run.cfg"] if self.config else []
            n_scans = self.compare_args
        else:
            cfg, n_scans = ["--config", inputs / "smoke.cfg"], ["--n-scans", 2]
        chain = [
            ("synth", casimirlab("synth", "--seed", seed, "--out", out / "campaign", *cfg)),
            ("analyze", casimirlab("analyze", "--scans", out / "campaign",
                                   "--out", out / "results", *cfg)),
            ("compare", casimirlab("compare", "--curve", out / "results" / "mean_curve.csv",
                                   "--out", out / "compare.json", *n_scans, *cfg)),
        ]
        if self.fit_z0:
            chain.append(("fit-z0", casimirlab("fit-z0", "--scan", out / "campaign" / "cal_00.csv",
                                               "--out", out / "z0.json", *cfg)))
        return chain

    def check(self, label, inputs, out, full):
        truth = strict_json(out / "campaign" / "truth.json")
        if label == "synth":
            n_csv = len(list((out / "campaign").glob("*.csv")))
            if n_csv != truth["n_scans"] + len(truth["cal_voltages_v"]):
                raise ValueError(f"synth wrote {n_csv} scans")
            return
        if label == "analyze":
            doc = strict_json(out / "results" / "results.json")
            read_csv_rows(out / "results" / "mean_curve.csv")
            z0, chi2 = doc["z0_nm"], doc["reduced_chi2"]
        elif label == "compare":
            doc = strict_json(out / "compare.json")
            z0, chi2 = None, doc["reduced_chi2"]
        else:
            doc = strict_json(out / "z0.json")
            z0, chi2 = doc["z0_nm"], None
        if not full:
            return
        if z0 is not None and abs(z0 - truth["z0_true_nm"]) > Z0_TOLERANCE_NM:
            raise ValueError(f"{label}: z0 {z0} nm is {abs(z0 - truth['z0_true_nm']):.3g} nm off")
        if chi2 is not None and not CHI2_RANGE[0] <= chi2 <= CHI2_RANGE[1]:
            raise ValueError(f"{label}: reduced chi2 {chi2} outside {CHI2_RANGE}")

    def digests(self, out):
        return {"synth": digest(out / "campaign"), "analyze": digest(out / "results")}


class TheoryTabulated(Workload):
    name = "theory-tabulated"
    theory_model = "tabulated"

    def commands(self, inputs, out, seed, full):
        z, xi = ("100:500:441", "0.01:100:61") if full else ("100:500:9", "0.01:100:7")
        cfg = [] if full else ["--config", inputs / "smoke.cfg"]
        return [
            ("theory", casimirlab("theory", "--material", MATERIAL, "--z", z,
                                  "--out", out / "theory.csv", *cfg)),
            ("epsilon", casimirlab("epsilon", "--material", MATERIAL, "--xi-ev", xi,
                                   "--out", out / "eps.csv", *cfg)),
        ]

    def check(self, label, inputs, out, full):
        if label == "theory":
            rows = read_csv_rows(out / "theory.csv")
            if any(f >= 0 for _, f in rows):
                raise ValueError("theory force not attractive everywhere")
            if full:
                for z_nm, f_ref in zip(reference.REFERENCE_Z_NM,
                                       reference.CORRECTED_N["tabulated"]):
                    z, f = row_at(rows, z_nm)
                    err = abs(f * 1e-12 / f_ref - 1.0)
                    if abs(z - z_nm) > 1e-6 or err > THEORY_REL_TOLERANCE:
                        raise ValueError(f"theory at {z_nm} nm off the reference by {err:.3g}")
        else:
            eps = [e for _, e in read_csv_rows(out / "eps.csv")]
            if not all(1.0 < b < a for a, b in zip(eps, eps[1:])):
                raise ValueError("eps(i xi) not above 1 and strictly decreasing")


EPS0 = 8.8541878128e-12
RADIUS_M = 100.85e-6   # default sphere radius
V2_V = 7.9e-3          # default residual potential


def exact_force_n(z_nm, v):
    """Sphere-plane image-series force in N at the default radius and residual
    potential, summed here independently of the package to 1e-15."""
    a = math.acosh(1.0 + z_nm * 1e-9 / RADIUS_M)
    coth_a = 1.0 / math.tanh(a)
    total, n = 0.0, 1
    while True:
        term = (coth_a - n / math.tanh(n * a)) / math.sinh(n * a)
        total += term
        if abs(term) < 1e-15 * abs(total):
            break
        n += 1
    return 2.0 * math.pi * EPS0 * (v - V2_V) ** 2 * total


class QuickCommands(Workload):
    name = "quick-commands"

    def prepare(self, inputs, seed):
        """Noiseless raw-signal stiffness scans with a seeded k, voltages and grids."""
        super().prepare(inputs, seed)
        rng = random.Random(seed)
        k_true = rng.uniform(0.01, 0.03)
        stiff = inputs / "stiffness"
        stiff.mkdir()
        for j in range(rng.randint(2, 4)):
            v = rng.uniform(0.2, 1.0)
            lo = rng.uniform(2050.0, 2500.0)
            n = rng.randint(30, 60)
            z = [lo]
            for _ in range(n - 1):
                z.append(z[-1] + rng.uniform(20.0, 40.0))
            lines = [f"# scan_id=stiff_{j:02d}", f"# applied_voltage_v={v!r}", "piezo_nm,signal"]
            lines += [f"{zi!r},{exact_force_n(zi, v) / k_true * 1e9!r}" for zi in z]
            (stiff / f"stiff_{j:02d}.csv").write_text("\n".join(lines) + "\n")
        (inputs / "k_true.json").write_text(json.dumps({"k_true": k_true}))

    def commands(self, inputs, out, seed, full):
        z, xi = ("100:500:41", "0.01:100:61") if full else ("100:500:5", "0.01:100:7")
        return [
            ("electro", casimirlab("electro", "--z", z, "--voltage", 0.31,
                                   "--out", out / "electro.csv")),
            ("epsilon", casimirlab("epsilon", "--xi-ev", xi, "--out", out / "eps.csv")),
            ("calibrate-k", casimirlab("calibrate-k", "--scans", inputs / "stiffness",
                                       "--out", out / "k.json")),
        ]

    def check(self, label, inputs, out, full):
        if label == "electro":
            for z, exact, pfa in read_csv_rows(out / "electro.csv"):
                want_exact = exact_force_n(z, 0.31) * 1e12
                want_pfa = -math.pi * EPS0 * RADIUS_M * (0.31 - V2_V) ** 2 / (z * 1e-9) * 1e12
                if abs(exact / want_exact - 1.0) > 1e-8 or abs(pfa / want_pfa - 1.0) > 1e-8:
                    raise ValueError(f"electro at {z} nm: exact {exact} (want {want_exact}), "
                                     f"pfa {pfa} (want {want_pfa})")
        elif label == "epsilon":
            hbar, ev = 6.62607015e-34 / (2 * math.pi), 1.602176634e-19
            wp, gamma = 12.398 * ev / hbar, 0.063 * ev / hbar
            for xi_ev, eps in read_csv_rows(out / "eps.csv"):
                xi = xi_ev * ev / hbar
                expected = 1.0 + wp * wp / (xi * xi + gamma * xi)
                if abs(eps / expected - 1.0) > 1e-8:
                    raise ValueError(f"Drude eps at {xi_ev} eV: {eps} != {expected}")
        else:
            k = strict_json(out / "k.json")["spring_constant_n_per_m"]
            k_true = json.loads((inputs / "k_true.json").read_text())["k_true"]
            if abs(k / k_true - 1.0) > K_REL_TOLERANCE:
                raise ValueError(f"calibrate-k: k {k} vs truth {k_true}")


WORKLOADS = {w.name: w for w in (
    Campaign("campaign-default", "", [], fit_z0=True),
    TheoryTabulated(),
    Campaign("campaign-large", "n_scans=270\ngrid_points=4910\ntheory_cache_points=40\n",
             ["--n-scans", 270], fit_z0=False),
    QuickCommands(),
)}


# ------------------------------------------------------------------- passes

class Pass:
    """One run of a workload's chain in a fresh directory, checked."""

    def __init__(self, workload, inputs, out, seed, full, runner, first_only=False):
        out.mkdir(parents=True)
        self.results = []
        self.failures = {}
        chain = workload.commands(inputs, out, seed, full)
        for label, argv in chain[:1] if first_only else chain:
            result = runner(label, argv, out)
            self.results.append(result)
            if result.rc != 0:
                self.failures[label] = f"exit {result.rc}: {result.stderr.strip()[-300:]}"
                continue
            try:
                workload.check(label, inputs, out, full)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self.failures[label] = f"{type(exc).__name__}: {exc}"
        self.digests = workload.digests(out)
        self.wall_s = sum(r.wall_s for r in self.results)
        self.cpu_s = sum(r.cpu_s for r in self.results)
        self.rss_mb = max(r.rss_mb for r in self.results)


def compare_digests(passes):
    """Failures for outputs that differ from the first pass's bytes."""
    failures = {}
    for p in passes[1:]:
        for label, value in p.digests.items():
            if value != passes[0].digests.get(label):
                failures[label] = "output bytes differ between passes at one seed"
    return failures


def setup(workload, run_dir, seed, repeats, runner):
    """Fresh inputs plus a warm-up, ``repeats`` times.

    The warm-up runs the chain's first command at smoke size, which imports
    every layer and, for the theory users, builds a small theory cache.
    A full-size or whole-chain warm-up, three times over, would not fit the
    run's time budget.

    Returns (input directory, setup times, warm-up passes).
    """
    times, warmups = [], []
    for i in range(repeats):
        start = time.perf_counter()
        inputs = run_dir / f"setup_{i}" / "inputs"
        inputs.mkdir(parents=True)
        workload.prepare(inputs, seed)
        warmups.append(Pass(workload, inputs, run_dir / f"setup_{i}" / "warmup", seed, False,
                            runner, first_only=True))
        times.append(time.perf_counter() - start)
    return inputs, times, warmups


# ------------------------------------------------------------------ metrics

def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def import_breakdown():
    """(cli import s, scipy.optimize import s), medians of fresh -X importtime runs."""
    totals, optimize = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casimirlab.cli"],
                              env=child_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        total = opt = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip() == "scipy.optimize":
                opt = int(cumulative) * 1e-6
            if name.startswith(" casimirlab"):  # a top-level import
                total += int(cumulative) * 1e-6
        totals.append(total)
        optimize.append(opt)
    return statistics.median(totals), statistics.median(optimize)


def layer_metrics(traces):
    """Per-layer metrics summed over the traced commands of one pass."""
    count, total, self_s = {}, {}, {}
    under = {}  # (name, parent) -> count
    for doc in traces:
        for span in doc["spans"]:
            name = span["name"]
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (span["end"] - span["start"])
            self_s[name] = self_s.get(name, 0.0) + span["self"]
        for name, parent, n, t, s in doc["counters"]:
            count[name] = count.get(name, 0) + n
            total[name] = total.get(name, 0.0) + t
            self_s[name] = self_s.get(name, 0.0) + s
            under[name, parent] = under.get((name, parent), 0) + n

    def ratio(a, b):
        return a / b if b else 0.0

    def worst(key):
        return max((d[key] for d in traces if d[key] is not None), default=0.0)

    eps_calls = count.get("dielectric.DielectricModel.eps", 0)
    force_calls = count.get("lifshitz.casimir_force_sphere_plate", 0)
    fit_calls = count.get("analysis.fit_contact_separation", 0)
    return {
        "cli.write_s": total.get("cli.atomic_write", 0.0),
        "dielectric.eps_calls": eps_calls,
        "dielectric.eps_s": total.get("dielectric.DielectricModel.eps", 0.0),
        "dielectric.eps_unique_ratio": ratio(sum(d["eps_distinct"] for d in traces), eps_calls),
        "dielectric.load_table_s": total.get("dielectric.load_optical_table", 0.0),
        "lifshitz.force_calls": force_calls,
        "lifshitz.force_self_s": self_s.get("lifshitz.casimir_force_sphere_plate", 0.0),
        "lifshitz.eps_per_force": ratio(
            under.get(("dielectric.DielectricModel.eps", "lifshitz.casimir_force_sphere_plate"), 0),
            force_calls),
        "lifshitz.rel_err_max": worst("lifshitz_rel_err_max"),
        "corrections.theory_curve_builds": count.get("corrections.TheoryCurve.__init__", 0),
        "corrections.theory_curve_build_s": total.get("corrections.TheoryCurve.__init__", 0.0),
        "corrections.theory_curve_calls": count.get("corrections.TheoryCurve.__call__", 0),
        "corrections.theory_curve_points": sum(d["theory_points"] for d in traces),
        "corrections.theory_curve_eval_s": total.get("corrections.TheoryCurve.__call__", 0.0),
        "corrections.spline_rel_err_max": worst("spline_rel_err_max"),
        "electrostatics.exact_calls": count.get("electrostatics.sphere_plane_force_exact", 0),
        "electrostatics.exact_s": total.get("electrostatics.sphere_plane_force_exact", 0.0),
        "forcecurve.save_scan_calls": count.get("forcecurve.save_scan", 0),
        "forcecurve.save_scan_s": total.get("forcecurve.save_scan", 0.0),
        "forcecurve.load_scan_calls": count.get("forcecurve.load_scan", 0),
        "forcecurve.load_scan_s": total.get("forcecurve.load_scan", 0.0),
        "forcecurve.rows_written": sum(d["rows_written"] for d in traces),
        "forcecurve.rows_read": sum(d["rows_read"] for d in traces),
        "forcecurve.bytes_written": sum(d["bytes_written"] for d in traces),
        "synth.generate_s": total.get("synth.generate_scans", 0.0),
        "synth.write_campaign_self_s": self_s.get("synth.write_campaign", 0.0),
        "synth.load_campaign_self_s": self_s.get("synth.load_campaign", 0.0),
        "analysis.fit_z0_calls": fit_calls,
        "analysis.fit_z0_s": total.get("analysis.fit_contact_separation", 0.0),
        "analysis.theory_evals_per_fit_z0": ratio(
            under.get(("corrections.TheoryCurve.__call__", "analysis.fit_contact_separation"), 0),
            fit_calls),
        "analysis.drift_extract_s": (total.get("analysis.fit_drift_coefficient", 0.0)
                                     + total.get("analysis.extract_casimir", 0.0)),
        "analysis.average_s": total.get("analysis.average_scans", 0.0),
        "analysis.compare_s": total.get("analysis.compare_to_theory", 0.0),
        "analysis.calibrate_k_s": total.get("analysis.calibrate_spring_constant", 0.0),
    }


def fit_quality(out):
    """(|z0 - truth| nm, reduced chi2) of a campaign pass, zeros elsewhere."""
    results = out / "results" / "results.json"
    if not results.exists():
        return 0.0, 0.0
    doc = strict_json(results)
    truth = strict_json(out / "campaign" / "truth.json")
    return abs(doc["z0_nm"] - truth["z0_true_nm"]), doc["reduced_chi2"]


# -------------------------------------------------------------------- modes

def environment():
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in threads},
        "loadavg_before": list(os.getloadavg()),
        "page_cache": "warm: setup runs a warm-up command first; the benchmark drops no caches",
        "cpu_pinning": "none: CPUs are shared and unpinned; the benchmark pins nothing",
    }


def run_timed(workload, run_dir, seed, seconds, repeats, full, runner):
    inputs, setup_times, warmups = setup(workload, run_dir, seed, repeats, runner)
    passes = []
    start = time.perf_counter()
    while True:
        out = run_dir / f"pass_{len(passes)}"
        passes.append(Pass(workload, inputs, out, seed, full, runner))
        if not passes[-1].failures:
            shutil.rmtree(out)
        if time.perf_counter() - start >= seconds:
            break
    failures = ([p.failures for p in warmups + passes]
                + [compare_digests(warmups), compare_digests(passes)])
    walls = [p.wall_s for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    samples = {"wall_s": len(passes), "cpu_s": len(passes),
               "peak_rss_mb": len(passes), "setup_s": len(setup_times)}
    attempted = sum(len(p.results) for p in warmups + passes)
    detail = {
        "wall_s_tail": tail_percentile(walls),
        "commands": {r.label: round(statistics.median(
            x.wall_s for p in passes for x in p.results if x.label == r.label), 4)
            for r in passes[0].results},
    }
    return metrics, samples, attempted, failures, detail


def traced_command(workload, label, argv, cwd, deadline):
    """Run a command through tracer.py; its wall time excludes the tracer's post-run checks."""
    trace_path = Path(cwd) / f"{label}.trace.json"
    result = Command(label, [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                             workload.theory_model, "--", *argv[3:]], cwd, deadline)
    result.trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
    if result.trace is not None:
        result.wall_s -= result.trace["post_s"]
    elif result.rc == 0:
        result.rc, result.stderr = 1, "the tracer wrote no trace"
    return result


def run_traced(workload, run_dir, seed, full, deadline):
    def runner(label, argv, out):
        return Command(label, argv, out, deadline)

    inputs, _, warmups = setup(workload, run_dir, seed, 1, runner)
    plain = Pass(workload, inputs, run_dir / "untraced", seed, full, runner)
    traced = Pass(workload, inputs, run_dir / "traced", seed, full,
                  lambda label, argv, out: traced_command(workload, label, argv, out, deadline))
    traces = [r.trace for r in traced.results if r.trace is not None]
    kept = WORK / "traces" / workload.name
    shutil.rmtree(kept, ignore_errors=True)
    shutil.copytree(run_dir / "traced", kept, ignore=shutil.ignore_patterns("campaign", "results"))
    metrics = layer_metrics(traces)
    metrics["cli.import_s"], metrics["cli.import_scipy_optimize_s"] = import_breakdown()
    if full:
        metrics["analysis.z0_abs_err_nm"], metrics["analysis.reduced_chi2"] = \
            fit_quality(run_dir / "traced")
    else:
        metrics["analysis.z0_abs_err_nm"] = metrics["analysis.reduced_chi2"] = 0.0
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    passes = warmups + [plain, traced]
    failures = [p.failures for p in passes] + [compare_digests([plain, traced])]
    detail = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
              "spans": str(kept.relative_to(ROOT))}
    samples = {name: 1 for name in metrics}
    return metrics, samples, sum(len(p.results) for p in passes), failures, detail


def report(spec, workload, seed, seconds, trace, env, metrics, samples, attempted, failures,
           detail):
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from {SPEC.name}: missing {sorted(set(units) - set(metrics))},"
                         f" unlisted {sorted(set(metrics) - set(units))}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    failed_labels = [f"{label}: {msg}" for group in failures for label, msg in group.items()]
    failed = sum(len(group) for group in failures if group)
    env["loadavg_after"] = list(os.getloadavg())
    print(f"# casimirlab benchmark: workload={workload.name} seed={seed} "
          f"seconds={seconds} trace={trace}")
    print(f"# why: {why}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit:6s} n={samples[name]}")
    if not trace:
        tail = detail["wall_s_tail"]
        print("# wall_s tail: " + (f"p{tail[0]} = {tail[1]:.4g} s" if tail else
                                   f"none (n={samples['wall_s']}; needs >= 11 passes)"))
    print(f"# failed_ops {failed} of {attempted}")
    for line in failed_labels:
        print(f"# FAILED {line}")
    print("# detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    sys.stdout.flush()
    return failed


def run(spec, workload, seed, seconds, trace, full=True, repeats=SETUP_REPEATS):
    deadline = time.monotonic() + RUN_BUDGET_S
    env = environment()
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            outcome = run_traced(workload, run_dir, seed, full, deadline)
        else:
            outcome = run_timed(workload, run_dir, seed, seconds, repeats, full,
                                lambda label, argv, out: Command(label, argv, out, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, samples, attempted, failures, detail = outcome
    return report(spec, workload, seed, seconds, trace, env, metrics, samples, attempted,
                  failures, detail)


def smoke(spec):
    """Every workload at smoke size, untraced and traced.

    report() stops the run unless each reports exactly the metrics that
    BENCHMARK.json names.
    """
    bad = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        bad.append(f"workloads in {SPEC.name} differ from {list(WORKLOADS)}")
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            failed = run(spec, workload, seed=1, seconds=0, trace=trace, full=False, repeats=1)
            if failed:
                bad.append(f"{workload.name} trace={trace}: {failed} failed")
    for line in bad:
        print(f"# SMOKE FAILED {line}")
    print(f"# smoke: {'FAILED' if bad else 'ok'}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size through both paths")
    args = parser.parse_args(argv)
    if not (SRC / "casimirlab" / "cli.py").is_file():
        print(f"error: no casimirlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    run(spec, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
