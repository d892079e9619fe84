"""Deterministic synthetic-scan generator.

Produces the inverse of the analysis pipeline from the run configuration
(``RunConfig`` for the truth, grid, noise and seed) and the
``analysis.ForwardModel`` the fits use: grounded scans carrying theory +
residual electrostatic + linear drift + iid Gaussian noise, and
applied-voltage scans for the z0 fit. Sub-seeds derive
deterministically from (seed, scan index) via numpy's SeedSequence, so
identical seeds give byte-identical output. Both directions hold one scan
at a time: ``write_campaign`` writes each scan as it is drawn, and
``load_campaign`` keeps a grounded scan only as one row of the force matrix
that ``analysis.analyze_campaign`` averages. The theory cache spans what ``analyze``
will read (``campaign_span_nm``): a grid the z0 fit cannot use is refused before any write.

A large campaign's scans are shared out, interleaved, between this process
and one forked worker per further allowed CPU (``_in_shares``): formatting
and parsing the scan CSVs is about half of a large campaign's run, and
serially it is at numpy's floor.
"""

from __future__ import annotations

import gc
import io
import json
import mmap
import os
import pickle
import signal
from pathlib import Path

import numpy as np

from .analysis import COARSE_Z0_NM, ForwardModel, theory_span_nm
from .config import RunConfig
from .electrostatics import ElectrostaticConfig, sphere_plane_force_exact
from .errors import DataError
from .forcecurve import ForceCurve, load_scan, save_scan

DEFAULT_CAL_VOLTAGES = (0.31, 0.4, 0.5, 0.6, 0.7, 0.8)
# The work from which a forked worker pays for itself, measured on a
# 2-CPU shared host (Python 3.11, numpy 2.4). A worker costs a command about
# 30 ms of wall time (the fork, its copy-on-write faults, the second CPU
# taking it up) and at best halves the work it shares; a split needs about
# 120 ms of work, four times that cost, to pay on a host whose other CPU is
# often busy. Drawing and writing a scan takes about 0.5 us per row and
# parsing one about 16 ns per byte (23 bytes per row). So a campaign of
# 276 files x 4910 rows (30.6 MB) splits, and the default one, 33 x 982
# rows (0.73 MB), stays in one process.
SPLIT_MIN_ROWS = 250_000      # rows to draw and write: scan files x grid points
SPLIT_MIN_BYTES = 7_500_000   # bytes of scan files to parse


def generate_scans(cfg: RunConfig, model: ForwardModel, share=slice(None)):
    """Yield the campaign's scans one at a time, as ForceCurves.

    The grounded scans come first, then the applied-voltage scans, in the
    order ``write_campaign`` writes them; ``share`` slices that order, and
    only the scans in it are drawn. Grounded scans carry the drift term;
    voltage scans do not, matching the z0 fit model. Noise streams are
    independent per scan and reproducible from (seed, scan index): grounded
    scan i draws from stream i, voltage scan j from stream 10000 + j, so a
    scan is the same in every share that holds it. A scan is drawn only when
    it is asked for, so a caller that drops each one holds one scan at a time.
    """
    z = np.linspace(cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points)
    plan = [(f"scan_{i:03d}", 0.0, i, cfg.c_true_pn_per_nm) for i in range(cfg.n_scans)]
    plan += [(f"cal_{j:02d}", v, 10_000 + j, 0.0)
             for j, v in enumerate(DEFAULT_CAL_VOLTAGES)]
    models = {}
    for scan_id, voltage, stream, drift in plan[share]:
        # one noiseless model per (voltage, drift): all grounded scans share one
        if (voltage, drift) not in models:
            models[voltage, drift] = model.force_pn(z, cfg.z0_true_nm, voltage, drift)
        force = models[voltage, drift]
        if cfg.noise_pn > 0:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
            force = force + rng.normal(0.0, cfg.noise_pn, z.size)
        yield ForceCurve(scan_id, voltage, z, force_pn=force,
                         spring_constant=cfg.spring_constant_n_per_m)


def campaign_span_nm(cfg: RunConfig):
    """``analyze``'s span on the campaign of cfg, widened to the draws at z0_true_nm."""
    z0_nm = (min(COARSE_Z0_NM[0], cfg.z0_true_nm), max(COARSE_Z0_NM[1], cfg.z0_true_nm))
    return theory_span_nm([np.linspace(cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points)],
                          cfg.cap_offset_nm, (cfg.window_lo_nm, cfg.window_hi_nm), z0_nm)


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
        force_n = np.array([sphere_plane_force_exact(zi * 1e-9, e_cfg, v) for zi in z])
        if cfg.noise_pn > 0:
            force_n = force_n + rng.normal(0.0, cfg.noise_pn, z.size) * 1e-12
        deflection_nm = force_n / cfg.spring_constant_n_per_m * 1e9
        signal = deflection_nm / cfg.deflection_sensitivity_nm
        scans.append(ForceCurve(f"stiff_{j:02d}", v, z, signal=signal))
    return scans


def _processes(work: int, break_even: int) -> int:
    """Processes to share ``work`` between: this one, plus a forked worker
    for each full ``break_even`` of work, at most one per further allowed CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, 1 + work // break_even))


def _in_shares(work, processes: int) -> list:
    """``[work(0, processes), ..., work(processes - 1, processes)]``.

    Share 0 runs in this process and every other share in a forked worker,
    whose result comes back pickled over a pipe; ``work`` reports its
    failures in its result, so a worker never raises. A forked worker starts
    from this process's state (the model, the first scan) at no import cost;
    the commands run one thread (``cli`` sets one BLAS thread), so forking
    them is safe. A worker leaves only through ``os._exit``, and every worker
    is reaped; if this process fails, its workers are killed first. The
    objects that exist at the fork are frozen out of the garbage collector
    until the workers are reaped: a collection would write to every one of
    them, copying the pages the processes share.
    """
    if processes == 1:
        return [work(0, 1)]
    workers = []  # (pid, read end of its result pipe)
    gc.freeze()
    try:
        for share in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    for _, fd in workers:
                        os.close(fd)
                    with open(write_fd, "wb") as fh:
                        pickle.dump(work(share, processes), fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((pid, read_fd))
        results = [work(0, processes)]
        for pid, fd in workers:
            with open(fd, "rb", closefd=False) as fh:
                try:
                    results.append(pickle.load(fh))
                except EOFError:
                    raise RuntimeError(f"campaign worker {pid} exited without a "
                                       "result") from None
        return results
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)
        gc.unfreeze()


def _first_failure(failures):
    """Raise the exception of the earliest (index, exception) pair, if any."""
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


@np.errstate(over="ignore")  # an overflowing model gives non-finite cells, refused below
def write_campaign(outdir, cfg: RunConfig, model: ForwardModel) -> None:
    """Emit a campaign directory: scan CSVs plus the truth.json sidecar.

    Each scan is written as it is drawn, so one scan is held at a time, and
    its text is formatted before its file is opened, so a refused scan leaves
    no file. From ``SPLIT_MIN_ROWS`` rows (scans x grid points) on, the scans
    are shared out interleaved between this process and forked workers
    (``_processes``), each drawing only its own; the files are the same. A
    failure raises the error of the earliest scan in write order that fails.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def write_share(share, processes):
        """(write-order index, exception) of the share's first scan that
        fails, or None."""
        index = share
        try:
            for curve in generate_scans(cfg, model, slice(share, None, processes)):
                text = io.StringIO()
                save_scan(curve, text)
                tmp = outdir / f"{curve.scan_id}.csv.tmp"
                tmp.write_text(text.getvalue(), encoding="utf-8")
                tmp.replace(outdir / f"{curve.scan_id}.csv")
                index += processes
        except Exception as exc:
            return index, exc
        return None

    rows = (cfg.n_scans + len(DEFAULT_CAL_VOLTAGES)) * cfg.grid_points
    _first_failure(_in_shares(write_share, _processes(rows, SPLIT_MIN_ROWS)))
    truth = {
        "z0_true_nm": cfg.z0_true_nm,
        "c_true_pn_per_nm": cfg.c_true_pn_per_nm,
        "k_true_n_per_m": cfg.spring_constant_n_per_m,
        "cal_voltages_v": list(DEFAULT_CAL_VOLTAGES),
        "v2_residual_v": model.electro.V2,
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
    """Read back a campaign directory, one scan file at a time.

    Returns (first grounded scan, grounded forces, applied-voltage scans,
    raw stiffness scans). Signal-valued curves are stiffness-calibration
    scans; force-valued ones split on applied voltage. A grounded scan is
    kept only as its force, one row of a (scans x points) matrix whose k-th
    row is the k-th grounded file in name order; the first grounded scan
    gives the axis, and every other one must share it (``DataError`` naming
    the scan otherwise). Without grounded scans the first is None and the
    matrix empty.

    The files up to the first grounded scan are read here. From
    ``SPLIT_MIN_BYTES`` bytes of further files on, those are shared out
    interleaved between this process and forked workers (``_processes``).
    The matrix has one row per file from the first grounded one on, and each
    grounded force is written to its file's row; when the files are shared,
    the matrix is anonymous shared memory, so a worker's rows need no copy
    back and the peak memory does not grow. The rows are then compacted in
    place, and only the other scans come back pickled. A failure raises the
    error of the first failing file in name order, as reading the files in
    turn would.
    """
    indir = Path(indir)
    paths = sorted(indir.glob("*.csv"))
    if not paths:
        raise DataError(f"no scan files found in {indir}")
    others, first = {}, None  # others: voltage and stiffness scans by file index
    for g, path in enumerate(paths):
        curve = load_scan(path)
        if _grounded(curve):
            first = curve
            break
        others[g] = curve
    if first is None:
        return None, np.empty((0, 0)), *_voltage_and_stiffness(others)
    rest = range(g + 1, len(paths))
    processes = _processes(sum(paths[i].stat().st_size for i in rest), SPLIT_MIN_BYTES)
    shape = (len(paths) - g, first.piezo_nm.size)  # a row per file from the first
    forces = _shared_matrix(shape) if processes > 1 else np.empty(shape)
    forces[0] = first.force_pn

    def read_share(share, processes):
        """(other scans by file index, rows of the grounded ones, first failure
        as (file index, exception) or None) of the share's files."""
        found, grounded = {}, []
        try:
            for i in rest[share::processes]:
                curve = load_scan(paths[i])
                if not _grounded(curve):
                    found[i] = curve
                    continue
                if (curve.piezo_nm.size != first.piezo_nm.size
                        or np.abs(curve.piezo_nm - first.piezo_nm).max() > 1e-9):
                    raise DataError(f"scan {curve.scan_id} ({paths[i].name}): scan grids "
                                    f"differ from scan {first.scan_id}'s; resample "
                                    "before averaging")
                forces[i - g] = curve.force_pn
                grounded.append(i - g)
        except Exception as exc:
            return found, grounded, (i, exc)
        return found, grounded, None

    results = _in_shares(read_share, processes)
    _first_failure(failure for _, _, failure in results)
    rows = sorted([0, *(row for _, grounded, _ in results for row in grounded)])
    for k, row in enumerate(rows):  # row >= k: each row moves up, past rows done
        if row != k:
            forces[k] = forces[row]
    for found, _, _ in results:
        others.update(found)
    return first, forces[:len(rows)], *_voltage_and_stiffness(others)


def _grounded(curve: ForceCurve) -> bool:
    return curve.has_force and curve.applied_voltage == 0.0


def _shared_matrix(shape) -> np.ndarray:
    """A float matrix in anonymous shared memory, which forked workers write."""
    return np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), dtype=float).reshape(shape)


def _voltage_and_stiffness(scans: dict):
    """(applied-voltage scans, stiffness scans) of {file index: scan}, in file order."""
    ordered = [scans[i] for i in sorted(scans)]
    return ([c for c in ordered if c.has_force], [c for c in ordered if not c.has_force])
