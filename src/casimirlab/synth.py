"""Deterministic synthetic-scan generator.

Produces the inverse of the analysis pipeline from the run configuration
(``RunConfig`` for the truth, grid, noise and seed) and the
``analysis.ForwardModel`` the fits use: grounded scans carrying theory +
residual electrostatic + linear drift + iid Gaussian noise, and
applied-voltage scans for the z0 fit. Each scan's noise is drawn from its
own stream, the standard library's Mersenne Twister seeded from (seed,
scan's stream), shaped into normals by the Box-Muller transform in numpy
(``_normal``), so identical seeds give byte-identical output; numpy.random
is not imported, as it loads OpenSSL (through ``secrets``) and eleven
extension modules, 5.6 MiB of resident memory. Both directions hold one scan
at a time: ``write_campaign`` writes each scan as it is drawn (and returns
the truth, which ``cli.synth`` records as truth.json), and ``load_campaign``
streams the grounded scans' force columns, on their one axis, which
``analysis.analyze_campaign`` folds into its running sums one at a time. The
theory cache spans what ``analyze`` will read (``campaign_span_nm``): a grid
the z0 fit cannot use, one whose fit would reach contact or read a correction
outside its regime, is refused before any write, as is an output directory
that is not empty.

A large campaign's scans are shared out, interleaved, between this process
and one forked worker per further allowed CPU (``_in_shares``): formatting
and parsing the scan CSVs is about half of a large campaign's run, and
serially it is at numpy's floor. The workers send their results back in
turn (a reading worker only each scan's force column), so either direction
sees the scans in the serial loop's order.
"""

from __future__ import annotations

import gc
import io
import os
import pickle
import random
from pathlib import Path

import numpy as np

from .analysis import DRIFT_REGION_MIN_NM, ForwardModel, theory_span_nm
from .config import RunConfig
from .errors import DataError
from .forcecurve import ForceCurve, atomic_write, axis_text, load_scan, save_scan, scan_is_grounded

DEFAULT_CAL_VOLTAGES = (0.31, 0.4, 0.5, 0.6, 0.7, 0.8)
# The work from which a forked worker pays for itself, measured on a
# 2-CPU shared host (Python 3.11, numpy 2.4). A worker costs a command about
# 30 ms of wall time (the fork, its copy-on-write faults, the second CPU
# taking it up) and at best halves the work it shares; a split needs about
# 120 ms of work, four times that cost, to pay on a host whose other CPU is
# often busy. A row costs about 0.5 us to draw and write and 0.37 us to parse
# (16 ns per byte, 23 bytes per row): a write splits from 125 ms of work and a
# read from 90 ms. So a campaign of 276 files x 4910 rows splits both ways,
# and the default one, 33 x 982 rows, stays in one process.
SPLIT_MIN_ROWS = 250_000   # rows to draw and write, or to parse: scans x grid points


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
    z = _axis(cfg)
    models = {}
    for scan_id, voltage, stream, drift in _plan(cfg)[share]:
        # one noiseless model per (voltage, drift): all grounded scans share one
        if (voltage, drift) not in models:
            models[voltage, drift] = model.force_pn(z, cfg.z0_true_nm, voltage, drift)
        force = models[voltage, drift]
        if cfg.noise_pn > 0:
            force = force + cfg.noise_pn * _normal(cfg.seed, stream, z.size)
        yield ForceCurve(scan_id, voltage, z, force_pn=force,
                         spring_constant=cfg.spring_constant_n_per_m)


def _normal(seed: int, stream: int, n: int):
    """``n`` standard normal draws, the same for the same (seed, stream).

    The Mersenne Twister seeded with the text "seed/stream" (injective in the
    pair; CPython hashes a str seed with its built-in SHA-512) gives two
    53-bit uniforms on (0, 1] per pair of draws, and the Box-Muller
    transform turns each pair into two independent normals.
    """
    pairs = (n + 1) // 2
    words = np.frombuffer(random.Random(f"{seed}/{stream}").randbytes(16 * pairs), "<u8")
    u = ((words >> 11) + 1) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[:pairs]))
    theta = 2.0 * np.pi * u[pairs:]
    return np.concatenate((r * np.cos(theta), r * np.sin(theta)))[:n]


def _axis(cfg: RunConfig) -> np.ndarray:
    """The piezo axis in nm that every scan of the campaign of cfg is drawn on."""
    return np.linspace(cfg.grid_lo_nm, cfg.grid_hi_nm, cfg.grid_points)


def _plan(cfg: RunConfig):
    """(scan id, applied voltage, noise stream, drift) of each scan, in write order."""
    plan = [(f"scan_{i:03d}", 0.0, i, cfg.c_true_pn_per_nm) for i in range(cfg.n_scans)]
    return plan + [(f"cal_{j:02d}", v, 10_000 + j, 0.0)
                   for j, v in enumerate(DEFAULT_CAL_VOLTAGES)]


def campaign_span_nm(cfg: RunConfig):
    """``analyze``'s span on the campaign of cfg: ``theory_span_nm`` on its grid.
    It holds the draws at z0_true_nm, which the range table keeps inside
    ``analysis.Z0_BRACKET_NM``."""
    return theory_span_nm([_axis(cfg)], cfg.cap_offset_nm, (cfg.window_lo_nm, cfg.window_hi_nm),
                          first_name="grid_lo_nm")


def _processes(rows: int) -> int:
    """Processes to share ``rows`` of work between: this one, plus a forked worker
    for each full ``SPLIT_MIN_ROWS``, at most one per further allowed CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, 1 + rows // SPLIT_MIN_ROWS))


def _in_shares(work, n: int, processes: int):
    """Yield the ``n`` results of ``work`` in order, the i-th from share
    i % processes.

    ``work(share, processes)`` yields the results of its share's items in
    order. Share 0 runs in this process and every other share in a forked
    worker, which sends each result back pickled over its pipe as soon as it
    has it; the pipe's capacity bounds how far it runs ahead.
    A share that raises sends the exception itself in place of its next result
    (``_reported``), and it is raised when that item's turn comes, so the
    error raised is the one a serial loop over the items raises first. The
    workers are forked at the first result asked for, so they start from this
    process's state then (the model, the first scan) at no import cost; the
    commands run one thread (``cli`` sets one BLAS thread), so forking them is
    safe. A worker leaves only through ``os._exit``. When the stream ends,
    fails or is closed, the pipes are closed, so a worker still running stops
    at its next result, and every worker is reaped. The objects that exist at
    the fork are frozen out of the garbage collector until then: a collection
    would write to every one of them, copying the pages the processes share.
    """
    if processes == 1:
        yield from work(0, 1)
        return
    workers = []  # (pid, its result pipe's read end, as a file)
    gc.freeze()
    try:
        for share in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    for _, fh in workers:
                        fh.close()
                    with open(write_fd, "wb") as fh:
                        for result in _reported(work(share, processes)):
                            fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                            fh.flush()
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        shares = [_reported(work(0, processes)), *(_unpickled(*w) for w in workers)]
        for i in range(n):
            result = next(shares[i % processes])
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pid, fh in workers:
            fh.close()
            os.waitpid(pid, 0)
        gc.unfreeze()


def _reported(results):
    """``results``, then the exception it raises, if any, in place of its next
    result; no result is an exception (a write share yields None, a read share
    float arrays), so ``_in_shares`` raises any result that is."""
    try:
        yield from results
    except Exception as exc:
        yield exc


def _unpickled(pid: int, fh):
    """The results a worker sends over its pipe, in order."""
    while True:
        try:
            yield pickle.load(fh)
        except EOFError:
            raise RuntimeError(f"campaign worker {pid} exited without a result") from None


# an overflowing model or noise gives non-finite cells (NaN where an infinite
# model meets infinite noise), refused below
@np.errstate(over="ignore", invalid="ignore")
def write_campaign(outdir, cfg: RunConfig, model: ForwardModel) -> dict:
    """Write a campaign directory of scan CSVs, and return the truth they were
    drawn from: the record ``cli.synth`` writes beside them as truth.json.

    Each scan is written as it is drawn, so one scan is held at a time, and
    its text is formatted before its file is opened, so a refused scan leaves
    no file. From ``SPLIT_MIN_ROWS`` rows (scans x grid points) on, the scans
    are shared out interleaved between this process and forked workers
    (``_processes``), each drawing only its own; the files are the same. A
    failure raises the error of the earliest scan in write order that fails.
    A grid whose 9-digit text does not strictly increase, which ``load_scan``
    refuses, or ends short of region 3, which ``analyze_campaign`` refuses, and
    an ``outdir`` that exists and is not empty are refused before anything is
    written: each campaign goes into a new directory, so no file of another
    campaign or of a killed run is read with it.
    """
    written = axis_text(_axis(cfg)).split()   # formatted once, for every scan and worker
    if not np.all(np.diff(np.array(written, dtype=float)) > 0):
        raise DataError(f"grid_lo_nm = {cfg.grid_lo_nm!r}, grid_hi_nm = {cfg.grid_hi_nm!r}, "
                        f"grid_points = {cfg.grid_points}: piezo axis not increasing in 9 digits")
    if not float(written[-1]) > DRIFT_REGION_MIN_NM:
        raise DataError(f"grid_hi_nm = {cfg.grid_hi_nm!r}: no scan point beyond "
                        f"{DRIFT_REGION_MIN_NM:g} nm, the region 3 where analyze fits the drift")
    outdir = Path(outdir)
    if outdir.exists() and any(outdir.iterdir()):
        raise DataError(f"{outdir} is not empty: write the campaign into a new directory")
    outdir.mkdir(parents=True, exist_ok=True)

    def write_share(share, processes):
        for curve in generate_scans(cfg, model, slice(share, None, processes)):
            text = io.StringIO()
            save_scan(curve, text)
            atomic_write(outdir / f"{curve.scan_id}.csv", text.getvalue())
            yield None

    files = len(_plan(cfg))
    for _ in _in_shares(write_share, files, _processes(files * cfg.grid_points)):
        pass
    return {
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


def load_campaign(indir):
    """The scans of a campaign directory, as ``(scans, axis, forces)``: the
    voltage and stiffness scans as ForceCurves, the first grounded scan's
    piezo axis (None without a grounded scan), and a closable stream of the
    grounded scans' force columns; each in file-name order.

    Every file is classified first, from the lines before its first row
    (``scan_is_grounded``), so an unrecognized header raises here, naming the
    file. The scans and the first grounded one are read here, and each later
    grounded scan only when its column is asked for, so a caller that drops
    each column holds one at a time. Each must share the first one's axis
    (``DataError`` naming the scan and its file otherwise). The reader refuses
    a key set twice, so a scan classified grounded reads as grounded.
    ``truth.json``, the generator's record, is not read.

    From ``SPLIT_MIN_ROWS`` rows of grounded scans after the first on (their
    number times the axis's points), those are shared out interleaved
    between this process and forked workers (``_processes``), forked when the
    second column is asked for: a caller that fits z0 and builds its model
    first does so once, and the workers start from it. A worker checks the
    axis of each scan it parses and sends back only its force column. Each
    error is raised when its file's turn comes, so the error raised is the
    one of the first failing file in this order.
    """
    indir = Path(indir)
    # names, not paths: a path opened keeps its text, and every file is opened here
    names = sorted(path.name for path in indir.glob("*.csv"))
    if not names:
        raise DataError(f"no scan files found in {indir}")
    is_grounded = [scan_is_grounded(indir / name) for name in names]
    scans = [load_scan(indir / name) for name, g in zip(names, is_grounded) if not g]
    grounded = [name for name, g in zip(names, is_grounded) if g]
    if not grounded:
        return scans, None, (force for force in ())
    first, rest = load_scan(indir / grounded[0]), grounded[1:]

    def read_share(share, processes):
        for name in rest[share::processes]:
            curve = load_scan(indir / name)
            if (curve.piezo_nm.size != first.piezo_nm.size
                    or np.abs(curve.piezo_nm - first.piezo_nm).max() > 1e-9):
                raise DataError(f"scan {curve.scan_id} ({name}): scan grids differ "
                                f"from scan {first.scan_id}'s; resample before averaging")
            yield curve.force_pn

    def forces():
        yield first.force_pn
        yield from _in_shares(read_share, len(rest), _processes(len(rest) * first.piezo_nm.size))

    return scans, first.piezo_nm, forces()
