"""AFM approach scans, the package's CSV reader and writer, and Hooke's law.

A ForceCurve is immutable: every transform returns a new curve. The piezo
axis is plate displacement toward the sphere in nm, strictly increasing
(``load_scan`` refuses any other, and ``synth`` writes only a grid whose
9-digit text, ``axis_text``, increases), so contact (if reached) sits at the
end of the arrays. Attractive forces are negative.

All three CSV inputs (scans here, optical tables in ``dielectric``, mean
curves in ``cli``) share one dialect, read by ``read_csv``: ``# key=value``
metadata lines, each key set once, other ``#`` comment lines, blank lines,
an optional column header, then comma-separated rows of finite floats, at
least as many as each reader's minimum. The reader takes a path, walks the
lines up to the first row, then parses the rest in one numpy call; only a
body that call refuses (a comment or blank line among the rows, or a bad
row) is read line by line, which finds the line of a bad row.
One ``_Csv`` holds a parse: its metadata, header, columns and row lines.

``csv_text`` is the dialect's one writer (the scans here, every CSV of
``cli``, the metadata lines of synth's manifest). Its rows come from one
``%`` template, memoised for the last axis with the axis text written into
it: a campaign's scans share one grid, so it is formatted once. It refuses a
NaN or infinite cell. Every file the package writes goes through ``atomic_write``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError

MIN_SAMPLES = 10


@dataclass(frozen=True)
class ForceCurve:
    """One approach scan: a piezo axis plus one column on it, raw signal or
    force, float arrays from each builder (``load_scan``, ``signal_to_force``,
    ``synth.generate_scans``). The axis increases and holds ``MIN_SAMPLES``
    points or more: ``load_scan`` and ``synth``'s grid rule make it so."""

    scan_id: str
    applied_voltage: float
    piezo_nm: np.ndarray
    signal: np.ndarray | None = None
    force_pn: np.ndarray | None = None
    spring_constant: float | None = None

    @property
    def has_force(self) -> bool:
        return self.force_pn is not None

    @property
    def grounded(self) -> bool:
        """A force scan at 0 V: a scan the campaign's mean is taken over."""
        return self.has_force and self.applied_voltage == 0.0


@dataclass(frozen=True)
class CalibrationParams:
    """Cantilever calibration inputs, from ``RunConfig`` through ``assemble``.

    The deflection sensitivity (nm per diode unit) is a required input; it is
    not published separately from k.
    """

    k: float                        # N/m
    deflection_sensitivity: float   # nm per signal unit


SCAN_HEADERS = (("piezo_nm", "signal"), ("piezo_nm", "force_pn"))


def load_scan(path) -> ForceCurve:
    """Parse the scan CSV dialect (see save_scan for the writer)."""
    table = read_csv(path, 2, MIN_SAMPLES, SCAN_HEADERS)
    for key in ("scan_id", "applied_voltage_v"):
        if key not in table.meta:
            raise table.error(f"missing metadata key '{key}'")
    voltage = table.meta_float("applied_voltage_v")
    spring = (table.meta_float("spring_constant_n_per_m")
              if "spring_constant_n_per_m" in table.meta else None)
    piezo, obs = table.columns
    table.reject(np.diff(piezo, prepend=-np.inf) <= 0, "non-monotone piezo")
    return ForceCurve(table.meta["scan_id"], voltage, piezo,
                      **{table.header[1]: obs}, spring_constant=spring)


def scan_is_grounded(path) -> bool:
    """``load_scan(path).grounded``, from the lines before the first row when
    they hold a well-formed voltage, else from ``load_scan`` itself. A key is
    set once, so a voltage stated there is the scan's."""
    table = _Csv(path, SCAN_HEADERS)
    with open(path, "r", encoding="utf-8") as fh:  # lines split as read_csv splits them
        table.head(s for raw in fh for s in raw.splitlines())
    try:
        voltage = float(table.meta["applied_voltage_v"])
    except (KeyError, ValueError):  # among the rows, or malformed: read it or report it
        return load_scan(path).grounded
    return table.header == SCAN_HEADERS[1] and voltage == 0.0


def save_scan(curve: ForceCurve, fh) -> None:
    """Write a curve in the CSV dialect accepted by load_scan, in one write."""
    meta = {"scan_id": curve.scan_id, "applied_voltage_v": curve.applied_voltage}
    if curve.spring_constant is not None:
        meta["spring_constant_n_per_m"] = curve.spring_constant
    column = "force_pn" if curve.has_force else "signal"
    values = curve.force_pn if curve.has_force else curve.signal
    fh.write(csv_text(meta, ("piezo_nm", column), (curve.piezo_nm, values),
                      f"scan {curve.scan_id}"))


def csv_text(meta: dict, header=(), columns=(), what=None) -> str:
    """A ``# key=value`` line per ``meta`` item, then, given a ``header``, its
    line and a row per point of the equal-length float ``columns``; a float is
    written in 9 significant digits (``'%.9g' % v``, ``'{:.9g}'.format(v)``),
    and a NaN or infinite cell raises ValueError naming ``what``, by default the
    header's output. One ``%`` template holds the first column's text (``_row_template``)."""
    text = "".join([f"# {key}={'%.9g' % v if isinstance(v, float) else v}\n"
                    for key, v in meta.items()])
    if not header:
        return text
    first, *rest = (np.asarray(c, dtype=float) for c in columns)
    if not all(np.isfinite(c).all() for c in (first, *rest)):
        what = what or f"the {', '.join(header)} output"
        raise ValueError(f"non-finite value in {what}")
    cells = [None] * (first.size * len(rest))
    for k, column in enumerate(rest):
        cells[k::len(rest)] = column.tolist()
    rows = _row_template(first.tobytes(), len(columns)) % tuple(cells)
    return f"{text}{','.join(header)}\n{rows}"


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory: into ``<name>.<pid>.tmp``,
    named after this process and created, never replaced, then renamed over
    ``path``, so the file is the old one or the whole new one. A file named
    ``<name>.tmp``, or a temporary a killed run left, is never read or refused."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        tmp.replace(path)
    except BaseException:   # a failed write or rename leaves no .tmp behind
        tmp.unlink(missing_ok=True)
        raise


def axis_text(axis) -> str:
    """The float array ``axis`` as ``csv_text`` writes a first column: each
    value in 9 significant digits, one a line; memoised for the last axis."""
    return _axis_text(np.asarray(axis, dtype=float).tobytes())


@functools.lru_cache(maxsize=1)
def _axis_text(axis: bytes) -> str:
    return "".join(["%.9g\n" % v for v in np.frombuffer(axis).tolist()])


@functools.lru_cache(maxsize=1)
def _row_template(axis: bytes, width: int) -> str:
    """The ``%`` template of ``width``-column rows whose first cells are the
    ``_axis_text`` of ``axis`` (never a ``%``); each other cell is ``%.9g``."""
    return _axis_text(axis).replace("\n", ",%.9g" * (width - 1) + "\n")


class _Csv:
    """One parse of the dialect from the file at ``path``: the metadata and
    header of the lines read so far, then the columns and the source line of
    every data row. ``error`` builds every ParseError of the parse."""

    def __init__(self, path, headers):
        self.path, self.headers, self.header = path, headers, None
        self.meta, self.meta_line = {}, {}   # '# key=value' lines, and the line of each
        self.columns = None                  # (columns, rows) float, each column contiguous
        self.line = ()                       # line number of each data row

    def row(self, lineno: int, raw: str) -> str | None:
        """The stripped data row on line ``lineno``; None for any other line.

        Blank and comment lines are skipped, a ``# key=value`` line registers
        its key (a key set before raises ParseError naming both lines), and
        with ``headers`` the first other line must be one of them.
        """
        stripped = raw.strip()
        if not stripped:
            return None
        if stripped[0] == "#":
            key, eq, value = stripped[1:].partition("=")
            if eq:
                key = key.strip()
                if key in self.meta:
                    raise self.error(f"metadata key '{key}' set at line "
                                     f"{self.meta_line[key]} and again", lineno)
                self.meta[key] = value.strip()
                self.meta_line[key] = lineno
            return None
        if self.headers is not None and self.header is None:
            header = tuple(c.strip() for c in stripped.split(","))
            if header not in self.headers:
                expected = " or ".join(",".join(h) for h in self.headers)
                raise self.error(f"unrecognized header {stripped!r}, expected {expected}",
                                 lineno)
            self.header = header
            return None
        return stripped

    def head(self, lines) -> int:
        """Classify ``lines`` up to the first data row; the number of lines before it."""
        index = -1
        for index, raw in enumerate(lines):
            if self.row(index + 1, raw) is not None:
                return index
        return index + 1

    def error(self, message: str, line: int | None = None) -> ParseError:
        """A ParseError of this file, at ``line`` when given."""
        return ParseError(message, line, self.path)

    def reject(self, bad: np.ndarray, message: str) -> None:
        """Raise ParseError at the first data row where ``bad`` holds."""
        if bad.any():
            raise self.error(message, self.line[int(np.argmax(bad))])

    def meta_float(self, key: str) -> float:
        """A metadata value that must be a finite number."""
        try:
            value = float(self.meta[key])
        except ValueError:
            raise self.error(f"malformed {key}", self.meta_line[key]) from None
        if not math.isfinite(value):
            raise self.error(f"non-finite {key}", self.meta_line[key])
        return value


def read_csv(path, ncols: int, min_rows: int, headers=None) -> _Csv:
    """Read the package's CSV dialect from the file at a path.

    With ``headers`` (a tuple of accepted column-name tuples) the first line
    that is neither blank nor a comment must be one of them. Every other line
    is a row of ``ncols`` finite floats, and a file of fewer than ``min_rows``
    rows is refused. Every error names the file, and one tied to a line its number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    table = _Csv(path, headers)
    start = table.head(lines)
    if headers is not None and table.header is None:
        raise table.error("missing column header")
    # one row per remaining line parses in one call; else classify each line
    columns, line = _bulk_columns(lines[start:], ncols), range(start + 1, len(lines) + 1)
    if columns is None:
        columns, line = _read_body_by_line(lines, start, ncols, table)
    table.columns, table.line = columns, line
    table.reject(~np.isfinite(table.columns).all(axis=0), "non-finite value")
    if len(line) < min_rows:
        raise table.error(f"need at least {min_rows} rows, got {len(line)}")
    return table


def _read_body_by_line(lines, start: int, ncols: int, table: _Csv):
    """(columns, line numbers) of the rows from ``lines[start]`` on, line by line.

    Comment, metadata and blank lines among the rows are classified as in the
    leading lines; the first row numpy refuses raises ParseError with its line.
    """
    rows, line = [], []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        row = table.row(lineno, raw)
        if row is not None:
            rows.append(row)
            line.append(lineno)
    columns = _bulk_columns(rows, ncols)
    if columns is not None:
        return columns, line
    for row, lineno in zip(rows, line):
        if row.count(",") != ncols - 1:
            raise table.error(f"expected {ncols} columns, got {row!r}", lineno)
        try:
            np.loadtxt([row], delimiter=",", comments=None)
        except ValueError:
            raise table.error(f"malformed number in {row!r}", lineno) from None
    raise table.error("malformed rows")  # not reached: some row fails above


def _bulk_columns(rows, ncols: int) -> np.ndarray | None:
    """Rows of comma-separated floats as an (ncols, n) array, in one numpy call.

    None unless every row is one row of ``ncols`` numbers (numpy skips a
    blank line and refuses a comment).
    """
    if not rows:
        return np.empty((ncols, 0))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return np.ascontiguousarray(data.T) if data.shape == (len(rows), ncols) else None


def signal_to_force(curve: ForceCurve, cal: CalibrationParams) -> ForceCurve:
    """Hooke's-law conversion of a raw-signal curve: F = k * deflection,
    attraction negative."""
    deflection_nm = curve.signal * cal.deflection_sensitivity
    force_pn = cal.k * deflection_nm * 1e3  # N/m * nm -> pN
    return replace(curve, signal=None, force_pn=force_pn, spring_constant=cal.k)
