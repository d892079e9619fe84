"""AFM approach-scan data model, the package's CSV reader, and the Hooke
conversion.

A ForceCurve is immutable: every transform returns a new curve. The piezo
axis is plate displacement toward the sphere in nm, strictly increasing, so
contact (if reached) sits at the end of the arrays. Attractive forces are
negative.

All three CSV inputs (scans here, optical tables in ``dielectric``, mean
curves in ``cli``) share one dialect, read by ``_read_csv``: ``# key=value``
metadata lines, other ``#`` comment lines, blank lines, an optional column
header, then comma-separated rows of finite floats.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, ParseError

MIN_SAMPLES = 10


@dataclass(frozen=True)
class ForceCurve:
    """One approach scan: piezo axis plus either raw signal or force."""

    scan_id: str
    applied_voltage: float
    piezo_nm: np.ndarray
    signal: np.ndarray | None = None
    force_pn: np.ndarray | None = None
    spring_constant: float | None = None

    def __post_init__(self):
        piezo = np.asarray(self.piezo_nm, dtype=float)
        object.__setattr__(self, "piezo_nm", piezo)
        if (self.signal is None) == (self.force_pn is None):
            raise ValueError("exactly one of signal/force must be present")
        for name in ("signal", "force_pn"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.asarray(val, dtype=float))
        obs = self.signal if self.signal is not None else self.force_pn
        if piezo.size < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {piezo.size}")
        if obs.size != piezo.size:
            raise ValueError("piezo and observable columns differ in length")
        if not np.all(np.diff(piezo) > 0):
            raise ValueError("piezo axis must be strictly increasing")

    @property
    def has_force(self) -> bool:
        return self.force_pn is not None


@dataclass(frozen=True)
class CalibrationParams:
    """Cantilever calibration inputs, from ``RunConfig`` through ``assemble``.

    The deflection sensitivity (nm per diode unit) is a required input; it is
    not published separately from k.
    """

    k: float                        # N/m
    deflection_sensitivity: float   # nm per signal unit

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"spring constant must be > 0, got {self.k}")
        if self.deflection_sensitivity <= 0:
            raise ValueError("deflection sensitivity must be > 0")


SCAN_HEADERS = (("piezo_nm", "signal"), ("piezo_nm", "force_pn"))


def load_scan(source) -> ForceCurve:
    """Parse the scan CSV dialect (see save_scan for the writer)."""
    table = _read_csv(source, 2, SCAN_HEADERS)
    for key in ("scan_id", "applied_voltage_v"):
        if key not in table.meta:
            raise ParseError(f"missing metadata key '{key}'")
    voltage = table.meta_float("applied_voltage_v")
    spring = (table.meta_float("spring_constant_n_per_m")
              if "spring_constant_n_per_m" in table.meta else None)
    piezo, obs = table.columns
    table.reject(np.diff(piezo, prepend=-np.inf) <= 0, "non-monotone piezo")
    try:
        return ForceCurve(table.meta["scan_id"], voltage, piezo,
                          **{table.header[1]: obs}, spring_constant=spring)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def save_scan(curve: ForceCurve, fh) -> None:
    """Write a curve in the CSV dialect accepted by load_scan, in one write."""
    head = f"# scan_id={curve.scan_id}\n# applied_voltage_v={curve.applied_voltage:.9g}\n"
    if curve.spring_constant is not None:
        head += f"# spring_constant_n_per_m={curve.spring_constant:.9g}\n"
    column = "force_pn" if curve.has_force else "signal"
    values = curve.force_pn if curve.has_force else curve.signal
    fh.write(f"{head}piezo_nm,{column}\n" + _csv_rows(curve.piezo_nm, values))


def _csv_rows(*columns) -> str:
    """Equal-length float columns as CSV rows of 9 significant digits.

    The one row formatter of the package's writers (scans here, the command
    outputs in ``cli``); every row ends in a newline.
    """
    row = ",".join(["{:.9g}"] * len(columns)) + "\n"
    return "".join(map(row.format, *(np.asarray(c, dtype=float).tolist()
                                     for c in columns)))


@dataclass(frozen=True)
class _Csv:
    """One parsed CSV input, with the source line of every entry."""

    meta: dict           # '# key=value' lines
    meta_line: dict      # line number of each metadata key
    header: tuple | None
    columns: np.ndarray  # (columns, rows) float, each column contiguous
    line: list           # line number of each data row

    def reject(self, bad: np.ndarray, message: str) -> None:
        """Raise ParseError at the first data row where ``bad`` holds."""
        if bad.any():
            raise ParseError(message, line=self.line[int(np.argmax(bad))])

    def meta_float(self, key: str) -> float:
        """A metadata value that must be a finite number."""
        try:
            value = float(self.meta[key])
        except ValueError:
            raise ParseError(f"malformed {key}", line=self.meta_line[key]) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite {key}", line=self.meta_line[key])
        return value


def _read_csv(source, ncols: int, headers=None) -> _Csv:
    """Read the package's CSV dialect from a path or a text/binary file object.

    With ``headers`` (a tuple of accepted column-name tuples) the first line
    that is neither blank nor a comment must be one of them. Every other line
    is a row of ``ncols`` finite floats. Errors tied to a line carry its number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    meta, meta_line, header, rows, line = {}, {}, None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped[0] == "#":
            key, eq, value = stripped[1:].partition("=")
            if eq:
                key = key.strip()
                meta[key] = value.strip()
                meta_line[key] = lineno
            continue
        if headers is not None and header is None:
            header = tuple(c.strip() for c in stripped.split(","))
            if header not in headers:
                expected = " or ".join(",".join(h) for h in headers)
                raise ParseError(f"unrecognized header {stripped!r}, expected {expected}",
                                 line=lineno)
            continue
        rows.append(stripped)
        line.append(lineno)
    if headers is not None and header is None:
        raise ParseError("missing column header")
    table = _Csv(meta, meta_line, header, _parse_columns(rows, line, ncols), line)
    table.reject(~np.isfinite(table.columns).all(axis=0), "non-finite value")
    return table


def _parse_columns(rows, line, ncols: int) -> np.ndarray:
    """Rows of comma-separated floats as an (ncols, n) array.

    numpy parses the whole block at once; only when that fails are the rows
    parsed one by one to find the offending line.
    """
    if not rows:
        return np.empty((ncols, 0))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == ncols:
            return np.ascontiguousarray(data.T)
    except ValueError:
        pass
    for row, lineno in zip(rows, line):
        if row.count(",") != ncols - 1:
            raise ParseError(f"expected {ncols} columns, got {row!r}", line=lineno)
        try:
            np.loadtxt([row], delimiter=",", comments=None)
        except ValueError:
            raise ParseError(f"malformed number in {row!r}", line=lineno) from None
    raise ParseError("malformed rows")  # not reached: some row fails above


def signal_to_force(curve: ForceCurve, cal: CalibrationParams) -> ForceCurve:
    """Hooke's-law conversion: F = k * deflection, attraction negative."""
    if curve.has_force:
        raise CalibrationError("curve already carries force")
    deflection_nm = curve.signal * cal.deflection_sensitivity
    force_pn = cal.k * deflection_nm * 1e3  # N/m * nm -> pN
    return replace(curve, signal=None, force_pn=force_pn, spring_constant=cal.k)
