"""Permittivity on the imaginary frequency axis.

eps(i*xi) is obtained either from the Drude closed form

    eps(i*xi) = 1 + omega_p^2 / (xi^2 + gamma*xi)

or from tabulated eps''(omega) data through the dispersion integral

    eps(i*xi) = 1 + (2/pi) * int_0^inf  omega * eps''(omega) / (omega^2 + xi^2) domega

with a Drude low-frequency segment below the table's first energy, trapezoid
quadrature on a log-omega grid over the table (each interval split into
``TABLE_REFINE`` = 4), and an analytic eps'' ~ omega^-3 tail beyond the last
table point. The table sum runs over blocks of xi rows, each block's
(rows, table nodes) temporary at most ``EPS_BLOCK_ELEMENTS`` float64 (128 KiB,
small enough to stay in cache; one row if the table is larger), written into
one preallocated result. Each row is still reduced over its own contiguous
table nodes, so every eps value is bitwise the one-shot broadcast sum's.
Each closed form's branch, the Drude segment's degenerate xi ~ gamma one and
the tail's small-argument series, is evaluated only at the xi that select it.
Optical tables are read with the package's CSV reader (``forcecurve._read_csv``):
a source is a path or a file object, never CSV text in a string. The loader
refuses a non-positive or non-increasing energy and a negative eps'', naming
the line, and ``TabulatedModel`` a table whose integral overflows float64.
The Drude parameters come from ``RunConfig`` through ``assemble``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import energy_ev_to_angular_frequency
from .errors import ParseError, names_its_file
from .forcecurve import _read_csv

# elements per block of the tabulated dispersion integral: at most 2**14
# float64 (128 KiB) per temporary, the size of analysis.COARSE_BLOCK_ELEMENTS
EPS_BLOCK_ELEMENTS = 2**14
# log-omega intervals per table interval in the trapezoid pass
TABLE_REFINE = 4


@dataclass(frozen=True)
class DrudeParams:
    """Free-electron Drude parameters, both in rad/s."""

    omega_p: float
    gamma: float

    @staticmethod
    def from_ev(omega_p_ev: float, gamma_ev: float) -> "DrudeParams":
        return DrudeParams(
            energy_ev_to_angular_frequency(omega_p_ev),
            energy_ev_to_angular_frequency(gamma_ev),
        )


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated imaginary part of the permittivity versus photon energy."""

    energies_ev: np.ndarray
    eps2: np.ndarray


@names_its_file
def load_optical_table(source) -> OpticalTable:
    """Parse the optical-table CSV dialect from a path or a file object.

    '#'-prefixed comment and metadata lines (the packaged table names its
    material in a '# material=' line), then one 'energy_ev,eps2' pair per
    line. Ordering violations are reported, not silently repaired.
    """
    table = _read_csv(source, 2)
    energies, eps2 = table.columns
    table.reject(energies <= 0, "energy must be > 0 eV")
    table.reject(np.diff(energies, prepend=-np.inf) <= 0, "non-increasing energy")
    table.reject(eps2 < 0, "negative eps2")
    if energies.size < 2:
        raise ParseError("optical table needs at least 2 data rows")
    return OpticalTable(energies, eps2)


class DielectricModel:
    """Base class; subclasses implement ``_eps`` elementwise on an array of xi
    in ``xi_range``, (lo, hi] in rad/s.

    Instances are immutable, so one model may be shared between threads.
    """

    xi_range = (0.0, np.inf)

    def eps(self, xi):
        """eps(i*xi) for xi in rad/s: a float for a scalar, else an array of xi's shape."""
        x = np.asarray(xi, dtype=float)
        lo, hi = self.xi_range
        outside = x[~((x > lo) & (x <= hi))]
        if outside.size:
            raise ValueError(f"xi must be in ({lo:g}, {hi:g}] rad/s, got {outside[0]:.6g}")
        out = self._eps(x)
        return float(out) if x.ndim == 0 else out

    def _eps(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DrudeModel(DielectricModel):
    """Pure Drude closed form eps(i*xi) = 1 + omega_p^2/(xi^2 + gamma*xi)."""

    def __init__(self, drude: DrudeParams):
        self.drude = drude

    def _eps(self, xi):
        d = self.drude
        return 1.0 + d.omega_p**2 / (xi**2 + d.gamma * xi)


class TabulatedModel(DielectricModel):
    """Dispersion integral over tabulated eps'' with a Drude segment below the
    table's first energy.

    Each table interval is subdivided into ``TABLE_REFINE`` intervals in
    log omega before the trapezoid pass (eps'' interpolated log-log).
    """

    # where the formulas here hold in float64: from sqrt(tiny * max) = 2.0,
    # where (xi / omega)**2 is a normal float for every table energy omega
    # with a finite square, to 1e150; the theory reads 1e2 (5 cm, order 128)
    # to 6e18 (1 nm)
    xi_range = (2.0, 1e150)

    def __init__(self, table: OpticalTable, drude: DrudeParams):
        self.drude = drude

        with np.errstate(all="ignore"):  # an overflow is reported just below
            omega = energy_ev_to_angular_frequency(1.0) * table.energies_ev
            w, s = _refine_log_grid(omega, table.eps2, TABLE_REFINE)
            # trapezoid rule in ln(omega) on omega * eps''/(omega^2 + xi^2), whose
            # xi-independent factors are folded into the weights
            h = np.diff(np.log(w))
            trapezoid = np.concatenate(([h[0]], h[:-1] + h[1:], [h[-1]])) / 2
            self._omega_sq = w * w
            self._weights = trapezoid * w * w * s
            # the table sum at xi = 0, its largest value, and the tail's scale
            scales = (np.sum(trapezoid * s), table.eps2[-1] * omega[-1] ** 3)
        if not (np.isfinite(self._weights).all() and np.isfinite(scales).all()):
            raise ValueError(f"the optical table overflows its dispersion integral "
                             f"in float64: energies up to {table.energies_ev[-1]:.3g} eV, "
                             f"eps2 up to {table.eps2.max():.3g}")
        self._omega_start = omega[0]
        self._omega_end = omega[-1]
        self._eps2_end = table.eps2[-1]

    def _eps(self, xi):
        x = xi.reshape(-1, 1)
        rows = max(1, EPS_BLOCK_ELEMENTS // self._weights.size)
        total = np.empty(x.shape[0])
        for start in range(0, x.shape[0], rows):
            xb = x[start:start + rows]
            total[start:start + rows] = np.sum(self._weights / (self._omega_sq + xb * xb),
                                               axis=-1)
        total = total.reshape(xi.shape)
        total += _drude_segment_integral(xi, self.drude, self._omega_start)
        total += _powerlaw_tail_integral(xi, self._omega_end, self._eps2_end)
        return 1.0 + (2.0 / np.pi) * total


def _refine_log_grid(omega, eps2, refine):
    """Insert ``refine - 1`` log-spaced nodes per interval, eps'' log-log interpolated."""
    lw = np.log(omega)
    segs = np.linspace(lw[:-1], lw[1:], refine + 1, axis=1)[:, :-1].ravel()
    lw_fine = np.append(segs, lw[-1])
    positive = np.all(eps2 > 0)
    if positive:
        s_fine = np.exp(np.interp(lw_fine, lw, np.log(eps2)))
    else:
        s_fine = np.interp(lw_fine, lw, eps2)
    return np.exp(lw_fine), s_fine


def _drude_segment_integral(xi, d, omega_c):
    """int_0^omega_c omega*eps''_Drude/(omega^2+xi^2) domega, closed form, elementwise."""
    g = d.gamma
    out = np.zeros_like(xi)
    if g == 0:
        return out
    near = np.abs(xi - g) <= 1e-6 * g
    x = xi[~near]
    with np.errstate(over="ignore"):  # omega_c / g beyond float64: arctan gives pi/2
        arctan_g = np.arctan(omega_c / g)
    out[~near] = d.omega_p**2 * g / (x**2 - g**2) * (arctan_g / g - np.arctan(omega_c / x) / x)
    if near.any():  # only then: its 1/g^3 underflows for a tiny gamma no xi is near
        # degenerate xi ~ gamma: int omega_p^2 g / (w^2+g^2)^2 dw
        out[near] = d.omega_p**2 * g * (
            omega_c / (2 * g**2 * (omega_c**2 + g**2)) + arctan_g / (2 * g**3)
        )
    return out


def _powerlaw_tail_integral(xi, omega_n, eps2_n):
    """Tail beyond the table with eps''(omega) = eps2_n * (omega_n/omega)^3."""
    if eps2_n == 0:
        return np.zeros_like(xi)
    u = xi / omega_n
    series = u < 1e-4  # series: no cancellation; each form only where selected
    bracket = np.empty_like(xi)
    us = u[series]
    bracket[series] = (us * us / 3 - us**4 / 5 + us**6 / 7) / omega_n
    bracket[~series] = 1.0 / omega_n - np.arctan(u[~series]) / xi[~series]
    return eps2_n * omega_n**3 / xi**2 * bracket


def tabulated_with_drude_tail(table: OpticalTable, drude: DrudeParams) -> TabulatedModel:
    return TabulatedModel(table, drude)
