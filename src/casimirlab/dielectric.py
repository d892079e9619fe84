"""Permittivity on the imaginary frequency axis.

eps(i*xi) is obtained either from the Drude closed form

    eps(i*xi) = 1 + omega_p^2 / (xi^2 + gamma*xi)

or from tabulated eps''(omega) data through the dispersion integral

    eps(i*xi) = 1 + (2/pi) * int_0^inf  omega * eps''(omega) / (omega^2 + xi^2) domega

with a Drude low-frequency segment below the table, trapezoid quadrature on a
log-omega grid over the table, and an analytic eps'' ~ omega^-3 tail beyond the
last table point.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .constants import CONST, energy_ev_to_angular_frequency
from .errors import ParseError


@dataclass(frozen=True)
class DrudeParams:
    """Free-electron Drude parameters, both in rad/s."""

    omega_p: float
    gamma: float

    def __post_init__(self):
        if self.omega_p <= 0:
            raise ValueError(f"omega_p must be > 0, got {self.omega_p}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @staticmethod
    def from_ev(omega_p_ev: float, gamma_ev: float) -> "DrudeParams":
        return DrudeParams(
            energy_ev_to_angular_frequency(omega_p_ev),
            energy_ev_to_angular_frequency(gamma_ev),
        )


# Aluminum defaults: plasma wavelength 100 nm (12.398 eV), relaxation 63 meV.
AL_DRUDE = DrudeParams.from_ev(12.398, 0.063)


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated imaginary part of the permittivity versus photon energy."""

    energies_ev: np.ndarray
    eps2: np.ndarray
    material_label: str = ""

    def __post_init__(self):
        e = np.asarray(self.energies_ev, dtype=float)
        s = np.asarray(self.eps2, dtype=float)
        object.__setattr__(self, "energies_ev", e)
        object.__setattr__(self, "eps2", s)
        if e.size < 2:
            raise ValueError("optical table needs at least 2 points")
        if e.size != s.size:
            raise ValueError("energy and eps2 columns differ in length")
        if not np.all(np.diff(e) > 0):
            raise ValueError("energies must be strictly increasing")
        if np.any(s < 0):
            raise ValueError("negative eps2")


def load_optical_table(source) -> OpticalTable:
    """Parse the optical-table CSV dialect.

    '#'-prefixed comment lines, an optional '# material=<label>' line, then
    one 'energy_ev,eps2' pair per line. Ordering violations are reported,
    not silently repaired.
    """
    lines = _read_lines(source)
    label = ""
    energies, eps2 = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("material="):
                label = body[len("material="):].strip()
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'energy_ev,eps2', got {line!r}", line=lineno)
        try:
            e, s = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line=lineno) from None
        if energies and e <= energies[-1]:
            raise ParseError("non-increasing energy", line=lineno)
        if s < 0:
            raise ParseError("negative eps2", line=lineno)
        energies.append(e)
        eps2.append(s)
    if len(energies) < 2:
        raise ParseError("optical table needs at least 2 data rows")
    return OpticalTable(np.array(energies), np.array(eps2), label)


def _read_lines(source):
    if isinstance(source, (str, bytes)) and b"\n" not in (
        source.encode() if isinstance(source, str) else source
    ):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, (str, bytes)):
        data = source.encode() if isinstance(source, str) else source
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
    else:
        raise TypeError(f"unsupported source type {type(source)!r}")
    return io.StringIO(data.decode("utf-8")).read().splitlines()


def drude_eps_imag_axis(xi, d: DrudeParams):
    """Drude closed form eps(i*xi) = 1 + omega_p^2/(xi^2 + gamma*xi), elementwise."""
    _check_xi(xi)
    return 1.0 + d.omega_p**2 / (xi**2 + d.gamma * xi)


def _check_xi(xi):
    xi = np.asarray(xi)
    if not np.all(xi > 0):
        raise ValueError(f"xi must be > 0, got min {xi.min()}")


def drude_eps2_real_axis(omega, d: DrudeParams):
    """Drude eps''(omega) = omega_p^2 * gamma / (omega * (omega^2 + gamma^2))."""
    omega = np.asarray(omega, dtype=float)
    return d.omega_p**2 * d.gamma / (omega * (omega**2 + d.gamma**2))


class DielectricModel:
    """Base class; subclasses implement ``_eps`` elementwise on an array of xi > 0.

    Instances are immutable, so one model may be shared between threads.
    """

    def eps(self, xi):
        """eps(i*xi) for xi in rad/s: a float for a scalar, else an array of xi's shape."""
        x = np.asarray(xi, dtype=float)
        _check_xi(x)
        out = self._eps(x)
        return float(out) if x.ndim == 0 else out

    def _eps(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantModel(DielectricModel):
    """xi-independent permittivity; the ideal-limit test harness."""

    def __init__(self, eps_const: float):
        if eps_const < 1:
            raise ValueError(f"constant eps must be >= 1, got {eps_const}")
        self.eps_const = float(eps_const)

    def _eps(self, xi):
        return np.full(xi.shape, self.eps_const)


class DrudeModel(DielectricModel):
    """Pure Drude closed form."""

    def __init__(self, drude: DrudeParams = AL_DRUDE):
        self.drude = drude

    def _eps(self, xi):
        return drude_eps_imag_axis(xi, self.drude)


class TabulatedModel(DielectricModel):
    """Dispersion integral over tabulated eps'' with optional Drude tail.

    ``refine`` subdivides each table interval in log omega before the
    trapezoid pass (eps'' interpolated log-log); doubling it is the
    quadrature-resolution knob used by the convergence tests.
    """

    def __init__(self, table: OpticalTable, drude: DrudeParams | None = AL_DRUDE,
                 crossover_ev: float = 0.04, refine: int = 4):
        if crossover_ev < table.energies_ev[0] - 1e-12:
            raise ValueError(
                f"crossover {crossover_ev} eV below the table's lower edge "
                f"{table.energies_ev[0]} eV"
            )
        if crossover_ev >= table.energies_ev[-1]:
            raise ValueError("crossover above the table's upper edge")
        if refine < 1:
            raise ValueError("refine must be >= 1")
        self.table = table
        self.drude = drude
        self.crossover_ev = float(crossover_ev)
        self.refine = int(refine)

        keep = table.energies_ev >= crossover_ev - 1e-12
        omega = energy_ev_to_angular_frequency(1.0) * table.energies_ev[keep]
        eps2 = table.eps2[keep]
        w, s = _refine_log_grid(omega, eps2, self.refine)
        # trapezoid rule in ln(omega) on omega * eps''/(omega^2 + xi^2), whose
        # xi-independent factors are folded into the weights
        h = np.diff(np.log(w))
        trapezoid = np.concatenate(([h[0]], h[:-1] + h[1:], [h[-1]])) / 2
        self._omega_sq = w * w
        self._weights = trapezoid * w * w * s
        self._omega_start = omega[0]
        self._omega_end = omega[-1]
        self._eps2_end = eps2[-1]

    def _eps(self, xi):
        x = xi[..., None]
        total = np.sum(self._weights / (self._omega_sq + x * x), axis=-1)
        if self.drude is not None:
            total += _drude_segment_integral(xi, self.drude, self._omega_start)
        total += _powerlaw_tail_integral(xi, self._omega_end, self._eps2_end)
        return 1.0 + (2.0 / np.pi) * total


def _refine_log_grid(omega, eps2, refine):
    """Insert ``refine - 1`` log-spaced nodes per interval, eps'' log-log interpolated."""
    if refine == 1:
        return omega, eps2
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
    if g == 0:
        return np.zeros_like(xi)
    near = np.abs(xi - g) <= 1e-6 * g
    x = np.where(near, 2 * g, xi)  # keeps the discarded general branch finite
    general = d.omega_p**2 * g / (x**2 - g**2) * (
        np.arctan(omega_c / g) / g - np.arctan(omega_c / x) / x
    )
    # degenerate xi ~ gamma: int omega_p^2 g / (w^2+g^2)^2 dw
    degenerate = d.omega_p**2 * g * (
        omega_c / (2 * g**2 * (omega_c**2 + g**2)) + np.arctan(omega_c / g) / (2 * g**3)
    )
    return np.where(near, degenerate, general)


def _powerlaw_tail_integral(xi, omega_n, eps2_n):
    """Tail beyond the table with eps''(omega) = eps2_n * (omega_n/omega)^3."""
    if eps2_n == 0:
        return np.zeros_like(xi)
    u = xi / omega_n
    bracket = np.where(u < 1e-4,
                       (u * u / 3 - u**4 / 5 + u**6 / 7) / omega_n,  # series: no cancellation
                       1.0 / omega_n - np.arctan(u) / xi)
    return eps2_n * omega_n**3 / xi**2 * bracket


def constant(eps_const: float) -> ConstantModel:
    return ConstantModel(eps_const)


def drude_only(drude: DrudeParams = AL_DRUDE) -> DrudeModel:
    return DrudeModel(drude)


def tabulated_with_drude_tail(table: OpticalTable, drude: DrudeParams | None = AL_DRUDE,
                              crossover_ev: float = 0.04, refine: int = 4) -> TabulatedModel:
    return TabulatedModel(table, drude, crossover_ev, refine)


def eps_imag_axis(model: DielectricModel, xi: float) -> float:
    """Evaluate eps(i*xi) for any model variant; xi in rad/s."""
    return model.eps(xi)
