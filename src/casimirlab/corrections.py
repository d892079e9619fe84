"""Roughness and finite-temperature corrections, and the composed theory force.

Both corrections are multiplicative factors on the Lifshitz force:

    roughness:    1 + c2 (A/z)^2 + c3 (A/z)^3 + c4 (A/z)^4
    temperature:  1 + (720/pi^2) f(eta),
                  f(eta) = (zeta(3)/(2 pi)) eta^3 - (pi^2/45) eta^4,
                  eta = 2 pi kB T z / (h c)

A, c2-c4 and T are measured inputs, written once in ``RunConfig`` and
turned into these objects by ``assemble``; each factor is exactly 1 at its
physical zero (A = 0, T = 0). The roughness polynomial's brute-force oracle,
the z^-3 sphere-plate law averaged over independent zero-mean surface-height
distributions, is in ``tests/oracles.py``.

``TheoryCurve`` caches the composed force for the fits, over the separations
a command reads (``analysis.theory_span_nm``), as a ``LogChebyshev``: a
Chebyshev interpolant of log|F| in log z (numpy only). The force is analytic
in z, so the series converges geometrically and its trailing coefficients
estimate the interpolation error (Trefethen, Approximation Theory and
Approximation Practice, SIAM 2013).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .constants import CONST
from .dielectric import DielectricModel
from .errors import DataError
from .lifshitz import (ForceEstimate, QuadratureParams, SphereGeometry,
                       casimir_force_sphere_plate)

ROUGHNESS_SERIES_MAX_RATIO = 0.3  # A/z validity edge of the quartic series


@dataclass(frozen=True)
class RoughnessSpec:
    """Effective amplitude A plus the quartic correction coefficients."""

    A: float
    coeffs: tuple


@dataclass(frozen=True)
class TemperatureParams:
    """Absolute temperature; eta(z) = 2 pi kB T z / (h c) is derived."""

    T: float

    def eta(self, z: float) -> float:
        return 2.0 * np.pi * CONST.kB * self.T * z / (CONST.planck_h * CONST.c)


def roughness_factor(z: float, rough: RoughnessSpec) -> float:
    """Quartic-series roughness multiplier; valid for A/z < 0.3."""
    x = rough.A / float(z)  # Python's division overflows to inf without a warning
    if x >= ROUGHNESS_SERIES_MAX_RATIO:
        raise DataError(f"A/z = {x:.3g} at {z * 1e9:.6g} nm outside the series regime "
                        f"(< {ROUGHNESS_SERIES_MAX_RATIO})")
    c2, c3, c4 = rough.coeffs
    return 1.0 + c2 * x**2 + c3 * x**3 + c4 * x**4


def temperature_factor(z: float, temp: TemperatureParams) -> float:
    """Finite-temperature multiplier 1 + (720/pi^2) f(eta); valid for eta < 0.5."""
    eta = temp.eta(float(z))  # Python's arithmetic overflows to inf without a warning
    if eta >= 0.5:
        raise DataError(f"eta = {eta:.3g} at {z * 1e9:.6g} nm outside the series "
                        "regime (< 0.5)")
    f = CONST.zeta3 / (2.0 * np.pi) * eta**3 - np.pi**2 / 45.0 * eta**4
    return 1.0 + 720.0 / np.pi**2 * f


@dataclass(frozen=True)
class TheoryParams:
    """Everything needed to evaluate the zero-adjustable-parameter force."""

    geom: SphereGeometry
    model: DielectricModel
    rough: RoughnessSpec
    temp: TemperatureParams
    quad: QuadratureParams


def corrected_force(z: float, params: TheoryParams) -> ForceEstimate:
    """Lifshitz force times the roughness and temperature factors, all at the
    metal-to-metal separation z, in N.

    The closed-form factors, checked before the quadrature, scale its error bound too.
    """
    factor = roughness_factor(z, params.rough) * temperature_factor(z, params.temp)
    force = casimir_force_sphere_plate(z, params.geom, params.model, params.quad)
    return ForceEstimate(force * factor, force.error_bound * factor)


class LogChebyshev:
    """Chebyshev interpolant of log|f| in log z, for a function f of z of one sign.

    f is evaluated once at ``n_nodes`` first-kind Chebyshev points in log z
    and kept in ``node_values``; log|f| is interpolated with the Chebyshev
    series through them, and the sign is that of the node values. Callable
    with z in meters (scalar or array), returning f; a separation outside
    [z_min, z_max] raises ValueError, since a polynomial extrapolates
    without warning. ``interp_rel_error`` estimates the interpolation's
    relative error as the size of the series' last two coefficients, which
    decay geometrically for an analytic log|f|. ``what`` names f in the
    error messages.
    """

    def __init__(self, f, z_min: float, z_max: float, n_nodes: int, what: str):
        if not z_min > 0:
            raise ValueError(f"{what} cache separation {z_min * 1e9:.6g} nm must be > 0")
        if not z_min < z_max:
            raise ValueError("need z_min < z_max")
        self.what, self.z_min, self.z_max = what, float(z_min), float(z_max)
        log_lo, log_hi = np.log(self.z_min), np.log(self.z_max)
        self._log_mid, self._log_half = (log_hi + log_lo) / 2, (log_hi - log_lo) / 2
        x = chebyshev.chebpts1(n_nodes)
        self.node_values = [f(z) for z in np.exp(self._log_mid + self._log_half * x)]
        values = np.array(self.node_values)
        self._sign = np.sign(values[0])
        if not np.all(np.isfinite(values) & (values * self._sign > 0)):
            raise ValueError(f"{what} values must be finite and of one sign on the nodes")
        self._coef = chebyshev.chebfit(x, np.log(values * self._sign), n_nodes - 1)
        self._dcoef = chebyshev.chebder(self._coef)
        self.interp_rel_error = float(np.max(np.abs(self._coef[-2:])))

    def __call__(self, z_metal):
        z = np.asarray(z_metal, dtype=float)
        outside = (z < self.z_min * (1 - 1e-12)) | (z > self.z_max * (1 + 1e-12))
        if np.any(outside):
            raise ValueError(
                f"separation {z[outside][0] * 1e9:.6g} nm outside the cached "
                f"{self.what} range [{self.z_min * 1e9:.6g}, {self.z_max * 1e9:.6g}] nm"
            )
        x = (np.log(z) - self._log_mid) / self._log_half
        out = self._sign * np.exp(chebyshev.chebval(x, self._coef))
        return float(out) if np.isscalar(z_metal) else out

    def force_and_slope(self, z_metal):
        """(f, df/dz) from one call of the interpolant, with
        df/dz = f P'(x) / (half-width of log z * z), P the log|f| series.

        The call checks the range before any log is taken."""
        z = np.asarray(z_metal, dtype=float)
        force = self(z)
        x = (np.log(z) - self._log_mid) / self._log_half
        slope = force * chebyshev.chebval(x, self._dcoef) / (self._log_half * z)
        return (float(force), float(slope)) if np.isscalar(z_metal) else (force, slope)


class TheoryCurve(LogChebyshev):
    """The corrected force in N (dF/dz in N/m) at z in m, from ``corrected_force`` at each
    node: the Lifshitz double integral is too slow to sit inside chi-squared loops.
    The force must be attractive at every node. ``max_rel_error`` is the largest
    quadrature error bound relative to the force over the nodes."""

    def __init__(self, params: TheoryParams, z_min: float, z_max: float, n_nodes: int):
        super().__init__(lambda z: corrected_force(z, params), z_min, z_max, n_nodes, "theory")
        if self._sign > 0:
            raise ValueError("theory force must be attractive on the nodes")
        self.max_rel_error = max(f.error_bound / abs(f) for f in self.node_values)
