"""Roughness and finite-temperature corrections, and the composed theory force.

Both corrections are multiplicative factors on the Lifshitz force:

    roughness:    1 + c2 (A/z)^2 + c3 (A/z)^3 + c4 (A/z)^4
    temperature:  1 + (720/pi^2) f(eta),
                  f(eta) = (zeta(3)/(2 pi)) eta^3 - (pi^2/45) eta^4,
                  eta = 2 pi kB T z / (h c)

A, c2-c4 and T are measured inputs, written once in ``RunConfig`` and
turned into these objects by ``assemble``. The roughness polynomial has a
brute-force oracle: the z^-3 sphere-plate law averaged over independent
zero-mean surface-height distributions.

``TheoryCurve`` caches the composed force for the fits as a Chebyshev
interpolant of log|F| in log z (numpy only). The force is analytic in z, so
the series converges geometrically and its trailing coefficients estimate
the interpolation error (Trefethen, Approximation Theory and Approximation
Practice, SIAM 2013). The fits evaluate it thousands of times per command,
so the series is summed by an in-place Clenshaw recurrence that is bitwise
``chebyshev.chebval`` without its per-coefficient temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .constants import CONST
from .dielectric import DielectricModel
from .errors import ValidityError
from .lifshitz import (ForceEstimate, QuadratureParams, SphereGeometry,
                       casimir_force_sphere_plate)

ROUGHNESS_SERIES_MAX_RATIO = 0.3  # A/z validity edge of the quartic series


@dataclass(frozen=True)
class RoughnessSpec:
    """Effective amplitude A plus the quartic correction coefficients."""

    A: float
    coeffs: tuple

    def __post_init__(self):
        if self.A < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.A}")
        if len(self.coeffs) != 3:
            raise ValueError("coeffs must be (c2, c3, c4)")


def _validate_distribution(distribution, scale):
    h = np.array([p[0] for p in distribution], dtype=float)
    p = np.array([p[1] for p in distribution], dtype=float)
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    if abs(np.dot(p, h)) > 1e-12 * scale:
        raise ValueError(f"distribution mean {np.dot(p, h)} m is not zero")
    return h, p


@dataclass(frozen=True)
class TemperatureParams:
    """Absolute temperature; eta(z) = 2 pi kB T z / (h c) is derived."""

    T: float

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"temperature must be >= 0 K, got {self.T}")

    def eta(self, z: float) -> float:
        return 2.0 * np.pi * CONST.kB * self.T * z / (CONST.planck_h * CONST.c)


def roughness_factor(z: float, rough: RoughnessSpec) -> float:
    """Quartic-series roughness multiplier; valid for A/z < 0.3."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    x = rough.A / z
    if x >= ROUGHNESS_SERIES_MAX_RATIO:
        raise ValidityError(
            f"A/z = {x:.3g} outside the series regime (< {ROUGHNESS_SERIES_MAX_RATIO})"
        )
    c2, c3, c4 = rough.coeffs
    return 1.0 + c2 * x**2 + c3 * x**3 + c4 * x**4


def roughness_factor_from_distribution(z: float, distribution,
                                       distribution_other=None) -> float:
    """Brute-force roughness multiplier from the z^-3 law.

    Averages (1 - (h_i + h_j)/z)^-3 over independent zero-mean height
    offsets of the two surfaces. By default both surfaces carry the same
    distribution; pass ``distribution_other=[(0.0, 1.0)]`` for a single
    rough surface.
    """
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    h1, p1 = _validate_distribution(distribution, scale=z)
    if distribution_other is None:
        h2, p2 = h1, p1
    else:
        h2, p2 = _validate_distribution(distribution_other, scale=z)
    shrink = 1.0 - (h1[:, None] + h2[None, :]) / z
    if np.any(shrink <= 0):
        raise ValueError("combined roughness height reaches the separation")
    return float(np.sum(p1[:, None] * p2[None, :] * shrink**-3))


def temperature_factor(z: float, temp: TemperatureParams) -> float:
    """Finite-temperature multiplier 1 + (720/pi^2) f(eta); valid for eta < 0.5."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    eta = temp.eta(z)
    if eta >= 0.5:
        raise ValidityError(f"eta = {eta:.3g} outside the series regime (< 0.5)")
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
    enable_roughness: bool
    enable_temperature: bool


def corrected_force(z: float, params: TheoryParams) -> ForceEstimate:
    """Lifshitz force times the enabled correction factors, all at the
    metal-to-metal separation z, in N.

    The closed-form factors scale the quadrature's error bound with the force.
    """
    force = casimir_force_sphere_plate(z, params.geom, params.model, params.quad)
    factor = 1.0
    if params.enable_roughness:
        factor *= roughness_factor(z, params.rough)
    if params.enable_temperature:
        factor *= temperature_factor(z, params.temp)
    return ForceEstimate(force * factor, force.error_bound * factor)


def _chebval(x, coef):
    """``chebyshev.chebval(x, coef)`` for at least two coefficients, in place.

    The same Clenshaw recurrence in the same order (Clenshaw, Math. Comp. 9,
    118 (1955)), so the result is bitwise chebval's; the c0 buffer and the
    rotating c1 / product pair are allocated once instead of three
    temporaries per coefficient.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * 2
    c0 = np.full_like(x, coef[-2])
    c1 = np.full_like(x, coef[-1])
    tmp = np.empty_like(x)
    for c in coef[-3::-1]:
        np.multiply(c1, x2, out=tmp)
        np.add(c0, tmp, out=tmp)       # new c1 = c0 + c1 * 2x
        np.subtract(c, c1, out=c0)     # new c0 = c - c1
        c1, tmp = tmp, c1
    np.multiply(c1, x, out=tmp)
    return np.add(c0, tmp, out=tmp)


class TheoryCurve:
    """Chebyshev cache of the corrected theory force over a separation range.

    The Lifshitz double integral is too slow to sit inside chi-squared loops;
    the pipeline evaluates it once at ``n_nodes`` first-kind Chebyshev points
    in log z and interpolates log|F| with the Chebyshev series through them.
    Callable with z in meters (scalar or array), returning N; a separation
    outside [z_min, z_max] raises ValueError, since a polynomial extrapolates
    without warning. ``max_rel_error`` is the largest quadrature error bound
    relative to the force over the nodes; ``interp_rel_error`` estimates the
    interpolation's relative error as the size of the series' last two
    coefficients, which decay geometrically for the analytic log|F|.
    """

    def __init__(self, params: TheoryParams, z_min: float, z_max: float, n_nodes: int):
        if not z_min > 0:
            raise ValueError(f"theory cache separation {z_min * 1e9:.6g} nm must be > 0")
        if not z_min < z_max:
            raise ValueError("need z_min < z_max")
        self.params = params
        self.z_min = float(z_min)
        self.z_max = float(z_max)
        log_lo, log_hi = np.log(self.z_min), np.log(self.z_max)
        self._log_mid, self._log_half = (log_hi + log_lo) / 2, (log_hi - log_lo) / 2
        x = chebyshev.chebpts1(n_nodes)
        estimates = [corrected_force(z, params)
                     for z in np.exp(self._log_mid + self._log_half * x)]
        forces = np.array(estimates)
        if np.any(~np.isfinite(forces)) or np.any(forces >= 0):
            raise ValueError("theory force must be finite and attractive on the grid")
        self.max_rel_error = max(f.error_bound / abs(f) for f in estimates)
        self._coef = chebyshev.chebfit(x, np.log(-forces), n_nodes - 1)
        self.interp_rel_error = float(np.max(np.abs(self._coef[-2:])))

    def __call__(self, z_metal):
        z = np.asarray(z_metal, dtype=float)
        outside = (z < self.z_min * (1 - 1e-12)) | (z > self.z_max * (1 + 1e-12))
        if np.any(outside):
            raise ValueError(
                f"separation {z[outside][0] * 1e9:.6g} nm outside the cached "
                f"theory range [{self.z_min * 1e9:.6g}, {self.z_max * 1e9:.6g}] nm "
                "(theory_cache_lo_nm, theory_cache_hi_nm)"
            )
        x = (np.log(z) - self._log_mid) / self._log_half
        out = -np.exp(_chebval(x, self._coef))
        return float(out) if np.isscalar(z_metal) else out
