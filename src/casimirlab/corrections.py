"""Roughness and finite-temperature corrections, and the composed theory force.

Both corrections are multiplicative factors on the Lifshitz force:

    roughness:    1 + 0.86 (A/z)^2 + 1.02 (A/z)^3 + 1.90 (A/z)^4
    temperature:  1 + (720/pi^2) f(eta),
                  f(eta) = (zeta(3)/(2 pi)) eta^3 - (pi^2/45) eta^4,
                  eta = 2 pi kB T z / (h c)

The roughness polynomial has a brute-force oracle: the z^-3 sphere-plate law
averaged over independent zero-mean surface-height distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import CONST
from .dielectric import DielectricModel
from .errors import ValidityError
from .lifshitz import (DEFAULT_GEOMETRY, DEFAULT_QUADRATURE, ForceEstimate,
                       QuadratureParams, SphereGeometry,
                       casimir_force_sphere_plate)

ROUGHNESS_SERIES_MAX_RATIO = 0.3  # A/z validity edge of the quartic series


@dataclass(frozen=True)
class RoughnessSpec:
    """Effective amplitude A plus the quartic correction coefficients.

    ``distribution`` optionally carries the measured height model as
    (height_m, probability) pairs; it must have zero mean, matching the
    definition of the effective amplitude.
    """

    A: float = 11.8e-9
    coeffs: tuple = (0.86, 1.02, 1.90)
    distribution: tuple | None = None

    def __post_init__(self):
        if self.A < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.A}")
        if len(self.coeffs) != 3:
            raise ValueError("coeffs must be (c2, c3, c4)")
        if self.distribution is not None:
            _validate_distribution(self.distribution, scale=max(self.A, 1e-12))


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

    T: float = 300.0

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


# Transparent Au/Pd cap on each surface: 7.9 nm, two surfaces.
DEFAULT_CAP_OFFSET = 2 * 7.9e-9


@dataclass(frozen=True)
class TheoryParams:
    """Everything needed to evaluate the zero-adjustable-parameter force."""

    geom: SphereGeometry = DEFAULT_GEOMETRY
    model: DielectricModel = None
    rough: RoughnessSpec = field(default_factory=RoughnessSpec)
    temp: TemperatureParams = field(default_factory=TemperatureParams)
    cap_offset: float = DEFAULT_CAP_OFFSET
    quad: QuadratureParams = DEFAULT_QUADRATURE
    enable_roughness: bool = True
    enable_temperature: bool = True

    def __post_init__(self):
        if self.cap_offset < 0:
            raise ValueError(f"cap offset must be >= 0, got {self.cap_offset}")


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


def theoretical_force(z_gap: float, params: TheoryParams) -> float:
    """Corrected theory force at an outer-surface (cap-to-cap) gap, in N.

    The metal-to-metal separation is z_gap + cap_offset; the Lifshitz force
    and both correction factors are evaluated there.
    """
    if z_gap <= 0:
        raise ValueError(f"gap must be > 0, got {z_gap}")
    return corrected_force(z_gap + params.cap_offset, params)


class TheoryCurve:
    """Cubic-spline cache of the corrected theory force over a separation range.

    The Lifshitz double integral is too slow to sit inside chi-squared loops;
    the pipeline evaluates it once on a log grid of metal-to-metal separations
    and interpolates log|F| in log z. Callable with z in meters (scalar or
    array), returning N. ``max_rel_error`` is the largest quadrature error
    bound relative to the force over the nodes.
    """

    def __init__(self, params: TheoryParams, z_min: float, z_max: float, n_nodes: int = 160):
        from scipy.interpolate import CubicSpline

        if not z_min < z_max:
            raise ValueError("need z_min < z_max")
        self.params = params
        self.z_min = float(z_min)
        self.z_max = float(z_max)
        nodes = np.geomspace(z_min, z_max, n_nodes)
        estimates = [corrected_force(z, params) for z in nodes]
        forces = np.array(estimates)
        if np.any(~np.isfinite(forces)) or np.any(forces >= 0):
            raise ValueError("theory force must be finite and attractive on the grid")
        self.max_rel_error = max(f.error_bound / abs(f) for f in estimates)
        self._spline = CubicSpline(np.log(nodes), np.log(-forces))

    def __call__(self, z_metal):
        z = np.asarray(z_metal, dtype=float)
        if np.any(z < self.z_min * (1 - 1e-12)) or np.any(z > self.z_max * (1 + 1e-12)):
            raise ValueError("separation outside the cached range")
        out = -np.exp(self._spline(np.log(z)))
        return float(out) if np.isscalar(z_metal) else out
