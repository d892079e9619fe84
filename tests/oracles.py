"""Closed-form limits and brute-force references that the tests check the
package against.

No command and no benchmark workload calls these, so they live with the
tests (``test_package_surface.py`` keeps ``src/`` to what a command or the
benchmark reaches):

- the perfect-conductor Casimir limits and a xi-independent permittivity,
  which reaches them as eps -> inf;
- the roughness factor averaged over surface-height distributions, the
  oracle of the quartic series in ``corrections``;
- raw-signal stiffness scans drawn from the exact image series, the input
  of the spring-constant fit;
- the inverses of the package's unit conversions.
"""

import numpy as np

from casimirlab.config import RunConfig
from casimirlab.constants import CONST
from casimirlab.dielectric import DielectricModel
from casimirlab.electrostatics import ElectrostaticConfig, sphere_plane_force_exact
from casimirlab.forcecurve import ForceCurve
from casimirlab.lifshitz import SphereGeometry


class ConstantModel(DielectricModel):
    """xi-independent permittivity; the ideal-limit test harness."""

    def __init__(self, eps_const: float):
        if eps_const < 1:
            raise ValueError(f"constant eps must be >= 1, got {eps_const}")
        self.eps_const = float(eps_const)

    def _eps(self, xi):
        return np.full(xi.shape, self.eps_const)


def ideal_casimir_sphere_plate(z: float, geom: SphereGeometry) -> float:
    """Perfect-conductor sphere-plate force -pi^3 hbar c R / (360 z^3), in N."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    return -np.pi**3 * CONST.hbar * CONST.c * geom.R / (360.0 * z**3)


def ideal_casimir_parallel_plates(z: float) -> float:
    """Perfect-conductor pressure -pi^2 hbar c / (240 z^4), in N/m^2."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    return -np.pi**2 * CONST.hbar * CONST.c / (240.0 * z**4)


def _validate_distribution(distribution, scale):
    h = np.array([p[0] for p in distribution], dtype=float)
    p = np.array([p[1] for p in distribution], dtype=float)
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    if abs(np.dot(p, h)) > 1e-12 * scale:
        raise ValueError(f"distribution mean {np.dot(p, h)} m is not zero")
    return h, p


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


def angular_frequency_to_energy_ev(omega: float) -> float:
    """Inverse of ``constants.energy_ev_to_angular_frequency``."""
    if omega < 0:
        raise ValueError(f"angular frequency must be >= 0, got {omega}")
    return omega * CONST.hbar / CONST.ev


def plasma_energy_from_wavelength(wavelength_m: float) -> float:
    """Photon energy h*c/lambda in eV for a wavelength in meters."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be > 0 m, got {wavelength_m}")
    return CONST.planck_h * CONST.c / wavelength_m / CONST.ev
