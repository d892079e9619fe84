"""Physical constants (CODATA 2018) and unit conventions.

All internal computation is in SI double precision; nm/pN/eV appear only
at I/O boundaries. The conversion factors between interface and internal
units are exact powers of ten.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Frozen CODATA-2018 values used everywhere in the package."""

    # hbar = h / (2 pi) exactly, so the pair stays consistent to machine
    # precision (the usual 10-digit rounding 1.054571817e-34 is 6e-10 off).
    hbar: float = 6.62607015e-34 / (2 * math.pi)
    planck_h: float = 6.62607015e-34   # J*s (exact)
    c: float = 2.99792458e8            # m/s (exact)
    eps0: float = 8.8541878128e-12     # F/m
    kB: float = 1.380649e-23           # J/K (exact)
    zeta3: float = 1.2020569031595943  # Riemann zeta(3)
    ev: float = 1.602176634e-19        # J per eV (exact)


CONST = PhysicalConstants()

def energy_ev_to_angular_frequency(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    if energy_ev < 0:
        raise ValueError(f"energy must be >= 0 eV, got {energy_ev}")
    return energy_ev * CONST.ev / CONST.hbar
