"""Sphere-plane electrostatic force: exact image-series and proximity forms.

Exact (Smythe) series at potential difference V = V1 - V2:

    F = 2 pi eps0 V^2 sum_{n>=1} csch(n a) [coth(a) - n coth(n a)],
    a = acosh(1 + z/R)

summed with scaled exponentials (n a reaches ~10^3 terms at small gaps).
The proximity form F = -pi eps0 R V^2 / z fixes the normalization; the
series approaches it from below as z/R -> 0. The radius and the residual
potential V2 of the grounded sphere come from ``RunConfig`` through
``assemble``; the plate voltage V1 is an argument of each force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .errors import ConvergenceError, DataError
from .lifshitz import PROXIMITY_RATIO_MAX

SERIES_TOL = 1e-9  # relative size of the last term and of the tail bound
MAX_TERMS = 100000


@dataclass(frozen=True)
class ElectrostaticConfig:
    R: float
    V2: float                   # residual potential of the grounded sphere


def alpha(z: float, R: float) -> float:
    """acosh(1 + z/R) via the log1p-stable form ln(1 + x + sqrt(x^2 + 2x))."""
    x = z / R
    return math.log1p(x + math.sqrt(x * x + 2.0 * x))


def _csch(x):
    e = math.exp(-x)
    return 2.0 * e / (1.0 - e * e)


def _coth(x):
    e = math.exp(-2.0 * x)
    return (1.0 + e) / (1.0 - e)


def sphere_plane_force_exact(z: float, cfg: ElectrostaticConfig, V1: float) -> float:
    """Converged image-series force in N at plate voltage V1 and separation
    z > 0 (``electro`` passes its grid through the proximity form's check
    first); attractive = negative.

    Terms decay like e^{-n a}; summation stops when the relative term drops
    below SERIES_TOL and the geometric tail bound confirms the
    truncation. Invariant under V -> -V. A separation whose e^{-a} rounds
    to 1 leaves the series and its tail bound without a decay to sum, and
    raises DataError naming it; a series not converged after MAX_TERMS terms
    raises ConvergenceError stating its last estimate and last term.
    """
    dv = V1 - cfg.V2
    if dv == 0.0:
        return 0.0
    a = alpha(z, cfg.R)
    ratio = math.exp(-a)
    if ratio == 1.0:
        raise DataError(f"separation {z * 1e9:.6g} nm too small for the image series at "
                        f"R = {cfg.R * 1e6:.6g} um: e^-alpha rounds to 1 at alpha = {a:.3g}")
    coth_a = _coth(a)
    scale = 2.0 * math.pi * CONST.eps0 * dv * dv
    total = 0.0
    for n in range(1, MAX_TERMS + 1):
        term = _csch(n * a) * (coth_a - n * _coth(n * a))
        total += term
        if n >= 10 and abs(term) < SERIES_TOL * abs(total):
            tail_bound = abs(term) * ratio / (1.0 - ratio)
            if tail_bound < SERIES_TOL * abs(total):
                break
    else:
        raise ConvergenceError(
            f"series not converged after {MAX_TERMS} terms at separation "
            f"{z * 1e9:.6g} nm (alpha={a:.3g}): last estimate "
            f"{scale * total:.6g} N, last term {scale * term:.3g} N")
    return scale * total


def sphere_plane_force_pfa(z, cfg: ElectrostaticConfig, V1: float):
    """Proximity form -pi eps0 R (V1-V2)^2 / z in N at plate voltage V1, for
    z in m, a scalar or an array; requires z/R < 0.05 at every separation."""
    if np.any(z <= 0):
        raise ValueError(f"separation must be > 0, got {np.min(z) * 1e9:.6g} nm")
    if np.any(z >= PROXIMITY_RATIO_MAX * cfg.R):  # z / R overflows at a tiny R
        z_max = float(np.max(z))
        raise DataError(f"separation {z_max * 1e9:.6g} nm: z/R = {z_max / cfg.R:.3g} outside "
                        f"the proximity regime (< {PROXIMITY_RATIO_MAX}) at "
                        f"R = {cfg.R * 1e6:.6g} um")
    dv = V1 - cfg.V2
    return -math.pi * CONST.eps0 * cfg.R * dv * dv / z
