"""Finite-conductivity Casimir force between a large sphere and a flat plate.

The sphere-plate force is the proximity composition of the plate-plate
zero-point energy, written with the p-integration in logarithmic form:

    F(z) = (hbar R c / (16 pi z^3)) *
           int_0^inf y^2 dy int_1^inf p dp
             [ ln(1 - r_tm^2 e^{-p y}) + ln(1 - r_te^2 e^{-p y}) ]

with y = 2 xi z / c, s = sqrt(eps - 1 + p^2), r_te = (s-p)/(s+p) = (eps-1)/(s+p)^2,
r_tm = (s - eps p)/(s + eps p) and eps = eps(i xi). The normalization is
anchored to the perfect-conductor limit -pi^3 hbar c R / (360 z^3), which
this form reproduces analytically as eps -> inf.

Quadrature is nested Gauss-Legendre on geometric panels, evaluated as one
2-D array per separation. With u = p*y the inner axis runs over [y, u_cut],
u_cut ~ 60; the y axis is truncated at xi_max = multiplier * c/(2z). Both
truncations leave exponentially small remainders. The Drude eps(i xi) grows
like 1/(gamma xi) as y -> 0, so the first y panel [0, 0.5] is graded
geometrically toward 0 (edges 0.5 * 10^-k, k = 1..3); this makes the rule
converge geometrically in the order instead of algebraically. The order is
doubled until two successive estimates agree to the tolerance, and their
difference is the error estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import CONST
from .dielectric import DielectricModel
from .errors import ConvergenceError, ValidityError

PROXIMITY_RATIO_MAX = 0.05  # z/R guard for the proximity regime
Y_GRADED_EDGES = (5e-4, 5e-3, 5e-2)  # interior edges of the graded y panel [0, 0.5]


@dataclass(frozen=True)
class SphereGeometry:
    """Sphere radius in meters."""

    R: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"sphere radius must be > 0, got {self.R}")


# Default sphere: diameter 201.7 um.
DEFAULT_GEOMETRY = SphereGeometry(R=100.85e-6)


@dataclass(frozen=True)
class QuadratureParams:
    rel_tol: float = 1e-4
    abs_tol: float = 1e-18          # N
    max_refinements: int = 6
    xi_cut_multiplier: float = 40.0  # xi_max = multiplier * c/(2z)
    u_cut: float = 60.0              # p upper bound via u = 2 p xi z / c
    base_order: int = 8

    def __post_init__(self):
        if not (0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if not self.abs_tol >= 0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_refinements < 1:
            raise ValueError(f"max_refinements must be >= 1, got {self.max_refinements}")
        if self.base_order < 1:
            raise ValueError(f"base_order must be >= 1, got {self.base_order}")
        if self.xi_cut_multiplier < 20:
            raise ValueError("xi_cut_multiplier must be >= 20")
        # the inner axis runs over u in [y, u_cut] for every y up to the multiplier
        if not self.u_cut > self.xi_cut_multiplier:
            raise ValueError(f"u_cut must exceed xi_cut_multiplier, got {self.u_cut}")


DEFAULT_QUADRATURE = QuadratureParams()


def reflection_terms(eps, p):
    """(s, r_te, r_tm) for eps >= 1 and p >= 1, broadcast against each other.

    r_te is written as (eps - 1)/(s + p)^2, which equals (s - p)/(s + p)
    without the cancellation of s - p when eps is close to 1.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 1):
        raise ValueError(f"eps must be >= 1, got min {eps.min()}")
    p = np.asarray(p, dtype=float)
    s = np.sqrt(eps - 1.0 + p * p)
    r_te = (eps - 1.0) / (s + p) ** 2
    r_tm = (s - eps * p) / (s + eps * p)
    return s, r_te, r_tm


def ideal_casimir_sphere_plate(z: float, geom: SphereGeometry = DEFAULT_GEOMETRY) -> float:
    """Perfect-conductor sphere-plate force -pi^3 hbar c R / (360 z^3), in N."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    return -np.pi**3 * CONST.hbar * CONST.c * geom.R / (360.0 * z**3)


def ideal_casimir_parallel_plates(z: float) -> float:
    """Perfect-conductor pressure -pi^2 hbar c / (240 z^4), in N/m^2."""
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    return -np.pi**2 * CONST.hbar * CONST.c / (240.0 * z**4)


def _gauss_panels(edges, order):
    x, w = leggauss(order)
    a = np.asarray(edges[:-1])[:, None]
    b = np.asarray(edges[1:])[:, None]
    nodes = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    return nodes, weights


def _geometric_edges(lo, hi, first=1.0):
    edges = [lo]
    v = first
    while v < hi:
        if v > lo:
            edges.append(v)
        v *= 2
    edges.append(hi)
    return np.array(edges)


@functools.lru_cache(maxsize=32)
def _rule(y_max, u_cut, order):
    """The (y, u) rule at one order, independent of the separation.

    Returns the y nodes and, on a (y, u) grid, p = u/y, e^-u and the
    combined weight w_y * w_u * u. Each row holds the inner rule on
    [y, u_cut]; rows with fewer panels are padded with zero weights.
    The arrays are read-only because every caller shares them.
    """
    y_edges = np.concatenate(([0.0], Y_GRADED_EDGES, _geometric_edges(0.5, y_max)))
    ys, yw = _gauss_panels(y_edges, order)
    rows = [_gauss_panels(_geometric_edges(y, u_cut), order) for y in ys]
    width = max(len(u) for u, _ in rows)
    u = np.full((len(ys), width), u_cut)
    w = np.zeros((len(ys), width))
    for i, (ui, wi) in enumerate(rows):
        u[i, :len(ui)] = ui
        w[i, :len(wi)] = wi
    arrays = (ys, u / ys[:, None], np.exp(-u), yw[:, None] * w * u)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _force_estimate(z, geom, model, q, order):
    ys, p, damp, weight = _rule(q.xi_cut_multiplier, q.u_cut, order)
    xi = ys * (CONST.c / (2.0 * z))
    # A tuple, not an array: perfbench/tracer.py counts distinct eps
    # arguments in a set, so the argument has to be hashable.
    eps = model.eps(tuple(xi.tolist()))
    _, r_te, r_tm = reflection_terms(eps[:, None], p)
    # y^2 * (integrand in p) dp = dy-weight * u du: the 1/y^2 of u=p*y cancels
    total = np.sum(weight * (np.log1p(-r_tm * r_tm * damp) + np.log1p(-r_te * r_te * damp)))
    return CONST.hbar * geom.R * CONST.c / (16.0 * np.pi * z**3) * total


def _force_with_error(z, geom, model, q):
    """(force, error bound) in N by order doubling from q.base_order.

    The bound is the difference of the last two estimates. Raises
    ConvergenceError carrying both once q.max_refinements doublings
    have not met q.rel_tol * |F| + q.abs_tol.
    """
    order = q.base_order
    prev = _force_estimate(z, geom, model, q, order)
    for _ in range(q.max_refinements):
        order *= 2
        cur = _force_estimate(z, geom, model, q, order)
        err = abs(cur - prev)
        if err <= q.rel_tol * abs(cur) + q.abs_tol:
            return cur, err
        prev = cur
    raise ConvergenceError(
        f"no convergence to rel_tol={q.rel_tol} within {q.max_refinements} refinements",
        estimate=prev, error_bound=err,
    )


class ForceEstimate(float):
    """A force in N that carries the quadrature's error bound, also in N."""

    def __new__(cls, force, error_bound):
        self = super().__new__(cls, force)
        self.error_bound = float(error_bound)
        return self


def casimir_force_sphere_plate(z: float, geom: SphereGeometry = DEFAULT_GEOMETRY,
                               model: DielectricModel = None,
                               q: QuadratureParams = DEFAULT_QUADRATURE) -> ForceEstimate:
    """Lifshitz sphere-plate force in N (attractive = negative).

    Converged by order-doubling until successive estimates agree to
    q.rel_tol (plus q.abs_tol); the returned float carries that difference
    as ``error_bound``. Raises ConvergenceError carrying the last estimate
    and error bound otherwise.
    """
    if model is None:
        raise TypeError("a DielectricModel is required")
    if z <= 0:
        raise ValueError(f"separation must be > 0, got {z}")
    if z / geom.R >= PROXIMITY_RATIO_MAX:
        raise ValidityError(
            f"z/R = {z / geom.R:.3g} outside the proximity regime (< {PROXIMITY_RATIO_MAX})"
        )
    return ForceEstimate(*_force_with_error(z, geom, model, q))
