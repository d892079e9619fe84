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
2-D array per separation. With u = p*y the inner axis runs over [y, U_CUT],
U_CUT = 60; the y axis is truncated at Y_CUT = 40, i.e. xi_max = 40 c/(2z).
Both truncations leave exponentially small remainders: raising Y_CUT to 59
changes no force bit at 30-1135 nm, Drude or tabulated, and lowering it to
30 moves the force by at most 6.2e-13 relative (at 1135 nm), where the
reported bound is 2.8e-7. The Drude eps(i xi) grows like 1/(gamma xi) as
y -> 0, so the first y panel [0, 0.5] is graded geometrically toward 0
(edges 0.5 * 10^-k, k = 1..3); this makes the rule converge geometrically
in the order instead of algebraically. The order starts at BASE_ORDER = 8
and is doubled, at most to 128, until two successive estimates agree to the
tolerance, and their difference is the error estimate; a force not converged
at order 128, whose rule takes 10 MiB an array, raises ConvergenceError. The
tolerance comes from ``RunConfig`` (``rel_tol``, whose range floor, 1e-8,
order 128 meets; see ``config``) through ``assemble``.
A Gauss-Legendre rule depends only on its order (Golub & Welsch, Math.
Comp. 23, 221 (1969)), so each order's rule is computed once and mapped onto
every y panel and every inner row.
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
U_CUT = 60.0    # upper end of the inner axis u = 2 p xi z / c
Y_CUT = 40.0    # upper end of the y axis, below U_CUT: xi_max = Y_CUT * c/(2z)
BASE_ORDER = 8  # the first Gauss-Legendre order; each refinement doubles it
ABS_TOL = 1e-18  # N, added to rel_tol * |F| in the convergence test


@dataclass(frozen=True)
class SphereGeometry:
    """Sphere radius in meters."""

    R: float


@dataclass(frozen=True)
class QuadratureParams:
    rel_tol: float
    # doublings of BASE_ORDER, to 128 at most: the order-128 rule's arrays
    # take 10 MiB each, and each doubling multiplies them by 4
    max_refinements: int = 4


def reflection_terms(eps, p):
    """(s, r_te, r_tm) for eps >= 1 and p >= 1, broadcast against each other.

    r_te is written as (eps - 1)/(s + p)^2, which equals (s - p)/(s + p)
    without the cancellation of s - p when eps is close to 1.
    """
    eps = np.asarray(eps, dtype=float)
    p = np.asarray(p, dtype=float)
    s = np.sqrt(eps - 1.0 + p * p)
    r_te = (eps - 1.0) / (s + p) ** 2
    r_tm = (s - eps * p) / (s + eps * p)
    return s, r_te, r_tm


def _gauss_panels(edges, x, w):
    """The Gauss-Legendre rule (x, w) on [-1, 1] mapped onto each panel."""
    a = np.asarray(edges[:-1])[:, None]
    b = np.asarray(edges[1:])[:, None]
    nodes = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    return nodes, weights


def _geometric_edges(lo, hi):
    edges = [lo]
    v = 1.0
    while v < hi:
        if v > lo:
            edges.append(v)
        v *= 2
    edges.append(hi)
    return np.array(edges)


@functools.lru_cache(maxsize=32)
def _rule(order):
    """The (y, u) rule at one order, independent of the separation.

    Returns the y nodes and, on a (y, u) grid, p = u/y, e^-u and the
    combined weight w_y * w_u * u. Each row holds the inner rule on
    [y, U_CUT]; rows with fewer panels are padded with zero weights.
    The arrays are read-only because every caller shares them.
    """
    gl = leggauss(order)  # one rule per order, mapped onto every panel
    y_edges = np.concatenate(([0.0], Y_GRADED_EDGES, _geometric_edges(0.5, Y_CUT)))
    ys, yw = _gauss_panels(y_edges, *gl)
    rows = [_gauss_panels(_geometric_edges(y, U_CUT), *gl) for y in ys]
    width = max(len(u) for u, _ in rows)
    u = np.full((len(ys), width), U_CUT)
    w = np.zeros((len(ys), width))
    for i, (ui, wi) in enumerate(rows):
        u[i, :len(ui)] = ui
        w[i, :len(wi)] = wi
    arrays = (ys, u / ys[:, None], np.exp(-u), yw[:, None] * w * u)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _force_estimate(z, geom, model, order):
    ys, p, damp, weight = _rule(order)
    xi = ys * (CONST.c / (2.0 * z))
    # A tuple, not an array: perfbench/tracer.py counts distinct eps
    # arguments in a set, so the argument has to be hashable.
    eps = model.eps(tuple(xi.tolist()))
    _, r_te, r_tm = reflection_terms(eps[:, None], p)
    # y^2 * (integrand in p) dp = dy-weight * u du: the 1/y^2 of u=p*y cancels
    total = np.sum(weight * (np.log1p(-r_tm * r_tm * damp) + np.log1p(-r_te * r_te * damp)))
    return CONST.hbar * geom.R * CONST.c / (16.0 * np.pi * z**3) * total


class ForceEstimate(float):
    """A force in N that carries the quadrature's error bound, also in N."""

    def __new__(cls, force, error_bound):
        self = super().__new__(cls, force)
        self.error_bound = float(error_bound)
        return self


def casimir_force_sphere_plate(z: float, geom: SphereGeometry, model: DielectricModel,
                               q: QuadratureParams) -> ForceEstimate:
    """Lifshitz sphere-plate force in N (attractive = negative).

    The order doubles from BASE_ORDER until two successive estimates agree to
    q.rel_tol * |F| + ABS_TOL; the returned float carries their difference as
    ``error_bound``. Raises ConvergenceError carrying the last estimate and
    error bound once q.max_refinements doublings have not met it.
    """
    if not z >= 1e-9:  # closer, a dielectric function no longer describes the plates
        raise ValidityError(f"z = {z * 1e9:.3g} nm below the continuum regime (>= 1 nm)")
    ratio = float(z) / geom.R  # Python's division overflows to inf without a warning
    if ratio >= PROXIMITY_RATIO_MAX:
        raise ValidityError(
            f"z/R = {ratio:.3g} outside the proximity regime (< {PROXIMITY_RATIO_MAX})"
        )
    order = BASE_ORDER
    prev = _force_estimate(z, geom, model, order)
    for _ in range(q.max_refinements):
        order *= 2
        cur = _force_estimate(z, geom, model, order)
        err = abs(cur - prev)
        if err <= q.rel_tol * abs(cur) + ABS_TOL:
            return ForceEstimate(cur, err)
        prev = cur
    raise ConvergenceError(
        f"no convergence to rel_tol={q.rel_tol} within {q.max_refinements} refinements",
        estimate=prev, error_bound=err,
    )
