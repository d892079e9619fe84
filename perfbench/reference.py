"""Fixed reference forces for the benchmark's accuracy checks.

The constants below are the Lifshitz sphere-plate force and the corrected
theory force (Lifshitz times the roughness and temperature factors) at the
default configuration, for the Drude model and for the bundled tabulated
aluminium model, at four metal-to-metal separations. They were computed with
an independent nested ``scipy.integrate.quad`` evaluation of the integrand
(stable to about 1e-15 when its break points move) and cross-checked against
the package at rel_tol=1e-8, which agrees to within CROSS_CHECK_REL_DIFF. The
correction factors are evaluated here from their closed forms. The values are
kept as constants so that a later change to the quadrature cannot move its
own yardstick.

Recompute and cross-check them (about a minute on one core) with

    python3 perfbench/reference.py

run from the repository root.
"""

import math
import os
import sys

REFERENCE_Z_NM = (100.0, 200.0, 300.0, 500.0)

# Force in N, indexed like REFERENCE_Z_NM.
LIFSHITZ_N = {
    "drude": (-1.6249346460422505e-10, -2.5323309486799962e-11,
              -8.177787306942013e-12, -1.903629282802071e-12),
    "tabulated": (-1.6249192003328127e-10, -2.5323155311845855e-11,
                  -8.177750812810853e-12, -1.9036237720685e-12),
}
CORRECTED_N = {
    "drude": (-1.6477653773550918e-10, -2.541119355730101e-11,
              -8.195839261936165e-12, -1.911478147534042e-12),
    "tabulated": (-1.6477497146296386e-10, -2.541103884728562e-11,
                  -8.195802687246489e-12, -1.911472614079134e-12),
}

# Largest relative difference between the package at rel_tol=1e-8 and the
# scipy.integrate values above, as found when the constants were made.
CROSS_CHECK_REL_DIFF = 8.21e-09


def _independent_lifshitz(z, radius, eps_of_xi, y_knee):
    """Nested scipy.integrate.quad of the proximity Lifshitz integrand.

    F = hbar R c / (16 pi z^3) int_0^inf dy int_y^inf u
        [ln(1 - r_tm^2 e^-u) + ln(1 - r_te^2 e^-u)] du,  p = u / y,
    with no truncation of either axis.
    """
    from scipy.integrate import quad

    hbar = 6.62607015e-34 / (2 * math.pi)
    c = 2.99792458e8

    def inner(y):
        eps = eps_of_xi(y * c / (2.0 * z))

        def f(u):
            p = u / y
            s = math.sqrt(eps - 1.0 + p * p)
            r_te = (eps - 1.0) / (s + p) ** 2
            r_tm = (s - eps * p) / (s + eps * p)
            d = math.exp(-u)
            return u * (math.log1p(-r_tm * r_tm * d) + math.log1p(-r_te * r_te * d))

        head = quad(f, y, y + 40.0, epsabs=0.0, epsrel=1e-13, limit=400)[0]
        tail = quad(f, y + 40.0, math.inf, epsabs=1e-16 * abs(head), limit=400)[0]
        return head + tail

    # Break the y axis at the Drude relaxation knee, where eps(i xi) turns
    # from 1/xi to 1/xi^2 growth and the integrand is least smooth.
    edges = sorted({0.0, 0.5, 2.0, 8.0, 32.0, y_knee / 10, y_knee, 10 * y_knee})
    total = 0.0
    for lo, hi in zip(edges, edges[1:] + [math.inf]):
        total += quad(inner, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return hbar * radius * c / (16.0 * math.pi * z**3) * total


def _correction_factor(z, cfg):
    """Roughness times temperature factor, from their closed forms."""
    x = cfg.roughness_amplitude_nm * 1e-9 / z
    rough = (1.0 + cfg.roughness_c2 * x**2 + cfg.roughness_c3 * x**3
             + cfg.roughness_c4 * x**4)
    eta = 2.0 * math.pi * 1.380649e-23 * cfg.temperature_k * z / (6.62607015e-34 * 2.99792458e8)
    zeta3 = 1.2020569031595943
    temp = 1.0 + 720.0 / math.pi**2 * (zeta3 / (2.0 * math.pi) * eta**3 - math.pi**2 / 45.0 * eta**4)
    return rough * temp


def _compute():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from dataclasses import replace

    from casimirlab import assemble
    from casimirlab.config import RunConfig
    from casimirlab.constants import energy_ev_to_angular_frequency
    from casimirlab.corrections import corrected_force
    from casimirlab.lifshitz import casimir_force_sphere_plate

    cfg = RunConfig(rel_tol=1e-8)
    table = os.path.join(root, "src", "casimirlab", "data", "al_eps2_drude.csv")
    models = {"drude": assemble.dielectric_model(cfg, force_drude=True),
              "tabulated": assemble.dielectric_model(cfg, material_csv=table)}
    gamma = energy_ev_to_angular_frequency(cfg.drude_gamma_ev)
    worst = 0.0
    for kind, model in models.items():
        params = assemble.theory_params(cfg, model)
        params = replace(params, quad=replace(params.quad, max_refinements=8))
        lif, cor = [], []
        for z_nm in REFERENCE_Z_NM:
            z = z_nm * 1e-9
            f = casimir_force_sphere_plate(z, params.geom, model, params.quad)
            g = _independent_lifshitz(z, params.geom.R, model.eps,
                                      2.0 * gamma * z / 2.99792458e8)
            worst = max(worst, abs(f - g) / abs(g))
            print(f"{kind:9s} z={z_nm:5.0f} nm  package={f:.15e}  scipy={g:.15e}  "
                  f"rel={abs(f - g) / abs(g):.2e}", file=sys.stderr)
            factor = _correction_factor(z, cfg)
            worst = max(worst, abs(corrected_force(z, params) / f / factor - 1.0))
            lif.append(float(g))
            cor.append(float(g * factor))
        print(f"LIFSHITZ_N[{kind!r}] = {tuple(lif)!r}")
        print(f"CORRECTED_N[{kind!r}] = {tuple(cor)!r}")
    print(f"CROSS_CHECK_REL_DIFF = {worst:.2e}")


if __name__ == "__main__":
    _compute()
