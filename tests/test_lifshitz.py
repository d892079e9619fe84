import importlib.resources
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from casimirlab import assemble, lifshitz
from casimirlab.config import RunConfig
from casimirlab.errors import ConvergenceError, ValidityError
from casimirlab.lifshitz import (U_CUT, SphereGeometry,
                                 casimir_force_sphere_plate, reflection_terms)
from oracles import (ConstantModel, ideal_casimir_parallel_plates,
                     ideal_casimir_sphere_plate)

Z_GRID = np.array([100e-9, 150e-9, 200e-9, 300e-9, 500e-9])

# Lifshitz forces in N at the default configuration, from the independent
# nested scipy.integrate evaluation in perfbench/reference.py (LIFSHITZ_N).
REFERENCE_Z = (100e-9, 200e-9, 300e-9, 500e-9)
REFERENCE_FORCES = {
    "drude": (-1.6249346460422505e-10, -2.5323309486799962e-11,
              -8.177787306942013e-12, -1.903629282802071e-12),
    "tabulated": (-1.6249192003328127e-10, -2.5323155311845855e-11,
                  -8.177750812810853e-12, -1.9036237720685e-12),
}


def test_reflection_coefficient_bounds():
    p = np.geomspace(1.0, 50.0, 40)
    for eps in (1.0, 2.0, 100.0, 1e6):
        s, r_te, r_tm = reflection_terms(eps, p)
        assert np.all(s >= p * (1 - 1e-14))
        assert np.all(np.abs(r_te) <= 1.0)
        assert np.all(np.abs(r_tm) <= 1.0)
    # near vacuum r_te -> (eps-1)/(4p^2); the (s-p)/(s+p) form loses it to cancellation
    eps = 1.0 + 1e-10
    _, r_te, _ = reflection_terms(eps, p)
    np.testing.assert_allclose(r_te, (eps - 1.0) / (4.0 * p * p), rtol=1e-6)


def test_reflection_terms_broadcast_eps_column():
    eps = np.array([1.5, 30.0, 1e6])
    p = np.geomspace(1.0, 50.0, 7)
    _, r_te, r_tm = reflection_terms(eps[:, None], p)
    for i, e in enumerate(eps):
        _, te, tm = reflection_terms(e, p)
        assert r_te[i].tolist() == te.tolist()
        assert r_tm[i].tolist() == tm.tolist()


def test_ideal_formulas(drude_params):
    z = 100e-9
    geom = drude_params.geom
    expected = -np.pi**3 * 1.0545718176461565e-34 * 2.99792458e8 \
        * geom.R / (360.0 * z**3)
    assert ideal_casimir_sphere_plate(z, geom) == pytest.approx(expected, rel=1e-9)
    assert ideal_casimir_parallel_plates(z) < 0
    with pytest.raises(ValueError):
        ideal_casimir_sphere_plate(0.0, geom)
    with pytest.raises(ValueError):
        ideal_casimir_parallel_plates(-1.0)


def test_vacuum_is_null(drude_params):
    model = ConstantModel(1.0)
    for z in Z_GRID:
        f = casimir_force_sphere_plate(z, drude_params.geom, model, drude_params.quad)
        assert abs(f) < 1e-15


def test_constant_eps_deficit_follows_the_te_term(drude_params):
    # criterion 01's 1.393% at eps = 1e6 is physical: at finite constant eps
    # the deficit against the perfect conductor decays like ln(eps)/sqrt(eps),
    # from the large-eps expansion of the Fresnel coefficients, so
    # deviation * sqrt(eps) is a line in ln(eps)
    geom = drude_params.geom
    q = replace(drude_params.quad, rel_tol=1e-8)
    z = 300e-9
    eps = np.array([1e4, 1e6, 1e8, 1e10])
    deviation = np.array([1.0 - casimir_force_sphere_plate(z, geom, ConstantModel(e), q)
                          / ideal_casimir_sphere_plate(z, geom) for e in eps])
    scaled = deviation * np.sqrt(eps)
    slope, intercept = np.polyfit(np.log(eps), scaled, 1)
    assert np.abs((slope * np.log(eps) + intercept) / scaled - 1.0).max() <= 0.005
    assert 1.0 <= slope <= 1.2
    assert deviation[1] == pytest.approx(0.01393, abs=5e-5)


def test_force_negative_decreasing_and_bounded(drude_params):
    geom, model, q = drude_params.geom, drude_params.model, drude_params.quad
    forces = np.array([casimir_force_sphere_plate(z, geom, model, q) for z in Z_GRID])
    assert np.all(forces < 0)
    assert np.all(np.diff(np.abs(forces)) < 0)
    ideal = np.array([ideal_casimir_sphere_plate(z, geom) for z in Z_GRID])
    assert np.all(np.abs(forces) <= np.abs(ideal))


def test_effective_power_law_band(drude_params):
    # finite conductivity weakens the short-range force, so the effective
    # exponent sits below 3 and F(2z)/F(z) lands above the ideal 1/8
    geom, model, q = drude_params.geom, drude_params.model, drude_params.quad
    for z in (100e-9, 200e-9, 500e-9):
        f1 = casimir_force_sphere_plate(z, geom, model, q)
        f2 = casimir_force_sphere_plate(2 * z, geom, model, q)
        ratio = f2 / f1
        assert 1.0 / 8.0 <= ratio <= 1.0 / 4.0


def test_convergence_on_tolerance_halving(drude_params):
    z = 100e-9
    geom, model, q = drude_params.geom, drude_params.model, drude_params.quad
    loose = casimir_force_sphere_plate(z, geom, model, replace(q, rel_tol=1e-4))
    tight = casimir_force_sphere_plate(z, geom, model, replace(q, rel_tol=5e-5))
    assert abs(tight - loose) <= 1e-4 * abs(tight)


def test_tight_tolerance_converges(drude_params):
    q = replace(drude_params.quad, rel_tol=1e-8)
    f = casimir_force_sphere_plate(100e-9, drude_params.geom, drude_params.model, q)
    assert f.error_bound <= 1e-8 * abs(f)
    assert f == pytest.approx(REFERENCE_FORCES["drude"][0], rel=1e-8)


@pytest.mark.parametrize("wp,gamma,z", [(1.0, 10.0, 1e-9), (1e6, 10.0, 1.6e-9),
                                        (46.6, 5.9e-7, 2.4e-8)])
def test_the_drude_range_converges_at_the_rel_tol_floor(wp, gamma, z):
    # the pairs the range table accepts that converge slowest, where they do,
    # on a 1 m sphere at the rel_tol floor: converged by the largest order, 128
    cfg = RunConfig(drude_wp_ev=wp, drude_gamma_ev=gamma, rel_tol=1e-8, sphere_radius_um=1e6)
    model = assemble.dielectric_model(cfg)
    params = assemble.theory_params(cfg, model)
    f = casimir_force_sphere_plate(z, params.geom, model, params.quad)
    assert f.error_bound <= 1e-8 * abs(f)


def test_nonconvergence_carries_estimate_and_bound(monkeypatch, drude_params):
    monkeypatch.setattr(lifshitz, "BASE_ORDER", 2)
    q = replace(drude_params.quad, rel_tol=1e-8, max_refinements=1)
    with pytest.raises(ConvergenceError) as info:
        casimir_force_sphere_plate(100e-9, drude_params.geom, drude_params.model, q)
    assert info.value.estimate < 0
    assert info.value.error_bound > 1e-8 * abs(info.value.estimate)


@pytest.mark.parametrize("kind", sorted(REFERENCE_FORCES))
def test_forces_match_independent_reference(kind):
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    cfg = RunConfig()
    model = assemble.dielectric_model(cfg, force_drude=kind == "drude",
                                      material_csv=str(table))
    params = assemble.theory_params(cfg, model)
    for z, expected in zip(REFERENCE_Z, REFERENCE_FORCES[kind]):
        f = casimir_force_sphere_plate(z, params.geom, model, params.quad)
        assert f == pytest.approx(expected, rel=1e-7)
        assert f.error_bound <= params.quad.rel_tol * abs(f)


def test_parallel_grid_bitwise_identical(drude_params):
    geom, model, q = drude_params.geom, drude_params.model, drude_params.quad
    serial = [casimir_force_sphere_plate(z, geom, model, q) for z in Z_GRID]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda z: casimir_force_sphere_plate(z, geom, model, q), Z_GRID))
    assert threaded == serial


def test_guards(drude_params):
    geom, q = drude_params.geom, drude_params.quad
    model = ConstantModel(10.0)
    with pytest.raises(ValidityError):
        casimir_force_sphere_plate(10e-6, geom, model, q)   # z/R too large
    with pytest.raises(ValidityError, match=r"z = 1e-07 nm below the continuum regime"):
        casimir_force_sphere_plate(1e-16, geom, model, q)   # no quadrature converges there
    with pytest.raises(ValueError):
        casimir_force_sphere_plate(-1e-9, geom, model, q)


def test_geometry_linearity(drude_params):
    # proximity force is linear in R
    z = 150e-9
    model, q = drude_params.model, drude_params.quad
    f1 = casimir_force_sphere_plate(z, SphereGeometry(100e-6), model, q)
    f2 = casimir_force_sphere_plate(z, SphereGeometry(200e-6), model, q)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-9)


def _per_row_rule(order):
    """The (y, u) rule with a Gauss-Legendre rule computed afresh for every
    panel set: the bitwise reference for ``lifshitz._rule``."""
    def panels(edges):
        x, w = leggauss(order)
        a, b = edges[:-1, None], edges[1:, None]
        return (0.5 * (b - a) * x + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * w).ravel()

    y_edges = np.concatenate(([0.0], lifshitz.Y_GRADED_EDGES,
                              lifshitz._geometric_edges(0.5, lifshitz.Y_CUT)))
    ys, yw = panels(y_edges)
    rows = [panels(lifshitz._geometric_edges(y, U_CUT)) for y in ys]
    width = max(len(u) for u, _ in rows)
    u = np.full((len(ys), width), U_CUT)
    w = np.zeros((len(ys), width))
    for i, (ui, wi) in enumerate(rows):
        u[i, :len(ui)] = ui
        w[i, :len(wi)] = wi
    return ys, u / ys[:, None], np.exp(-u), yw[:, None] * w * u


def test_rule_computes_one_gauss_legendre_rule_per_order(monkeypatch):
    calls = []

    def counting_leggauss(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(lifshitz, "leggauss", counting_leggauss)
    lifshitz._rule.cache_clear()
    try:
        for order in (8, 16, 32):
            rule = lifshitz._rule(order)
            reference = _per_row_rule(order)
            for got, want in zip(rule, reference, strict=True):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        assert calls == [8, 16, 32]
    finally:
        lifshitz._rule.cache_clear()


def test_y_cut_remainder_below_float_resolution(monkeypatch):
    # raising the y cut to the inner axis's end moves no force by more than
    # 1e-12 relative, Drude or tabulated, from 30 nm to 1135 nm
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    cfg = RunConfig()
    models = [assemble.dielectric_model(cfg, force_drude=True),
              assemble.dielectric_model(cfg, material_csv=str(table))]
    params = assemble.theory_params(cfg, models[0])
    zs = (30e-9, 100e-9, 500e-9, 1135e-9)

    def forces():
        lifshitz._rule.cache_clear()   # the rule is cached by order alone
        return [casimir_force_sphere_plate(z, params.geom, m, params.quad)
                for m in models for z in zs]

    try:
        default = forces()
        monkeypatch.setattr(lifshitz, "Y_CUT", U_CUT - 1)
        raised = forces()
    finally:
        lifshitz._rule.cache_clear()
    for f, g in zip(default, raised, strict=True):
        assert g == pytest.approx(f, rel=1e-12, abs=0)
