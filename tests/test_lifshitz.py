import importlib.resources
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from casimirlab import assemble
from casimirlab.config import RunConfig
from casimirlab.dielectric import constant, drude_only
from casimirlab.errors import ConvergenceError, ValidityError
from casimirlab.lifshitz import (DEFAULT_GEOMETRY, DEFAULT_QUADRATURE,
                                 QuadratureParams, SphereGeometry,
                                 casimir_force_sphere_plate,
                                 ideal_casimir_parallel_plates,
                                 ideal_casimir_sphere_plate, reflection_terms)

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
    with pytest.raises(ValueError):
        reflection_terms(0.5, p)
    with pytest.raises(ValueError):
        reflection_terms(np.array([[2.0], [0.5]]), p)
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


def test_ideal_formulas():
    z = 100e-9
    expected = -np.pi**3 * 1.0545718176461565e-34 * 2.99792458e8 \
        * 100.85e-6 / (360.0 * z**3)
    assert ideal_casimir_sphere_plate(z) == pytest.approx(expected, rel=1e-9)
    assert ideal_casimir_parallel_plates(z) < 0
    with pytest.raises(ValueError):
        ideal_casimir_sphere_plate(0.0)
    with pytest.raises(ValueError):
        ideal_casimir_parallel_plates(-1.0)


def test_vacuum_is_null():
    model = constant(1.0)
    for z in Z_GRID:
        assert abs(casimir_force_sphere_plate(z, model=model)) < 1e-15


def test_force_negative_decreasing_and_bounded(drude_model):
    forces = np.array([casimir_force_sphere_plate(z, model=drude_model)
                       for z in Z_GRID])
    assert np.all(forces < 0)
    assert np.all(np.diff(np.abs(forces)) < 0)
    ideal = np.array([ideal_casimir_sphere_plate(z) for z in Z_GRID])
    assert np.all(np.abs(forces) <= np.abs(ideal))


def test_effective_power_law_band(drude_model):
    # finite conductivity weakens the short-range force, so the effective
    # exponent sits below 3 and F(2z)/F(z) lands above the ideal 1/8
    for z in (100e-9, 200e-9, 500e-9):
        f1 = casimir_force_sphere_plate(z, model=drude_model)
        f2 = casimir_force_sphere_plate(2 * z, model=drude_model)
        ratio = f2 / f1
        assert 1.0 / 8.0 <= ratio <= 1.0 / 4.0


def test_convergence_on_tolerance_halving(drude_model):
    z = 100e-9
    loose = casimir_force_sphere_plate(z, model=drude_model,
                                       q=replace(DEFAULT_QUADRATURE, rel_tol=1e-4))
    tight = casimir_force_sphere_plate(z, model=drude_model,
                                       q=replace(DEFAULT_QUADRATURE, rel_tol=5e-5))
    assert abs(tight - loose) <= 1e-4 * abs(tight)


def test_tight_tolerance_converges(drude_model):
    q = replace(DEFAULT_QUADRATURE, rel_tol=1e-8)
    f = casimir_force_sphere_plate(100e-9, model=drude_model, q=q)
    assert f.error_bound <= 1e-8 * abs(f)
    assert f == pytest.approx(REFERENCE_FORCES["drude"][0], rel=1e-8)


def test_nonconvergence_carries_estimate_and_bound(drude_model):
    q = QuadratureParams(rel_tol=1e-8, max_refinements=1, base_order=2)
    with pytest.raises(ConvergenceError) as info:
        casimir_force_sphere_plate(100e-9, model=drude_model, q=q)
    assert info.value.estimate < 0
    assert info.value.error_bound > 1e-8 * abs(info.value.estimate)


@pytest.mark.parametrize("kind", sorted(REFERENCE_FORCES))
def test_forces_match_independent_reference(kind):
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    model = assemble.dielectric_model(RunConfig(), force_drude=kind == "drude",
                                      material_csv=str(table))
    for z, expected in zip(REFERENCE_Z, REFERENCE_FORCES[kind]):
        f = casimir_force_sphere_plate(z, model=model)
        assert f == pytest.approx(expected, rel=1e-7)
        assert f.error_bound <= DEFAULT_QUADRATURE.rel_tol * abs(f)


def test_parallel_grid_bitwise_identical(drude_model):
    serial = [casimir_force_sphere_plate(z, model=drude_model) for z in Z_GRID]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda z: casimir_force_sphere_plate(z, model=drude_model), Z_GRID))
    assert threaded == serial


def test_guards():
    model = constant(10.0)
    with pytest.raises(ValidityError):
        casimir_force_sphere_plate(10e-6, model=model)   # z/R too large
    with pytest.raises(ValueError):
        casimir_force_sphere_plate(-1e-9, model=model)
    with pytest.raises(TypeError):
        casimir_force_sphere_plate(100e-9)
    with pytest.raises(ValueError):
        SphereGeometry(R=0.0)
    with pytest.raises(ValueError):
        QuadratureParams(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureParams(xi_cut_multiplier=10.0)
    with pytest.raises(ValueError):
        QuadratureParams(max_refinements=0)
    with pytest.raises(ValueError):
        QuadratureParams(base_order=0)
    with pytest.raises(ValueError):
        QuadratureParams(abs_tol=-1e-18)
    with pytest.raises(ValueError):
        QuadratureParams(u_cut=0.5)


def test_geometry_linearity(drude_model):
    # proximity force is linear in R
    z = 150e-9
    f1 = casimir_force_sphere_plate(z, SphereGeometry(100e-6), drude_model)
    f2 = casimir_force_sphere_plate(z, SphereGeometry(200e-6), drude_model)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-9)
