import importlib.resources
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from casimirlab import assemble
from casimirlab.analysis import ForwardModel
from casimirlab.config import RunConfig
from casimirlab.corrections import (LogChebyshev, TemperatureParams, TheoryCurve,
                                    corrected_force, roughness_factor, temperature_factor)
from casimirlab.errors import DataError
from casimirlab.lifshitz import casimir_force_sphere_plate
from casimirlab.synth import campaign_span_nm
from oracles import roughness_factor_from_distribution

FLAT = ((0.0, 1.0),)


@pytest.fixture(scope="module")
def rough(drude_params):
    return drude_params.rough


@pytest.fixture(scope="module")
def temp(drude_params):
    return drude_params.temp


def test_roughness_polynomial_value(rough):
    # the paper's amplitude and coefficients, against the configured spec
    z = 100e-9
    x = 11.8e-9 / z
    expected = 1.0 + 0.86 * x**2 + 1.02 * x**3 + 1.90 * x**4
    assert roughness_factor(z, rough) == pytest.approx(expected, rel=1e-14)
    assert roughness_factor(z, rough) - 1.0 <= 0.015


def test_roughness_monotone_to_one(rough):
    zs = np.geomspace(60e-9, 5e-6, 30)
    vals = [roughness_factor(z, rough) for z in zs]
    assert all(v >= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-4)


def test_roughness_guards(rough):
    with pytest.raises(DataError, match=r"A/z = 0\.393 at 30 nm outside"):
        roughness_factor(30e-9, rough)   # A/z >= 0.3


def test_distribution_oracle_matches_symmetric_pair_expansion():
    # one rough surface with heights +-a: (1-x)^-3 averaged gives
    # 1 + 6(a/z)^2 + 15(a/z)^4 + 28(a/z)^6 + ...
    z = 100e-9
    for ratio in (0.02, 0.05, 0.10, 0.15):
        a = ratio * z
        dist = ((a, 0.5), (-a, 0.5))
        oracle = roughness_factor_from_distribution(z, dist, FLAT)
        expansion = 1.0 + 6.0 * ratio**2 + 15.0 * ratio**4
        assert abs(oracle - expansion) <= 1.05 * 28.0 * ratio**6


def test_distribution_both_surfaces_default():
    z = 100e-9
    a = 5e-9
    dist = ((a, 0.5), (-a, 0.5))
    # default applies the distribution to both surfaces
    both = roughness_factor_from_distribution(z, dist)
    h = np.array([a, -a])
    p = np.array([0.5, 0.5])
    manual = sum(p[i] * p[j] * (1 - (h[i] + h[j]) / z) ** -3
                 for i in range(2) for j in range(2))
    assert both == pytest.approx(manual, rel=1e-14)
    assert both > roughness_factor_from_distribution(z, dist, FLAT)


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        roughness_factor_from_distribution(100e-9, ((1e-9, 0.5), (-1e-9, 0.4)))
    with pytest.raises(ValueError, match="mean"):
        roughness_factor_from_distribution(100e-9, ((1e-9, 0.5), (2e-9, 0.5)))
    with pytest.raises(ValueError, match="reaches"):
        roughness_factor_from_distribution(10e-9, ((6e-9, 0.5), (-6e-9, 0.5)))


def test_temperature_factor_values(temp):
    assert temperature_factor(100e-9, temp) - 1.0 == pytest.approx(3.09e-5, rel=0.05)
    zs = np.linspace(60e-9, 500e-9, 23)
    vals = [temperature_factor(z, temp) for z in zs]
    assert all(1.0 <= v < 1.01 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eta_slope(temp):
    # eta = 0.131e-3 per nm at 300 K, within 0.5%
    assert temp.eta(1e-9) == pytest.approx(0.131e-3, rel=5e-3)


def test_temperature_guards(temp):
    with pytest.raises(DataError, match=r"eta = 0\.524 at 4000 nm outside"):
        temperature_factor(4e-6, temp)   # eta >= 0.5


def test_corrections_small_over_window(rough, temp):
    for z in np.linspace(100e-9, 500e-9, 9):
        total = roughness_factor(z, rough) * temperature_factor(z, temp)
        assert total - 1.0 < 0.025


def test_corrected_force_composition(drude_params):
    z, p = 150e-9, drude_params
    full = corrected_force(z, p)
    # both factors are exactly 1 at their physical zeros, so a smooth surface
    # at 0 K leaves the force and its error bound bitwise the quadrature's
    bare = corrected_force(z, replace(p, rough=replace(p.rough, A=0.0),
                                      temp=TemperatureParams(T=0.0)))
    lifshitz = casimir_force_sphere_plate(z, p.geom, p.model, p.quad)
    assert float(bare) == float(lifshitz)
    assert bare.error_bound == lifshitz.error_bound
    factor = roughness_factor(z, p.rough) * temperature_factor(z, p.temp)
    assert full == pytest.approx(bare * factor, rel=1e-12)
    assert abs(full / bare - 1.0) < 0.025


def test_theory_curve_matches_direct(drude_params, drude_curve):
    rel = drude_curve.max_rel_error + drude_curve.interp_rel_error
    for z in (101e-9, 237e-9, 480e-9, 900e-9):
        assert drude_curve(z) == pytest.approx(corrected_force(z, drude_params),
                                               rel=rel)
    arr = drude_curve(np.array([100e-9, 200e-9]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError, match=r"^separation 10 nm outside the cached theory "
                                         r"range \[46\.8, 1135\.8\] nm$"):
        drude_curve(10e-9)
    with pytest.raises(ValueError, match="separation 5000 nm"):
        drude_curve(np.array([200e-9, 5e-6]))


# The span synth and analyze derive at the default config, sampled densely
# enough to find the interpolation error's peaks between the Chebyshev nodes.
CACHE_NM = campaign_span_nm(RunConfig())
CACHE_Z = np.geomspace(CACHE_NM[0] * 1e-9, CACHE_NM[1] * 1e-9, 97)


@pytest.fixture(scope="module")
def tabulated_params(default_cfg):
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    return assemble.theory_params(
        default_cfg, assemble.dielectric_model(default_cfg, material_csv=str(table)))


def cache_errors(params, n_nodes):
    """(measured relative error against the direct corrected force, cache)
    for an n-node cache over the default span."""
    curve = TheoryCurve(params, CACHE_Z[0], CACHE_Z[-1], n_nodes)
    direct = np.array([float(corrected_force(z, params)) for z in CACHE_Z])
    return float(np.max(np.abs(curve(CACHE_Z) / direct - 1.0))), curve


@pytest.mark.parametrize("n_nodes", [12, 16, 20])
def test_interp_rel_error_bounds_measured_error(drude_params, n_nodes):
    measured, curve = cache_errors(drude_params, n_nodes)
    assert measured <= curve.interp_rel_error


def test_the_derived_span_is_the_more_accurate(drude_params, drude_curve, default_cfg):
    # Chebyshev convergence depends on the interval: the same nodes over the
    # span the commands read beat them over the wider [45, 1250] nm
    assert drude_curve.z_min == CACHE_Z[0] and drude_curve.z_max == CACHE_Z[-1]
    fixed = TheoryCurve(drude_params, 45e-9, 1250e-9, default_cfg.theory_cache_points)
    assert drude_curve.interp_rel_error < fixed.interp_rel_error


@pytest.mark.parametrize("model", ["drude", "tabulated"])
def test_default_cache_accuracy(default_cfg, drude_params, tabulated_params, model):
    params = drude_params if model == "drude" else tabulated_params
    measured, curve = cache_errors(params, default_cfg.theory_cache_points)
    assert measured <= 1e-9
    assert measured <= curve.max_rel_error + curve.interp_rel_error


def test_theory_curve_error_within_tolerance(drude_params, drude_curve):
    assert 0 < drude_curve.max_rel_error <= drude_params.quad.rel_tol


def test_theory_params_validation(drude_params, default_cfg):
    with pytest.raises(ValueError):
        TheoryCurve(drude_params, 2e-7, 1e-7, default_cfg.theory_cache_points)
    for z_min in (0.0, -1e-8):
        with pytest.raises(ValueError, match=r"separation \S+ nm must be > 0"):
            TheoryCurve(drude_params, z_min, 1e-7, default_cfg.theory_cache_points)


@pytest.mark.parametrize("n_nodes", range(2, 41))
def test_theory_cache_interpolates_its_nodes(drude_params, n_nodes):
    # the series through n_nodes Chebyshev points in log z returns the
    # corrected force at those points, whatever the cache size
    curve = TheoryCurve(drude_params, CACHE_Z[0], CACHE_Z[-1], n_nodes)
    log_lo, log_hi = np.log(CACHE_Z[0]), np.log(CACHE_Z[-1])
    nodes = np.exp((log_hi + log_lo) / 2 + (log_hi - log_lo) / 2 * chebyshev.chebpts1(n_nodes))
    direct = np.array([float(corrected_force(z, drude_params)) for z in nodes])
    np.testing.assert_allclose(curve(nodes), direct, rtol=1e-12)
    # a scalar in gives a float, an array of any shape the same shape, and
    # force_and_slope's force is the call's bit for bit
    block = np.geomspace(CACHE_Z[0], CACHE_Z[-1], 150).reshape(3, 50)
    for z in (float(nodes[0]), np.float64(nodes[-1]), np.array(2e-7), block[0], block):
        force, slope = curve.force_and_slope(z)
        assert np.shape(force) == np.shape(slope) == np.shape(z)
        if np.isscalar(z):
            assert type(force) is float and type(slope) is float
        assert np.asarray(force).tobytes() == np.asarray(curve(z)).tobytes()
        assert np.all(np.asarray(slope) > 0)


@pytest.mark.parametrize("n_nodes", [2, 20])
def test_theory_slope_is_the_derivative_of_the_cache(drude_params, e_cfg, n_nodes):
    # at n_nodes = 2 the derivative series has a single coefficient
    curve = TheoryCurve(drude_params, CACHE_Z[0], CACHE_Z[-1], n_nodes)
    h = 1e-5
    # interior points, and the two points whose stencil reaches a range end
    for z in (CACHE_Z[0] / (1 - h), 101e-9, 480e-9, CACHE_Z[-1] / (1 + h)):
        central = (curve(z * (1 + h)) - curve(z * (1 - h))) / (2 * h * z)
        force, slope = curve.force_and_slope(z)
        assert isinstance(slope, float) and slope > 0
        assert isinstance(force, float) and force == curve(z)
        assert slope == pytest.approx(central, rel=1e-8)
    zs = np.array([[100e-9, 200e-9], [300e-9, 400e-9]])
    force, slope = curve.force_and_slope(zs)
    assert force.tobytes() == curve(zs).tobytes()
    np.testing.assert_array_equal(slope, [[curve.force_and_slope(z)[1] for z in row]
                                          for row in zs])
    # the forward model's dF/dz0, the theory slope less F_el / (z + z0), is
    # the derivative of its force in z0, next to that force bit for bit
    model = ForwardModel(curve, e_cfg, 15.8)
    z, z0, hz = np.linspace(40.0, 400.0, 7), 48.9, 1e-4
    force, dz0 = model.force_and_dz0_pn(z, z0, 0.5)
    assert force.tobytes() == model.force_pn(z, z0, 0.5).tobytes()
    central = (model.force_pn(z, z0 + hz, 0.5) - model.force_pn(z, z0 - hz, 0.5)) / (2 * hz)
    np.testing.assert_allclose(dz0, central, rtol=1e-7)


def test_theory_slope_refuses_what_the_cache_refuses(drude_curve):
    for z in (10e-9, np.array([200e-9, 5e-6])):
        with pytest.raises(ValueError) as force:
            drude_curve(z)
        with pytest.raises(ValueError) as slope:
            drude_curve.force_and_slope(z)
        assert str(slope.value) == str(force.value)


def test_theory_cache_refuses_a_repulsive_force(drude_params):
    # c2 = -100 turns the roughness factor, and the force, positive below 118 nm
    params = replace(drude_params, rough=replace(drude_params.rough, coeffs=(-100.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="^theory force must be attractive on the nodes$"):
        TheoryCurve(params, 50e-9, 100e-9, 4)


# LogChebyshev on functions of z other than the theory, over [10, 1000] nm
SPAN = (10e-9, 1000e-9)
DENSE_Z = np.geomspace(*SPAN, 501)


def test_log_chebyshev_is_exact_for_a_power_law():
    # -A z^-3 is linear in log z, so two coefficients hold it
    a = 1e-30
    curve = LogChebyshev(lambda z: -a * z**-3, *SPAN, 16, "power law")
    force, slope = curve.force_and_slope(DENSE_Z)
    np.testing.assert_allclose(force, -a * DENSE_Z**-3, rtol=1e-13)
    np.testing.assert_allclose(slope, 3 * a * DENSE_Z**-4, rtol=1e-12)
    assert curve.interp_rel_error < 1e-12


@pytest.mark.parametrize("n_nodes", [6, 10, 14, 18])
def test_log_chebyshev_error_estimate_covers_a_positive_function(n_nodes):
    # 1/(1 + z/R) is no power law of z: its log bends once z passes R
    r = 100e-9
    curve = LogChebyshev(lambda z: 1 / (1 + z / r), *SPAN, n_nodes, "ratio")
    values = curve(DENSE_Z)
    assert np.all(values > 0) and all(v > 0 for v in curve.node_values)
    measured = np.max(np.abs(values * (1 + DENSE_Z / r) - 1))
    assert 0 < measured <= curve.interp_rel_error


@pytest.mark.parametrize("f", [lambda z: np.nan, lambda z: -np.inf, lambda z: 0.0,
                               lambda z: z - 100e-9, lambda z: np.sin(z / 1e-8)])
def test_log_chebyshev_refuses_node_values_not_finite_and_of_one_sign(f):
    with pytest.raises(ValueError, match="^ratio values must be finite and of one sign "
                                         "on the nodes$"):
        LogChebyshev(f, *SPAN, 12, "ratio")


def test_log_chebyshev_names_its_function_in_its_range_errors():
    curve = LogChebyshev(lambda z: z, *SPAN, 4, "ratio")
    with pytest.raises(ValueError, match=r"^separation 5 nm outside the cached ratio range "
                                         r"\[10, 1000\] nm$"):
        curve.force_and_slope(5e-9)
    with pytest.raises(ValueError, match="^ratio cache separation 0 nm must be > 0$"):
        LogChebyshev(lambda z: z, 0.0, 1e-6, 4, "ratio")
