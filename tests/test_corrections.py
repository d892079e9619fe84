import importlib.resources
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from casimirlab import assemble
from casimirlab.corrections import (TemperatureParams, TheoryCurve, _chebval,
                                    corrected_force, roughness_factor,
                                    roughness_factor_from_distribution,
                                    temperature_factor)
from casimirlab.errors import ValidityError

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
    with pytest.raises(ValidityError):
        roughness_factor(30e-9, rough)   # A/z >= 0.3
    with pytest.raises(ValueError):
        roughness_factor(0.0, rough)
    with pytest.raises(ValueError):
        replace(rough, A=-1e-9)
    with pytest.raises(ValueError):
        replace(rough, coeffs=(1.0, 2.0))


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
    with pytest.raises(ValidityError):
        temperature_factor(4e-6, temp)   # eta >= 0.5
    with pytest.raises(ValueError):
        temperature_factor(-1.0, temp)
    with pytest.raises(ValueError):
        TemperatureParams(T=-1.0)


def test_corrections_small_over_window(rough, temp):
    for z in np.linspace(100e-9, 500e-9, 9):
        total = roughness_factor(z, rough) * temperature_factor(z, temp)
        assert total - 1.0 < 0.025


def test_corrected_force_composition(drude_params):
    z = 150e-9
    full = corrected_force(z, drude_params)
    bare = corrected_force(z, replace(drude_params, enable_roughness=False,
                                      enable_temperature=False))
    factor = roughness_factor(z, drude_params.rough) \
        * temperature_factor(z, drude_params.temp)
    assert full == pytest.approx(bare * factor, rel=1e-12)
    assert abs(full / bare - 1.0) < 0.025


def test_theory_curve_matches_direct(drude_params, drude_curve):
    rel = drude_curve.max_rel_error + drude_curve.interp_rel_error
    for z in (101e-9, 237e-9, 480e-9, 900e-9):
        assert drude_curve(z) == pytest.approx(corrected_force(z, drude_params),
                                               rel=rel)
    arr = drude_curve(np.array([100e-9, 200e-9]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError, match=r"separation 10 nm outside .*"
                                         r"\[45, 1250\] nm .*theory_cache_hi_nm"):
        drude_curve(10e-9)
    with pytest.raises(ValueError, match="separation 5000 nm"):
        drude_curve(np.array([200e-9, 5e-6]))


# The default cache range, sampled densely enough to find the interpolation
# error's peaks between the Chebyshev nodes.
CACHE_Z = np.geomspace(45e-9, 1250e-9, 97)


@pytest.fixture(scope="module")
def tabulated_params(default_cfg):
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    return assemble.theory_params(
        default_cfg, assemble.dielectric_model(default_cfg, material_csv=str(table)))


def cache_errors(params, n_nodes):
    """(measured relative error against the direct corrected force, cache)
    for an n-node cache over the default range."""
    curve = TheoryCurve(params, CACHE_Z[0], CACHE_Z[-1], n_nodes)
    direct = np.array([float(corrected_force(z, params)) for z in CACHE_Z])
    return float(np.max(np.abs(curve(CACHE_Z) / direct - 1.0))), curve


@pytest.mark.parametrize("n_nodes", [12, 16, 20])
def test_interp_rel_error_bounds_measured_error(drude_params, n_nodes):
    measured, curve = cache_errors(drude_params, n_nodes)
    assert measured <= curve.interp_rel_error


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


@pytest.mark.parametrize("n_coef", range(2, 41))
def test_in_place_clenshaw_is_bitwise_chebval(n_coef):
    rng = np.random.default_rng(n_coef)
    coef = rng.normal(size=n_coef) * 0.5 ** np.arange(n_coef)
    block = rng.uniform(-1, 1, size=(3, 50))
    for x in (0.37, np.float64(-0.81), np.array(0.5), block[0], block):
        ours, ref = _chebval(x, coef), chebyshev.chebval(x, coef)
        assert np.shape(ours) == np.shape(ref)
        assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()
