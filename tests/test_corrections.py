from dataclasses import replace

import numpy as np
import pytest

from casimirlab.corrections import (RoughnessSpec, TemperatureParams,
                                    TheoryCurve, TheoryParams, corrected_force,
                                    roughness_factor,
                                    roughness_factor_from_distribution,
                                    temperature_factor, theoretical_force)
from casimirlab.errors import ValidityError

ROUGH = RoughnessSpec()
TEMP = TemperatureParams()
FLAT = ((0.0, 1.0),)


def test_roughness_polynomial_value():
    z = 100e-9
    x = 11.8e-9 / z
    expected = 1.0 + 0.86 * x**2 + 1.02 * x**3 + 1.90 * x**4
    assert roughness_factor(z, ROUGH) == pytest.approx(expected, rel=1e-14)
    assert roughness_factor(z, ROUGH) - 1.0 <= 0.015


def test_roughness_monotone_to_one():
    zs = np.geomspace(60e-9, 5e-6, 30)
    vals = [roughness_factor(z, ROUGH) for z in zs]
    assert all(v >= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-4)


def test_roughness_guards():
    with pytest.raises(ValidityError):
        roughness_factor(30e-9, ROUGH)   # A/z >= 0.3
    with pytest.raises(ValueError):
        roughness_factor(0.0, ROUGH)
    with pytest.raises(ValueError):
        RoughnessSpec(A=-1e-9)
    with pytest.raises(ValueError):
        RoughnessSpec(coeffs=(1.0, 2.0))


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


def test_temperature_factor_values():
    assert temperature_factor(100e-9, TEMP) - 1.0 == pytest.approx(3.09e-5, rel=0.05)
    zs = np.linspace(60e-9, 500e-9, 23)
    vals = [temperature_factor(z, TEMP) for z in zs]
    assert all(1.0 <= v < 1.01 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_eta_slope():
    # eta = 0.131e-3 per nm at 300 K, within 0.5%
    assert TEMP.eta(1e-9) == pytest.approx(0.131e-3, rel=5e-3)


def test_temperature_guards():
    with pytest.raises(ValidityError):
        temperature_factor(4e-6, TEMP)   # eta >= 0.5
    with pytest.raises(ValueError):
        temperature_factor(-1.0, TEMP)
    with pytest.raises(ValueError):
        TemperatureParams(T=-1.0)


def test_corrections_small_over_window():
    for z in np.linspace(100e-9, 500e-9, 9):
        total = roughness_factor(z, ROUGH) * temperature_factor(z, TEMP)
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


def test_theoretical_force_offsets_cap(drude_params):
    z_gap = 120e-9
    direct = corrected_force(z_gap + drude_params.cap_offset, drude_params)
    assert theoretical_force(z_gap, drude_params) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_force(0.0, drude_params)


def test_theory_curve_matches_direct(drude_params, drude_curve):
    for z in (101e-9, 237e-9, 480e-9, 900e-9):
        assert drude_curve(z) == pytest.approx(corrected_force(z, drude_params),
                                               rel=2e-6)
    arr = drude_curve(np.array([100e-9, 200e-9]))
    assert arr.shape == (2,)
    with pytest.raises(ValueError):
        drude_curve(10e-9)
    with pytest.raises(ValueError):
        drude_curve(5e-6)


def test_theory_curve_error_within_tolerance(drude_params, drude_curve):
    assert 0 < drude_curve.max_rel_error <= drude_params.quad.rel_tol


def test_theory_params_validation(drude_model):
    with pytest.raises(ValueError):
        TheoryParams(model=drude_model, cap_offset=-1e-9)
    with pytest.raises(ValueError):
        TheoryCurve(TheoryParams(model=drude_model), 2e-7, 1e-7)
