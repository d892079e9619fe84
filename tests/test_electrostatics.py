import math
from dataclasses import replace

import numpy as np
import pytest

from casimirlab.constants import CONST
from casimirlab.electrostatics import (alpha, sphere_plane_force_exact,
                                       sphere_plane_force_pfa)
from casimirlab.errors import ConvergenceError, ValidityError


@pytest.fixture(scope="module")
def cfg(e_cfg):
    """The configured sphere at the first calibration voltage."""
    return replace(e_cfg, V1=0.31)


def test_alpha_stable_at_small_gap(e_cfg):
    R = e_cfg.R
    a = alpha(1e-12, R)
    assert a == pytest.approx(math.sqrt(2e-12 / R), rel=1e-3)
    assert alpha(0.0, R) == 0.0
    with pytest.raises(ValueError):
        alpha(-1e-9, R)
    with pytest.raises(ValueError):
        alpha(1e-9, 0.0)


def test_pfa_closed_form(cfg):
    z = 100e-9
    dv = cfg.V1 - cfg.V2
    expected = -math.pi * CONST.eps0 * cfg.R * dv * dv / z
    assert sphere_plane_force_pfa(z, cfg) == pytest.approx(expected, rel=1e-14)
    # an array of separations gives the scalar values, bit for bit
    zs = np.linspace(100e-9, 500e-9, 9)
    assert sphere_plane_force_pfa(zs, cfg).tolist() == \
        [sphere_plane_force_pfa(z, cfg) for z in zs]


def test_exact_approaches_pfa(cfg):
    for z, tol in ((100e-9, 0.01), (500e-9, 0.03)):
        ratio = sphere_plane_force_exact(z, cfg) / sphere_plane_force_pfa(z, cfg)
        assert abs(ratio - 1.0) <= tol
        assert ratio < 1.0   # series approaches the proximity form from below


def test_voltage_sign_invariance(cfg):
    z = 200e-9
    plus = sphere_plane_force_exact(z, replace(cfg, V1=0.31, V2=0.0))
    minus = sphere_plane_force_exact(z, replace(cfg, V1=-0.31, V2=0.0))
    assert plus == minus
    assert plus < 0
    assert sphere_plane_force_exact(z, replace(cfg, V1=0.5, V2=0.5)) == 0.0


def test_electrostatic_dominates_calibration_regime(cfg, drude_curve):
    for z in (100e-9, 300e-9, 500e-9):
        fe = sphere_plane_force_exact(z, replace(cfg, V2=0.0))
        assert abs(fe) > 10.0 * abs(drude_curve(z))


def test_residual_potential_negligible(e_cfg, drude_curve):
    z = 100e-9
    fe = sphere_plane_force_exact(z, e_cfg)  # grounded plate: V2 alone
    assert abs(fe) < 0.015 * abs(drude_curve(z))


def test_guards_and_validation(cfg):
    with pytest.raises(ValueError):
        sphere_plane_force_exact(0.0, cfg)
    with pytest.raises(ValidityError):
        sphere_plane_force_pfa(10e-6, cfg)
    with pytest.raises(ValidityError):
        sphere_plane_force_pfa(np.array([100e-9, 10e-6]), cfg)
    with pytest.raises(ValueError):
        sphere_plane_force_pfa(np.array([100e-9, 0.0]), cfg)
    with pytest.raises(ValueError):
        replace(cfg, R=-1.0)
    with pytest.raises(ValueError):
        replace(cfg, max_terms=5)


def test_convergence_error_carries_estimate(cfg):
    # 10 terms cannot converge the series at alpha ~ 1.4e-3
    with pytest.raises(ConvergenceError) as err:
        sphere_plane_force_exact(100e-9, replace(cfg, max_terms=10))
    assert err.value.estimate is not None
    assert err.value.error_bound is not None
