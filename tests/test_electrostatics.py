import math
import re
from dataclasses import replace

import numpy as np
import pytest

from casimirlab import electrostatics
from casimirlab.constants import CONST
from casimirlab.electrostatics import (alpha, sphere_plane_force_exact,
                                       sphere_plane_force_pfa)
from casimirlab.errors import ConvergenceError, DataError


V1 = 0.31  # the first calibration voltage


def test_alpha_stable_at_small_gap(e_cfg):
    R = e_cfg.R
    a = alpha(1e-12, R)
    assert a == pytest.approx(math.sqrt(2e-12 / R), rel=1e-3)
    assert alpha(0.0, R) == 0.0


def test_pfa_closed_form(e_cfg):
    z = 100e-9
    dv = V1 - e_cfg.V2
    expected = -math.pi * CONST.eps0 * e_cfg.R * dv * dv / z
    assert sphere_plane_force_pfa(z, e_cfg, V1) == pytest.approx(expected, rel=1e-14)
    # an array of separations gives the scalar values, bit for bit
    zs = np.linspace(100e-9, 500e-9, 9)
    assert sphere_plane_force_pfa(zs, e_cfg, V1).tolist() == \
        [sphere_plane_force_pfa(z, e_cfg, V1) for z in zs]


def test_exact_approaches_pfa(e_cfg):
    for z, tol in ((100e-9, 0.01), (500e-9, 0.03)):
        ratio = (sphere_plane_force_exact(z, e_cfg, V1)
                 / sphere_plane_force_pfa(z, e_cfg, V1))
        assert abs(ratio - 1.0) <= tol
        assert ratio < 1.0   # series approaches the proximity form from below


def test_voltage_sign_invariance(e_cfg):
    z = 200e-9
    plus = sphere_plane_force_exact(z, replace(e_cfg, V2=0.0), 0.31)
    minus = sphere_plane_force_exact(z, replace(e_cfg, V2=0.0), -0.31)
    assert plus == minus
    assert plus < 0
    assert sphere_plane_force_exact(z, replace(e_cfg, V2=0.5), 0.5) == 0.0


def test_electrostatic_dominates_calibration_regime(e_cfg, drude_curve):
    for z in (100e-9, 300e-9, 500e-9):
        fe = sphere_plane_force_exact(z, replace(e_cfg, V2=0.0), V1)
        assert abs(fe) > 10.0 * abs(drude_curve(z))


def test_residual_potential_negligible(e_cfg, drude_curve):
    z = 100e-9
    fe = sphere_plane_force_exact(z, e_cfg, 0.0)  # grounded plate: V2 alone
    assert abs(fe) < 0.015 * abs(drude_curve(z))


def test_guards_and_validation(e_cfg):
    with pytest.raises(ValueError):
        sphere_plane_force_exact(0.0, e_cfg, V1)
    with pytest.raises(DataError):
        sphere_plane_force_pfa(10e-6, e_cfg, V1)
    with pytest.raises(DataError):
        sphere_plane_force_pfa(np.array([100e-9, 10e-6]), e_cfg, V1)
    with pytest.raises(ValueError):
        sphere_plane_force_pfa(np.array([100e-9, 0.0]), e_cfg, V1)


def test_convergence_error_carries_estimate(monkeypatch, e_cfg):
    # 10 terms cannot converge the series at alpha ~ 1.4e-3
    monkeypatch.setattr(electrostatics, "MAX_TERMS", 10)
    with pytest.raises(ConvergenceError) as err:
        sphere_plane_force_exact(100e-9, e_cfg, V1)
    # the message states the sum and the last of the 10 terms
    found = re.search(r": last estimate (\S+) N, last term (\S+) N$", str(err.value))
    assert found, str(err.value)
    a = alpha(100e-9, e_cfg.R)
    terms = [(1 / math.tanh(a) - n / math.tanh(n * a)) / math.sinh(n * a)
             for n in range(1, 11)]
    scale = 2 * math.pi * CONST.eps0 * (V1 - e_cfg.V2) ** 2
    assert float(found[1]) == pytest.approx(scale * sum(terms), rel=1e-5)
    assert float(found[2]) == pytest.approx(scale * terms[-1], rel=1e-2)
