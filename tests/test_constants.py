import math

import pytest

from casimirlab.constants import CONST, energy_ev_to_angular_frequency
from oracles import angular_frequency_to_energy_ev, plasma_energy_from_wavelength


def test_planck_pair_consistent():
    assert abs(CONST.planck_h - 2 * math.pi * CONST.hbar) <= 1e-12 * CONST.planck_h


def test_energy_conversion_linear():
    base = energy_ev_to_angular_frequency(1.0)
    for a in (0.0, 0.5, 2.0, 12.398, 1e3):
        assert energy_ev_to_angular_frequency(a) == pytest.approx(a * base, rel=1e-14)


def test_energy_round_trip():
    for e in (1e-3, 0.063, 1.0, 12.398, 1e4):
        back = angular_frequency_to_energy_ev(energy_ev_to_angular_frequency(e))
        assert back == pytest.approx(e, rel=1e-12)


def test_plasma_energy_from_wavelength():
    # 100 nm plasma wavelength -> 12.398 eV
    assert plasma_energy_from_wavelength(100e-9) == pytest.approx(12.398, rel=1e-3)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        energy_ev_to_angular_frequency(-1.0)
    with pytest.raises(ValueError):
        angular_frequency_to_energy_ev(-1.0)
    with pytest.raises(ValueError):
        plasma_energy_from_wavelength(0.0)
