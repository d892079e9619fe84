import importlib.resources
import io
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from casimirlab.constants import energy_ev_to_angular_frequency
from casimirlab.dielectric import (AL_DRUDE, DrudeParams, OpticalTable,
                                   TabulatedModel, constant,
                                   drude_eps_imag_axis, drude_only,
                                   load_optical_table,
                                   tabulated_with_drude_tail)
from casimirlab.errors import ParseError


def shipped_table():
    path = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    return load_optical_table(str(path))


XI_GRID = [energy_ev_to_angular_frequency(e)
           for e in np.geomspace(0.01, 50.0, 25)]


def test_drude_closed_form_value():
    d = DrudeParams.from_ev(12.398, 0.063)
    xi = energy_ev_to_angular_frequency(1.0)
    expected = 1.0 + d.omega_p**2 / (xi**2 + d.gamma * xi)
    assert drude_eps_imag_axis(xi, d) == pytest.approx(expected, rel=1e-14)
    # at xi = omega_p, eps ~ 2 up to the small gamma term
    assert drude_eps_imag_axis(d.omega_p, d) == pytest.approx(2.0, rel=0.01)


def test_drude_params_validation():
    with pytest.raises(ValueError):
        DrudeParams(omega_p=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        DrudeParams(omega_p=1.0, gamma=-1.0)


@pytest.mark.parametrize("model", [
    constant(1.0), constant(1e4), drude_only(),
    tabulated_with_drude_tail(shipped_table()),
])
def test_eps_at_least_one_and_monotone(model):
    values = [model.eps(xi) for xi in XI_GRID]
    assert all(v >= 1.0 for v in values)
    assert all(a >= b * (1 - 1e-12) for a, b in zip(values, values[1:]))


def test_tabulated_matches_drude_closed_form():
    # the shipped table is Drude-derived, so the dispersion integral must
    # land back on the closed form
    model = tabulated_with_drude_tail(shipped_table())
    for xi in XI_GRID:
        closed = drude_eps_imag_axis(xi, AL_DRUDE)
        assert model.eps(xi) == pytest.approx(closed, rel=5e-3)


def test_quadrature_doubling_within_tolerance():
    table = shipped_table()
    coarse = tabulated_with_drude_tail(table, refine=4)
    fine = tabulated_with_drude_tail(table, refine=8)
    for xi in XI_GRID:
        assert fine.eps(xi) == pytest.approx(coarse.eps(xi), rel=1e-4)


def test_tail_insensitivity():
    # zeroing the last table point kills the omega^-3 tail; eps over the
    # frequencies that matter must move by < 0.1%
    table = shipped_table()
    eps2 = table.eps2.copy()
    eps2[-1] = 0.0
    no_tail = TabulatedModel(OpticalTable(table.energies_ev, eps2))
    with_tail = tabulated_with_drude_tail(table)
    for xi in XI_GRID:
        assert no_tail.eps(xi) == pytest.approx(with_tail.eps(xi), rel=1e-3)


def test_degenerate_xi_near_gamma_branch_continuous():
    model = drude_only()
    g = AL_DRUDE.gamma
    table = tabulated_with_drude_tail(shipped_table())
    at = table.eps(g)
    just_off = table.eps(g * (1 + 5e-7))
    assert at == pytest.approx(just_off, rel=1e-6)
    assert at == pytest.approx(model.eps(g), rel=5e-3)


def test_all_zero_table_without_drude_gives_vacuum():
    table = OpticalTable(np.array([0.04, 1.0, 100.0]), np.zeros(3))
    model = TabulatedModel(table, drude=None)
    assert model.eps(energy_ev_to_angular_frequency(1.0)) == pytest.approx(1.0)


def test_constant_model_validation():
    with pytest.raises(ValueError):
        constant(0.5)
    with pytest.raises(ValueError):
        drude_only().eps(0.0)


def test_crossover_bounds_checked():
    table = shipped_table()
    with pytest.raises(ValueError):
        TabulatedModel(table, crossover_ev=0.001)
    with pytest.raises(ValueError):
        TabulatedModel(table, crossover_ev=2000.0)
    with pytest.raises(ValueError):
        TabulatedModel(table, refine=0)


def test_load_optical_table_dialect():
    text = "# comment\n# material=Al\n0.04,100.0\n1.0,2.5\n"
    table = load_optical_table(io.StringIO(text))
    assert table.material_label == "Al"
    assert table.energies_ev.tolist() == [0.04, 1.0]


@pytest.mark.parametrize("text,fragment", [
    ("0.04,1.0,9\n1.0,2.0\n", "line 1"),
    ("0.04,1.0\n0.03,2.0\n", "non-increasing"),
    ("0.04,1.0\n1.0,-2.0\n", "negative"),
    ("0.04,abc\n1.0,2.0\n", "malformed"),
    ("0.04,1.0\n", "at least 2"),
    ("0.04,1.0\n1.0,nan\n", "non-finite value at line 2"),
])
def test_load_optical_table_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_optical_table(io.StringIO(text))


ARRAY_MODELS = [constant(30.0), drude_only(),
                tabulated_with_drude_tail(shipped_table())]


def array_grid():
    """XI_GRID plus xi = gamma (degenerate Drude-segment branch) and a point
    far below the table's last frequency (series branch of the tail)."""
    omega_end = energy_ev_to_angular_frequency(shipped_table().energies_ev[-1])
    extra = [AL_DRUDE.gamma, AL_DRUDE.gamma * (1 + 5e-7), 1e-5 * omega_end]
    return np.array(sorted(XI_GRID + extra))


@pytest.mark.parametrize("model", ARRAY_MODELS)
def test_array_eps_equals_scalar_eps_bitwise(model):
    grid = array_grid()
    scalars = [model.eps(xi) for xi in grid]
    assert all(type(v) is float for v in scalars)
    assert model.eps(grid).tolist() == scalars
    assert model.eps(grid.reshape(2, -1)).tolist() == \
        np.reshape(scalars, (2, -1)).tolist()
    with pytest.raises(ValueError):
        model.eps(np.array([1e14, 0.0]))


def test_array_eps_thread_determinism():
    grid = array_grid()
    expected = [model.eps(grid).tolist() for model in ARRAY_MODELS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda m: m.eps(grid).tolist(), ARRAY_MODELS * 8))
    assert results == expected * 8
