import importlib.resources
import io
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab import assemble, dielectric
from casimirlab.config import RunConfig
from casimirlab.constants import energy_ev_to_angular_frequency
from casimirlab.dielectric import (DrudeParams, OpticalTable, TabulatedModel,
                                   _drude_segment_integral, _powerlaw_tail_integral,
                                   load_optical_table)
from casimirlab.errors import ParseError
from conftest import traced_peak_above_inputs
from oracles import ConstantModel

TABLE_PATH = str(importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv")
CFG = RunConfig()
DRUDE = assemble.dielectric_model(CFG, force_drude=True)
TABULATED = assemble.dielectric_model(CFG, material_csv=TABLE_PATH)


def shipped_table():
    return load_optical_table(TABLE_PATH)


XI_GRID = [energy_ev_to_angular_frequency(e)
           for e in np.geomspace(0.01, 50.0, 25)]


def test_drude_closed_form_value():
    d = DRUDE.drude
    xi = energy_ev_to_angular_frequency(1.0)
    expected = 1.0 + d.omega_p**2 / (xi**2 + d.gamma * xi)
    assert DRUDE.eps(xi) == pytest.approx(expected, rel=1e-14)
    # at xi = omega_p, eps ~ 2 up to the small gamma term
    assert DRUDE.eps(d.omega_p) == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("model", [
    ConstantModel(1.0), ConstantModel(1e4), DRUDE, TABULATED,
])
def test_eps_at_least_one_and_monotone(model):
    values = [model.eps(xi) for xi in XI_GRID]
    assert all(v >= 1.0 for v in values)
    assert all(a >= b * (1 - 1e-12) for a, b in zip(values, values[1:]))


def test_tabulated_matches_drude_closed_form():
    # the shipped table is Drude-derived, so the dispersion integral must
    # land back on the closed form
    for xi in XI_GRID:
        closed = DRUDE.eps(xi)
        assert TABULATED.eps(xi) == pytest.approx(closed, rel=5e-3)


def test_quadrature_doubling_within_tolerance(monkeypatch):
    coarse = TABULATED
    monkeypatch.setattr(dielectric, "TABLE_REFINE", 2 * dielectric.TABLE_REFINE)
    fine = assemble.dielectric_model(CFG, material_csv=TABLE_PATH)
    for xi in XI_GRID:
        assert fine.eps(xi) == pytest.approx(coarse.eps(xi), rel=1e-4)


def test_tail_insensitivity():
    # zeroing the last table point kills the omega^-3 tail; eps over the
    # frequencies that matter must move by < 0.1%
    table = shipped_table()
    eps2 = table.eps2.copy()
    eps2[-1] = 0.0
    no_tail = TabulatedModel(OpticalTable(table.energies_ev, eps2), TABULATED.drude)
    for xi in XI_GRID:
        assert no_tail.eps(xi) == pytest.approx(TABULATED.eps(xi), rel=1e-3)


def test_degenerate_xi_near_gamma_branch_continuous():
    g = DRUDE.drude.gamma
    at = TABULATED.eps(g)
    just_off = TABULATED.eps(g * (1 + 5e-7))
    assert at == pytest.approx(just_off, rel=1e-6)
    assert at == pytest.approx(DRUDE.eps(g), rel=5e-3)


def test_all_zero_table_with_undamped_drude_gives_vacuum():
    # gamma = 0 puts no Drude absorption below the table, so nothing is left
    table = OpticalTable(np.array([0.04, 1.0, 100.0]), np.zeros(3))
    model = TabulatedModel(table, DrudeParams(DRUDE.drude.omega_p, 0.0))
    assert model.eps(energy_ev_to_angular_frequency(1.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("xi_ev", [0.01, 0.063, 1.0, 20.0])
def test_all_zero_table_leaves_the_drude_segment(xi_ev):
    # eps - 1 is then (2/pi) int_0^omega_0 omega eps''_Drude / (omega^2 + xi^2),
    # summed here by 400-point Gauss-Legendre instead of the closed form
    table = OpticalTable(np.array([0.04, 1.0, 100.0]), np.zeros(3))
    d = DRUDE.drude
    omega_0 = energy_ev_to_angular_frequency(0.04)
    xi = energy_ev_to_angular_frequency(xi_ev)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    w = omega_0 * (nodes + 1) / 2
    integrand = d.omega_p**2 * d.gamma / ((w**2 + d.gamma**2) * (w**2 + xi**2))
    expected = 1.0 + (2.0 / np.pi) * (omega_0 / 2) * np.dot(weights, integrand)
    assert TabulatedModel(table, d).eps(xi) == pytest.approx(expected, rel=1e-12)


def test_constant_model_validation():
    with pytest.raises(ValueError):
        ConstantModel(0.5)
    with pytest.raises(ValueError):
        DRUDE.eps(0.0)


def test_load_optical_table_dialect():
    text = "# comment\n# material=Al\n0.04,100.0\n1.0,2.5\n"
    table = load_optical_table(io.StringIO(text))
    assert table.energies_ev.tolist() == [0.04, 1.0]


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(energies=st.lists(POSITIVE, min_size=2, max_size=30, unique=True).map(sorted),
       data=st.data(),
       label=st.text("Al-gold_2 (ref)", max_size=12).map(str.strip))
def test_load_optical_table_round_trips_written_values(energies, data, label):
    # any positive, strictly increasing grid with eps2 >= 0, written in the
    # dialect with repr (shortest exact digits) after a metadata line of any
    # label, loads back to the same floats
    eps2 = data.draw(st.lists(st.floats(0.0, allow_infinity=False),
                              min_size=len(energies), max_size=len(energies)))
    text = (f"# optical table\n# material={label}\n\n"
            + "".join(f"{e!r},{s!r}\n" for e, s in zip(energies, eps2)))
    table = load_optical_table(io.StringIO(text))
    assert table.energies_ev.tolist() == energies
    assert table.eps2.tolist() == eps2


@pytest.mark.parametrize("text,fragment", [
    ("0.04,1.0,9\n1.0,2.0\n", "line 1"),
    ("0.04,1.0\n0.03,2.0\n", "non-increasing"),
    ("0.0,1.0\n1.0,2.0\n", "energy must be > 0 eV at line 1"),
    ("# c\n-1.0,1.0\n1.0,2.0\n", "energy must be > 0 eV at line 2"),
    ("0.04,1.0\n1.0,-2.0\n", "negative"),
    ("0.04,abc\n1.0,2.0\n", "malformed"),
    ("0.04,1.0\n", "at least 2"),
    ("0.04,1.0\n1.0,nan\n", "non-finite value at line 2"),
    # comment, metadata, blank and whitespace lines among the rows
    ("# c\n0.04,1.0\n# note\n1.0,abc\n", "malformed number in '1.0,abc' at line 4"),
    ("0.04,1.0\n# material=x\n0.03,2.0\n", "non-increasing energy at line 3"),
    ("0.04,1.0\n\n1.0,abc\n", "malformed number in '1.0,abc' at line 3"),
    ("0.04,1.0\n  \t\n1.0,nan\n", "non-finite value at line 3"),
    # leading and trailing spaces or tabs, bad numbers and column counts
    ("\t0.04 , 1.0\n 1.0,2.0,3\t\n", "expected 2 columns, got '1.0,2.0,3' at line 2"),
    (" 0.04,1.0 \n\t1.0,-2.0\n", "negative eps2 at line 2"),
    ("0.04,1.0\n1.0,2.0x\n", "malformed number in '1.0,2.0x' at line 2"),
])
def test_load_optical_table_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_optical_table(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "0.04,1.0\n# note\n1.0,2.0\n",
    "0.04,1.0\n# material=Al\n1.0,2.0\n",
    "0.04,1.0\n\n \t\n1.0,2.0\n\n",
    " 0.04 ,\t1.0\t\n\t1.0 , 2.0 \n",
])
def test_load_optical_table_accepts_the_dialect_among_the_rows(text):
    table = load_optical_table(io.StringIO(text))
    assert table.energies_ev.tolist() == [0.04, 1.0]
    assert table.eps2.tolist() == [1.0, 2.0]


ARRAY_MODELS = [ConstantModel(30.0), DRUDE, TABULATED]


def array_grid():
    """XI_GRID plus xi = gamma (degenerate Drude-segment branch) and a point
    far below the table's last frequency (series branch of the tail)."""
    omega_end = energy_ev_to_angular_frequency(shipped_table().energies_ev[-1])
    gamma = DRUDE.drude.gamma
    extra = [gamma, gamma * (1 + 5e-7), 1e-5 * omega_end]
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


# the xi rows the order-16 quadrature rule evaluates eps at in one call
RULE_ROWS = 176


def xi_span(n):
    """n xi from 1 meV to 60 eV, log-spaced, in rad/s."""
    return energy_ev_to_angular_frequency(1.0) * np.geomspace(1e-3, 60.0, n)


def one_shot_eps(model, xi):
    """The tabulated eps with the table sum taken in one broadcast piece."""
    x = xi[..., None]
    total = np.sum(model._weights / (model._omega_sq + x * x), axis=-1)
    total += _drude_segment_integral(xi, model.drude, model._omega_start)
    total += _powerlaw_tail_integral(xi, model._omega_end, model._eps2_end)
    return 1.0 + (2.0 / np.pi) * total


@pytest.mark.parametrize("shape", [(), (1,), (RULE_ROWS,), (3, 70)])
def test_blocked_tabulated_eps_is_the_one_shot_sum_bitwise(shape):
    xi = xi_span(int(np.prod(shape))).reshape(shape)
    eps = TABULATED.eps(xi)
    assert np.shape(eps) == shape
    assert np.asarray(eps).tolist() == one_shot_eps(TABULATED, xi).tolist()


def test_tabulated_eps_memory_stays_in_blocks():
    # the (rows, table nodes) temporaries are built a block of rows at a time,
    # not as (176, table nodes) pieces of about 1.4 MiB each
    xi = xi_span(RULE_ROWS)
    assert traced_peak_above_inputs(lambda: TABULATED.eps(xi)) < 512 * 1024
