import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab import assemble
from casimirlab.config import RunConfig
from casimirlab.errors import CalibrationError, ParseError
from casimirlab.forcecurve import (CalibrationParams, ForceCurve, _csv_rows,
                                   load_scan, save_scan, signal_to_force)


def make_curve(n=20, observable="force_pn", voltage=0.31):
    piezo = np.linspace(0.0, 100.0, n)
    values = -np.linspace(1.0, 5.0, n)
    return ForceCurve("t", voltage, piezo, **{observable: values})


def test_curve_validation():
    piezo = np.linspace(0, 10, 12)
    with pytest.raises(ValueError, match="exactly one"):
        ForceCurve("t", 0.0, piezo, signal=piezo, force_pn=piezo)
    with pytest.raises(ValueError, match="exactly one"):
        ForceCurve("t", 0.0, piezo)
    with pytest.raises(ValueError, match="at least"):
        ForceCurve("t", 0.0, piezo[:5], force_pn=piezo[:5])
    with pytest.raises(ValueError, match="length"):
        ForceCurve("t", 0.0, piezo, force_pn=piezo[:-1])
    with pytest.raises(ValueError, match="increasing"):
        ForceCurve("t", 0.0, piezo[::-1], force_pn=piezo)


def test_save_load_round_trip():
    curve = ForceCurve("rt", 0.31, np.linspace(5.0, 400.0, 40),
                       force_pn=np.sin(np.arange(40)) * 100.0,
                       spring_constant=0.0169)
    buf = io.StringIO()
    save_scan(curve, buf)
    back = load_scan(io.StringIO(buf.getvalue()))
    assert back.scan_id == "rt"
    assert back.applied_voltage == pytest.approx(0.31, rel=1e-9)
    assert back.spring_constant == pytest.approx(0.0169, rel=1e-9)
    np.testing.assert_allclose(back.piezo_nm, curve.piezo_nm, rtol=1e-8)
    np.testing.assert_allclose(back.force_pn, curve.force_pn, rtol=1e-8)


SCAN_HEAD = "# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n"


def written(x):
    """The value save_scan writes for x: 9 significant digits."""
    return float(f"{x:.9g}")


FINITE = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(piezo=st.lists(FINITE, min_size=10, max_size=40,
                      unique_by=written).map(sorted),
       obs=st.data(), voltage=FINITE, spring=st.none() | st.floats(1e-4, 1.0),
       observable=st.sampled_from(["force_pn", "signal"]))
def test_save_load_round_trips_written_values(piezo, obs, voltage, spring, observable):
    values = obs.draw(st.lists(FINITE, min_size=len(piezo), max_size=len(piezo)))
    curve = ForceCurve("scan_07", voltage, piezo, **{observable: values},
                       spring_constant=spring)
    buf = io.StringIO()
    save_scan(curve, buf)
    back = load_scan(io.StringIO(buf.getvalue()))
    assert back.scan_id == "scan_07"
    assert back.applied_voltage == written(voltage)
    assert back.spring_constant == (None if spring is None else written(spring))
    assert back.piezo_nm.tolist() == [written(x) for x in piezo]
    assert getattr(back, observable).tolist() == [written(x) for x in values]


def format_rows(*columns):
    """The reference row formatter: one str.format call per row."""
    row = ",".join(["{:.9g}"] * len(columns)) + "\n"
    return "".join(map(row.format, *(np.asarray(c, dtype=float).tolist()
                                     for c in columns)))


# -0, subnormals, +-1e16 and the %g switch to exponent notation (1e-5, 1e9)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, -1e16,
               1e-5, 9.9999999995e-6, 1e9, 999999999.5, -123456789.0, 0.1]
CELLS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_csv_rows_matches_one_format_call_per_row(width, data):
    n = data.draw(st.integers(0, 12))
    columns = [data.draw(st.lists(CELLS, min_size=n, max_size=n)) for _ in range(width)]
    assert _csv_rows(*columns) == format_rows(*columns)


def test_csv_rows_follows_a_changing_axis():
    # the first column's text is memoised: alternating axes must never reuse it
    a, b = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 11)
    force = np.arange(11.0)
    for axis in (a, b, a, b, b, a):
        assert _csv_rows(axis, force) == format_rows(axis, force)
    assert _csv_rows(a[:5], force[:5]) == format_rows(a[:5], force[:5])
    assert _csv_rows(a[:0], force[:0]) == ""


@pytest.mark.parametrize("text,fragment", [
    ("piezo_nm,force_pn\n1,2\n", "missing metadata"),
    ("# scan_id=a\n# applied_voltage_v=0\n1,2\n", "unrecognized header"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal,force_pn\n",
     "unrecognized header .* at line 3"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal\n1,x\n",
     "line 4"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal\n2,1\n1,1\n",
     "non-monotone"),
    ("# scan_id=a\n# applied_voltage_v=zz\npiezo_nm,signal\n1,1\n",
     "applied_voltage_v"),
    ("# scan_id=a\n# applied_voltage_v=0\n", "missing column header"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n1,2\n2,nan\n",
     "non-finite value at line 5"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n1,2,3\n",
     "expected 2 columns.* at line 4"),
    ("# scan_id=a\n# applied_voltage_v=inf\npiezo_nm,signal\n1,1\n",
     "non-finite applied_voltage_v at line 2"),
    ("# scan_id=a\n# applied_voltage_v=0\n# spring_constant_n_per_m=nan\n"
     "piezo_nm,signal\n1,1\n", "non-finite spring_constant_n_per_m at line 3"),
    # comment, metadata, blank and whitespace lines among the rows
    (SCAN_HEAD + "1,2\n# note\n2,x\n", "malformed number in '2,x' at line 6"),
    (SCAN_HEAD + "1,2\n# spring_constant_n_per_m=nan\n2,3\n",
     "non-finite spring_constant_n_per_m at line 5"),
    ("# scan_id=a\npiezo_nm,force_pn\n1,2\n# applied_voltage_v=zz\n",
     "malformed applied_voltage_v at line 4"),
    (SCAN_HEAD + "1,2\n\n2,x\n", "malformed number in '2,x' at line 6"),
    (SCAN_HEAD + "1,2\n   \t\n3,4,5\n", "expected 2 columns, got '3,4,5' at line 6"),
    (SCAN_HEAD + "1,2\n\n3,nan\n", "non-finite value at line 6"),
    (SCAN_HEAD + "2,1\n# note\n1,1\n", "non-monotone piezo at line 6"),
    # leading and trailing spaces or tabs, bad numbers and column counts
    (SCAN_HEAD + " 1 ,\t2\t\n\t2,nan \n", "non-finite value at line 5"),
    (SCAN_HEAD + "1,2\n1e,3\n", "malformed number in '1e,3' at line 5"),
    (SCAN_HEAD + "1\n", "expected 2 columns, got '1' at line 4"),
    (SCAN_HEAD + "1,2\n3,4,\n", "expected 2 columns, got '3,4,' at line 5"),
    (SCAN_HEAD + "nan,2\n3,4\n", "non-finite value at line 4"),
])
def test_load_scan_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_scan(io.StringIO(text))


CLEAN_ROWS = [f"{z:g},{-z / 10:g}" for z in range(1, 13)]


@pytest.mark.parametrize("body", [
    "\n".join(CLEAN_ROWS[:4] + ["# note"] + CLEAN_ROWS[4:]),
    "\n".join(CLEAN_ROWS[:4] + ["# spring_constant_n_per_m=0.02"] + CLEAN_ROWS[4:]),
    "\n".join(CLEAN_ROWS[:4] + [""] + CLEAN_ROWS[4:] + [""]),
    "\n".join(CLEAN_ROWS[:4] + [" \t "] + CLEAN_ROWS[4:]),
    "\n".join(" " + row.replace(",", " ,\t") + "\t" for row in CLEAN_ROWS),
])
def test_load_scan_accepts_the_dialect_among_the_rows(body):
    clean = load_scan(io.StringIO(SCAN_HEAD + "\n".join(CLEAN_ROWS) + "\n"))
    curve = load_scan(io.StringIO(SCAN_HEAD + body + "\n"))
    assert curve.piezo_nm.tolist() == clean.piezo_nm.tolist()
    assert curve.force_pn.tolist() == clean.force_pn.tolist()
    assert curve.spring_constant == (0.02 if "spring" in body else None)


def test_signal_to_force_hooke():
    cal = CalibrationParams(k=0.0169, deflection_sensitivity=2.0)
    curve = make_curve(observable="signal")
    out = signal_to_force(curve, cal)
    # F_pn = k [N/m] * deflection [nm] * 1e3, attraction stays negative
    np.testing.assert_allclose(out.force_pn, curve.signal * 2.0 * 0.0169 * 1e3)
    assert np.all(out.force_pn < 0)
    assert out.spring_constant == 0.0169
    with pytest.raises(CalibrationError):
        signal_to_force(out, cal)
    # pN -> N -> pN round trip
    np.testing.assert_allclose(out.force_pn * 1e-12 * 1e12, out.force_pn,
                               rtol=1e-12)


def test_calibration_params_validation():
    cal = assemble.calibration_params(RunConfig())
    with pytest.raises(ValueError):
        replace(cal, k=0.0)
    with pytest.raises(ValueError):
        replace(cal, deflection_sensitivity=0.0)
