import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab.cli import _load_mean_curve
from casimirlab.config import load_config
from casimirlab.dielectric import load_optical_table
from casimirlab.errors import ParseError
from casimirlab.forcecurve import (CalibrationParams, ForceCurve, _axis_text, atomic_write,
                                   axis_text, csv_text, load_scan, read_csv, save_scan,
                                   scan_is_grounded, signal_to_force)
from conftest import read_text


def make_curve(n=20, observable="force_pn", voltage=0.31):
    piezo = np.linspace(0.0, 100.0, n)
    values = -np.linspace(1.0, 5.0, n)
    return ForceCurve("t", voltage, piezo, **{observable: values})


def test_save_load_round_trip(tmp_path):
    curve = ForceCurve("rt", 0.31, np.linspace(5.0, 400.0, 40),
                       force_pn=np.sin(np.arange(40)) * 100.0,
                       spring_constant=0.0169)
    buf = io.StringIO()
    save_scan(curve, buf)
    back = read_text(load_scan, tmp_path, buf.getvalue())
    assert back.scan_id == "rt"
    assert back.applied_voltage == pytest.approx(0.31, rel=1e-9)
    assert back.spring_constant == pytest.approx(0.0169, rel=1e-9)
    np.testing.assert_allclose(back.piezo_nm, curve.piezo_nm, rtol=1e-8)
    np.testing.assert_allclose(back.force_pn, curve.force_pn, rtol=1e-8)


SCAN_HEAD = "# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n"
# rows after every row of a case: the reader refuses fewer than MIN_SAMPLES
# rows before load_scan reads the metadata and the order of the rows
MORE_ROWS = "".join(f"{z},1\n" for z in range(100, 110))


def written(x):
    """The value save_scan writes for x: 9 significant digits."""
    return float(f"{x:.9g}")


FINITE = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(piezo=st.lists(FINITE, min_size=10, max_size=40,
                      unique_by=written).map(sorted),
       obs=st.data(), voltage=FINITE, spring=st.none() | st.floats(1e-4, 1.0),
       observable=st.sampled_from(["force_pn", "signal"]))
def test_save_load_round_trips_written_values(tmp_path_factory, piezo, obs, voltage, spring,
                                              observable):
    values = obs.draw(st.lists(FINITE, min_size=len(piezo), max_size=len(piezo)))
    curve = ForceCurve("scan_07", voltage, piezo, **{observable: values},
                       spring_constant=spring)
    buf = io.StringIO()
    save_scan(curve, buf)
    back = read_text(load_scan, tmp_path_factory.mktemp("scan"), buf.getvalue())
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


def csv_rows(*columns):
    """The rows ``csv_text`` writes for ``columns``, after its header line."""
    return csv_text({}, ("c",) * len(columns), columns).partition("\n")[2]


# -0, subnormals, +-1e16 and the %g switch to exponent notation (1e-5, 1e9)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, -1e16,
               1e-5, 9.9999999995e-6, 1e9, 999999999.5, -123456789.0, 0.1]
CELLS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_csv_rows_matches_one_format_call_per_row(width, data):
    n = data.draw(st.integers(0, 12))
    columns = [data.draw(st.lists(CELLS, min_size=n, max_size=n)) for _ in range(width)]
    assert csv_rows(*columns) == format_rows(*columns)


def test_csv_rows_follows_a_changing_axis():
    # the first column's text is memoised: alternating axes must never reuse it
    a, b = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 11)
    force = np.arange(11.0)
    for axis in (a, b, a, b, b, a):
        assert csv_rows(axis, force) == format_rows(axis, force)
    assert csv_rows(a[:5], force[:5]) == format_rows(a[:5], force[:5])
    assert csv_rows(a[:0], force[:0]) == ""


def test_csv_text_writes_the_metadata_then_the_header_and_rows(tmp_path):
    meta = {"name": "x y", "seed": 12345678901, "v": 0.1 + 0.2, "k": -0.0}
    head = "# name=x y\n# seed=12345678901\n# v=0.3\n# k=-0\n"
    assert csv_text(meta) == csv_text(meta, (), ()) == head
    axis, force = np.linspace(1.0, 2.0, 11), np.arange(11.0) / 3
    text = csv_text(meta, ("z", "f"), (axis, force))
    assert text == head + "z,f\n" + format_rows(axis, force)
    table = read_text(lambda path: read_csv(path, 2, 11, (("z", "f"),)), tmp_path, text)
    assert table.meta == {"name": "x y", "seed": "12345678901", "v": "0.3", "k": "-0"}
    assert table.columns.tolist() == [[float(t) for t in axis_text(axis).split()],
                                      [float(f"{f:.9g}") for f in force]]
    bad = np.where(axis > 1.5, np.nan, force)
    with pytest.raises(ValueError, match="^non-finite value in the z, f output$"):
        csv_text(meta, ("z", "f"), (axis, bad))
    with pytest.raises(ValueError, match="^non-finite value in scan a$"):
        csv_text(meta, ("z", "f"), (axis, bad), "scan a")


def test_axis_text_is_the_first_column_a_campaign_writes_and_warms_its_memo():
    axis = np.linspace(30.0, 920.0, 57)
    assert axis_text(axis) == "".join(row.split(",")[0] + "\n" for row in
                                      format_rows(axis, axis).splitlines())
    # the scans a campaign writes after the check format no axis again
    misses = _axis_text.cache_info().misses
    for voltage in (0.0, 0.5):
        save_scan(ForceCurve("s", voltage, axis, force_pn=-axis), io.StringIO())
    assert _axis_text.cache_info().misses == misses


@pytest.mark.parametrize("text,fragment", [
    ("piezo_nm,force_pn\n1,2\n" + MORE_ROWS, "missing metadata"),
    ("# scan_id=a\n# applied_voltage_v=0\n1,2\n", "unrecognized header"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal,force_pn\n",
     "unrecognized header .* at line 3"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal\n1,x\n",
     "line 4"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal\n2,1\n1,1\n" + MORE_ROWS,
     "non-monotone"),
    ("# scan_id=a\n# applied_voltage_v=zz\npiezo_nm,signal\n1,1\n" + MORE_ROWS,
     "applied_voltage_v"),
    ("# scan_id=a\n# applied_voltage_v=0\n", "missing column header"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n1,2\n2,nan\n",
     "non-finite value at line 5"),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,force_pn\n1,2,3\n",
     "expected 2 columns.* at line 4"),
    ("# scan_id=a\n# applied_voltage_v=inf\npiezo_nm,signal\n1,1\n" + MORE_ROWS,
     "non-finite applied_voltage_v at line 2"),
    ("# scan_id=a\n# applied_voltage_v=0\n# spring_constant_n_per_m=nan\n"
     "piezo_nm,signal\n1,1\n" + MORE_ROWS, "non-finite spring_constant_n_per_m at line 3"),
    # comment, metadata, blank and whitespace lines among the rows
    (SCAN_HEAD + "1,2\n# note\n2,x\n", "malformed number in '2,x' at line 6"),
    (SCAN_HEAD + "1,2\n# spring_constant_n_per_m=nan\n2,3\n" + MORE_ROWS,
     "non-finite spring_constant_n_per_m at line 5"),
    ("# scan_id=a\npiezo_nm,force_pn\n1,2\n# applied_voltage_v=zz\n" + MORE_ROWS,
     "malformed applied_voltage_v at line 4"),
    (SCAN_HEAD + "1,2\n\n2,x\n", "malformed number in '2,x' at line 6"),
    (SCAN_HEAD + "1,2\n   \t\n3,4,5\n", "expected 2 columns, got '3,4,5' at line 6"),
    (SCAN_HEAD + "1,2\n\n3,nan\n", "non-finite value at line 6"),
    (SCAN_HEAD + "2,1\n# note\n1,1\n" + MORE_ROWS, "non-monotone piezo at line 6"),
    # leading and trailing spaces or tabs, bad numbers and column counts
    (SCAN_HEAD + " 1 ,\t2\t\n\t2,nan \n", "non-finite value at line 5"),
    (SCAN_HEAD + "1,2\n1e,3\n", "malformed number in '1e,3' at line 5"),
    (SCAN_HEAD + "1\n", "expected 2 columns, got '1' at line 4"),
    (SCAN_HEAD + "1,2\n3,4,\n", "expected 2 columns, got '3,4,' at line 5"),
    (SCAN_HEAD + "nan,2\n3,4\n", "non-finite value at line 4"),
])
def test_load_scan_errors(tmp_path, text, fragment):
    with pytest.raises(ParseError, match=fragment):
        read_text(load_scan, tmp_path, text)


CLEAN_ROWS = [f"{z:g},{-z / 10:g}" for z in range(1, 13)]


@pytest.mark.parametrize("head,tail,grounded", [
    (SCAN_HEAD, "", True),
    ("\n# scan_id=a\n# note\n\n#  applied_voltage_v = -0.0 \n piezo_nm ,\tforce_pn \n", "", True),
    ("# scan_id=a\n# applied_voltage_v=0.5\npiezo_nm,force_pn\n", "", False),
    ("# scan_id=a\n# applied_voltage_v=0\npiezo_nm,signal\n", "", False),
    # a voltage after the rows, which only the full read sees
    ("# scan_id=a\npiezo_nm,force_pn\n", "# applied_voltage_v=0\n", True),
    ("# scan_id=a\npiezo_nm,force_pn\n", "# applied_voltage_v=0.5\n", False),
])
def test_scan_is_grounded_is_the_grounded_of_load_scan(tmp_path, head, tail, grounded):
    path = tmp_path / "scan.csv"
    path.write_text(head + "\n".join(CLEAN_ROWS) + "\n" + tail)
    assert scan_is_grounded(path) is load_scan(path).grounded is grounded


@pytest.mark.parametrize("text,message", [
    ("# scan_id=a\npiezo_nm,force_pn\n1,2\n" + MORE_ROWS,
     "missing metadata key 'applied_voltage_v'"),
    ("# scan_id=a\n# applied_voltage_v=zz\npiezo_nm,force_pn\n1,2\n" + MORE_ROWS,
     "malformed applied_voltage_v at line 2"),
    # a form feed splits a line for both readers, so both name line 4
    ("# scan_id=a\n\x0c# applied_voltage_v=0\npiezo_nm,force\n1,2\n",
     "unrecognized header 'piezo_nm,force', expected piezo_nm,signal or piezo_nm,force_pn "
     "at line 4"),
    # a header that sets the voltage twice, to the same value or another
    ("# scan_id=a\n# applied_voltage_v=0\n# applied_voltage_v=0\npiezo_nm,force_pn\n1,2\n",
     "metadata key 'applied_voltage_v' set at line 2 and again at line 3"),
    ("# applied_voltage_v=0.31\n# scan_id=a\n\n #applied_voltage_v = 0\npiezo_nm,force_pn\n",
     "metadata key 'applied_voltage_v' set at line 1 and again at line 4"),
])
def test_scan_is_grounded_raises_what_load_scan_raises(tmp_path, text, message):
    path = tmp_path / "scan.csv"
    path.write_text(text)
    for read in (scan_is_grounded, load_scan):
        with pytest.raises(ParseError) as error:
            read(path)
        assert str(error.value) == f"{path}: {message}"


MEAN_CURVE_ROWS = "".join(f"{z},{-z / 10:g},0.5\n" for z in range(100, 110))


@pytest.mark.parametrize("read,text,key,lines", [
    # a key set twice before the rows, among them and after them
    (load_scan, "# scan_id=a\n# applied_voltage_v=0\n# scan_id=b\npiezo_nm,force_pn\n"
     + "\n".join(CLEAN_ROWS) + "\n", "scan_id", (1, 3)),
    (load_optical_table, "# material=Al\n0.04,1.0\n# material=Au\n1.0,2.0\n",
     "material", (1, 3)),
    (_load_mean_curve, "# version=0.1.0\n# config_hash=ab\nseparation_nm,force_pn,std_pn\n"
     + MEAN_CURVE_ROWS + "# config_hash=cd\n", "config_hash", (2, 14)),
])
def test_every_reader_refuses_a_key_set_twice(tmp_path, read, text, key, lines):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as error:
        read(path)
    assert (str(error.value), error.value.line) == (
        f"{path}: metadata key '{key}' set at line {lines[0]} and again at line {lines[1]}",
        lines[1])


@pytest.mark.parametrize("read,head,row,minimum", [
    (load_scan, SCAN_HEAD, "{},-1\n", 10),
    (_load_mean_curve, "separation_nm,force_pn,std_pn\n", "{},-1,0.5\n", 10),
    (load_optical_table, "# material=Al\n", "{},1.0\n", 2),
])
def test_every_reader_states_its_row_minimum(tmp_path, read, head, row, minimum):
    rows = [row.format(z) for z in range(1, minimum + 1)]
    read_text(read, tmp_path, head + "".join(rows))
    with pytest.raises(ParseError) as error:
        read_text(read, tmp_path, head + "".join(rows[1:]))
    assert str(error.value) == (f"{tmp_path / 'input.csv'}: need at least {minimum} rows, "
                                f"got {minimum - 1}")


@pytest.mark.parametrize("read,text", [
    # an error load_scan itself raises, past read_csv
    pytest.param(load_scan, "# scan_id=a\npiezo_nm,force_pn\n" + MORE_ROWS, id="scan"),
    pytest.param(load_optical_table, "# material=Al\n0.04,1.0\n0.05,-2.0\n", id="table"),
    pytest.param(_load_mean_curve, "separation_nm,force_pn,std_pn\n" + MEAN_CURVE_ROWS
                 + "1,2\n", id="mean-curve"),
    # parse_config reads text: load_config names its file
    pytest.param(load_config, "seed=abc\n", id="config"),
])
@pytest.mark.parametrize("as_given", [str, Path])
def test_every_reader_names_the_path_it_was_passed(tmp_path, read, text, as_given):
    path = as_given(tmp_path / "input")
    (tmp_path / "input").write_text(text)
    with pytest.raises(ParseError) as error:
        read(path)
    assert error.value.path == path
    assert str(error.value).startswith(f"{path}: ")


def test_scan_is_grounded_leaves_a_missing_header_to_load_scan(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("# scan_id=a\n# applied_voltage_v=0\n")
    assert scan_is_grounded(path) is False
    with pytest.raises(ParseError, match="missing column header"):
        load_scan(path)


@pytest.mark.parametrize("body", [
    "\n".join(CLEAN_ROWS[:4] + ["# note"] + CLEAN_ROWS[4:]),
    "\n".join(CLEAN_ROWS[:4] + ["# spring_constant_n_per_m=0.02"] + CLEAN_ROWS[4:]),
    "\n".join(CLEAN_ROWS[:4] + [""] + CLEAN_ROWS[4:] + [""]),
    "\n".join(CLEAN_ROWS[:4] + [" \t "] + CLEAN_ROWS[4:]),
    "\n".join(" " + row.replace(",", " ,\t") + "\t" for row in CLEAN_ROWS),
])
def test_load_scan_accepts_the_dialect_among_the_rows(tmp_path, body):
    clean = read_text(load_scan, tmp_path, SCAN_HEAD + "\n".join(CLEAN_ROWS) + "\n")
    curve = read_text(load_scan, tmp_path, SCAN_HEAD + body + "\n")
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
    # pN -> N -> pN round trip
    np.testing.assert_allclose(out.force_pn * 1e-12 * 1e12, out.force_pn,
                               rtol=1e-12)


def test_atomic_write_replaces_the_file_whole(tmp_path):
    out = tmp_path / "sub" / "out.csv"
    atomic_write(out, "old\n")
    atomic_write(out, "new\n")
    assert out.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in out.parent.iterdir()) == ["out.csv"]


def test_atomic_write_leaves_an_existing_out_tmp_and_writes_out(tmp_path):
    out, tmp = tmp_path / "out.csv", tmp_path / "out.csv.tmp"
    tmp.write_text("an input\n", encoding="utf-8")
    atomic_write(out, "new\n")
    assert out.read_text(encoding="utf-8") == "new\n"
    assert tmp.read_text(encoding="utf-8") == "an input\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_atomic_write_never_writes_through_a_file_at_its_temporary_name(tmp_path):
    # its own name, as a link planted there: created exclusively, so refused
    # and left, and the file it points to is untouched
    out, target = tmp_path / "out.csv", tmp_path / "target.csv"
    target.write_text("kept\n", encoding="utf-8")
    tmp = tmp_path / f"out.csv.{os.getpid()}.tmp"
    tmp.symlink_to(target)
    with pytest.raises(FileExistsError) as err:
        atomic_write(out, "new\n")
    assert Path(err.value.filename) == tmp
    assert tmp.is_symlink() and target.read_text(encoding="utf-8") == "kept\n"
    assert not out.exists()


def test_atomic_write_removes_its_own_tmp_when_the_rename_fails(tmp_path):
    out = tmp_path / "out.csv"
    (out / "inside").mkdir(parents=True)  # a rename over a directory fails
    with pytest.raises(OSError):
        atomic_write(out, "new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert out.is_dir()
