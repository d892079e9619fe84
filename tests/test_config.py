import hashlib
import importlib.resources
import math
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimirlab import assemble
from casimirlab.config import RunConfig, parse_config
from casimirlab.errors import ParseError


def test_defaults_round_trip():
    cfg = RunConfig()
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_parse_overrides_and_comments():
    cfg = parse_config("# comment\nseed=42\nnoise_pn=0\nroughness_amplitude_nm=0\n")
    assert cfg.seed == 42
    assert cfg.noise_pn == 0.0
    assert cfg.roughness_amplitude_nm == 0.0
    assert cfg.digest() != RunConfig().digest()


def test_digest_stable():
    # the hash must depend only on the canonical rendering
    a = parse_config("seed=7\n")
    b = RunConfig(seed=7)
    assert a.digest() == b.digest()
    assert len(a.digest()) == 16


@pytest.mark.parametrize("edit", [
    {},
    {"seed": 7},
    {"material_csv": "al_eps2_drude.csv", "theory_cache_points": 40},
    {"n_scans": 270, "grid_points": 4910, "noise_pn": 0.0, "cap_offset_nm": 0.0},
])
def test_digest_is_sha256_of_the_canonical_text(edit):
    # the built-in SHA-256 gives hashlib's value, so no config_hash moves
    cfg = replace(RunConfig(), **edit)
    assert cfg.digest() == hashlib.sha256(cfg.to_text().encode()).hexdigest()[:16]


def test_synth_ranges_rejected():
    # the ranges of the synthetic campaign, on a parsed file (with the line)
    # and on replace()
    cases = [("noise_pn", -1.0, ">= 0"),
             ("n_scans", 0, ">= 1"),
             ("grid_points", 9, ">= 10"),
             ("grid_hi_nm", 30.0, "> grid_lo_nm"),
             ("grid_lo_nm", -48.9, "> -z0_true_nm")]
    for key, value, requirement in cases:
        with pytest.raises(ParseError, match=rf"'{key}': must be {requirement}.* at line 2"):
            parse_config(f"seed=1\n{key}={value}\n")
        with pytest.raises(ValueError, match=rf"'{key}': must be {requirement}"):
            replace(RunConfig(), **{key: value})
    assert parse_config("noise_pn=0\nn_scans=1\ngrid_points=10\n").grid_points == 10


def test_non_finite_rejected():
    floats = [f.name for f in fields(RunConfig) if isinstance(f.default, float)]
    assert {"cap_offset_nm", "sphere_radius_um", "grid_lo_nm"} <= set(floats)
    for key in floats:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ParseError, match=rf"'{key}'.* at line 2"):
                parse_config(f"seed=1\n{key}={value}\n")
        with pytest.raises(ValueError, match=rf"'{key}'"):
            replace(RunConfig(), **{key: math.nan})


def test_cross_field_ranges_read_the_whole_file():
    # the grid may move past the default upper bound in either key order
    cfg = parse_config("grid_lo_nm=1000\ngrid_hi_nm=2000\n")
    assert (cfg.grid_lo_nm, cfg.grid_hi_nm) == (1000.0, 2000.0)
    # a cross-field rule names the last line among the keys it reads
    with pytest.raises(ParseError, match="'grid_lo_nm'.* at line 3"):
        parse_config("grid_lo_nm=-10\nseed=2\nz0_true_nm=5\n")


def test_range_edges_accepted():
    # the closed edge of every range is a valid config, and the physics
    # objects built from it accept it too
    cfg = parse_config("theory_cache_points=2\n"
                       "rel_tol=0.01\ntemperature_k=0\ncap_offset_nm=0\n"
                       "roughness_amplitude_nm=0\ndrude_gamma_ev=0\n")
    table = importlib.resources.files("casimirlab") / "data" / "al_eps2_drude.csv"
    for model in (assemble.dielectric_model(cfg),
                  assemble.dielectric_model(cfg, material_csv=str(table))):
        params = assemble.theory_params(cfg, model)
        assert params.quad.rel_tol == 0.01
        assert params.rough.A == 0.0 and params.temp.T == 0.0
    assert cfg.cap_offset_nm == 0.0


def _near_default(f):
    """Values of one RunConfig field around its default, of the field's type."""
    default = f.default
    if isinstance(default, int):
        return st.integers(0, max(4 * default, 100))
    if isinstance(default, float):
        return st.floats(0.5, 2.0).map(lambda x: default * x)
    return st.text(st.sampled_from("abcxyz019_-./"), max_size=20)


@settings(max_examples=30, deadline=None)
@given(st.fixed_dictionaries({f.name: _near_default(f) for f in fields(RunConfig)}))
def test_to_text_round_trips_through_parse(values):
    try:
        cfg = RunConfig(**values)
    except ValueError:   # outside a range rule
        assume(False)
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.digest() == cfg.digest()
