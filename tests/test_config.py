import pytest

from casimirlab.config import RunConfig, parse_config
from casimirlab.errors import ParseError


def test_defaults_round_trip():
    cfg = RunConfig()
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_parse_overrides_and_comments():
    cfg = parse_config("# comment\nseed=42\nnoise_pn=0\nenable_roughness=false\n")
    assert cfg.seed == 42
    assert cfg.noise_pn == 0.0
    assert cfg.enable_roughness is False
    assert cfg.digest() != RunConfig().digest()


def test_unknown_key_rejected_with_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("seed=1\nbogus_key=3\n")


def test_bad_values_rejected():
    with pytest.raises(ParseError, match="seed"):
        parse_config("seed=abc\n")
    with pytest.raises(ParseError, match="boolean"):
        parse_config("enable_roughness=maybe\n")
    with pytest.raises(ParseError, match="key=value"):
        parse_config("just a line\n")
    with pytest.raises(ParseError, match="'cap_offset_nm'.* at line 2"):
        parse_config("seed=1\ncap_offset_nm=-0.5\n")
    assert parse_config("cap_offset_nm=0\n").cap_offset_nm == 0.0


def test_digest_stable():
    # the hash must depend only on the canonical rendering
    a = parse_config("seed=7\n")
    b = RunConfig(seed=7)
    assert a.digest() == b.digest()
    assert len(a.digest()) == 16
