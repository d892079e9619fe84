"""Shared fixtures, built once per session: the expensive theory-curve cache,
a reference synthetic campaign, and the commands' campaign and analysis at
FAST_CONFIG."""

import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import casimirlab
from casimirlab import assemble, synth
from casimirlab.analysis import ForwardModel, analyze_campaign
from casimirlab.config import RunConfig
from casimirlab.cli import main
from casimirlab.synth import campaign_span_nm, generate_scans

# the commands' small config: 2 scans of 120 points, a 40-node theory cache, seed 11
FAST_CONFIG = """\
theory_cache_points=40
n_scans=2
grid_points=120
seed=11
"""
TABLE = str(Path(casimirlab.__file__).parent / "data" / "al_eps2_drude.csv")


def campaign_scans(cfg, model):
    """(grounded scans, applied-voltage scans) of cfg.

    ``generate_scans`` yields the scans one at a time, grounded first; this
    collects them into lists.
    """
    scans = list(generate_scans(cfg, model))
    return scans[:cfg.n_scans], scans[cfg.n_scans:]


def analyze_scans(voltage_scans, grounded, model, cfg):
    """``analyze_campaign`` on scans held in memory, in the shape
    ``load_campaign`` reads a campaign in (the voltage scans, then the
    grounded scans' axis and a stream of their force columns), with
    ``model`` for every span and cfg's window and calibration."""
    return analyze_campaign(voltage_scans, grounded[0].piezo_nm,
                            (c.force_pn for c in grounded), lambda axes: model,
                            (cfg.window_lo_nm, cfg.window_hi_nm),
                            assemble.calibration_params(cfg))


def read_text(reader, directory, text):
    """``reader`` on a file in ``directory`` that holds ``text``."""
    path = directory / "input.csv"
    path.write_text(text, encoding="utf-8")
    return reader(path)


def traced_peak_above_inputs(fn):
    """Peak traced memory, in bytes, that ``fn()`` allocates above what exists."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def split(monkeypatch):
    """Share every campaign between processes, whatever its size: the
    break-even drops to one row."""
    monkeypatch.setattr(synth, "SPLIT_MIN_ROWS", 1)
    if synth._processes(1) < 2:
        pytest.skip("one allowed CPU: a campaign is never split")


# Pass/fail lines emitted by the acceptance module; printed in the
# terminal summary so every run shows one line per criterion.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def drude_model(default_cfg):
    return assemble.dielectric_model(default_cfg, force_drude=True)


@pytest.fixture(scope="session")
def drude_params(default_cfg, drude_model):
    return assemble.theory_params(default_cfg, drude_model)


@pytest.fixture(scope="session")
def drude_curve(default_cfg):
    # the cache synth builds at the default config; the default model is Drude
    return assemble.theory_curve(default_cfg, campaign_span_nm(default_cfg))


@pytest.fixture(scope="session")
def comparison(default_cfg):
    """(window_nm, cap_offset_nm): compare_to_theory's last arguments at the
    default config."""
    return (default_cfg.window_lo_nm, default_cfg.window_hi_nm), default_cfg.cap_offset_nm


@pytest.fixture(scope="session")
def e_cfg(default_cfg):
    return assemble.electrostatic_config(default_cfg)


@pytest.fixture(scope="session")
def forward_model(default_cfg, drude_curve, e_cfg):
    """The default config's forward model, on the shared theory cache."""
    return ForwardModel(drude_curve, e_cfg, default_cfg.cap_offset_nm)


@pytest.fixture(scope="session")
def campaign(default_cfg, forward_model):
    """(grounded scans, applied-voltage scans) at the default 27-scan config."""
    return campaign_scans(default_cfg, forward_model)


@pytest.fixture(scope="session")
def campaign_results(forward_model, default_cfg, campaign):
    grounded, voltage_scans = campaign
    return analyze_scans(voltage_scans, grounded, forward_model, default_cfg)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "run.cfg").write_text(FAST_CONFIG)
    return d


@pytest.fixture(scope="session")
def campaign_dir(workdir):
    """``synth`` at FAST_CONFIG; tests copy it before they change it."""
    out = workdir / "campaign"
    result = CliRunner().invoke(main, ["synth", "--config", str(workdir / "run.cfg"),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="session")
def analysis_dir(workdir, campaign_dir):
    out = workdir / "analysis"
    result = CliRunner().invoke(main, ["analyze", "--config", str(workdir / "run.cfg"),
                                       "--scans", str(campaign_dir), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out
