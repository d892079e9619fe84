"""The coverage sweep: 400 seeds of a 4-scan, 240-point campaign, each drawn
and analyzed in memory on one forward model, check that the numbers the
pipeline states are true ones. ``sigma_rms_pn``^2 reads the noise of the
mean curve, noise^2 / n_scans, and each per-voltage z0 fit's sigma covers
that fit's error."""

import math
from dataclasses import replace

import numpy as np
import pytest

from casimirlab import assemble
from casimirlab.config import RunConfig
from casimirlab.synth import campaign_span_nm
from conftest import analyze_scans, campaign_scans

SEEDS = range(400)
ONE_SIGMA_COVERAGE = math.erf(1 / math.sqrt(2))   # 0.683


@pytest.fixture(scope="module")
def sweep():
    """(sigma_rms_pn^2 / (noise^2 / n_scans) per seed, every per-voltage z0 pull)."""
    cfg = RunConfig(n_scans=4, grid_points=240)
    model = assemble.forward_model(cfg, campaign_span_nm(cfg))   # one theory cache for every seed
    ratios, pulls = [], []
    for seed in SEEDS:
        run = replace(cfg, seed=seed)
        grounded, voltage_scans = campaign_scans(run, model)
        results, _ = analyze_scans(voltage_scans, grounded, model, run)
        ratios.append(results["sigma_rms_pn"] ** 2 / (cfg.noise_pn ** 2 / cfg.n_scans))
        pulls += [(fit["z0_nm"] - cfg.z0_true_nm) / fit["z0_sigma_nm"]
                  for fit in results["z0_fits"]]
    return np.array(ratios), np.array(pulls)


def test_sigma_rms_squared_reads_the_noise_of_the_mean(sweep):
    # linear resampling averages neighbouring points' noise: compared on a
    # resampled window grid, this mean read 2/3
    ratios, _ = sweep
    stderr = ratios.std(ddof=1) / math.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) <= 3 * stderr, (ratios.mean(), stderr)


def test_per_voltage_z0_sigmas_are_true(sweep):
    _, pulls = sweep
    coverage = float(np.mean(np.abs(pulls) < 1.0))
    binomial = math.sqrt(ONE_SIGMA_COVERAGE * (1 - ONE_SIGMA_COVERAGE) / pulls.size)
    assert abs(pulls.std() - 1.0) <= 0.05, pulls.std()
    assert abs(coverage - ONE_SIGMA_COVERAGE) <= 3 * binomial, coverage
