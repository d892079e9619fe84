"""The benchmark's tracer, run as the benchmark runs it: a fresh process per
command, at smoke size. It depends on code shapes no other test runs: eps
arguments it can keep in a set, a float-like Lifshitz force it can replay,
and the names it wraps. Each run must exit 0, check its theory against the
reference, and record the spans and counters its command passes through."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
TABLE = ROOT / "src" / "casimirlab" / "data" / "al_eps2_drude.csv"
SMOKE_CONFIG = "theory_cache_points=8\nn_scans=2\ngrid_points=120\n"
THEORY = ("corrections.TheoryCurve.__init__", "corrections.corrected_force",
          "lifshitz.casimir_force_sphere_plate", "dielectric.DielectricModel.eps")


def traced(tmp_path, label, kind, *args):
    """The trace of one command run through the tracer in a fresh process."""
    out = tmp_path / f"{label}.trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(TRACER), str(out), kind, "--",
                             *map(str, args), "--config", str(tmp_path / "smoke.cfg")],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    trace = json.loads(out.read_text())
    assert trace["rc"] == 0
    spans = [span["name"] for span in trace["spans"]]
    counters = {name for name, *_ in trace["counters"]}
    return trace, spans, counters


@pytest.fixture
def smoke(tmp_path):
    (tmp_path / "smoke.cfg").write_text(SMOKE_CONFIG)
    return tmp_path


def test_a_traced_campaign_records_every_layer(smoke):
    campaign = smoke / "campaign"
    trace, spans, counters = traced(smoke, "synth", "drude", "synth", "--out", campaign)
    written = sorted(p.name for p in campaign.iterdir())
    assert len(written) == 9   # 8 scans and truth.json
    assert spans.count("cli.atomic_write") == len(written)
    assert {"cli.main", "synth.write_campaign", "synth.generate_scans"} <= set(spans)
    assert {"forcecurve.save_scan", *THEORY[1:]} <= counters
    assert trace["rows_written"] == 8 * 120 and trace["bytes_written"] > 0
    assert trace["lifshitz_rel_err_max"] is not None

    trace, spans, counters = traced(smoke, "analyze", "drude", "analyze",
                                    "--scans", campaign, "--out", smoke / "results")
    assert {"synth.load_campaign", "analysis.analyze_campaign",
            "analysis.fit_contact_separation", "analysis.average_scans",
            "analysis.compare_to_theory", *THEORY[:1]} <= set(spans)
    assert spans.count("cli.atomic_write") == 2
    assert {"forcecurve.load_scan", "analysis.fit_drift_coefficient",
            "analysis.extract_casimir", "corrections.TheoryCurve.__call__"} <= counters
    assert trace["rows_read"] == 8 * 120 and trace["theory_points"] > 0
    assert trace["lifshitz_rel_err_max"] is not None


def test_a_traced_tabulated_theory_is_checked_against_its_reference(smoke):
    trace, spans, counters = traced(smoke, "theory", "tabulated", "theory",
                                    "--material", TABLE, "--z", "100:500:9",
                                    "--out", smoke / "theory.csv")
    assert {"dielectric.load_optical_table", "dielectric.tabulated_with_drude_tail",
            "corrections.TheoryCurve.__init__", "cli.atomic_write"} <= set(spans)
    assert set(THEORY[1:]) <= counters
    assert trace["eps_distinct"] > 0
    assert trace["lifshitz_rel_err_max"] is not None
    assert trace["spline_rel_err_max"] is not None


def test_a_traced_epsilon_passes_its_grid_as_one_eps_argument(smoke):
    trace, spans, counters = traced(smoke, "epsilon", "none", "epsilon",
                                    "--xi-ev", "0.01:100:7", "--out", smoke / "eps.csv")
    assert spans.count("cli.atomic_write") == 1
    assert "dielectric.DielectricModel.eps" in counters
    assert trace["eps_distinct"] == 1   # the grid, as one hashable argument
    assert trace["lifshitz_rel_err_max"] is None
