"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or every traced benchmark run fails at install,
and the ones a campaign passes through must still be called, or the
per-layer metrics they feed read 0. The config texts the benchmark writes
and the keywords its reference script passes must still be accepted."""

import ast
import importlib
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from casimirlab.cli import main
from casimirlab.config import RunConfig, parse_config
from casimirlab.lifshitz import QuadratureParams

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS"):
            names[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(names) == {"SPANS", "COUNTERS"}
    return [spec for specs in names.values() for spec in specs]


@pytest.mark.parametrize("module_name,path", traced_names())
def test_traced_name_resolves(module_name, path):
    obj = importlib.import_module(f"casimirlab.{module_name}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


REACHED_BY_SYNTH_AND_ANALYZE = (
    "synth.generate_scans", "synth.write_campaign", "synth.load_campaign",
    "forcecurve.load_scan", "analysis.fit_drift_coefficient",
    "analysis.extract_casimir", "analysis.average_scans",
)


def test_synth_and_analyze_reach_the_traced_functions(monkeypatch, tmp_path):
    # the tracer replaces every casimirlab module attribute bound to a traced
    # function (cli and synth import names directly); count calls the same way
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "casimirlab" or n.startswith("casimirlab."))]
    calls = {}
    for module_name, path in traced_names():
        name = f"{module_name}.{path}"
        calls[name] = 0
        owner, fn = None, importlib.import_module(f"casimirlab.{module_name}")
        for part in path.split("."):
            owner, fn = fn, getattr(fn, part)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        if "." in path:  # a method: count it on the class
            monkeypatch.setattr(owner, path.rsplit(".", 1)[1], counted)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)

    cfg = tmp_path / "smoke.cfg"
    cfg.write_text("theory_cache_points=8\nn_scans=2\ngrid_points=120\n")
    runner = CliRunner()
    for args in (["synth", "--out", str(tmp_path / "campaign")],
                 ["analyze", "--scans", str(tmp_path / "campaign"),
                  "--out", str(tmp_path / "analysis")]):
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 0, result.output
    assert {name: calls[name] for name in REACHED_BY_SYNTH_AND_ANALYZE
            if not calls[name]} == {}


REFERENCE = TRACER.with_name("reference.py")


def reference_imports():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "casimirlab"
            for alias in node.names]


@pytest.mark.parametrize("module_name,name", reference_imports())
def test_reference_import_resolves(module_name, name):
    # perfbench/reference.py imports from the package inside its functions,
    # so a removed name would fail only when the benchmark runs
    module = importlib.import_module(module_name)
    if not hasattr(module, name):   # a submodule, as in `from casimirlab import assemble`
        importlib.import_module(f"{module_name}.{name}")


def test_reference_dielectric_model_keywords():
    from casimirlab import assemble
    from casimirlab.config import RunConfig
    from casimirlab.dielectric import DrudeModel, TabulatedModel

    table = Path(assemble.__file__).parent / "data" / "al_eps2_drude.csv"
    cfg = RunConfig()
    assert isinstance(assemble.dielectric_model(cfg, force_drude=True), DrudeModel)
    assert isinstance(assemble.dielectric_model(cfg, material_csv=str(table)), TabulatedModel)
    assert isinstance(assemble.dielectric_model(cfg, force_drude=True, material_csv=str(table)),
                      DrudeModel)


RUN = TRACER.with_name("run.py")


def written_configs():
    """SMOKE_CONFIG and the config text of every Campaign in perfbench/run.py."""
    texts = []
    for node in ast.walk(ast.parse(RUN.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) \
                and getattr(node.targets[0], "id", None) == "SMOKE_CONFIG":
            texts.append(ast.literal_eval(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Campaign":
            texts.append(ast.literal_eval(node.args[1]))
    assert len(texts) >= 3 and "" in texts   # the smoke, default and large campaigns
    return texts


@pytest.mark.parametrize("text", written_configs())
def test_benchmark_configs_parse(text):
    # a key the benchmark sets that the config no longer knows would exit 2
    # in every pass of its workload
    parse_config(text)


def test_reference_keywords_are_fields():
    # perfbench/reference.py builds its RunConfig and quadrature by keyword
    keywords = {"RunConfig": set(), "quad": set()}
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", None) == "RunConfig":
            keywords["RunConfig"] |= {k.arg for k in node.keywords}
        elif getattr(node.func, "id", None) == "replace" \
                and getattr(node.args[0], "attr", None) == "quad":
            keywords["quad"] |= {k.arg for k in node.keywords}
    assert keywords["RunConfig"] and keywords["quad"]
    assert keywords["RunConfig"] <= {f.name for f in fields(RunConfig)}
    assert keywords["quad"] <= {f.name for f in fields(QuadratureParams)}
