"""The benchmark's tracer wraps package functions by name; every name it
lists must still resolve, or every traced benchmark run fails at install."""

import ast
import importlib
from pathlib import Path

import pytest

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
