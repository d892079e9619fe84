"""The parameter objects below check none of their values: the range table in
``config`` (through ``assemble``) and ``load_optical_table`` refuse a bad
value first, naming its key or line. That holds only while nothing else in
the package builds them, so a new call from an unchecked value fails here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casimirlab"

# class -> the only places that may build it: a module (any code in it) or a
# module.function / module.Class.method
BUILT_ONLY_IN = {
    "DrudeParams": {"assemble"},
    "RoughnessSpec": {"assemble"},
    "TemperatureParams": {"assemble"},
    "QuadratureParams": {"assemble"},
    "CalibrationParams": {"assemble"},
    "SphereGeometry": {"assemble"},
    "ElectrostaticConfig": {"assemble"},
    "OpticalTable": {"dielectric.load_optical_table"},
}


def construction_sites():
    """(class, dotted path of the enclosing def) for every call of a class above."""
    sites = []

    def visit(node, where):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BUILT_ONLY_IN:
                sites.append((name, where))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def allowed(cls, where):
    return any(where == place or where.startswith(place + ".") for place in BUILT_ONLY_IN[cls])


def test_unchecked_parameter_objects_are_built_only_from_checked_values():
    sites = construction_sites()
    stray = sorted({site for site in sites if not allowed(*site)})
    assert not stray, f"built outside the checked boundary: {stray}"
    # each class is still built where expected, so no name above has gone stale
    assert {cls for cls, _ in sites} == set(BUILT_ONLY_IN)
