"""Three boundaries between the package's modules, read from their source.

The CSV dialect's 9-digit cells are spelled only in ``forcecurve``, whose
``csv_text`` is the one writer; a second spelling is a second writer. JSON is
written only in ``cli``, whose ``json_text`` is the one writer, with its
non-finite check and its ``meta`` block. And no module imports another's
private, underscore-prefixed name: what one module uses of another is that
module's public surface.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casimirlab"


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def modules():
    """(module name, parsed source) of every module of the package."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def nine_digit_specs(tree):
    """Line numbers of the string constants and format specs holding ``.9g``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".9g" in node.value]


def json_writes(tree):
    """Line numbers of the calls of ``json.dumps`` and ``json.dump``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dumps", "dump") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"]


def private_imports(name, tree):
    """``module._name`` of each private name ``tree`` imports from, or reads
    off, another module of the package."""
    found, aliases = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package, _, source = (node.module or "").partition(".")
        if node.level:   # from .source import ..., or from . import module
            source = node.module or ""
        elif package != "casimirlab":
            continue
        for alias in node.names:
            if not source:
                aliases[alias.asname or alias.name] = alias.name
            elif source != name and private(alias.name):
                found.append(f"{source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_only_forcecurve_spells_the_nine_digit_cell():
    spelled = {name: lines for name, tree in modules() if (lines := nine_digit_specs(tree))}
    assert set(spelled) == {"forcecurve"}, spelled


def test_only_cli_writes_json():
    written = {name: lines for name, tree in modules() if (lines := json_writes(tree))}
    assert set(written) == {"cli"}, written


def test_no_module_imports_another_modules_private_name():
    found = {name: names for name, tree in modules() if (names := private_imports(name, tree))}
    assert not found, found


def test_the_checks_see_what_they_look_for():
    tree = ast.parse('f"{x:.9g}"\nfrom .forcecurve import _row_template, read_csv\n'
                     "from . import forcecurve\nforcecurve._read_csv\n"
                     "from casimirlab.synth import _axis\nfrom casimirlab import synth\n"
                     "from . import __version__\nsynth._plan\n"
                     "json.dumps(doc)\njson.loads(text)\njson.dump(doc, fh)\n")
    assert nine_digit_specs(tree) == [1]
    assert json_writes(tree) == [9, 11]
    assert private_imports("cli", tree) == ["forcecurve._row_template", "synth._axis",
                                            "forcecurve._read_csv", "synth._plan"]
