"""Every module-level def and class in the package is reached from a command
or from the benchmark; code that only tests call lives in tests/oracles.py.

A name is reached when it is loaded (as a name or an attribute) by module
code that runs on import, by a click command, by anything in perfbench/
(whose tracer names functions in strings), or by the body of a def or class
that is itself reached. A def that only another unreached def calls is
therefore unreached too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casimirlab"
BENCHMARK = ROOT / "perfbench"


def loaded(*nodes):
    """Names and attribute names the subtrees load."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def is_command(node):
    """Registered with ``@main.command`` (called or not)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr == "command" \
                and getattr(target.value, "id", None) == "main":
            return True
    return False


def package_surface():
    """(defs: name -> names its body loads, roots: names loaded on import or by a command)."""
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                roots |= loaded(*node.decorator_list, *args.defaults,
                                *filter(None, args.kw_defaults))
            elif isinstance(node, ast.ClassDef):
                roots |= loaded(*node.decorator_list, *node.bases, *node.keywords)
            else:
                roots |= loaded(node)
                continue
            body = loaded(*node.body)
            if is_command(node):
                roots |= body
            else:
                defs.setdefault(node.name, set()).update(body)
    return defs, roots


def benchmark_names():
    names = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def test_every_package_def_is_reached_by_a_command_or_the_benchmark():
    defs, roots = package_surface()
    reached, frontier = set(), roots | benchmark_names()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier |= defs.get(name, set()) - reached
    unreached = sorted(set(defs) - reached)
    assert not unreached, f"only tests reach {unreached}: move them to tests/oracles.py"
