"""The package ships only what runs.

Every module under ``src/zonalprop`` must be reached by imports from the
package itself (``__init__.py``) or from the command-line entry point
(``cli.py``, the ``[project.scripts]`` target).  The imports are read from
the source with ``ast``, function-level imports included: ``cli`` imports
``oracle`` and ``benchmark`` only inside the subcommands that run them.
Code that only the tests use belongs under ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zonalprop"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}
ROOTS = ("__init__", "cli")


def imported_modules(name):
    """The package modules that module ``name``'s source imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, f"{name}: relative import above the package"
            base = ".".join(filter(None, ["zonalprop" if node.level else "", node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (target.split(".") for target in targets):
            if parts[0] == "zonalprop" and len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
    return found


def reachable():
    seen, todo = set(ROOTS), list(ROOTS)
    while todo:
        for module in imported_modules(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


def test_the_entry_point_is_cli():
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'"(\w+)\.(\w+):\w+"', scripts) == [("zonalprop", "cli")]


def test_every_module_is_reachable_from_the_package_or_the_cli():
    assert sorted(MODULES - reachable()) == []


def callers(name):
    """(module, enclosing function) of every call of ``name`` in the package."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module in sorted(MODULES):
        visit(ast.parse((PACKAGE / f"{module}.py").read_text()), module, None)
    return sorted(found)


def test_the_rate_rule_is_applied_in_one_place():
    # the mean state fixes its rates when it is formed; every propagation
    # reads them from there, and secular_rates is the public formula
    assert callers("mean_angle_rates") == [("propagator", "_mean_state"),
                                           ("secular", "secular_rates")]
