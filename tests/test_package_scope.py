"""The package ships only what runs.

Every module under ``src/zonalprop`` must be reached by imports from the
package itself (``__init__.py``) or from the command-line entry point
(``cli.py``, the ``[project.scripts]`` target).  The imports are read from
the source with ``ast``, function-level imports included: ``cli`` imports
``oracle`` and ``benchmark`` only inside the subcommands that run them.

Every function and method the package source defines, nested ones
included, must be named in ``__all__`` (or be a method of a class named
there), run in the traced pass below, or stand in ``ALLOWED`` with its
reason.  The pass is a fresh interpreter that imports every module (what
runs at import counts as run), makes the API calls
``test_kernels_scope.py`` traces, and runs ``cli.main`` for ``propagate``,
a short ``compare``, ``benchmark --iterations 0``, one rejected state and
one flag the subcommand does not take.  Run as a script, this module is
that pass: ``python tests/test_package_scope.py WORKDIR`` prints what ran
as JSON.  Code that only the tests use belongs under ``tests/``.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import time
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


#: the functions that neither are exported nor run in the traced pass, and why
#: they stay in the package
ALLOWED = {
    ("_kernels", "short_ns_low"): "a boundary perfbench/layers.py traces; goes with "
                                  "the benchmark's next change",
    ("_kernels", "long_ns_low"): "a boundary perfbench/layers.py traces; goes with "
                                 "the benchmark's next change",
    ("secular", "mean_hamiltonian"): "the mean energy, for the energy-consistent mean state",
    ("secular", "zonal_hamiltonian"): "the osculating energy, for the energy-consistent "
                                      "mean state",
}

#: the longest the traced pass may take [s]
TRACE_BUDGET = 2.0


def defined_functions(module):
    """{qualified name (``__qualname__``): first line} of every function and
    method that module ``module``'s source defines.  The first line is that
    of the first decorator, as the function's code object records it."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[prefix + child.name] = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list])
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return names


def exported():
    """(module, qualified name) of the functions ``__all__`` names and of the
    methods of the classes it names."""
    import zonalprop
    names = set()
    for obj in (getattr(zonalprop, name) for name in zonalprop.__all__):
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = obj.__module__.rpartition(".")[2]
        names.add((module, obj.__qualname__))
        if inspect.isclass(obj):
            names |= {(module, name) for name in defined_functions(module)
                      if name.rpartition(".")[0] == obj.__qualname__}
    return names


def traced_pass(workdir):
    """Run the pass in this interpreter: ([module, first line] of every
    package function it called, its seconds)."""
    import contextlib
    import importlib
    import io

    # the dependencies load before the trace starts: only the package's
    # calls count, and the pass stays short
    import numpy as np
    import scipy.integrate  # noqa: F401

    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    state = ("--x", "-2862.029705903647", "--y", "5299.0314424744465",
             "--z", "2860.3560741894516", "--vx", "-6.269006983824957",
             "--vy", "-4.356570481122381", "--vz", "2.0847319694826436")
    commands = (
        ("propagate", *state, "--duration", "600", "--ephemeris", "e.csv",
         "--mean-elements", "m.csv"),
        ("compare", *state, "--duration", "600", "--integrator-tol", "1e-6",
         "--j2-multipliers", "1,0.5", "--report", "c.txt"),
        ("benchmark", *state, "--iterations", "0", "--report", "b.txt"),
        # a state at the origin: exit status 1, and no file written
        ("propagate", *state, "--x", "0", "--y", "0", "--z", "0", "--ephemeris", "r.csv"),
        # a flag benchmark does not take: the parser's usage error
        ("benchmark", *state, "--duration", "600"),
    )
    os.chdir(workdir)
    start = time.perf_counter()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for module in sorted(MODULES - {"__init__"}):
                importlib.import_module(f"zonalprop.{module}")
            from zonalprop import (EARTH, CartesianState, _kernels, ephemeris_array,
                                   mean_to_osculating, osculating_to_mean)
            from zonalprop.cli import main
            from zonalprop.propagator import mean_elements_series
            leo = CartesianState(*map(float, state[1::2]))
            mean = osculating_to_mean(leo, EARTH)
            mean_to_osculating(mean.delaunay, EARTH)
            ephemeris_array(leo, 0.0, [60.0], EARTH)
            ephemeris_array(leo, 0.0, 60.0 * np.arange(_kernels.ARRAY_MIN_EPOCHS), EARTH)
            mean_elements_series(mean, 0.0, [60.0])
            status = []
            for argv in commands:
                try:
                    status.append(main(list(argv)))
                except SystemExit as exc:
                    status.append(exc.code)
    finally:
        sys.setprofile(None)
    seconds = time.perf_counter() - start
    assert status == [0, 0, 0, 1, 1], status
    ran = sorted({(Path(code.co_filename).stem, code.co_firstlineno) for code in called
                  if Path(code.co_filename).resolve().parent == PACKAGE})
    return ran, seconds


def _run_traced_pass(workdir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__, str(workdir)], env=env, check=True,
                         capture_output=True, text=True)
    ran, seconds = json.loads(out.stdout)
    return {tuple(code) for code in ran}, seconds


def test_every_function_is_exported_run_or_allowed(tmp_path):
    lines, seconds = _run_traced_pass(tmp_path)
    assert seconds < TRACE_BUDGET
    first_lines = {(module, name): line for module in MODULES
                   for name, line in defined_functions(module).items()}
    defined = set(first_lines)
    ran = {key for key, line in first_lines.items() if (key[0], line) in lines}
    public = exported()
    assert sorted(defined - public - ran - set(ALLOWED)) == []
    # the allow-list only shrinks: an entry must exist and be needed
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & (public | ran)) == []


if __name__ == "__main__":
    print(json.dumps(traced_pass(sys.argv[1])))
