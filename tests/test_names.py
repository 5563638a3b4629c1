"""Names other code relies on: the package's ``__all__`` and every package
name the benchmark scripts under bench/ read."""

import ast
import importlib
import os
import types

import pytest

import mcpursuit

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
BENCH_FILES = sorted(f for f in os.listdir(BENCH) if f.endswith(".py"))

#: Names the benchmark reads that are already gone, by file. CALL_SITES
#: still counts the CSV writer at cli.write_trajectory_csv, which the CLI
#: stopped calling when it began streaming its rows; ROADMAP item 2 holds
#: the mending. The set must match exactly, so mending it fails this test
#: until the entry goes too.
STALE = {"layers.py": {"mcpursuit.cli.write_trajectory_csv"}}


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(mcpursuit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(mcpursuit.__all__) == public
    assert len(mcpursuit.__all__) == len(public)


def _package_names(tree):
    """(module, name) for each package name the parsed file reads.

    Counted are ``module.name`` on a module bound by an import of
    mcpursuit, ``from mcpursuit.module import name``, and a module followed
    by a string constant in a tuple or a call's arguments, as in
    ``(simulation, "rk4_step_scalars")``.
    """
    modules = {}  # local name -> module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mcpursuit":
                    # "import mcpursuit.x" binds mcpursuit; "... as y" binds x.
                    module = alias.name if alias.asname else "mcpursuit"
                    modules[alias.asname or "mcpursuit"] = importlib.import_module(module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mcpursuit"):
            package = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule, as "from mcpursuit import cli" imports it
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    found.append((package, alias.name))
                else:
                    modules[alias.asname or alias.name] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((modules[node.value.id], node.attr))
        items = node.elts if isinstance(node, ast.Tuple) else \
            node.args if isinstance(node, ast.Call) else []
        for first, second in zip(items, items[1:]):
            if (isinstance(first, ast.Name) and first.id in modules
                    and isinstance(second, ast.Constant) and isinstance(second.value, str)):
                found.append((modules[first.id], second.value))
    return found


def _bench_names(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as f:
        return _package_names(ast.parse(f.read(), filename=name))


@pytest.mark.parametrize("name", BENCH_FILES)
def test_every_package_name_the_benchmark_reads_exists(name):
    missing = {f"{module.__name__}.{attr}"
               for module, attr in _bench_names(name) if not hasattr(module, attr)}
    assert missing == STALE.get(name, set())


def test_the_guard_sees_the_names_the_benchmark_counts_by():
    read = {(m.__name__, attr) for name in BENCH_FILES for m, attr in _bench_names(name)}
    assert {("mcpursuit.simulation", "rk4_step_scalars"),
            ("mcpursuit.scenario_io", "build_scenario"),
            ("mcpursuit.metrics", "camouflage_test")} <= read
