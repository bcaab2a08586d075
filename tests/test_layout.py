"""Guards on the package's layout: a stdlib-only runtime, brute-force
oracles that share no code with production, caps that are constants, a
CLI import that leaves the heavier standard modules unloaded, and every name
the benchmark's tracer wraps."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import forkdiv
from forkdiv.graph import Graph

TESTS = Path(__file__).parent
PACKAGE = Path(forkdiv.__file__).parent


def _imports(path):
    """(module, names) for every import statement in path; module is None
    for a relative import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
            yield (None if node.level else node.module), names


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, module)
        for path in sources
        for module, _ in _imports(path)
        if module is not None and module.split(".")[0] not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_bruteforce_shares_only_the_graph_type_and_the_error_with_production():
    allowed = {
        "forkdiv.graph": {"Graph", "bits", "mask_of"},
        "forkdiv.limits": {"CapacityError"},
    }
    for module, names in _imports(TESTS / "bruteforce.py"):
        assert module is not None
        if module.split(".")[0] == "forkdiv":
            assert set(names) <= allowed.get(module, set()), module


def test_no_public_callable_takes_a_cap():
    capped = set()
    for name in forkdiv.__all__:
        obj = getattr(forkdiv, name)
        if name == "CapacityError" or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # a builtin's, such as InvariantError's inherited __init__
            continue
        for param in params:
            if param == "cap" or param.endswith("_cap"):
                capped.add(f"{name}({param})")
    assert capped == set()


def test_importing_the_cli_loads_no_heavy_standard_module():
    # each costs milliseconds on every cold start (dataclasses pulls in inspect,
    # ast and tokenize); hashlib and random have one user each, which imports
    # them when called
    heavy = ("dataclasses", "inspect", "typing", "hashlib", "random")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import forkdiv.cli; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent), *heavy],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py patches these by name, so deleting one passes every
    # other test and breaks every traced benchmark run
    tree = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    hooks = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("LAYER_FUNCTIONS", "GRAPH_METHODS")
    }
    missing = [
        f"forkdiv.{layer}.{name}"
        for layer, names in hooks["LAYER_FUNCTIONS"].items()
        for name in names
        if not hasattr(importlib.import_module(f"forkdiv.{layer}"), name)
    ]
    missing += [f"Graph.{name}" for name in (*hooks["GRAPH_METHODS"], "__post_init__")
                if not hasattr(Graph, name)]
    assert len(hooks["LAYER_FUNCTIONS"]) > 1 and hooks["GRAPH_METHODS"]
    assert missing == []
