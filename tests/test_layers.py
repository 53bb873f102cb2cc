"""The package's import graph keeps its two halves apart.

The constructive half (arc geometry to scheme) and the oracle half (graph
to verdict) must not trust each other, so neither may call the other's
code.  These tests read every module's syntax tree, without importing it,
and check each import against the layer the module belongs to:

- the oracle half and the shared modules import only the graph module,
  the scheme module, ``ring_order`` and ``errors``;
- the constructive modules that plan a scheme take nothing from the graph
  module but ``Graph``, so no distance routine reaches a build.
"""

import ast

import pytest

import arcroute
from conftest import ROOT

PACKAGE = ROOT / "src" / "arcroute"

LAYERS = {
    "constructive": {"arc_model", "clique_cycle", "builder"},
    "oracle": {"graph", "verifier", "oracle"},
    "shared": {"scheme", "ring_order", "errors"},
    "glue": {"cli", "generator", "__init__"},
}
# what the oracle half and the shared modules may import from the package
INDEPENDENT = {"graph", "scheme", "ring_order", "errors"}
# constructive modules that may take only ``Graph`` from the graph module
NO_SEARCH = {"builder", "clique_cycle"}


def sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def imports(source: str) -> list[tuple[str, str | None]]:
    """``(package module, name)`` for every import of the package in
    ``source``, at any depth; the name is None for a whole module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "arcroute":
                    found.append((rest.partition(".")[0] or "__init__", None))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "arcroute":
                    continue
            module = module.partition(".")[0]
            for alias in node.names:
                if module:
                    found.append((module, alias.name))
                else:  # ``from . import x`` imports module x
                    found.append((alias.name, None))
    return found


def graph_names(source: str) -> set[str]:
    """The names the graph module defines at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def violations(modules: dict[str, str]) -> list[str]:
    """Every import that crosses a layer boundary, and every module that
    has no layer."""
    layered = set().union(*LAYERS.values())
    found = [f"{name} has no layer" for name in sorted(modules.keys() - layered)]
    searches = graph_names(modules["graph"]) - {"Graph"}
    for name, source in sorted(modules.items()):
        for module, imported in imports(source):
            if (name in LAYERS["oracle"] | LAYERS["shared"]
                    and module not in INDEPENDENT):
                found.append(f"{name} imports {module}")
            if name in NO_SEARCH and (
                    imported in searches
                    or module == "graph" and imported != "Graph"):
                found.append(f"{name} imports {imported or 'all'} of {module}")
    return found


REAL = sources()


def test_every_layer_names_a_module():
    assert set().union(*LAYERS.values()) == REAL.keys()
    assert sum(map(len, LAYERS.values())) == len(REAL)


def test_the_parse_finds_the_known_imports():
    # a parse that found nothing would pass every rule below
    assert {("graph", "all_pairs_distances"), ("scheme", "RoutingScheme")} <= set(
        imports(REAL["verifier"]))
    assert ("scheme", "RoutingScheme") in imports(REAL["builder"])
    assert {"all_pairs_distances", "_frontier_distances"} <= graph_names(REAL["graph"])


def test_the_halves_import_nothing_across():
    assert violations(REAL) == []


DOCTORED = [
    ("verifier", "from .builder import build_scheme"),
    ("verifier", "import arcroute.arc_model"),
    ("oracle", "from . import clique_cycle"),
    ("oracle", "from arcroute.cli import main"),
    ("scheme", "from .arc_model import ArcModel"),
    ("graph", "def f():\n    from .builder import build_scheme"),
    ("ring_order", "from .generator import gen_ring"),
    ("builder", "from .graph import all_pairs_distances"),
    ("builder", "from . import graph"),
    ("builder", "import arcroute.graph"),
    ("clique_cycle", "from .graph import Graph, _frontier_distances"),
    ("clique_cycle", "from .arc_model import all_pairs_distances"),
]


@pytest.mark.parametrize("name, line", DOCTORED)
def test_a_crossing_import_is_reported(name, line):
    doctored = dict(REAL, **{name: REAL[name] + "\n" + line + "\n"})
    assert len(violations(doctored)) == 1, line


def test_a_module_without_a_layer_is_reported():
    assert violations(dict(REAL, extra="")) == ["extra has no layer"]


def test_the_benchmarks_bindings_are_the_moved_objects():
    # the benchmark wraps a function in every module that binds the same
    # object, so a copy or a wrapper here would leave calls untraced
    from arcroute import arc_model, builder, graph, scheme

    assert arc_model.all_pairs_distances is graph.all_pairs_distances
    assert builder.RoutingScheme is scheme.RoutingScheme
    assert arcroute.Graph is graph.Graph
