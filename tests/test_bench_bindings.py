"""The benchmark's scripts use only names the library still has.

``perfbench/`` calls the library through module attributes
(``arc_model.is_real``) and ``from arcroute import`` names.  Deleting one
of them would only show when a benchmark run fails, so these tests read
the scripts' syntax trees, without running or importing them, and look
every such name up in the library.
"""

import ast
import importlib

import pytest

from conftest import ROOT

SCRIPTS = ["pipeline.py", "workloads.py", "sparse_ring.py", "run.py"]
MODULES = ["arc_model", "builder", "verifier", "oracle", "generator"]

# names the scripts use today; a parse that found fewer would prove nothing
KNOWN = {
    "arc_model.is_real", "arc_model.intersection_graph",
    "arc_model.all_pairs_distances", "arc_model.validate_model",
    "arc_model.parse_model", "builder.RoutingScheme", "builder.build_scheme",
    "verifier.verify_scheme", "verifier.route", "verifier.route_lengths",
    "oracle.has_shortest_path_1irs", "generator.gen_ring",
    "generator.gen_wheel", "generator.gen_random",
}


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def bindings() -> tuple[set[str], set[str]]:
    """The ``module.attr...`` chains on the library's modules and the
    ``from arcroute import`` names, over every benchmark script."""
    chains, imported = set(), set()
    for script in SCRIPTS:
        tree = ast.parse((ROOT / "perfbench" / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "arcroute":
                imported.update(alias.name for alias in node.names)
            name = dotted(node) if isinstance(node, ast.Attribute) else None
            if name and name.partition(".")[0] in MODULES:
                chains.add(name)
    return chains, imported


CHAINS, IMPORTED = bindings()


def test_the_parse_finds_the_known_bindings():
    assert KNOWN <= CHAINS
    assert {"ArcModel", "Graph", *MODULES} <= IMPORTED


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_every_module_attribute_exists(chain):
    module, *attrs = chain.split(".")
    obj = importlib.import_module(f"arcroute.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"perfbench uses {chain}, which is gone"
        obj = getattr(obj, attr)


@pytest.mark.parametrize("name", sorted(IMPORTED))
def test_every_imported_name_exists(name):
    import arcroute

    assert hasattr(arcroute, name), f"perfbench imports {name}, which is gone"
