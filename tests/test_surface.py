"""The package's public surface: what ``avgtrack`` exports and what README
shows a library user importing."""

import ast
import re

import pytest

import avgtrack
from avgtrack import clocksync, controllers, engine, graph, matkernel, signals

from conftest import REPO_ROOT

# Per-agent and per-edge oracles, and the centering matrix, that live in
# tests/oracles.py, not in the package.
ORACLES = (
    "static_control",
    "modified_control",
    "adaptive_control",
    "_direction",
    "boundary_layer",
    "signum_dir",
    "pbh_rank_real",
    "clock_rates",
    "sig_half",
    "reference_derivative",
    "centering_matrix",
)


@pytest.mark.parametrize("name", avgtrack.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(avgtrack, name) is not None


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_are_not_in_the_package(name):
    assert name not in avgtrack.__all__
    for module in (avgtrack, clocksync, controllers, engine, graph, matkernel, signals):
        assert not hasattr(module, name)


def test_topology_has_no_neighbor_list():
    assert not hasattr(graph.Topology, "neighbors")


def test_input_family_has_no_single_agent_value():
    # the per-agent f_i(t) is tests/oracles.py's input_value
    assert not hasattr(signals.InputFamily, "value")


def readme_library_surface():
    """The code block of README's "Library surface" section."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def names_used_in_the_package():
    """Every name read in src/avgtrack/ outside __init__.py, as a variable
    or an attribute; importing or defining a name does not count."""
    used = set()
    for path in (REPO_ROOT / "src" / "avgtrack").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_has_a_user():
    # a name that only the tests use belongs in tests/, not in the package
    shown = set(re.findall(r"\w+", readme_library_surface()))
    used = names_used_in_the_package()
    assert [name for name in avgtrack.__all__ if name not in used | shown] == []


def test_readme_library_surface_imports():
    block = readme_library_surface()
    assert block.lstrip().startswith("from avgtrack import")
    namespace: dict = {}
    exec(block, namespace)
    assert all(name in avgtrack.__all__ for name in namespace if not name.startswith("__"))
