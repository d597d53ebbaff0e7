"""The package's public surface: what ``avgtrack`` exports and what README
shows a library user importing."""

import re

import pytest

import avgtrack
from avgtrack import clocksync, controllers, graph, matkernel, signals

from conftest import REPO_ROOT

# Per-agent and per-edge oracles that live in tests/oracles.py, not in the
# package.
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
)


@pytest.mark.parametrize("name", avgtrack.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(avgtrack, name) is not None


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_are_not_in_the_package(name):
    assert name not in avgtrack.__all__
    for module in (avgtrack, clocksync, controllers, matkernel, signals):
        assert not hasattr(module, name)


def test_topology_has_no_neighbor_list():
    assert not hasattr(graph.Topology, "neighbors")


def test_input_family_has_no_single_agent_value():
    # the per-agent f_i(t) is tests/oracles.py's input_value
    assert not hasattr(signals.InputFamily, "value")


def test_readme_library_surface_imports():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert block.lstrip().startswith("from avgtrack import")
    namespace: dict = {}
    exec(block, namespace)
    assert all(name in avgtrack.__all__ for name in namespace if not name.startswith("__"))
