"""Properties checked on generated systems, not only on the shipped demo.

Generation is derandomized, so every run draws the same examples and tier-1
stays deterministic; there is no example database either.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import start_vector
from test_matkernel import random_stabilizable

from avgtrack import engine
from avgtrack.clocksync import DEFAULT_TOL, clock_spread, run_sync, settling_bound
from avgtrack.controllers import design_gains
from avgtrack.engine import RK4_STABILITY_LIMIT, Scenario, _Dynamics, run
from avgtrack.graph import Topology
from avgtrack.signals import ConstantInput, InputFamily, Plant, SinusoidInput

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def connected_graphs(draw, max_vertices=30):
    """A random spanning tree on 2..max_vertices vertices plus up to as many
    extra edges again, each edge in a random orientation."""
    n = draw(st.integers(2, max_vertices))
    pairs = {frozenset((v, draw(st.integers(0, v - 1)))) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    pairs |= {frozenset(e) for e in extra if e[0] != e[1]}
    edges = []
    for pair in sorted(pairs, key=sorted):
        i, j = sorted(pair)
        edges.append((j, i) if draw(st.booleans()) else (i, j))
    return Topology(vertex_count=n, edges=tuple(edges))


@st.composite
def graphs_with_offsets(draw):
    """A connected graph and clock offsets of spread at most 1."""
    topology = draw(connected_graphs())
    offsets = draw(st.lists(
        st.floats(-0.5, 0.5, allow_nan=False), min_size=topology.vertex_count,
        max_size=topology.vertex_count,
    ))
    return topology, np.array(offsets)


@PROFILE
@given(graphs_with_offsets(), st.sampled_from([1e-2, 1e-3]))
def test_sync_contracts_keeps_its_mean_rate_and_settles(system, step):
    # The horizon is the continuous law's settling bound plus 20 steps: the
    # two-agent closed form (bound attained) settles about 9 steps late at
    # first order. run_sync's default horizon covers the bound, and for two
    # agents four times it.
    topology, offsets = system
    horizon = settling_bound(topology, offsets) + 20.0 * step
    result = run_sync(topology, offsets, step=step, horizon=horizon)
    clocks = result.clocks
    rounding = 4.0 * np.spacing(np.abs(clocks).max())
    assert np.all(np.diff(clock_spread(clocks)) <= rounding)
    assert np.all(np.abs(np.diff(clocks.mean(axis=1)) - step) <= 1e-12)
    assert result.settled_at is not None
    assert clock_spread(clocks[-1]) < DEFAULT_TOL


@st.composite
def equal_clock_draws(draw):
    """What equal_clock_scenario builds from: a connected graph of 2..12
    agents, n = 1..3, p = 1..2, the law, a seed, sine or constant inputs
    and the steps short of the switch. Building the scenario (a gain design)
    is left to the test body, so that drawing stays cheap."""
    return (
        draw(connected_graphs(max_vertices=12)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        draw(st.sampled_from(["static", "modified"])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
        draw(st.integers(2, 20)),
    )


def equal_clock_scenario(topology, n, p, controller, seed, sine, steps_short):
    """The law on the graph with a stabilizable plant drawn as
    test_matkernel draws them, one input wave (a sine or constant inputs), a
    random start and every clock steps_short steps before the implicit
    switch, with a horizon of 30 steps that crosses it."""
    rng = np.random.default_rng(seed)
    agents = topology.vertex_count
    a, b = random_stabilizable(rng, n, p)
    plant = Plant(a=a, b=b)
    if sine:
        omega, phase = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        specs = tuple(
            SinusoidInput(amplitude=tuple(rng.uniform(-2.0, 2.0, p)), omega=omega, phase=phase)
            for _ in range(agents)
        )
    else:
        specs = tuple(ConstantInput(value=tuple(rng.uniform(-2.0, 2.0, p))) for _ in range(agents))
    family = InputFamily(specs=specs, input_dim=p)
    gains = design_gains(
        plant, topology, family, np.eye(n), eps=rng.uniform(0.5, 5.0), phi=rng.uniform(0.2, 1.0)
    )
    step = 1e-3
    sc = Scenario(
        plant=plant,
        topology=topology,
        family=family,
        controller=controller,
        gains=gains,
        r0=rng.uniform(-1.0, 1.0, (agents, n)),
        s0=rng.uniform(-0.5, 0.5, (agents, n)) if controller == "modified" else None,
        clocks0=np.zeros(agents),
        step=step,
        horizon=30 * step,
        sample_every=1,
    )
    stiffness = _Dynamics(sc).stiffness
    switch = math.log(gains.eps * RK4_STABILITY_LIMIT / (step * stiffness)) / gains.phi
    return dataclasses.replace(sc, clocks0=np.full(agents, switch - steps_short * step))


@PROFILE
@given(equal_clock_draws())
def test_equal_clock_path_matches_the_edge_form(draws):
    # stated before measuring: x and u of the two forms within 1e-10 of each
    # other, relative to the largest entry of each
    sc = equal_clock_scenario(*draws)
    dyn = _Dynamics(sc)
    assert dyn.equal_clock_path
    y0 = start_vector(sc)
    y1 = y0.copy()
    y1[dyn.sl_c] += sc.horizon
    assert not dyn.layer_unresolved(y0, sc.step) and dyn.layer_unresolved(y1, sc.step)
    dense = run(sc)
    with mock.patch.object(engine, "DENSE_MAX_DIM", 0):
        edge = run(sc)
    # each edge's coupling is antisymmetric, so the direction terms (and the
    # static law's feedback) cancel over the agents and the modified law's
    # feedback K x_i stays: stated before measuring, within 1e-13 of max |u|
    for tr in (dense, edge):
        assert np.all(tr.clocks == tr.clocks[:, :1])
        total = tr.u.sum(axis=1)
        if sc.controller == "modified":
            total -= tr.x.sum(axis=1) @ sc.gains.k_mat.T
        assert np.max(np.abs(total)) <= 1e-13 * np.max(np.abs(tr.u))
    for name in ("x", "u"):
        got, expected = getattr(dense, name), getattr(edge, name)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))
    again = run(sc)
    for name in ("s", "r", "clocks", "alpha", "beta", "u", "xi", "v1"):
        assert np.array_equal(getattr(again, name), getattr(dense, name))
