"""Properties checked on generated systems, not only on the shipped demo.

Generation is derandomized, so every run draws the same examples and tier-1
stays deterministic; there is no example database either.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avgtrack.clocksync import DEFAULT_TOL, clock_spread, run_sync
from avgtrack.graph import Topology, lambda2

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=50)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..30 vertices plus up to as many
    extra edges again, each edge in a random orientation."""
    n = draw(st.integers(2, 30))
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


def settling_bound(topology: Topology, offsets: np.ndarray) -> float:
    """Settling time of the continuous attracting law from these offsets, at
    most: with V = |t - mean(t)|^2 / 2, dV/dt = -sum_e |t_i - t_j|^(3/2),
    which is at most -(t^T L t)^(3/4) <= -(2 lambda2 V)^(3/4), so V^(1/4)
    falls at rate (2 lambda2)^(3/4) / 4 or faster."""
    v0 = 0.5 * float(np.sum((offsets - offsets.mean()) ** 2))
    return 4.0 * v0**0.25 / (2.0 * lambda2(topology)) ** 0.75


@PROFILE
@given(graphs_with_offsets(), st.sampled_from([1e-2, 1e-3]))
def test_sync_contracts_keeps_its_mean_rate_and_settles(system, step):
    # The horizon is the continuous law's settling bound plus 20 steps: the
    # two-agent closed form (bound attained) settles about 9 steps late at
    # first order. run_sync's default horizon, a two-agent estimate, is
    # shorter than the settling time on long paths.
    topology, offsets = system
    horizon = settling_bound(topology, offsets) + 20.0 * step
    result = run_sync(topology, offsets, step=step, horizon=horizon)
    clocks = result.clocks
    rounding = 4.0 * np.spacing(np.abs(clocks).max())
    assert np.all(np.diff(clock_spread(clocks)) <= rounding)
    assert np.all(np.abs(np.diff(clocks.mean(axis=1)) - step) <= 1e-12)
    assert result.settled_at is not None
    assert clock_spread(clocks[-1]) < DEFAULT_TOL
