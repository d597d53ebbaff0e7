import numpy as np
import pytest

from avgtrack.errors import DesignError
from avgtrack.graph import (
    Topology,
    incidence,
    is_connected,
    lambda2,
    laplacian,
)

from conftest import demo_topology
from oracles import centering_matrix


def random_connected_topology(rng, max_vertices=8):
    """Random spanning tree plus extra edges."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.choice(n, size=2, replace=False)
        edges.add((min(i, j), max(i, j)))
    return Topology(vertex_count=n, edges=tuple(sorted(edges)))


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(vertex_count=2, edges=((0, 0),))

    def test_rejects_duplicate_unordered(self):
        with pytest.raises(ValueError):
            Topology(vertex_count=3, edges=((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(vertex_count=2, edges=((0, 2),))

    def test_edge_index_follows_the_edge_tuple(self):
        topo = demo_topology()
        assert list(topo.tails) == [i for i, _ in topo.edges]
        assert list(topo.heads) == [j for _, j in topo.edges]
        sources, targets = topo.arcs()
        assert list(zip(sources, targets)) == list(topo.edges) + [(j, i) for i, j in topo.edges]
        assert not topo.tails.flags.writeable and not topo.heads.flags.writeable
        twin = Topology(vertex_count=6, edges=topo.edges)
        assert twin == topo and hash(twin) == hash(topo)
        assert "tails" not in repr(topo)
        assert Topology(vertex_count=1, edges=()).tails.shape == (0,)

    def test_neighbor_counts(self):
        topo = demo_topology()
        assert list(topo.neighbor_counts()) == [3, 2, 2, 3, 2, 2]
        assert topo.neighbor_counts().sum() == 2 * topo.edge_count


class TestIncidence:
    def test_single_edge(self):
        d = incidence(Topology(vertex_count=2, edges=((0, 1),)))
        assert np.array_equal(d, [[1.0], [-1.0]])

    def test_triangle(self):
        topo = Topology(vertex_count=3, edges=((0, 1), (1, 2), (0, 2)))
        d = incidence(topo)
        assert np.array_equal(d.T, [[1, -1, 0], [0, 1, -1], [1, 0, -1]])

    def test_empty_edges(self):
        d = incidence(Topology(vertex_count=3, edges=()))
        assert d.shape == (3, 0)


class TestLaplacian:
    def test_single_edge(self):
        lap = laplacian(Topology(vertex_count=2, edges=((0, 1),)))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_degree_minus_adjacency(self):
        topo = Topology(vertex_count=3, edges=((0, 1), (1, 2), (0, 2)))
        assert np.array_equal(
            laplacian(topo), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_equals_incidence_gram(self):
        # degree-minus-adjacency coincides with D D^T for any orientation
        rng = np.random.default_rng(3)
        for _ in range(20):
            topo = random_connected_topology(rng)
            d = incidence(topo)
            assert np.max(np.abs(laplacian(topo) - d @ d.T)) == 0.0

    def test_row_sums_vanish(self):
        topo = demo_topology()
        assert np.allclose(laplacian(topo) @ np.ones(6), 0.0)

    def test_orientation_invariance(self):
        topo = demo_topology()
        flipped = Topology(
            vertex_count=6, edges=tuple((j, i) for i, j in topo.edges)
        )
        assert np.array_equal(laplacian(topo), laplacian(flipped))
        assert lambda2(topo) == pytest.approx(lambda2(flipped), abs=1e-12)


class TestConnectivity:
    def test_path(self):
        assert is_connected(Topology(vertex_count=3, edges=((0, 1), (1, 2))))

    def test_isolated(self):
        assert not is_connected(Topology(vertex_count=2, edges=()))

    def test_demo_graph(self):
        assert is_connected(demo_topology())


class TestLambda2:
    def test_single_edge(self):
        assert lambda2(Topology(vertex_count=2, edges=((0, 1),))) == pytest.approx(2.0)

    def test_complete_six(self):
        edges = tuple((i, j) for i in range(6) for j in range(i + 1, 6))
        assert lambda2(Topology(vertex_count=6, edges=edges)) == pytest.approx(6.0, abs=1e-9)

    def test_four_cycle(self):
        # circulant spectrum 2 - 2cos(2 pi k / 4): {0, 2, 2, 4}
        topo = Topology(vertex_count=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
        assert lambda2(topo) == pytest.approx(2.0, abs=1e-9)

    def test_demo_graph_connectivity_value(self):
        assert lambda2(demo_topology()) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(DesignError):
            lambda2(Topology(vertex_count=3, edges=((0, 1),)))

    def test_against_dense_oracle_and_rayleigh(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            topo = random_connected_topology(rng)
            if not is_connected(topo):
                continue
            lam = lambda2(topo)
            oracle = np.sort(np.linalg.eigvalsh(laplacian(topo)))[1]
            assert abs(lam - oracle) <= 1e-8
            # variational characterization over centered directions
            lap = laplacian(topo)
            n = topo.vertex_count
            samples = rng.normal(size=(1000, n))
            samples -= samples.mean(axis=1, keepdims=True)
            norms = (samples * samples).sum(axis=1)
            keep = norms > 1e-12
            quotients = ((samples @ lap) * samples).sum(axis=1)[keep] / norms[keep]
            assert np.all(quotients >= lam - 1e-9)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_large_ring_closed_form(self, n):
        ring = Topology(vertex_count=n, edges=tuple((i, (i + 1) % n) for i in range(n)))
        expected = 2.0 - 2.0 * np.cos(2.0 * np.pi / n)
        assert abs(lambda2(ring) - expected) <= 1e-10 * expected


class TestCenteringMatrix:
    def test_degenerate(self):
        assert np.array_equal(centering_matrix(1), [[0.0]])

    def test_two_agents(self):
        assert np.allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_projector_identities(self):
        for n in (1, 2, 5, 9):
            m = centering_matrix(n)
            assert np.max(np.abs(m @ np.ones(n))) <= 1e-12
            assert np.max(np.abs(m @ m - m)) <= 1e-12

    def test_commutes_with_laplacian(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            topo = random_connected_topology(rng)
            lap = laplacian(topo)
            m = centering_matrix(topo.vertex_count)
            assert np.max(np.abs(lap @ m - lap)) <= 1e-12 * max(1.0, np.abs(lap).max())
            assert np.max(np.abs(m @ lap - lap)) <= 1e-12 * max(1.0, np.abs(lap).max())
