import numpy as np
import pytest

from avgtrack.controllers import (
    AdaptiveParams,
    GainSet,
    design_adaptive_params,
    design_gains,
    omega_radii,
)
from avgtrack.errors import DesignError
from avgtrack.graph import Topology
from avgtrack.signals import InputFamily, Plant, ZeroInput

from conftest import DEMO_Q, demo_plant, demo_topology, ramped_sine_family
from oracles import (
    adaptive_control,
    boundary_layer,
    modified_control,
    signum_dir,
    static_control,
)

SQRT2 = np.sqrt(2.0)


def two_agent_gains(c1=1.0, c2=0.0, eps=1.0, phi=0.0):
    """Scalar plant on a single edge; K = [-1]."""
    return GainSet(
        p_mat=[[1.0]],
        k_mat=[[-1.0]],
        c1=c1,
        c2=c2,
        lam2=2.0,
        f0=0.0,
        gamma_rate=1.0,
        eps=eps,
        phi=phi,
        agent_count=2,
    )


class TestBoundaryLayer:
    def test_zero_argument(self):
        assert np.array_equal(boundary_layer([0.0, 0.0], 0.0, 5.0, 0.0), [0.0, 0.0])

    def test_three_four_five(self):
        # ||w|| = 5, denominator 5 + 5 = 10
        out = boundary_layer([3.0, 4.0], 0.0, 5.0, 0.0)
        assert np.allclose(out, [0.3, 0.4])

    def test_approaches_signum_at_large_local_time(self):
        out = boundary_layer([1.0, 0.0], 100.0, 5.0, 0.5)
        assert np.linalg.norm(out - [1.0, 0.0]) < 1e-9

    def test_norm_strictly_below_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
            assert np.linalg.norm(boundary_layer(w, 1.0, 0.5, 0.1)) < 1.0

    def test_signum_gap_bound(self):
        # ||h - w/||w|| || = d / (||w|| + d) <= d / ||w|| with d = eps e^{-phi t}
        rng = np.random.default_rng(6)
        for _ in range(100):
            w = rng.normal(size=4)
            t = float(rng.uniform(0.0, 3.0))
            eps, phi = 0.7, 0.4
            gap = np.linalg.norm(
                boundary_layer(w, t, eps, phi) - signum_dir(w)
            )
            assert gap <= eps * np.exp(-phi * t) / np.linalg.norm(w) + 1e-15

    def test_huge_eps_is_scaled_linear(self):
        w = np.array([2.0, -1.0])
        out = boundary_layer(w, 0.0, 1e6, 0.0)
        assert np.allclose(out, w / (np.linalg.norm(w) + 1e6), rtol=1e-12)
        assert np.linalg.norm(out) < 3e-6

    def test_eps_zero_degenerates_to_signum(self):
        assert np.array_equal(boundary_layer([0.0], 0.0, 0.0, 0.0), [0.0])
        assert np.allclose(boundary_layer([3.0, 4.0], 0.0, 0.0, 0.0), [0.6, 0.8])


class TestSignumDir:
    def test_zero(self):
        assert np.array_equal(signum_dir([0.0, 0.0]), [0.0, 0.0])

    def test_unit_vector(self):
        assert np.allclose(signum_dir([3.0, 4.0]), [0.6, 0.8])

    def test_axis(self):
        assert np.array_equal(signum_dir([-2.0, 0.0]), [-1.0, 0.0])


class TestDesignGains:
    def test_demo_reproduces_published_gains(self, demo_gains):
        assert np.allclose(demo_gains.k_mat, [[-1.5728, -4.3293]], atol=1e-9)
        expected_gamma = demo_gains.k_mat.T @ demo_gains.k_mat
        assert np.allclose(demo_gains.gamma_mat, expected_gamma, atol=1e-9)
        assert np.max(np.abs(demo_gains.gamma_mat - [[2.4738, 6.8092], [6.8092, 18.7428]])) < 2e-3

    def test_gamma_is_p_b_bt_p_on_multi_input_plants(self):
        # Gamma is derived as K^T K; on general plants that equals
        # P B B^T P only to rounding
        rng = np.random.default_rng(2026)
        topo = Topology(vertex_count=2, edges=((0, 1),))
        family = InputFamily(specs=(ZeroInput(),) * 2, input_dim=2)
        for _ in range(10):
            plant = Plant(a=rng.normal(size=(3, 3)), b=rng.normal(size=(3, 2)))
            gains = design_gains(plant, topo, family, np.eye(3), eps=1.0, phi=0.0)
            expect = gains.p_mat @ plant.b @ plant.b.T @ gains.p_mat
            assert np.abs(gains.gamma_mat - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_identity_weight_closed_form(self):
        gains = design_gains(
            demo_plant(), demo_topology(), ramped_sine_family(), np.eye(2), eps=5.0, phi=0.5
        )
        assert np.allclose(gains.k_mat, [[-(SQRT2 - 1.0), -(SQRT2 - 1.0)]], atol=1e-9)

    def test_complete_graph_coupling_strengths(self):
        edges = tuple((i, j) for i in range(6) for j in range(i + 1, 6))
        topo = Topology(vertex_count=6, edges=edges)
        gains = design_gains(
            demo_plant(), topo, ramped_sine_family(), DEMO_Q, eps=5.0, phi=0.5
        )
        assert gains.c1 == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert gains.c2 == pytest.approx(3.5 * 5.0 * np.sqrt(6.0), abs=1e-9)
        assert gains.c2 == pytest.approx(42.8661, abs=1e-3)

    def test_zero_family_needs_no_second_strength(self):
        fam = InputFamily(specs=(ZeroInput(),) * 6, input_dim=1)
        gains = design_gains(demo_plant(), demo_topology(), fam, DEMO_Q, eps=5.0, phi=0.5)
        assert gains.c2 == 0.0

    def test_disconnected_raises(self):
        topo = Topology(vertex_count=6, edges=((0, 1), (1, 2), (3, 4), (4, 5)))
        with pytest.raises(DesignError, match="connected"):
            design_gains(demo_plant(), topo, ramped_sine_family(), DEMO_Q, eps=5.0, phi=0.5)

    def test_unstabilizable_raises(self):
        plant = Plant(a=[[1.0]], b=[[0.0]])
        fam = InputFamily(specs=(ZeroInput(),) * 2, input_dim=1)
        topo = Topology(vertex_count=2, edges=((0, 1),))
        with pytest.raises(DesignError, match="stabilizable"):
            design_gains(plant, topo, fam, [[1.0]], eps=1.0, phi=0.0)

    def test_gain_floor_enforced(self):
        with pytest.raises(DesignError, match="floor"):
            design_gains(
                demo_plant(),
                demo_topology(),
                ramped_sine_family(),
                DEMO_Q,
                eps=5.0,
                phi=0.5,
                c1=0.01,  # below 1/(2*lambda2) = 0.5
            )

    def test_gamma_rate_value(self, demo_gains):
        # lam_min(Q) / lam_max(P) for the calibrated design
        assert demo_gains.gamma_rate == pytest.approx(0.386828, abs=1e-5)


class TestStaticControl:
    def test_consensus_gives_zero(self, demo_gains):
        x = np.tile([1.3, -0.4], (6, 1))
        for i in range(6):
            u, _ = static_control(i, x, demo_gains, 0.0, demo_topology())
            assert np.allclose(u, 0.0, atol=1e-12)

    def test_single_edge_hand_computed(self):
        gains = two_agent_gains(c1=1.0, c2=0.0)
        topo = Topology(vertex_count=2, edges=((0, 1),))
        x = np.array([[1.0], [0.0]])
        u0, _ = static_control(0, x, gains, 0.0, topo)
        u1, _ = static_control(1, x, gains, 0.0, topo)
        assert u0 == pytest.approx(-1.0)
        assert u1 == pytest.approx(1.0)

    def test_sum_of_controls_vanishes_with_synced_clocks(self, demo_gains):
        rng = np.random.default_rng(8)
        topo = demo_topology()
        x = rng.normal(size=(6, 2))
        total = np.zeros(1)
        for i in range(6):
            u, _ = static_control(i, x, demo_gains, 3.7, topo)
            total = total + u
        assert np.allclose(total, 0.0, atol=1e-12)

    def test_edge_antisymmetry(self, demo_gains):
        rng = np.random.default_rng(9)
        topo = demo_topology()
        x = rng.normal(size=(6, 2))
        for i, j in topo.edges:
            _, terms_i = static_control(i, x, demo_gains, 1.1, topo)
            _, terms_j = static_control(j, x, demo_gains, 1.1, topo)
            assert np.allclose(terms_i[j], -terms_j[i], atol=1e-12)


class TestModifiedControl:
    def test_all_zero(self, demo_gains):
        x = np.zeros((6, 2))
        for i in range(6):
            assert np.allclose(modified_control(i, x, demo_gains, 0.0, demo_topology()), 0.0)

    def test_isolated_agent_absolute_feedback(self, demo_gains):
        topo = Topology(vertex_count=1, edges=())
        u = modified_control(0, np.array([[1.0, 0.0]]), demo_gains, 0.0, topo)
        assert u == pytest.approx(-1.5728, abs=1e-9)

    def test_common_state_gives_common_control(self, demo_gains):
        x = np.tile([0.7, -1.1], (6, 1))
        topo = demo_topology()
        expect = demo_gains.k_mat @ x[0]
        for i in range(6):
            assert np.allclose(modified_control(i, x, demo_gains, 0.0, topo), expect)


class TestAdaptiveControl:
    def _params(self):
        return AdaptiveParams(mu=10.0, nu=10.0, theta=0.01, chi=0.01)

    def test_consensus_with_zero_gains_is_quiescent(self, demo_gains):
        topo = demo_topology()
        x = np.tile([0.2, 0.9], (6, 1))
        alpha = np.zeros(topo.edge_count)
        beta = np.zeros(topo.edge_count)
        u, a_dot, b_dot = adaptive_control(
            0, x, demo_gains, self._params(), alpha, beta, 0.0, topo
        )
        assert np.allclose(u, 0.0)
        assert all(v == 0.0 for v in a_dot.values())
        assert all(v == 0.0 for v in b_dot.values())

    def test_alpha_rate_picks_quadratic_entry(self, demo_gains):
        # difference (1, 0): the quadratic form returns Gamma[0, 0]
        topo = Topology(vertex_count=2, edges=((0, 1),))
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        alpha = np.zeros(1)
        beta = np.zeros(1)
        _, a_dot, _ = adaptive_control(
            0, x, demo_gains, self._params(), alpha, beta, 0.0, topo
        )
        assert a_dot[0] / 10.0 == pytest.approx(2.4738, abs=2e-3)
        assert a_dot[0] / 10.0 == pytest.approx(float(demo_gains.gamma_mat[0, 0]), abs=1e-12)

    def test_pure_decay_when_states_agree(self, demo_gains):
        topo = Topology(vertex_count=2, edges=((0, 1),))
        x = np.zeros((2, 2))
        alpha = np.array([0.8])
        beta = np.array([0.3])
        _, a_dot, b_dot = adaptive_control(
            0, x, demo_gains, self._params(), alpha, beta, 0.0, topo
        )
        assert a_dot[0] == pytest.approx(-10.0 * 0.01 * 0.8)
        assert b_dot[0] == pytest.approx(-10.0 * 0.01 * 0.3)

    def test_rates_symmetric_across_edge_with_synced_clocks(self, demo_gains):
        rng = np.random.default_rng(10)
        topo = demo_topology()
        x = rng.normal(size=(6, 2))
        alpha = rng.uniform(0.0, 1.0, topo.edge_count)
        beta = rng.uniform(0.0, 1.0, topo.edge_count)
        for e, (i, j) in enumerate(topo.edges):
            _, ai, bi = adaptive_control(
                i, x, demo_gains, self._params(), alpha, beta, 2.2, topo
            )
            _, aj, bj = adaptive_control(
                j, x, demo_gains, self._params(), alpha, beta, 2.2, topo
            )
            assert ai[e] == pytest.approx(aj[e], rel=1e-12)
            assert bi[e] == pytest.approx(bj[e], rel=1e-12)

    def test_source_terms_nonnegative(self, demo_gains):
        rng = np.random.default_rng(11)
        topo = demo_topology()
        params = self._params()
        for _ in range(20):
            x = rng.normal(size=(6, 2))
            alpha = np.zeros(topo.edge_count)
            beta = np.zeros(topo.edge_count)
            for i in range(6):
                _, a_dot, b_dot = adaptive_control(
                    i, x, demo_gains, params, alpha, beta, 0.0, topo
                )
                assert all(v >= 0.0 for v in a_dot.values())
                assert all(v >= 0.0 for v in b_dot.values())


class TestDesignAdaptiveParams:
    def test_demo_values(self, demo_gains):
        params = design_adaptive_params(demo_gains, mu=10.0, nu=10.0, theta=0.01, chi=0.01)
        assert params.rho == pytest.approx(0.1)

    def test_max_of_equal_products(self, demo_gains):
        params = design_adaptive_params(demo_gains, mu=2.0, nu=4.0, theta=0.02, chi=0.01)
        assert params.rho == pytest.approx(0.04)

    def test_demo_combination_is_feasible(self, demo_gains):
        params = design_adaptive_params(
            demo_gains, mu=10.0, nu=10.0, theta=0.01, chi=0.01, strict=True
        )
        assert params.rho < demo_gains.gamma_rate

    def test_strict_rejects_infeasible(self, demo_gains):
        with pytest.raises(DesignError, match="infeasible"):
            design_adaptive_params(demo_gains, mu=100.0, nu=1.0, theta=1.0, chi=1.0, strict=True)

    def test_rho_is_derived_from_the_constants(self):
        assert AdaptiveParams(mu=100, nu=1, theta=1, chi=1).rho == 100

    def test_feasibility_is_rho_below_gamma(self, demo_gains):
        gamma = demo_gains.gamma_rate
        assert AdaptiveParams(mu=1.0, nu=1.0, theta=0.5 * gamma, chi=0.1).feasible(demo_gains)
        assert not AdaptiveParams(mu=1.0, nu=1.0, theta=gamma, chi=0.1).feasible(demo_gains)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AdaptiveParams(mu=0.0, nu=1.0, theta=1.0, chi=1.0)


class TestOmegaRadii:
    def test_vanishing_leakage_shrinks_omega2(self, demo_gains):
        tiny = design_adaptive_params(demo_gains, mu=10.0, nu=10.0, theta=1e-12, chi=1e-12)
        radii = omega_radii(demo_gains, tiny, demo_topology())
        assert radii.omega2 < 1e-3

    def test_zero_eps_zero_omega0(self):
        gains = design_gains(
            demo_plant(), demo_topology(), ramped_sine_family(), DEMO_Q, eps=0.0, phi=0.0
        )
        radii = omega_radii(gains, None, demo_topology())
        assert radii.omega0 == 0.0

    def test_demo_radii_recorded(self, demo_gains):
        params = design_adaptive_params(demo_gains, mu=10.0, nu=10.0, theta=0.01, chi=0.01)
        radii = omega_radii(demo_gains, params, demo_topology())
        assert radii.omega0 > 0.0
        assert radii.omega2 > 0.0
        assert radii.omega1_level > 0.0
        # frozen regression constants for the shipped six-agent scenario
        degree_sum = 14.0
        abar, bbar = demo_gains.c1_floor, demo_gains.c2_floor
        leak = 0.01 * abar**2 + 0.01 * bbar**2
        expect2 = np.sqrt(
            degree_sum * leak / (2.0 * demo_gains.p_min_eig * (demo_gains.gamma_rate - 0.1))
        )
        assert radii.omega2 == pytest.approx(expect2, rel=1e-12)

    def test_infeasible_rho_rejected(self, demo_gains):
        bad = AdaptiveParams(mu=100.0, nu=1.0, theta=1.0, chi=1.0)
        with pytest.raises(DesignError, match="omega2"):
            omega_radii(demo_gains, bad, demo_topology())


def test_gainset_rejects_low_c2():
    with pytest.raises(DesignError):
        GainSet(
            p_mat=[[1.0]],
            k_mat=[[-1.0]],
            c1=1.0,
            c2=0.5,
            lam2=2.0,
            f0=1.0,  # floor = 1 * 1 * sqrt(2) > 0.5
            gamma_rate=1.0,
            eps=1.0,
            phi=0.0,
            agent_count=2,
        )
