import dataclasses
import json
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from avgtrack import engine, equalclock
from avgtrack.clocksync import (
    ATTRACTING,
    DEAD_BAND,
    PAPER_LITERAL,
    ClockState,
    clock_law,
    clock_spread,
)
from avgtrack.controllers import GainSet, design_adaptive_params, design_gains
from avgtrack.engine import (
    RK4_STABILITY_LIMIT,
    Scenario,
    Trace,
    _Dynamics,
    consensus_error,
    decay_check,
    lyapunov_v1,
    lyapunov_v2,
    run,
    total_variation,
    tracking_error,
)
from avgtrack.errors import DesignError, NumericalError
from avgtrack.graph import Topology, laplacian
from avgtrack.matkernel import rk4
from avgtrack.signals import (
    ConstantInput,
    InputFamily,
    Plant,
    SinusoidInput,
    ZeroInput,
)

from conftest import DEMO_CONFIG, DEMO_Q, demo_plant, demo_topology, ramped_sine_family
from oracles import (
    adaptive_control,
    affine_rk4_recursion,
    clock_rates,
    general_implicit_step,
    implicit_matrix_bincount,
    input_value,
    modified_control,
    pack_state,
    reference_derivative,
    start_vector,
    static_control,
)

RNG = np.random.default_rng(42)
R0 = RNG.uniform(-1.0, 1.0, (6, 2))


def dummy_gains(n=1, p=1, k=None, c1=0.5, c2=0.0, eps=1.0, phi=0.0, agents=2):
    """Minimal valid gain set for engine plumbing tests."""
    k_mat = np.zeros((p, n)) if k is None else np.atleast_2d(np.asarray(k, dtype=float))
    return GainSet(
        p_mat=np.eye(n),
        k_mat=k_mat,
        c1=c1,
        c2=c2,
        lam2=1.0,
        f0=0.0,
        gamma_rate=1.0,
        eps=eps,
        phi=phi,
        agent_count=agents,
    )


def zero_family(agents, channels=1):
    return InputFamily(specs=(ZeroInput(),) * agents, input_dim=channels)


def scalar_decay_scenario(horizon=1.0, step=0.1, rate=-1.0):
    """Single agent, no edges: the reference obeys dr/dt = rate * r."""
    plant = Plant(a=[[rate]], b=[[0.0]])
    topo = Topology(vertex_count=1, edges=())
    return Scenario(
        plant=plant,
        topology=topo,
        family=zero_family(1),
        controller="static",
        gains=dummy_gains(agents=1),
        r0=[[1.0]],
        step=step,
        horizon=horizon,
        sample_every=1,
    )


def demo_static_scenario(gains, **kw):
    defaults = dict(
        plant=demo_plant(),
        topology=demo_topology(),
        family=ramped_sine_family(),
        controller="static",
        gains=gains,
        r0=R0,
        step=1e-3,
        horizon=2.0,
        sample_every=10,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestStepRk4:
    def test_quiescent_system_only_clocks_advance(self):
        plant = Plant(a=np.zeros((2, 2)), b=np.zeros((2, 1)))
        topo = Topology(vertex_count=3, edges=((0, 1), (1, 2)))
        sc = Scenario(
            plant=plant,
            topology=topo,
            family=zero_family(3),
            controller="static",
            gains=dummy_gains(n=2, agents=3),
            step=0.25,
            horizon=1.0,
            sample_every=1,
        )
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        nxt = dyn.advance(0.0, y, 0.25)
        for block in (dyn.sl_s, dyn.sl_r, dyn.sl_a, dyn.sl_b):
            assert np.array_equal(nxt[block], y[block])
        assert np.allclose(nxt[dyn.sl_c], y[dyn.sl_c] + 0.25, atol=1e-15)

    def test_scalar_exponential_one_step(self):
        sc = scalar_decay_scenario()
        dyn = _Dynamics(sc)
        r = dyn.advance(0.0, start_vector(sc), 0.1)[dyn.sl_r]
        assert r[0] == pytest.approx(np.exp(-0.1), abs=1e-7)
        assert r[0] == pytest.approx(0.90483742, abs=1e-7)

    def test_fourth_order_convergence(self):
        # global error at T=1 shrinks about 16x when the step is halved
        errors = []
        for step in (0.1, 0.05):
            tr = run(scalar_decay_scenario(horizon=1.0, step=step))
            errors.append(abs(tr.r[-1, 0, 0] - np.exp(-1.0)))
        factor = errors[0] / errors[1]
        assert 12.0 <= factor <= 20.0


class TestScenarioValidation:
    def test_unknown_controller(self):
        with pytest.raises(ValueError, match="controller"):
            demo_static_scenario(dummy_gains(n=2, agents=6), controller="fancy")

    def test_adaptive_requires_params(self):
        with pytest.raises(ValueError, match="adaptive"):
            demo_static_scenario(dummy_gains(n=2, agents=6), controller="adaptive")

    def test_static_with_marginal_plant_requires_zero_filter_state(self):
        plant = Plant(a=np.zeros((1, 1)), b=[[1.0]])  # eigenvalue 0: not Hurwitz
        topo = Topology(vertex_count=2, edges=((0, 1),))
        with pytest.raises(DesignError, match="zero initial filter"):
            Scenario(
                plant=plant,
                topology=topo,
                family=zero_family(2),
                controller="static",
                gains=dummy_gains(agents=2),
                s0=[[0.1], [0.0]],
            )

    def test_modified_lifts_filter_state_requirement(self):
        plant = Plant(a=np.zeros((1, 1)), b=[[1.0]])
        topo = Topology(vertex_count=2, edges=((0, 1),))
        sc = Scenario(
            plant=plant,
            topology=topo,
            family=zero_family(2),
            controller="modified",
            gains=dummy_gains(agents=2, k=[[-1.0]]),
            s0=[[0.1], [0.0]],
        )
        assert sc.controller == "modified"

    def test_sample_alignment_enforced(self):
        sc = scalar_decay_scenario(horizon=1.0, step=0.3)
        with pytest.raises(ValueError, match="whole number"):
            run(sc)

    def test_bad_initial_shape(self):
        with pytest.raises(ValueError, match="r0"):
            demo_static_scenario(dummy_gains(n=2, agents=6), r0=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("step", 0.0),
            ("step", -1e-3),
            ("step", float("inf")),
            ("step", float("nan")),
            ("horizon", -1.0),
            ("horizon", float("inf")),
            ("horizon", float("nan")),
            ("sample_every", 0),
            ("sample_every", 2.5),
            ("sample_every", float("inf")),
            ("sample_every", float("nan")),
        ],
    )
    def test_rejects_nonfinite_or_nonpositive_lengths(self, field, value):
        # an infinite step once built a scenario that run sampled only at
        # t = 0, its horizon passing as a whole number of steps (0 * inf)
        with pytest.raises(ValueError, match=field):
            demo_static_scenario(dummy_gains(n=2, agents=6), **{field: value})


class TestRun:
    def test_zero_everything_stays_on_consensus_manifold(self):
        sc = demo_static_scenario(
            dummy_gains(n=2, agents=6, c2=0.0),
            family=zero_family(6),
            r0=np.zeros((6, 2)),
            horizon=0.5,
        )
        tr = run(sc)
        assert np.all(tr.xi == 0.0)
        assert np.all(tr.xi_norm == 0.0)
        assert np.all(tr.u == 0.0)
        assert np.all(tr.r == 0.0)

    def test_sample_times_strictly_increase_at_constant_stride(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=0.5))
        gaps = np.diff(tr.times)
        assert np.all(gaps > 0.0)
        assert np.allclose(gaps, gaps[0], rtol=0.0, atol=1e-12)

    def test_identical_agents_stay_identical(self, demo_gains):
        topo = Topology(vertex_count=2, edges=((0, 1),))
        fam = InputFamily(
            specs=(ramped_sine_family().specs[0],) * 2, input_dim=1
        )
        sc = Scenario(
            plant=demo_plant(),
            topology=topo,
            family=fam,
            controller="static",
            gains=demo_gains,
            r0=np.tile([0.3, -0.7], (2, 1)),
            step=1e-3,
            horizon=1.0,
            sample_every=10,
        )
        tr = run(sc)
        assert np.array_equal(tr.x[:, 0], tr.x[:, 1])

    def test_bitwise_deterministic(self, demo_gains):
        sc = demo_static_scenario(demo_gains, horizon=0.5)
        t1, t2 = run(sc), run(sc)
        for name in ("times", "s", "r", "clocks", "u", "xi", "v1"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_zero_horizon_single_sample(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=0.0))
        assert tr.sample_count == 1
        assert tr.times[0] == 0.0

    def test_conservation_short(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=2.0))
        assert np.abs(tr.s.sum(axis=1)).max() <= 1e-9

    def test_blowup_reports_component(self):
        plant = Plant(a=[[100.0]], b=[[0.0]])
        topo = Topology(vertex_count=1, edges=())
        sc = Scenario(
            plant=plant,
            topology=topo,
            family=zero_family(1),
            controller="modified",
            gains=dummy_gains(agents=1),
            r0=[[1.0]],
            step=1e-2,
            horizon=20.0,
            sample_every=10,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"(s|r)\[0,0\]"):
                run(sc)

    def test_trace_x_property(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=0.2))
        assert np.array_equal(tr.x, tr.s + tr.r)


class TestEngineMatchesPerAgentLaws:
    """The compiled dynamics must agree with the per-agent control API,
    including under unsynchronized clocks. Here in the dense form; the
    subclass below repeats every test in the edge form, whose operators
    define each law."""

    dense_max_dim = sys.maxsize
    rng = RNG

    @pytest.fixture(autouse=True)
    def _operator_form(self, monkeypatch):
        monkeypatch.setattr(engine, "DENSE_MAX_DIM", self.dense_max_dim)

    def _compiled(self, sc):
        dyn = _Dynamics(sc)
        assert dyn.dense is (self.dense_max_dim > 0)
        return dyn

    def _state_with_clocks(self, sc, clocks, rng=None):
        """(y, x, alpha, beta): random references and edge gains, and for the
        modified law random filter states, at the given clocks."""
        rng = self.rng if rng is None else rng
        edges = sc.topology.edge_count
        s = rng.uniform(-1, 1, sc.s0.shape) if sc.controller == "modified" else sc.s0
        r = rng.uniform(-1, 1, sc.r0.shape)
        alpha = rng.uniform(0.0, 2.0, edges)
        beta = rng.uniform(0.0, 2.0, edges)
        return pack_state(s, r, clocks, alpha, beta), s + r, alpha, beta

    def test_static_with_desynchronized_clocks(self, demo_gains):
        sc = demo_static_scenario(demo_gains)
        clocks = np.array([0.0, 0.4, 1.1, 0.2, 2.0, 0.9])
        y, x, _, _ = self._state_with_clocks(sc, clocks)
        dyn = self._compiled(sc)
        u_fast = dyn.controls(0.0, y)
        for i in range(6):
            u_ref, _ = static_control(i, x, demo_gains, clocks[i], sc.topology)
            assert np.allclose(u_fast[i], u_ref, atol=1e-12)

    def test_modified_matches(self, demo_gains):
        sc = demo_static_scenario(demo_gains, controller="modified")
        clocks = np.array([0.3, 0.0, 0.0, 0.7, 0.1, 0.0])
        y, x, _, _ = self._state_with_clocks(sc, clocks)
        dyn = self._compiled(sc)
        u_fast = dyn.controls(0.0, y)
        for i in range(6):
            u_ref = modified_control(i, x, demo_gains, clocks[i], sc.topology)
            assert np.allclose(u_fast[i], u_ref, atol=1e-12)

    def test_adaptive_matches_including_gain_rates(self, demo_gains):
        self._check_adaptive(demo_gains, (10.0, 10.0, 0.01, 0.01))

    def test_adaptive_matches_with_distinct_rates(self, demo_gains):
        # mu != nu and theta != chi, so that neither gain law can take the
        # other's rate unseen; a generator of its own keeps the draws that
        # later tests see as they were
        self._check_adaptive(demo_gains, (10.0, 4.0, 0.01, 0.03), np.random.default_rng(45))

    def _check_adaptive(self, demo_gains, rates, rng=None):
        adapt = design_adaptive_params(demo_gains, *rates)
        sc = demo_static_scenario(demo_gains, controller="adaptive", adapt=adapt)
        clocks = np.array([0.0, 0.4, 1.1, 0.2, 2.0, 0.9])
        y, x, alpha, beta = self._state_with_clocks(sc, clocks, rng)
        dyn = self._compiled(sc)
        u_fast = dyn.controls(0.0, y)
        ydot = dyn(0.0, y)
        alpha_dot_fast = ydot[dyn.sl_a]
        beta_dot_fast = ydot[dyn.sl_b]
        for i in range(6):
            u_ref, a_dot, b_dot = adaptive_control(
                i, x, demo_gains, adapt, alpha, beta, clocks[i], sc.topology,
            )
            assert np.allclose(u_fast[i], u_ref, atol=1e-12)
            for e, rate in a_dot.items():
                assert alpha_dot_fast[e] == pytest.approx(rate, abs=1e-12)
        # the shared edge state integrates the boundary layer at the tail
        # agent's clock
        for e, (tail, _) in enumerate(sc.topology.edges):
            _, _, b_dot = adaptive_control(
                tail, x, demo_gains, adapt, alpha, beta, clocks[tail], sc.topology,
            )
            assert beta_dot_fast[e] == pytest.approx(b_dot[e], abs=1e-12)


class TestEdgeFormMatchesPerAgentLaws(TestEngineMatchesPerAgentLaws):
    """The same checks with every scenario compiled to the edge operators,
    on states from a generator of their own, so that the draws of the module
    generator later tests see stay as they were."""

    dense_max_dim = 0
    rng = np.random.default_rng(44)


def independent_rhs(sc, adapt):
    """Stacked derivative assembled from the per-agent control API, the
    per-agent reference derivative, and the clock-rate function: a formula
    path fully independent of the compiled engine."""
    topo, plant, gains = sc.topology, sc.plant, sc.gains
    n_agents, n = topo.vertex_count, plant.state_dim
    n_edges = topo.edge_count

    def rhs(t, y):
        s = y[: n_agents * n].reshape(n_agents, n)
        r = y[n_agents * n : 2 * n_agents * n].reshape(n_agents, n)
        clocks = y[2 * n_agents * n : 2 * n_agents * n + n_agents]
        alpha = y[2 * n_agents * n + n_agents : 2 * n_agents * n + n_agents + n_edges]
        beta = y[2 * n_agents * n + n_agents + n_edges :]
        x = s + r
        s_dot = np.zeros_like(s)
        r_dot = np.zeros_like(r)
        alpha_dot = np.zeros(n_edges)
        beta_dot = np.zeros(n_edges)
        for i in range(n_agents):
            if sc.controller == "adaptive":
                u_i, a_rates, b_rates = adaptive_control(
                    i, x, gains, adapt, alpha, beta, float(clocks[i]), topo
                )
                for e, (tail, _) in enumerate(topo.edges):
                    if tail == i:
                        alpha_dot[e] = a_rates[e]
                        beta_dot[e] = b_rates[e]
            elif sc.controller == "modified":
                u_i = modified_control(i, x, gains, float(clocks[i]), topo)
            else:
                u_i, _ = static_control(i, x, gains, float(clocks[i]), topo)
            s_dot[i] = plant.a @ s[i] + plant.b @ u_i
            r_dot[i] = reference_derivative(plant, r[i], input_value(sc.family, i, t))
        clock_dot = clock_rates(
            ClockState(times=clocks, convention=sc.clock_convention), topo
        )
        return np.concatenate(
            [s_dot.ravel(), r_dot.ravel(), clock_dot, alpha_dot, beta_dot]
        )

    return rhs


def assert_engine_matches_reference(sc, adapt, horizon, tol=1e-7):
    from scipy.integrate import solve_ivp

    trace = run(sc)
    ref = solve_ivp(
        independent_rhs(sc, adapt),
        (0.0, horizon),
        start_vector(sc),
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
    )
    ours = pack_state(
        trace.s[-1], trace.r[-1], trace.clocks[-1], trace.alpha[-1], trace.beta[-1]
    )
    assert np.max(np.abs(ours - ref.y[:, -1])) < tol


class TestAgainstIndependentIntegration:
    """System-level oracle: the compiled engine versus an independently
    assembled right-hand side integrated by scipy's adaptive RK45 at tight
    tolerance."""

    @pytest.mark.parametrize("controller", ["static", "modified", "adaptive"])
    def test_trajectories_agree(self, controller, demo_gains):
        adapt = (
            design_adaptive_params(demo_gains, 10.0, 10.0, 0.01, 0.01)
            if controller == "adaptive"
            else None
        )
        sc = demo_static_scenario(
            demo_gains,
            controller=controller,
            adapt=adapt,
            horizon=1.0,
            s0=None if controller != "modified" else RNG.uniform(-0.5, 0.5, (6, 2)),
        )
        assert_engine_matches_reference(sc, adapt, 1.0)

    def test_mixed_input_kinds_and_frequencies(self, demo_gains):
        fam = InputFamily(
            specs=(
                SinusoidInput(amplitude=(1.0,), omega=1.0, phase=0.0),
                SinusoidInput(amplitude=(0.5,), omega=2.7, phase=0.3),
                ConstantInput(value=(0.8,)),
                ZeroInput(),
                SinusoidInput(amplitude=(-1.2,), omega=0.4, phase=-1.0),
                ConstantInput(value=(-0.25,)),
            ),
            input_dim=1,
        )
        sc = demo_static_scenario(demo_gains, family=fam, horizon=0.5)
        assert_engine_matches_reference(sc, None, 0.5)

    def test_multichannel_plant(self):
        # two input channels exercise the general edge-norm and scatter paths
        plant = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=np.eye(2))
        topo = Topology(vertex_count=3, edges=((0, 1), (1, 2)))
        spec = SinusoidInput(amplitude=(0.5, -0.3), omega=1.0, phase=0.0)
        fam = InputFamily(specs=(spec, spec, spec), input_dim=2)
        gains = design_gains(plant, topo, fam, np.eye(2), eps=1.0, phi=0.2)
        adapt = design_adaptive_params(gains, 2.0, 2.0, 0.05, 0.05)
        rng = np.random.default_rng(5)
        for controller in ("static", "adaptive"):
            sc = Scenario(
                plant=plant,
                topology=topo,
                family=fam,
                controller=controller,
                gains=gains,
                adapt=adapt if controller == "adaptive" else None,
                r0=rng.uniform(-1, 1, (3, 2)),
                step=1e-3,
                horizon=0.5,
                sample_every=10,
            )
            assert_engine_matches_reference(sc, adapt, 0.5)


class TestAdaptiveConservation:
    def test_filter_sum_stays_zero(self, demo_gains):
        adapt = design_adaptive_params(demo_gains, 10.0, 10.0, 0.01, 0.01)
        sc = demo_static_scenario(
            demo_gains, controller="adaptive", adapt=adapt, horizon=2.0
        )
        tr = run(sc)
        assert np.abs(tr.s.sum(axis=1)).max() <= 1e-9


class TestInEngineClockCoupling:
    def test_desynchronized_clocks_contract_during_tracking(self, demo_gains):
        offsets = np.array([0.3, -0.1, 0.2, 0.0, -0.25, 0.15])
        sc = demo_static_scenario(demo_gains, clocks0=offsets, horizon=2.0)
        tr = run(sc)
        assert tr.clock_spread[0] == pytest.approx(0.55)
        # the discretized square-root coupling parks at a spread ~ 2 * step^2
        assert tr.clock_spread[-1] < 4.0 * sc.step**2
        above_floor = tr.clock_spread[:-1] > 1e-5
        assert np.all(np.diff(tr.clock_spread)[above_floor] <= 1e-12)


class TestConsensusError:
    def test_agreement_is_zero(self):
        xi, norm = consensus_error(np.tile([2.0, -1.0], (4, 1)))
        assert np.all(xi == 0.0)
        assert norm == 0.0

    def test_two_agent_antisymmetric(self):
        xi, norm = consensus_error([[1.0], [-1.0]])
        assert np.allclose(xi, [[1.0], [-1.0]])
        assert norm == pytest.approx(np.sqrt(2.0))

    def test_columns_sum_to_zero(self):
        x = np.random.default_rng(3).normal(size=(7, 3))
        xi, _ = consensus_error(x)
        assert np.allclose(xi.sum(axis=0), 0.0, atol=1e-12)


class TestTrackingError:
    def test_zero_when_on_reference_average(self):
        r = np.array([[1.0, 0.0], [3.0, 2.0]])
        x = np.tile(r.mean(axis=0), (2, 1))
        assert np.allclose(tracking_error(x, r), 0.0)

    def test_single_agent(self):
        out = tracking_error([[2.0]], [[0.5]])
        assert np.allclose(out, [[1.5]])

    def test_equals_consensus_error_under_conservation(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=2.0))
        for k in range(0, tr.sample_count, 20):
            track = tracking_error(tr.x[k], tr.r[k])
            gap = np.abs(track - tr.xi[k]).max()
            assert gap <= 1e-6


class TestLyapunov:
    def test_v1_hand_value(self):
        assert lyapunov_v1([[1.0], [-1.0]], [[2.0]]) == pytest.approx(4.0)

    def test_v1_lower_bound_along_trajectory(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=1.0))
        lam_min = demo_gains.p_min_eig
        assert np.all(tr.v1 >= lam_min * tr.xi_norm**2 - 1e-12)

    def test_v2_zero_at_equilibrium_gains(self):
        v2 = lyapunov_v2(
            np.zeros((3, 1)), [[1.0]], [0.5, 0.5], [2.0, 2.0], 0.5, 2.0, 10.0, 10.0
        )
        assert v2 == 0.0

    def test_v2_counts_ordered_pairs(self):
        # one edge, alpha off by 1: sum over both directions = 2 * (1 / (2 mu))
        v2 = lyapunov_v2(np.zeros((2, 1)), [[1.0]], [1.5], [2.0], 0.5, 2.0, 10.0, 10.0)
        assert v2 == pytest.approx(2.0 * 1.0 / (2.0 * 10.0))

    def test_decay_integral_bound_formula_wiring(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, horizon=10.0))
        g = demo_gains
        deg_sum = float(demo_topology().neighbor_counts().sum())
        integral = (np.exp(-g.phi * 10.0) - np.exp(-g.gamma_rate * 10.0)) / (
            g.gamma_rate - g.phi
        )
        bound = np.exp(-g.gamma_rate * 10.0) * tr.v1[0] + g.c2 * deg_sum * g.eps * integral
        assert tr.v1[-1] <= bound


class TestMetricsOverSamples:
    """The metric functions take a leading sample axis, and run's per-sample
    metrics are theirs."""

    def test_stack_equals_each_sample(self):
        rng = np.random.default_rng(12)
        x, r = rng.normal(size=(2, 5, 4, 3))
        alpha, beta = rng.normal(size=(2, 5, 6))
        p_mat = np.diag([1.0, 2.0, 3.0])
        xi, norm = consensus_error(x)
        v2 = lyapunov_v2(x, p_mat, alpha, beta, 0.5, 2.0, 10.0, 5.0)
        for k in range(5):
            xi_k, norm_k = consensus_error(x[k])
            assert np.array_equal(xi[k], xi_k) and norm[k] == norm_k
            assert np.array_equal(tracking_error(x, r)[k], tracking_error(x[k], r[k]))
            assert lyapunov_v1(x, p_mat)[k] == lyapunov_v1(x[k], p_mat)
            assert v2[k] == lyapunov_v2(x[k], p_mat, alpha[k], beta[k], 0.5, 2.0, 10.0, 5.0)

    def test_run_metrics_match_the_library(self, demo_gains):
        adapt = design_adaptive_params(demo_gains, 10.0, 10.0, 0.01, 0.01)
        offsets = np.array([0.3, -0.1, 0.2, 0.0, -0.25, 0.15])
        tr = run(demo_static_scenario(
            demo_gains, controller="adaptive", adapt=adapt, clocks0=offsets, horizon=0.5
        ))
        xi, norm = consensus_error(tr.x)
        assert np.array_equal(tr.xi, xi) and np.array_equal(tr.xi_norm, norm)
        assert np.array_equal(tr.clock_spread, clock_spread(tr.clocks))
        v1 = lyapunov_v1(tr.xi, demo_gains.p_mat)
        assert np.allclose(tr.v1, v1, rtol=1e-12, atol=1e-13)
        v2 = lyapunov_v2(
            tr.xi, demo_gains.p_mat, tr.alpha, tr.beta,
            demo_gains.c1_floor, demo_gains.c2_floor, adapt.mu, adapt.nu,
        )
        assert np.allclose(tr.v2, v2, rtol=1e-12, atol=1e-13)


class TestDecayCheck:
    def _quiet_run(self, gains):
        # zero inputs: c2-forcing vanishes, V1 must decay at least at gamma
        fam = zero_family(6, channels=1)
        sc = Scenario(
            plant=demo_plant(),
            topology=demo_topology(),
            family=fam,
            controller="static",
            gains=gains,
            r0=R0,
            step=1e-3,
            horizon=5.0,
            sample_every=10,
        )
        return run(sc)

    def test_consensus_trajectory_no_violations(self, demo_gains):
        sc = demo_static_scenario(demo_gains, r0=np.zeros((6, 2)), family=zero_family(6))
        report = decay_check(run(sc), demo_gains)
        assert report.violations == 0

    def test_quiet_run_respects_designed_rate(self, demo_gains_phi0):
        fam_gains = dataclasses.replace(demo_gains_phi0, c2=0.0, f0=0.0)
        report = decay_check(self._quiet_run(fam_gains), fam_gains)
        assert report.violations == 0
        assert report.checked > 400

    def test_inflated_rate_is_falsified(self, demo_gains_phi0):
        fam_gains = dataclasses.replace(demo_gains_phi0, c2=0.0, f0=0.0)
        wrong = dataclasses.replace(fam_gains, gamma_rate=10.0 * fam_gains.gamma_rate)
        report = decay_check(self._quiet_run(fam_gains), wrong)
        assert report.violations > 0
        assert report.max_excess > 0.0


class TestTotalVariation:
    def _trace_with_controls(self, u):
        u = np.asarray(u, dtype=float)
        samples, agents, channels = u.shape
        sc = scalar_decay_scenario()
        zeros = np.zeros((samples, agents, 1))
        return Trace(
            scenario=sc,
            times=np.arange(samples, dtype=float),
            s=zeros,
            r=zeros,
            clocks=np.zeros((samples, agents)),
            alpha=np.zeros((samples, 0)),
            beta=np.zeros((samples, 0)),
            u=u,
            xi=zeros,
            xi_norm=np.zeros(samples),
            v1=np.zeros(samples),
            v2=None,
            clock_spread=np.zeros(samples),
        )

    def test_constant_control(self):
        tr = self._trace_with_controls(np.full((9, 1, 1), 2.5))
        per_agent, total = total_variation(tr)
        assert total == 0.0
        assert np.all(per_agent == 0.0)

    def test_alternating_control(self):
        m = 11
        u = np.array([[[(-1.0) ** k]] for k in range(m)])
        _, total = total_variation(self._trace_with_controls(u))
        assert total == pytest.approx(2.0 * (m - 1))


class TestModifiedLawAverageRecovery:
    def test_filter_sum_decays_with_decaying_references(self, demo_gains):
        # nonzero initial filter states are forgiven once A + B K is Hurwitz
        # and the references themselves decay (zero inputs, Hurwitz plant)
        rng = np.random.default_rng(7)
        sc = Scenario(
            plant=demo_plant(),
            topology=demo_topology(),
            family=zero_family(6),
            controller="modified",
            gains=demo_gains,
            r0=rng.uniform(-1, 1, (6, 2)),
            s0=rng.uniform(-1, 1, (6, 2)),
            step=2e-3,
            horizon=30.0,
            sample_every=25,
        )
        tr = run(sc)
        mismatch = np.linalg.norm(tr.x.sum(axis=1) - tr.r.sum(axis=1), axis=1)
        assert mismatch[-1] < 1e-4
        tail = mismatch[tr.times >= 10.0]
        assert np.all(np.diff(tail) <= 1e-9)


class TestImplicitDirectionStep:
    """Past RK4's stability limit the c2-weighted direction term of the
    static and modified laws takes a linearly implicit Euler step."""

    def test_shipped_step_passes_decay_audit(self, demo_gains):
        # With explicit RK4 the trajectory chattered from t ~ 5.4 s at this
        # step: 628 of 2999 samples broke the decay inequality and
        # |xi(30)| was 6.3e-2.
        r0 = np.array(json.loads(DEMO_CONFIG.read_text())["initial"]["r"])
        tr = run(demo_static_scenario(demo_gains, r0=r0, horizon=30.0))
        report = decay_check(tr, demo_gains)
        assert report.checked == 2999
        assert report.violations == 0
        assert tr.xi_norm[-1] < 1e-3

    def test_switch_at_rk4_stability_limit(self, demo_gains):
        sc = demo_static_scenario(demo_gains)
        dyn = _Dynamics(sc)
        b = demo_plant().b
        stiffness = (
            demo_gains.c2
            * np.linalg.eigvalsh(laplacian(demo_topology()))[-1]
            * (b.T @ demo_gains.p_mat @ b).item()
        )
        assert dyn.stiffness == pytest.approx(stiffness, rel=1e-12)
        # the thinnest layer eps e^{-phi t} reaches h * stiffness / 2.785
        t_switch = (
            np.log(demo_gains.eps * RK4_STABILITY_LIMIT / (sc.step * stiffness))
            / demo_gains.phi
        )
        assert t_switch == pytest.approx(5.42, abs=0.01)
        y = start_vector(sc)
        for clock, unresolved in ((t_switch - 1e-6, False), (t_switch + 1e-6, True)):
            y[dyn.sl_c] = clock
            assert dyn.layer_unresolved(y, sc.step) is unresolved
        # only the thinnest layer counts
        y[dyn.sl_c] = 0.0
        y[dyn.sl_c.start] = t_switch + 1e-6
        assert dyn.layer_unresolved(y, sc.step)

    def test_adaptive_discontinuous_and_zero_layer_stay_explicit(self, demo_gains):
        adapt = design_adaptive_params(demo_gains, 10.0, 10.0, 0.01, 0.01)
        for sc in (
            demo_static_scenario(demo_gains, discontinuous=True),
            demo_static_scenario(demo_gains, controller="adaptive", adapt=adapt),
            demo_static_scenario(dataclasses.replace(demo_gains, eps=0.0)),
        ):
            dyn = _Dynamics(sc)
            y = start_vector(sc)
            y[dyn.sl_c] = 100.0
            assert not dyn.layer_unresolved(y, sc.step)

    @pytest.mark.parametrize("dense_max_dim", [sys.maxsize, 0], ids=["dense", "edge"])
    @pytest.mark.parametrize("clock", [80.0, 100.0, 1000.0, 2000.0])
    def test_layer_below_float_resolution(self, demo_gains, monkeypatch, clock, dense_max_dim):
        # From equal states every w_e is exactly zero at the first step, and
        # from t = 80 on the layer eps e^{-phi t} is too thin for the
        # implicit matrix to keep its identity; at 2000 it underflows to
        # zero, which an unfloored layer reads as resolved. The floored
        # layer keeps every case implicit, finite and free of warnings.
        monkeypatch.setattr(engine, "DENSE_MAX_DIM", dense_max_dim)
        sc = demo_static_scenario(
            demo_gains, r0=np.zeros((6, 2)), clocks0=np.full(6, clock), horizon=0.1
        )
        dyn = _Dynamics(sc)
        assert dyn.dense is (dense_max_dim > 0)
        assert dyn.layer_unresolved(start_vector(sc), sc.step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(sc)
        assert np.all(np.isfinite(tr.u))
        assert np.abs(tr.s.sum(axis=1)).max() <= 1e-9

    @pytest.mark.parametrize("system", ["demo", "mixed_inputs", "two_channels"])
    @pytest.mark.parametrize("synced", [True, False])
    def test_solves_the_implicit_equation(self, demo_gains, system, synced):
        plant, topo, fam, gains = (
            demo_plant(), demo_topology(), ramped_sine_family(), demo_gains
        )
        if system == "mixed_inputs":  # no single input wave
            fam = InputFamily(
                specs=(
                    SinusoidInput(amplitude=(1.0,), omega=1.0, phase=0.0),
                    SinusoidInput(amplitude=(0.5,), omega=2.7, phase=0.3),
                    ConstantInput(value=(0.8,)),
                    ZeroInput(),
                    SinusoidInput(amplitude=(-1.2,), omega=0.4, phase=-1.0),
                    ConstantInput(value=(-0.25,)),
                ),
                input_dim=1,
            )
        elif system == "two_channels":
            plant = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=np.eye(2))
            topo = Topology(vertex_count=3, edges=((0, 1), (1, 2), (2, 0)))
            spec = SinusoidInput(amplitude=(0.5, -0.3), omega=1.0, phase=0.0)
            fam = InputFamily(specs=(spec,) * 3, input_dim=2)
            gains = design_gains(plant, topo, fam, np.eye(2), eps=1.0, phi=0.2)
        agents, n = topo.vertex_count, plant.state_dim
        rng = np.random.default_rng(11)
        clocks = np.full(agents, 30.0)
        if not synced:
            clocks += rng.uniform(-0.2, 0.2, agents)
        sc = Scenario(
            plant=plant,
            topology=topo,
            family=fam,
            controller="static",
            gains=gains,
            r0=rng.uniform(-1.0, 1.0, (agents, n)),
            clocks0=clocks,
            step=1e-3,
            horizon=1.0,
        )
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        y_star = rk4(dyn.without_direction, 0.7, y, sc.step, True)
        y_next = dyn.implicit_step(0.7, y, sc.step)

        # only s moves, and by dt c2 B times the direction term at the new
        # state, each edge's denominator taken at the old one
        rest = np.ones(dyn.dim, dtype=bool)
        rest[dyn.sl_s] = False
        assert np.allclose(y_next[rest], y_star[rest], rtol=1e-13, atol=1e-15)
        x0, x1 = ((v[dyn.sl_s] + v[dyn.sl_r]).reshape(agents, n) for v in (y, y_next))
        ds = np.zeros((agents, n))
        for i, j in topo.edges:
            w0 = gains.k_mat @ (x0[i] - x0[j])
            w1 = gains.k_mat @ (x1[i] - x1[j])
            layer = gains.eps * np.exp(-gains.phi * clocks)
            ds[i] += plant.b @ w1 / (np.linalg.norm(w0) + layer[i])
            ds[j] -= plant.b @ w1 / (np.linalg.norm(w0) + layer[j])
        got = (y_next[dyn.sl_s] - y_star[dyn.sl_s]).reshape(agents, n)
        expected = sc.step * gains.c2 * ds
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max())

    def test_advance_takes_the_run_step(self, demo_gains):
        # past the switch, so the step is the implicit one
        sc = demo_static_scenario(
            demo_gains, clocks0=np.full(6, 20.0), horizon=1e-3, sample_every=1
        )
        tr = run(sc)
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        assert dyn.layer_unresolved(y, sc.step)
        samples = [
            pack_state(tr.s[k], tr.r[k], tr.clocks[k], tr.alpha[k], tr.beta[k]) for k in (0, 1)
        ]
        assert np.array_equal(samples[0], y)
        assert np.array_equal(samples[1], dyn.advance(0.0, y, sc.step))

    def test_average_kept_and_clocks_contract(self, demo_gains):
        tr = run(demo_static_scenario(demo_gains, clocks0=np.full(6, 20.0)))
        assert np.abs(tr.s.sum(axis=1)).max() <= 1e-9
        offsets = np.array([0.3, -0.1, 0.2, 0.0, -0.25, 0.15])
        sc = demo_static_scenario(demo_gains, clocks0=20.0 + offsets)
        tr = run(sc)
        assert np.all(np.isfinite(tr.s))
        assert tr.clock_spread[-1] < 4.0 * sc.step**2
        above_floor = tr.clock_spread[:-1] > 1e-5
        assert np.all(np.diff(tr.clock_spread)[above_floor] <= 1e-12)


def seeded_ring(agents, chords, seed):
    """A ring on the given number of agents plus seeded random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % agents) for i in range(agents)]
    taken = {frozenset(e) for e in edges}
    while len(edges) < agents + chords:
        i, j = (int(v) for v in rng.integers(0, agents, 2))
        if i != j and frozenset((i, j)) not in taken:
            taken.add(frozenset((i, j)))
            edges.append((i, j))
    return Topology(vertex_count=agents, edges=tuple(edges))


def seeded_system(system):
    """(plant, topology, input family, gains) on a small seeded graph: one
    input wave with per-agent amplitudes, mixed input kinds and frequencies,
    or a two-channel plant."""
    rng = np.random.default_rng(23)
    if system == "two_channels":
        plant = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=np.eye(2))
        topo = seeded_ring(5, 2, seed=4)
        fam = InputFamily(
            specs=tuple(
                SinusoidInput(amplitude=tuple(rng.uniform(-1.0, 1.0, 2))) for _ in range(5)
            ),
            input_dim=2,
        )
        return plant, topo, fam, design_gains(plant, topo, fam, np.eye(2), eps=1.0, phi=0.2)
    topo = seeded_ring(8, 3, seed=2)
    if system == "one_wave":
        specs = tuple(SinusoidInput(amplitude=(a,)) for a in rng.uniform(0.5, 3.5, 8))
    else:
        specs = (
            SinusoidInput(amplitude=(1.0,), omega=1.0, phase=0.0),
            SinusoidInput(amplitude=(0.5,), omega=2.7, phase=0.3),
            ConstantInput(value=(0.8,)),
            ZeroInput(),
            SinusoidInput(amplitude=(-1.2,), omega=0.4, phase=-1.0),
            ConstantInput(value=(-0.25,)),
            SinusoidInput(amplitude=(2.0,), omega=1.0, phase=0.0),
            ZeroInput(),
        )
    fam = InputFamily(specs=specs, input_dim=1)
    gains = design_gains(demo_plant(), topo, fam, DEMO_Q, eps=5.0, phi=0.5)
    return demo_plant(), topo, fam, gains


def seeded_scenario(controller, system="one_wave", clocks=None, **kw):
    plant, topo, fam, gains = seeded_system(system)
    agents, n = topo.vertex_count, plant.state_dim
    rng = np.random.default_rng(31)
    defaults = dict(
        plant=plant,
        topology=topo,
        family=fam,
        controller=controller,
        gains=gains,
        adapt=(
            design_adaptive_params(gains, 10.0, 10.0, 0.01, 0.01)
            if controller == "adaptive"
            else None
        ),
        r0=rng.uniform(-1.0, 1.0, (agents, n)),
        s0=rng.uniform(-0.5, 0.5, (agents, n)) if controller == "modified" else None,
        clocks0=np.zeros(agents) if clocks is None else clocks,
        step=1e-3,
        horizon=0.5,
        sample_every=10,
    )
    defaults.update(kw)
    return Scenario(**defaults)


@pytest.fixture
def edge_form(monkeypatch):
    """Compile every scenario to the edge-indexed operators, whatever its
    size."""
    monkeypatch.setattr(engine, "DENSE_MAX_DIM", 0)


class TestEdgeIndexedOperators:
    """Above DENSE_MAX_DIM the right-hand side gathers and scatters through
    the edge index arrays instead of the fused map. These tests force that
    form on small seeded graphs by lowering the module's size constant."""

    @pytest.mark.parametrize("clocks", ["equal", "unequal"])
    @pytest.mark.parametrize("layer", ["resolved", "unresolved"])
    @pytest.mark.parametrize("system", ["one_wave", "mixed_inputs", "two_channels"])
    @pytest.mark.parametrize("controller", ["static", "modified", "adaptive"])
    def test_matches_fused_map(self, monkeypatch, controller, system, layer, clocks):
        agents = seeded_system(system)[1].vertex_count
        rng = np.random.default_rng(37)
        times = np.full(agents, 0.0 if layer == "resolved" else 40.0)
        if clocks == "unequal":
            times += rng.uniform(0.0, 0.3, agents)
        sc = seeded_scenario(controller, system, clocks=times)
        edges = sc.topology.edge_count
        y = pack_state(
            sc.s0 + rng.uniform(-0.2, 0.2, sc.s0.shape) * (controller == "modified"),
            sc.r0,
            sc.clocks0,
            rng.uniform(0.0, 2.0, edges),
            rng.uniform(0.0, 2.0, edges),
        )
        results = {}
        for dense in (True, False):
            monkeypatch.setattr(engine, "DENSE_MAX_DIM", sys.maxsize if dense else 0)
            dyn = _Dynamics(sc)
            assert dyn.dense is dense
            if controller != "adaptive":
                assert dyn.layer_unresolved(y, sc.step) is (layer == "unresolved")
            results[dense] = (dyn(0.7, y), dyn.controls(0.7, y), dyn.advance(0.7, y, sc.step))
        for fused, edge in zip(results[True], results[False]):
            assert np.max(np.abs(edge - fused)) <= 1e-12 * np.max(np.abs(fused))

    @pytest.mark.parametrize("clock", [0.0, 40.0])
    @pytest.mark.parametrize("controller", ["static", "modified", "adaptive"])
    def test_identical_agents_stay_identical(self, edge_form, controller, clock):
        topo = seeded_ring(5, 2, seed=8)
        fam = InputFamily(specs=(SinusoidInput(amplitude=(1.5,)),) * 5, input_dim=1)
        gains = design_gains(demo_plant(), topo, fam, DEMO_Q, eps=5.0, phi=0.5)
        sc = Scenario(
            plant=demo_plant(),
            topology=topo,
            family=fam,
            controller=controller,
            gains=gains,
            adapt=(
                design_adaptive_params(gains, 10.0, 10.0, 0.01, 0.01)
                if controller == "adaptive"
                else None
            ),
            r0=np.tile([0.3, -0.7], (5, 1)),
            s0=np.tile([0.1, 0.2], (5, 1)) if controller == "modified" else None,
            clocks0=np.full(5, clock),
            step=1e-3,
            horizon=0.5,
            sample_every=10,
        )
        tr = run(sc)
        assert np.all(tr.x == tr.x[:, :1])
        assert np.all(tr.u == tr.u[:, :1])

    def test_zero_layer_with_agreeing_ends_stays_finite(self, edge_form):
        # eps = 0: edges whose ends agree take a zero direction, not 0/0
        topo = seeded_ring(5, 2, seed=8)
        fam = InputFamily(specs=(SinusoidInput(amplitude=(1.5,)),) * 5, input_dim=1)
        gains = design_gains(demo_plant(), topo, fam, DEMO_Q, eps=0.0, phi=0.5)
        sc = Scenario(
            plant=demo_plant(),
            topology=topo,
            family=fam,
            controller="static",
            gains=gains,
            r0=np.tile([0.3, -0.7], (5, 1)),
            step=1e-3,
            horizon=0.1,
            sample_every=10,
        )
        tr = run(sc)
        assert np.all(np.isfinite(tr.x))
        assert np.all(tr.u == 0.0)

    def test_bitwise_deterministic(self, edge_form):
        for sc in (
            seeded_scenario("static", clocks=np.full(8, 20.0) + np.linspace(0.0, 0.2, 8)),
            seeded_scenario("static", clocks=np.full(8, 20.0)),
            seeded_scenario("adaptive", "mixed_inputs"),
        ):
            t1, t2 = run(sc), run(sc)
            for name in ("times", "s", "r", "clocks", "alpha", "beta", "u", "xi", "v1"):
                assert np.array_equal(getattr(t1, name), getattr(t2, name))

    @pytest.mark.parametrize(
        "controller, clock", [("static", 0.0), ("static", 20.0), ("adaptive", 0.0)]
    )
    def test_average_conservation(self, edge_form, controller, clock):
        # criterion 3: max over the trace of |sum_i x_i - sum_i r_i| <= 1e-6
        sc = seeded_scenario(controller, clocks=np.full(8, clock), horizon=2.0)
        assert not _Dynamics(sc).dense
        tr = run(sc)
        mismatch = np.linalg.norm(tr.x.sum(axis=1) - tr.r.sum(axis=1), axis=1)
        assert mismatch.max() <= 1e-6


def ring_static_scenario(channels, clock):
    """The static law on a ring of 30 plus 15 seeded chords, one input wave
    with per-agent amplitudes and every clock at clock; one input channel
    (the demo plant) or two."""
    agents = 30
    topo = seeded_ring(agents, agents // 2, seed=5)
    rng = np.random.default_rng(5)
    if channels == 1:
        plant, q_mat = demo_plant(), DEMO_Q
    else:
        plant, q_mat = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=np.eye(2)), np.eye(2)
    fam = InputFamily(
        specs=tuple(
            SinusoidInput(amplitude=tuple(rng.uniform(0.5, 3.5, channels))) for _ in range(agents)
        ),
        input_dim=channels,
    )
    return Scenario(
        plant=plant,
        topology=topo,
        family=fam,
        controller="static",
        gains=design_gains(plant, topo, fam, q_mat, eps=5.0, phi=0.5),
        r0=rng.uniform(-1.0, 1.0, (agents, 2)),
        clocks0=np.full(agents, clock),
        step=1e-3,
        horizon=0.3,
        sample_every=10,
    )


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the np.linalg.inv calls and of the LU solves, through
    np.linalg.solve or matkernel.solve in the engine or its equal-clock
    loop, made from here on."""
    calls = {"inv": 0, "solve": 0}
    for owner, name in (
        (np.linalg, "inv"), (np.linalg, "solve"), (engine, "solve"), (equalclock, "solve"),
    ):

        def counted(*args, _name=name, _real=getattr(owner, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestLaggedImplicitSolve:
    """Above the dense limit the equal-clock implicit step solves its
    symmetric positive definite matrix by conjugate gradients,
    preconditioned with the inverse of an earlier step's matrix and
    refreshed past ITERATIVE_CAP iterations. These tests force it on small
    systems by lowering DENSE_MAX_DIM."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_product_is_the_matrix(self, edge_form, channels):
        sc = ring_static_scenario(channels, clock=0.0)
        dyn = _Dynamics(sc)
        rng = np.random.default_rng(channels)
        for scale in (1e-3, 1e2):
            f = scale * rng.uniform(0.0, 1.0, dyn.n_edges)
            lhs = implicit_matrix_bincount(sc.topology, dyn.kb, f, f)
            assert np.array_equal(lhs, lhs.T)
            assert np.linalg.eigvalsh(lhs)[0] >= 1.0 - 1e-9
            v = rng.uniform(-1.0, 1.0, lhs.shape[0])
            got = dyn._implicit_product(v, f)
            expected = lhs @ v
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_run_across_the_switch_matches_the_dense_form(
        self, monkeypatch, linalg_calls, channels
    ):
        # stated before measuring: every sampled state and control within
        # 1e-10 of the dense form's, relative to the largest of each
        sc = ring_static_scenario(channels, clock=0.0)
        dyn = _Dynamics(sc)
        t_switch = (
            math.log(sc.gains.eps * RK4_STABILITY_LIMIT / (sc.step * dyn.stiffness))
            / sc.gains.phi
        )
        sc = dataclasses.replace(sc, clocks0=np.full(30, t_switch - 0.1))
        assert not dyn.layer_unresolved(start_vector(sc), sc.step)
        traces = {}
        for dense in (True, False):
            monkeypatch.setattr(engine, "DENSE_MAX_DIM", sys.maxsize if dense else 0)
            linalg_calls.update(inv=0, solve=0)
            traces[dense] = run(sc)
            # the dense form solves every implicit step by LU, the edge
            # form none
            assert (linalg_calls["solve"] > 100) is dense
        assert 1 <= linalg_calls["inv"] <= 20
        for name in ("x", "u"):
            fused, edge = getattr(traces[True], name), getattr(traces[False], name)
            assert np.max(np.abs(edge - fused)) <= 1e-10 * np.max(np.abs(fused))

    def test_refresh_on_the_first_step_and_after_a_jump(
        self, monkeypatch, edge_form, linalg_calls
    ):
        solves = []
        solve_lagged = _Dynamics._solve_lagged

        def recorded(dyn, f, rhs):
            v = solve_lagged(dyn, f, rhs)
            solves.append((f, rhs, v.copy()))
            return v

        monkeypatch.setattr(_Dynamics, "_solve_lagged", recorded)
        # at t = 40 the layer is thin and the first matrix's condition
        # number is about 2e9
        sc = ring_static_scenario(1, clock=40.0)
        y = start_vector(sc)
        # from the random start the edge differences collapse onto the layer
        # within a few steps, and the edge weights f with them
        settling = _Dynamics(sc)
        assert settling.layer_unresolved(y, sc.step)
        for k in range(10):
            y = settling.advance(40.0 + k * sc.step, y, sc.step)
        dyn = _Dynamics(sc)
        assert not dyn.dense
        solves.clear()
        linalg_calls.update(inv=0, solve=0)
        for k in range(10, 30):
            y = dyn.advance(40.0 + k * sc.step, y, sc.step)
        # one refresh, on the first step; the lagged inverse carries the rest
        assert linalg_calls == {"inv": 1, "solve": 0}
        # new references: the edge weights f change by orders of magnitude
        # edge by edge, past what the lagged inverse carries in ITERATIVE_CAP
        jumped = y.copy()
        jumped[dyn.sl_r] = np.random.default_rng(9).uniform(-1.0, 1.0, 60)
        got = dyn.advance(40.03, jumped, sc.step)
        assert linalg_calls == {"inv": 2, "solve": 0}
        # every answer, refreshed or iterated, meets the stated residual on
        # the matrix built apart (up to a factor 2 for the product's rounding)
        assert len(solves) == 21
        for f, rhs, v in solves:
            lhs = implicit_matrix_bincount(sc.topology, dyn.kb, f, f)
            residual = np.linalg.norm(lhs @ v - rhs)
            assert residual <= 2.0 * engine.ITERATIVE_RTOL * np.linalg.norm(rhs)
        # and the step is LU's
        monkeypatch.setattr(
            _Dynamics,
            "_solve_lagged",
            lambda dyn, f, rhs: np.linalg.solve(dyn._implicit_matrix(f, f), rhs),
        )
        expected = _Dynamics(sc).advance(40.03, jumped, sc.step)
        assert linalg_calls["solve"] == 1
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_solve_starts_from_the_last_solution(self, monkeypatch, edge_form, linalg_calls):
        dyn = _Dynamics(ring_static_scenario(1, clock=0.0))
        rng = np.random.default_rng(3)
        f = rng.uniform(0.0, 1.0, dyn.n_edges)
        rhs = rng.uniform(-1.0, 1.0, dyn.n_agents)
        dyn._solve_lagged(f, rhs)
        # a new matrix: conjugate gradients on the first one's inverse
        f = f * rng.uniform(1.0, 1.1, dyn.n_edges)
        first = dyn._solve_lagged(f, rhs)
        assert linalg_calls["inv"] == 1
        products = []
        product = _Dynamics._implicit_product

        def counted(dyn, v, f):
            products.append(v)
            return product(dyn, v, f)

        monkeypatch.setattr(_Dynamics, "_implicit_product", counted)
        # the same solve again: its residual at the last solution meets the
        # tolerance, so it takes no iteration
        again = dyn._solve_lagged(f, rhs)
        assert len(products) == 1
        assert np.array_equal(again, first)
        assert linalg_calls["inv"] == 1

    def test_unequal_clocks_keep_the_direct_solve(self, edge_form, linalg_calls):
        offsets = np.linspace(0.0, 0.2, 30)
        sc = ring_static_scenario(1, clock=20.0)
        sc = dataclasses.replace(sc, clocks0=sc.clocks0 + offsets)
        dyn = _Dynamics(sc)
        assert not dyn.dense
        y = start_vector(sc)
        assert dyn.layer_unresolved(y, sc.step)
        linalg_calls.update(inv=0, solve=0)
        dyn.advance(20.0, y, sc.step)
        assert linalg_calls == {"inv": 0, "solve": 1}


class TestOneClockLaw:
    """The engine's clock rows are clocksync.clock_law: without_direction
    calls it on both forms, and __call__'s edge operators, which scatter
    its per-edge term, equal it bit for bit. Every form agrees with the
    per-edge reference clock_rates."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("convention", [ATTRACTING, PAPER_LITERAL])
    @pytest.mark.parametrize("controller", ["static", "adaptive"])
    @pytest.mark.parametrize("dense", [True, False])
    def test_clock_rows_are_the_shared_law(self, monkeypatch, dense, controller, convention, seed):
        monkeypatch.setattr(engine, "DENSE_MAX_DIM", sys.maxsize if dense else 0)
        rng = np.random.default_rng(seed)
        agents = 5 + seed
        topo = seeded_ring(agents, seed + 1, seed=seed)
        fam = InputFamily(
            specs=tuple(SinusoidInput(amplitude=(a,)) for a in rng.uniform(0.5, 3.5, agents)),
            input_dim=1,
        )
        gains = design_gains(demo_plant(), topo, fam, DEMO_Q, eps=5.0, phi=0.5)
        # ring edge (0, 1) inside the dead band, (1, 2) just outside it, (2, 3)
        # exactly equal, every other edge far outside
        clocks = 20.0 + rng.uniform(-0.3, 0.3, agents)
        clocks[1] = clocks[0] + 0.4 * DEAD_BAND
        clocks[2] = clocks[1] + 3.0 * DEAD_BAND
        clocks[3] = clocks[2]
        sc = Scenario(
            plant=demo_plant(),
            topology=topo,
            family=fam,
            controller=controller,
            gains=gains,
            adapt=(
                design_adaptive_params(gains, 10.0, 10.0, 0.01, 0.01)
                if controller == "adaptive"
                else None
            ),
            r0=rng.uniform(-1.0, 1.0, (agents, 2)),
            clocks0=clocks,
            clock_convention=convention,
        )
        dyn = _Dynamics(sc)
        assert dyn.dense is dense
        y = start_vector(sc)
        sigma = -1.0 if convention == ATTRACTING else 1.0
        law = clock_law(0.7, clocks, sigma, *topo.arcs())
        reference = clock_rates(ClockState(times=clocks, convention=convention), topo)
        assert np.max(np.abs(law - reference)) <= 1e-14

        rows = [dyn(0.7, y)[dyn.sl_c]]
        if not dense:
            assert np.array_equal(rows[0], law)
        if controller == "static":
            rows.append(dyn.without_direction(0.7, y, True)[dyn.sl_c])
            assert np.array_equal(rows[-1], law)
            assert np.all(dyn.without_direction(0.7, y, False)[dyn.sl_c] == 1.0)
        for row in rows:
            assert np.max(np.abs(row - reference)) <= 1e-14


def ring_plus_chords(agents, seed):
    """A ring on the agents (one edge for two) plus up to agents // 2
    seeded chords."""
    if agents == 2:
        return Topology(vertex_count=2, edges=((0, 1),))
    spare = agents * (agents - 1) // 2 - agents
    return seeded_ring(agents, min(agents // 2, spare), seed)


class TestStepPieces:
    """The pieces of the implicit step against the forms they replaced:
    the fixed-index matrix against one bincount over each edge's four
    entries, the propagator (the P block of the equal-clock path's step
    matrix) against repeated products with the drift, the affine step of
    both forms and the P block against four RK4 stages, and the one
    equal-clock layer against the per-agent exponential."""

    @pytest.mark.parametrize("agents", range(2, 51))
    def test_fixed_index_matrix_is_the_bincount_build(self, agents):
        topo = ring_plus_chords(agents, seed=agents)
        rng = np.random.default_rng(agents)
        two_channels = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=[[1.0, 0.5], [0.0, 1.0]])
        for plant, q_mat in ((demo_plant(), DEMO_Q), (two_channels, np.eye(2))):
            p = plant.input_dim
            fam = InputFamily(specs=(SinusoidInput(amplitude=(1.0,) * p),) * agents, input_dim=p)
            gains = design_gains(plant, topo, fam, q_mat, eps=5.0, phi=0.5)
            sc = Scenario(plant=plant, topology=topo, family=fam, controller="static", gains=gains)
            dyn = _Dynamics(sc)
            # draws through the one reused array: no entry of an earlier one
            # stays; equal clocks (f_h = f_t) and unequal ones
            for scale in (1e-3, 1e2):
                f_t = scale * rng.uniform(0.0, 1.0, topo.edge_count)
                for f_h in (f_t, scale * rng.uniform(0.0, 1.0, topo.edge_count)):
                    lhs = dyn._implicit_matrix(f_t, f_h)
                    expected = implicit_matrix_bincount(topo, dyn.kb, f_t, f_h)
                    assert np.array_equal(lhs, expected)

    @staticmethod
    def _affine_system(demo_gains, inputs):
        """An equal-clock static system with one input wave (a sine, or
        constant inputs), compiled, and its initial state."""
        if inputs == "sine":
            fam = InputFamily(
                specs=tuple(
                    SinusoidInput(amplitude=((i + 2) / 2.0,), omega=1.3, phase=0.4)
                    for i in range(6)
                ),
                input_dim=1,
            )
        else:
            fam = InputFamily(
                specs=tuple(ConstantInput(value=(0.5 - 0.2 * i,)) for i in range(6)),
                input_dim=1,
            )
        rng = np.random.default_rng(41)
        sc = demo_static_scenario(
            demo_gains,
            family=fam,
            r0=rng.uniform(-1.0, 1.0, (6, 2)),
            s0=rng.uniform(-0.5, 0.5, (6, 2)),
            clocks0=np.full(6, 12.0),
        )
        dyn = _Dynamics(sc)
        assert dyn.uniform_wave
        assert dyn.has_wave is (inputs == "sine")
        return dyn, start_vector(sc)

    @pytest.mark.parametrize("inputs", ["sine", "constant"])
    def test_propagator_matches_the_recursion(self, demo_gains, inputs):
        dyn, y = self._affine_system(demo_gains, inputs)
        assert dyn.equal_clock_path
        ep = dyn.n_edges * dyn.p
        # the step matrix is built per step size: change it and change it back
        for t, dt in ((0.7, 1e-3), (3.1, 2.5e-4), (5.9, 1e-3)):
            step = dyn.loop.step_matrix(dt)
            z = p_block_input(dyn, t, y, dt)
            got = step[: dyn.dim] @ z
            expected = affine_rk4_recursion(dyn, t, y, dt)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
            # the blocks below it: w at the stepped state and at y
            w_star, w_now = step[dyn.dim : dyn.dim + ep] @ z, step[dyn.dim + ep :] @ z
            for w, at in ((w_star, expected), (w_now, y)):
                w_expected = dyn._gather_w(at)
                assert np.max(np.abs(w - w_expected)) <= 1e-13 * np.max(np.abs(w_expected))
            y = got

    @pytest.mark.parametrize("dense_max_dim", [sys.maxsize, 0], ids=["dense", "edge"])
    @pytest.mark.parametrize("inputs", ["sine", "constant"])
    def test_affine_step_is_rk4_of_without_direction(
        self, demo_gains, monkeypatch, inputs, dense_max_dim
    ):
        # an oracle apart from the polynomial: four stage evaluations of the
        # derivative without its direction term, every block of the state
        monkeypatch.setattr(engine, "DENSE_MAX_DIM", dense_max_dim)
        dyn, y = self._affine_system(demo_gains, inputs)
        assert dyn.dense is (dense_max_dim > 0)
        for t, dt in ((0.7, 1e-3), (3.1, 2.5e-4), (5.9, 1e-3)):
            expected = rk4(dyn.without_direction, t, y, dt, False)
            steps = [dyn._affine_rk4(t, y, dt)]
            if dyn.dense:
                steps.append(dyn.loop.step_matrix(dt)[: dyn.dim] @ p_block_input(dyn, t, y, dt))
            for got in steps:
                for block in (dyn.sl_s, dyn.sl_r, dyn.sl_c):
                    scale = np.max(np.abs(expected[block]))
                    assert np.max(np.abs(got[block] - expected[block])) <= 1e-13 * scale
                assert np.array_equal(got[dyn.sl_c.stop :], y[dyn.sl_c.stop :])
            y = steps[0]

    @pytest.mark.parametrize("phi", [0.5, 0.0731])
    def test_equal_clock_layer_is_the_per_agent_exponential(self, demo_gains, phi):
        gains = dataclasses.replace(demo_gains, phi=phi)
        sc = demo_static_scenario(gains)
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        rng = np.random.default_rng(43)
        nrm = rng.uniform(0.0, 2.0, dyn.n_edges)
        nrm[0] = 0.0
        clocks = np.concatenate((np.linspace(0.0, 80.0, 4001), rng.uniform(0.0, 400.0, 2000)))
        for clock in clocks:
            y[dyn.sl_c] = clock
            inv, inv_h = dyn._direction_coeffs(y, nrm, True)
            layer = np.maximum(gains.eps * np.exp(-gains.phi * y[dyn.sl_c]), dyn.layer_floor)
            assert inv_h is inv
            assert np.array_equal(inv, 1.0 / (nrm + layer[dyn.tails]))


def p_block_input(dyn, t, y, dt):
    """[y | 1 | s0 | sm | s1], the input of the equal-clock step matrix: the
    input wave at the step's start, middle and end."""
    waves = [math.sin(dyn.wave_omega * at + dyn.wave_phase) for at in (t, t + 0.5 * dt, t + dt)]
    return np.concatenate((y, [1.0], waves))


def equal_clock_scenario(channels, inputs, controller, clock, **kw):
    """The demo graph with one input channel (the demo plant) or two, one
    input wave (a sine, or constant inputs), random r0 and s0 and every
    clock at clock."""
    p = channels
    if channels == 1:
        plant, q_mat = demo_plant(), DEMO_Q
    else:
        plant, q_mat = Plant(a=[[0.0, 1.0], [-0.5, -1.0]], b=[[1.0, 0.5], [0.0, 1.0]]), np.eye(2)
    if inputs == "sine":
        specs = tuple(
            SinusoidInput(amplitude=((i + 2) / 2.0,) * p, omega=1.3, phase=0.4) for i in range(6)
        )
    else:
        specs = tuple(ConstantInput(value=(0.5 - 0.2 * i,) * p) for i in range(6))
    fam = InputFamily(specs=specs, input_dim=p)
    rng = np.random.default_rng(47)
    defaults = dict(
        plant=plant,
        topology=demo_topology(),
        family=fam,
        controller=controller,
        gains=design_gains(plant, demo_topology(), fam, q_mat, eps=5.0, phi=0.5),
        r0=rng.uniform(-1.0, 1.0, (6, 2)),
        s0=rng.uniform(-0.5, 0.5, (6, 2)),
        clocks0=np.full(6, clock),
        step=1e-3,
        horizon=0.1,
        sample_every=1,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def switch_clock(sc):
    """The clock at which the thinnest layer reaches RK4's stability limit."""
    stiffness = _Dynamics(sc).stiffness
    return math.log(sc.gains.eps * RK4_STABILITY_LIMIT / (sc.step * stiffness)) / sc.gains.phi


EQUAL_CLOCK_SYSTEMS = pytest.mark.parametrize(
    "channels, inputs, controller",
    [
        (channels, inputs, controller)
        for channels in (1, 2)
        for inputs in ("sine", "constant")
        for controller in ("static", "modified")
    ],
)


class TestEqualClockPath:
    """With every clock equal at the start of a dense, connected system with
    one input wave, advance and run step through one loop, EqualClockLoop,
    that takes each step as a few fixed products: the stage map for RK4 and
    the step matrix, implicit map and LAPACK solve past the switch; run
    then computes the sampled controls in blocks. Those against the general
    route, and the invariants of the path: the clocks stay bitwise equal and
    the layer only thins."""

    def test_where_the_path_applies(self, demo_gains):
        adapt = design_adaptive_params(demo_gains, 10.0, 10.0, 0.01, 0.01)
        mixed = InputFamily(
            specs=(SinusoidInput(amplitude=(1.0,), omega=1.0),) * 5
            + (SinusoidInput(amplitude=(1.0,), omega=2.0),),
            input_dim=1,
        )
        split = Topology(vertex_count=6, edges=((0, 1), (1, 2), (3, 4), (4, 5)))
        assert _Dynamics(demo_static_scenario(demo_gains)).equal_clock_path
        assert _Dynamics(demo_static_scenario(demo_gains, controller="modified")).equal_clock_path
        for sc in (
            demo_static_scenario(demo_gains, discontinuous=True),
            demo_static_scenario(demo_gains, controller="adaptive", adapt=adapt),
            demo_static_scenario(dataclasses.replace(demo_gains, eps=0.0)),
            demo_static_scenario(demo_gains, clocks0=np.linspace(0.0, 0.1, 6)),
            demo_static_scenario(demo_gains, family=mixed),
            demo_static_scenario(demo_gains, topology=split),
        ):
            assert not _Dynamics(sc).equal_clock_path

    def test_edge_form_keeps_the_general_route(self, demo_gains, edge_form):
        assert not _Dynamics(demo_static_scenario(demo_gains)).equal_clock_path

    @EQUAL_CLOCK_SYSTEMS
    @pytest.mark.parametrize("clock", [12.0, 40.0])
    def test_implicit_step_is_the_general_route(self, channels, inputs, controller, clock):
        # stated before measuring: every block within 1e-13 of the general
        # route's, relative to the block's largest entry
        sc = equal_clock_scenario(channels, inputs, controller, clock)
        dyn = _Dynamics(sc)
        assert dyn.equal_clock_path
        y = start_vector(sc)
        for k in range(5):
            t = 0.7 + k * sc.step
            assert dyn.layer_unresolved(y, sc.step)
            got = dyn.advance(t, y, sc.step)
            expected = general_implicit_step(dyn, t, y, sc.step)
            for block in (dyn.sl_s, dyn.sl_r, dyn.sl_c):
                scale = np.max(np.abs(expected[block]))
                assert np.max(np.abs(got[block] - expected[block])) <= 1e-13 * scale
            assert np.array_equal(got[dyn.sl_c.stop :], y[dyn.sl_c.stop :])
            y = got

    @EQUAL_CLOCK_SYSTEMS
    def test_rk4_step_is_the_general_route(self, channels, inputs, controller):
        # stated before measuring: every block within 1e-14 of RK4 of the
        # derivative, relative to the block's largest entry; clocks bitwise
        sc = equal_clock_scenario(channels, inputs, controller, 0.0)
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        for k in range(5):
            t = 0.7 + k * sc.step
            assert not dyn.layer_unresolved(y, sc.step)
            got = dyn.advance(t, y, sc.step)
            expected = rk4(dyn, t, y, sc.step)
            for block in (dyn.sl_s, dyn.sl_r):
                scale = np.max(np.abs(expected[block]))
                assert np.max(np.abs(got[block] - expected[block])) <= 1e-14 * scale
            assert np.array_equal(got[dyn.sl_c.start :], expected[dyn.sl_c.start :])
            y = got

    @EQUAL_CLOCK_SYSTEMS
    @pytest.mark.parametrize("clock", [0.0, 40.0])
    def test_stage_is_the_derivative(self, channels, inputs, controller, clock):
        # the stage map's rows: the derivative, then its edge inputs G_w y'
        sc = equal_clock_scenario(channels, inputs, controller, clock)
        dyn = _Dynamics(sc)
        rng = np.random.default_rng(53)
        y = start_vector(sc)
        for t in (0.0, 0.7, 3.1):
            w = dyn._gather_w(y)
            den = np.repeat(dyn._norms(w) + dyn._synced_layer(y), dyn.p)
            wave = math.sin(dyn.wave_omega * t + dyn.wave_phase)
            stage = np.concatenate((y, w, w / den, [1.0, wave]))
            got, expected = dyn.loop.stage_map @ stage, dyn(t, y)
            expected = np.concatenate((expected, dyn._gather_w(expected)))
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
            y = y + rng.uniform(-0.1, 0.1, y.shape) * (np.arange(dyn.dim) < dyn.sl_c.start)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_layer_map_is_the_implicit_matrix(self, channels):
        # the implicit map's rows: the matrix's entries some edge reaches,
        # written into I, then the right-hand side (D kron I_p)(f w*)
        dyn = _Dynamics(equal_clock_scenario(channels, "sine", "static", 20.0))
        rng = np.random.default_rng(channels)
        reached = dyn.loop.node_rows.size
        for scale in (1e6, 1e-3, 1.0):
            f = scale * rng.uniform(0.0, 1.0, dyn.n_edges)
            w_star = rng.uniform(-1.0, 1.0, dyn.n_edges * dyn.p)
            f_w = np.repeat(f, dyn.p) * w_star
            out = dyn.loop.implicit_map @ np.concatenate((f, f_w, [1.0]))
            got = np.eye(dyn.n_agents * dyn.p)
            got.reshape(-1)[dyn.loop.node_rows] = out[:reached]
            expected = dyn._implicit_matrix(f, f)
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))
            edge = f_w.reshape(dyn.n_edges, dyn.p)
            rhs = dyn._scatter(edge, edge).ravel()
            assert np.max(np.abs(out[reached:] - rhs)) <= 1e-15 * np.max(np.abs(rhs))

    @EQUAL_CLOCK_SYSTEMS
    def test_clocks_stay_bitwise_equal_across_the_switch(
        self, monkeypatch, channels, inputs, controller
    ):
        sc = equal_clock_scenario(channels, inputs, controller, 0.0)
        sc = dataclasses.replace(sc, clocks0=np.full(6, switch_clock(sc) - 0.05))
        dyn = _Dynamics(sc)
        solves = []

        def counted(a, b):
            solves.append(1)
            return np.linalg.solve(a, b)

        monkeypatch.setattr(equalclock, "solve", counted)
        y = start_vector(sc)
        unresolved = []
        for k in range(sc.steps):
            unresolved.append(dyn.layer_unresolved(y, sc.step))
            # the loop takes the implicit step exactly where the layer is
            # unresolved
            count = len(solves)
            y = dyn.advance(k * sc.step, y, sc.step)
            assert len(solves) - count == unresolved[-1]
            assert np.all(y[dyn.sl_c] == y[dyn.sl_c.start])
        switch = unresolved.index(True)
        assert 40 <= switch <= 60
        assert all(unresolved[switch:])
        tr = run(sc)
        assert np.all(tr.clocks == tr.clocks[:, :1])

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("controller", ["static", "modified"])
    def test_sampled_controls_are_controls(self, channels, controller):
        # stated before measuring: each sample's controls within 1e-12 of
        # controls() at the sampled state, relative to that sample's largest
        sc = equal_clock_scenario(channels, "sine", controller, 0.0, sample_every=2)
        sc = dataclasses.replace(
            sc, clocks0=np.full(6, switch_clock(sc) - 0.3), horizon=0.6,
        )
        dyn = _Dynamics(sc)
        assert equalclock.CONTROL_BLOCK < sc.steps // sc.sample_every + 1
        tr = run(sc)
        for k, t in enumerate(tr.times):
            y = pack_state(tr.s[k], tr.r[k], tr.clocks[k], tr.alpha[k], tr.beta[k])
            expected = dyn.controls(t, y)
            assert np.max(np.abs(tr.u[k] - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("controller", ["static", "modified"])
    def test_blowup_reports_component_and_sample_time(self, controller):
        # an unstable plant on the path, through both kinds of step: the
        # error names an s or r component and the first sample that is not
        # finite, so a run one sample shorter ends without it
        rng = np.random.default_rng(61)
        sc = Scenario(
            plant=Plant(a=[[100.0]], b=[[1.0]]),
            topology=demo_topology(),
            family=InputFamily(specs=(SinusoidInput(amplitude=(1.0,)),) * 6, input_dim=1),
            controller=controller,
            gains=dummy_gains(k=[[-1.0]], c1=1.0, c2=1.0, eps=1.0, phi=1.0, agents=6),
            r0=rng.uniform(-1.0, 1.0, (6, 1)),
            s0=rng.uniform(-1.0, 1.0, (6, 1)) if controller == "modified" else None,
            step=1e-2,
            horizon=20.0,
            sample_every=10,
        )
        dyn = _Dynamics(sc)
        assert dyn.equal_clock_path
        assert not dyn.layer_unresolved(start_vector(sc), sc.step)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"in (s|r)\[\d,0\] by t = ") as err:
                run(sc)
            at = float(str(err.value).rsplit("= ", 1)[1])
            samples = round(at / 0.1)
            assert at == samples * 10 * sc.step
            short = run(dataclasses.replace(sc, horizon=(samples - 1) * 0.1))
        assert np.all(np.isfinite(short.x))
        y = pack_state(short.s[-1], short.r[-1], short.clocks[-1], short.alpha[-1], short.beta[-1])
        assert dyn.layer_unresolved(y, sc.step)

    @pytest.mark.parametrize("phi", [0.5, 0.0731, 0.0])
    def test_layer_only_thins_as_the_clocks_advance(self, demo_gains, phi):
        gains = dataclasses.replace(demo_gains, phi=phi)
        sc = demo_static_scenario(gains)
        dyn = _Dynamics(sc)
        y = start_vector(sc)
        for dt in (1e-3, 1e-4):
            unresolved = []
            for clock in np.linspace(0.0, 120.0, 24001):
                y[dyn.sl_c] = clock
                unresolved.append(dyn.layer_unresolved(y, dt))
            first = unresolved.index(True) if True in unresolved else len(unresolved)
            assert not any(unresolved[:first]) and all(unresolved[first:])


class TestScaling:
    def test_thousand_agent_static_design_and_run(self):
        # The fused map would hold (8000 x 11001) doubles, about 0.7 GB.
        agents = 1000
        topo = seeded_ring(agents, agents // 2, seed=1)
        rng = np.random.default_rng(1)
        fam = InputFamily(
            specs=tuple(SinusoidInput(amplitude=(a,)) for a in rng.uniform(0.5, 3.5, agents)),
            input_dim=1,
        )
        tracemalloc.start()
        try:
            start = time.perf_counter()
            gains = design_gains(demo_plant(), topo, fam, DEMO_Q, eps=5.0, phi=0.5)
            sc = Scenario(
                plant=demo_plant(),
                topology=topo,
                family=fam,
                controller="static",
                gains=gains,
                r0=rng.uniform(-1.0, 1.0, (agents, 2)),
                step=1e-3,
                horizon=1e-2,
                sample_every=1,
            )
            tr = run(sc)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.sample_count == 11
        assert np.all(np.isfinite(tr.x))
        assert np.abs(tr.s.sum(axis=1)).max() <= 1e-6
        assert peak < 150e6
        assert elapsed < 30.0
