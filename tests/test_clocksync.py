import numpy as np
import pytest

from avgtrack.clocksync import (
    ATTRACTING,
    PAPER_LITERAL,
    DEAD_BAND,
    ClockState,
    clock_law,
    clock_spread,
    plan_sync,
    run_sync,
    settling_time,
)
from avgtrack.graph import Topology

from conftest import demo_topology
from oracles import clock_rates, full_horizon_implicit_sync, full_horizon_sync, sig_half

PAIR = Topology(vertex_count=2, edges=((0, 1),))

SHIPPED_OFFSETS = np.array([0.05, -0.03, 0.02, 0.0, -0.04, 0.01])
# the benchmark's static_sync workload at seed 1: spread 0.09, unequal steps
SEEDED_OFFSETS = np.array([
    -0.045, -0.02605360717070212, 0.03707186761637826, 0.028567471108517685,
    0.03719477010110978, 0.045,
])


class TestSigHalf:
    def test_positive(self):
        assert sig_half(4.0) == 2.0

    def test_negative(self):
        assert sig_half(-9.0) == -3.0

    def test_zero(self):
        assert sig_half(0.0) == 0.0

    def test_elementwise(self):
        assert np.allclose(sig_half([4.0, -9.0, 0.0]), [2.0, -3.0, 0.0])

    def test_odd(self):
        for v in (0.3, 1.7, 42.0):
            assert sig_half(-v) == -sig_half(v)


class TestClockRates:
    def test_synchronized_progress_at_unit_rate(self):
        state = ClockState(times=np.full(6, 3.25))
        assert np.array_equal(clock_rates(state, demo_topology()), np.ones(6))

    def test_two_agents_unit_offset(self):
        state = ClockState(times=[1.0, 0.0], convention=ATTRACTING)
        assert np.allclose(clock_rates(state, PAIR), [0.0, 2.0])

    def test_two_agents_quarter_offset(self):
        state = ClockState(times=[0.25, 0.0], convention=ATTRACTING)
        assert np.allclose(clock_rates(state, PAIR), [0.5, 1.5])

    def test_literal_sign_flips_coupling(self):
        state = ClockState(times=[1.0, 0.0], convention=PAPER_LITERAL)
        assert np.allclose(clock_rates(state, PAIR), [2.0, 0.0])

    def test_dead_band(self):
        state = ClockState(times=[1e-13, 0.0])
        assert np.array_equal(clock_rates(state, PAIR), [1.0, 1.0])

    def test_mean_rate_is_one(self):
        rng = np.random.default_rng(12)
        for convention in (ATTRACTING, PAPER_LITERAL):
            state = ClockState(times=rng.normal(size=6), convention=convention)
            rates = clock_rates(state, demo_topology())
            assert np.mean(rates) == pytest.approx(1.0, abs=1e-12)


class TestClockLaw:
    @pytest.mark.parametrize("convention", [ATTRACTING, PAPER_LITERAL])
    def test_matches_per_edge_reference(self, convention):
        rng = np.random.default_rng(15)
        sigma = -1.0 if convention == ATTRACTING else 1.0
        for agents in (2, 6, 11):
            # a path plus seeded chords of either orientation
            edges = [(i, i + 1) for i in range(agents - 1)]
            taken = {frozenset(e) for e in edges}
            while len(edges) < 2 * agents - 3:
                i, j = (int(v) for v in rng.choice(agents, 2, replace=False))
                if frozenset((i, j)) not in taken:
                    taken.add(frozenset((i, j)))
                    edges.append((i, j))
            topo = Topology(vertex_count=agents, edges=tuple(edges))
            clocks = rng.uniform(-1.0, 1.0, agents)
            clocks[1] = clocks[0] + 0.5 * DEAD_BAND
            state = ClockState(times=clocks, convention=convention)
            law = clock_law(0.0, clocks, sigma, *topo.arcs())
            assert np.max(np.abs(law - clock_rates(state, topo))) <= 1e-14

    def test_equal_clocks_run_at_exactly_one(self):
        topo = demo_topology()
        law = clock_law(0.0, np.full(6, 3.25), -1.0, *topo.arcs())
        assert np.array_equal(law, np.ones(6))


class TestClockSpread:
    def test_one_vector_equals_the_array_form(self):
        rng = np.random.default_rng(16)
        rows = np.vstack([
            rng.uniform(-1.0, 1.0, (20, 6)),
            1e6 + rng.normal(scale=1e-9, size=(20, 6)),
            np.full((1, 6), 3.25),
            np.zeros((1, 6)),
        ])
        spreads = clock_spread(rows)
        for row, spread in zip(rows, spreads):
            one = clock_spread(row)
            assert type(one) is float
            assert one == spread
        assert spreads[-2] == spreads[-1] == 0.0


class TestPlanSync:
    @pytest.mark.parametrize(
        "offsets, convention, tol, step, horizon",
        [
            (SHIPPED_OFFSETS, ATTRACTING, 1e-9, 1e-4, None),
            (SEEDED_OFFSETS, ATTRACTING, 1e-6, 1e-4, None),
            (np.zeros(6), ATTRACTING, 1e-9, 1e-5, None),
            (SHIPPED_OFFSETS, PAPER_LITERAL, 1e-6, 1e-4, None),
            (SEEDED_OFFSETS, ATTRACTING, 1e-6, 1e-4, 0.5),
        ],
        ids=["shipped", "seeded", "zero", "paper-literal", "explicit-horizon"],
    )
    def test_handover_is_run_syncs(self, offsets, convention, tol, step, horizon):
        plan = plan_sync(demo_topology(), offsets, convention, tol, step, horizon)
        result = run_sync(demo_topology(), offsets, convention, tol, step, horizon)
        assert plan.horizon == result.horizon
        assert result.handover == float(plan.state.times.mean() + plan.horizon)

    @pytest.mark.parametrize(
        "count, offsets, convention, tol, step, horizon, match",
        [
            (2, [1.0, 0.0], ATTRACTING, 0.0, 1e-5, None, "positive"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, -1e-5, None, "positive"),
            (3, [1.0, 0.0], ATTRACTING, 1e-9, 1e-5, None, "agent count"),
            (2, [np.inf, 0.0], ATTRACTING, 1e-9, 1e-5, None, "finite"),
            (2, [1.0, 0.0], "repelling", 1e-9, 1e-5, None, "convention"),
            (2, [1.0, 0.0], ATTRACTING, np.nan, 1e-5, None, "^tol must be positive and finite"),
            (2, [1.0, 0.0], ATTRACTING, np.inf, 1e-5, None, "^tol must be positive and finite"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, np.nan, None, "^step must be positive and finite"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, np.inf, None, "^step must be positive and finite"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, 1e-5, -1.0, "^horizon must be nonnegative"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, 1e-5, np.nan, "^horizon must be nonnegative"),
            (2, [1.0, 0.0], ATTRACTING, 1e-9, 1e-5, np.inf, "^horizon must be nonnegative"),
        ],
        ids=[
            "tol", "step", "count", "nonfinite", "convention", "tol-nan",
            "tol-inf", "step-nan", "step-inf", "horizon-negative", "horizon-nan",
            "horizon-inf",
        ],
    )
    def test_checks_run_syncs_arguments(
        self, count, offsets, convention, tol, step, horizon, match
    ):
        path = Topology(vertex_count=count, edges=tuple((i, i + 1) for i in range(count - 1)))
        with pytest.raises(ValueError, match=match):
            plan_sync(path, offsets, convention, tol, step, horizon)


class TestRunSync:
    def test_already_synchronized(self):
        result = run_sync(PAIR, np.zeros(2), tol=1e-9, step=1e-5, horizon=0.01)
        assert result.settled_at == 0.0
        assert result.times.shape == (1,)
        assert result.handover == pytest.approx(0.01, abs=1e-15)

    def test_two_agent_settling_matches_closed_form(self):
        # offset delta obeys d(delta)/dt = -2 sig_half(delta): settles at sqrt(delta0)
        result = run_sync(PAIR, np.array([1.0, 0.0]), tol=1e-6, step=1e-4)
        assert result.settled_at is not None
        assert abs(result.settled_at - 1.0) <= 0.05

    def test_literal_convention_diverges(self):
        result = run_sync(
            PAIR, np.array([1.0, 0.0]), convention=PAPER_LITERAL, tol=1e-6,
            step=1e-4, horizon=2.0,
        )
        assert result.settled_at is None
        spreads = result.spreads
        assert np.all(np.diff(spreads) >= -1e-12)
        assert spreads[-1] > spreads[0]

    def test_six_agents_settle_below_microsecond(self):
        rng = np.random.default_rng(13)
        offsets = rng.uniform(-1.0, 1.0, size=6)
        result = run_sync(demo_topology(), offsets, tol=1e-6, step=1e-4)
        assert result.settled_at is not None
        assert result.spreads[-1] < 1e-6

    def test_spread_monotone_nonincreasing_above_discretization_floor(self):
        # the implicit step has no floor: no step lets the spread grow
        rng = np.random.default_rng(14)
        offsets = rng.uniform(-2.0, 2.0, size=6)
        result = run_sync(demo_topology(), offsets, tol=1e-6, step=1e-4)
        assert np.all(np.diff(result.spreads) <= 1e-12)

    def test_mean_clock_advances_at_unit_rate(self):
        offsets = np.array([0.6, -0.2, 0.1, 0.0, -0.5, 0.3])
        result = run_sync(demo_topology(), offsets, tol=1e-6, step=1e-4, horizon=2.0)
        drift = result.clocks[-1].mean() - offsets.mean()
        assert drift == pytest.approx(result.times[-1], abs=1e-9)
        assert result.handover == pytest.approx(offsets.mean() + 2.0, abs=1e-9)

    def test_settles_below_default_tol_with_default_step(self):
        result = run_sync(PAIR, np.array([0.5, 0.0]), tol=1e-9)
        assert result.settled_at is not None
        assert result.spreads[-1] < 1e-9

    def test_rates_stay_unit_after_settling(self):
        result = run_sync(PAIR, np.array([0.5, 0.0]), tol=1e-9, step=1e-5)
        assert result.settled_at is not None
        state = ClockState(times=result.clocks[-1])
        assert np.allclose(clock_rates(state, PAIR), 1.0, atol=1e-4)


_STOP_CASES = [np.random.default_rng(seed).uniform(-0.1, 0.1, 6) for seed in range(8)]


class TestStopAtFloor:
    @pytest.mark.parametrize(
        "topology, offsets",
        [(demo_topology(), offsets) for offsets in _STOP_CASES] + [(PAIR, np.array([0.1, 0.0]))],
        ids=[f"six-seed{seed}" for seed in range(len(_STOP_CASES))] + ["pair"],
    )
    def test_settles_as_the_full_horizon(self, topology, offsets):
        # the oracle solves for t+ itself, not for its increment, and
        # assembles each step's matrix in another order: the two agree to
        # rounding of the clocks over some thousand steps, not bit for bit
        tol, step = 1e-6, 1e-4
        result = run_sync(topology, offsets, tol=tol, step=step)
        times, clocks = full_horizon_implicit_sync(topology, offsets, tol, step)
        stop = result.times.shape[0] - 1
        assert stop < times.shape[0] - 1
        assert np.array_equal(result.times, times[: stop + 1])
        assert np.max(np.abs(result.clocks - clocks[: stop + 1])) <= 1e-12
        assert result.settled_at is not None
        assert result.settled_at == settling_time(times, clock_spread(clocks), tol)
        assert np.all(clock_spread(clocks[stop:]) < tol)
        assert result.handover == pytest.approx(clocks[-1].mean(), abs=1e-12)

    def test_literal_convention_runs_to_the_horizon(self):
        offsets = np.array([0.1, 0.0])
        result = run_sync(
            PAIR, offsets, convention=PAPER_LITERAL, tol=1e-6, step=1e-4, horizon=0.5
        )
        times, clocks = full_horizon_sync(PAIR, offsets, PAPER_LITERAL, 1e-6, 1e-4, horizon=0.5)
        assert np.array_equal(result.times, times)
        assert np.array_equal(result.clocks, clocks)
        assert result.settled_at is None


class TestSettlingTime:
    def test_never_below(self):
        assert settling_time([0.0, 1.0], [1.0, 2.0], tol=0.5) is None

    def test_persistent_from_start(self):
        assert settling_time([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], tol=1e-3) == 0.0

    def test_requires_persistence(self):
        # dips below tol, bounces back above, settles only at the end
        times = [0.0, 1.0, 2.0, 3.0]
        spreads = [1.0, 0.1, 1.0, 0.1]
        assert settling_time(times, spreads, tol=0.5) == 3.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            settling_time([0.0], [0.0], tol=0.0)
