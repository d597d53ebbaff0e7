"""Finite-time synchronization of the agents' local clocks through the
signed square-root coupling, run as a pre-phase before tracking.

The coupling sign matters: with the attracting convention (the default)
clock offsets contract to zero in finite time; the literal-plus convention
is retained as an option purely to demonstrate that offsets then grow.
The square-root term is not Lipschitz at zero, so a dead band treats
offsets below 1e-12 as already synchronized to avoid limit cycling on the
synchronized manifold.

clock_law is the one form of the law: the sync pre-phase steps it through
matkernel.rk4. The simulation engine's clock rows scatter its per-edge
term, edge_coupling, through the engine's edge operators, which gives
clock_law bit for bit, and the engine calls clock_law itself where it
steps everything but the direction term.

plan_sync fixes the phase's length and its hand-over clock from the inputs
alone, so a caller can start tracking from SyncPlan.handover while run_sync
still runs: the CLI runs it in a forked copy of its process alongside
tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Topology
from .matkernel import rk4

ATTRACTING = "attracting"
PAPER_LITERAL = "paper_literal"

DEAD_BAND = 1e-12


def coupling_sign(convention: str) -> float:
    """sigma of clock_law: -1 attracting, +1 literal, ValueError otherwise."""
    if convention not in (ATTRACTING, PAPER_LITERAL):
        raise ValueError(f"unknown convention {convention!r}")
    return -1.0 if convention == ATTRACTING else 1.0


def clock_spread(clocks) -> np.ndarray | float:
    """max_i t_i - min_i t_i over the last axis: per sample of a trajectory,
    or a float for one clock vector."""
    if clocks.ndim == 1:
        # the stop test of every sync step: Python's max and min of a short
        # list cost less than two numpy reductions, and both are exact
        values = clocks.tolist()
        return max(values) - min(values)
    # not np.ptp, whose subtract holds both reductions and a third array; the
    # operator reuses the temporary max in place
    return clocks.max(axis=-1) - clocks.min(axis=-1)


@dataclass(frozen=True)
class ClockState:
    """Local clock readings plus the coupling sign convention."""

    times: np.ndarray
    convention: str = ATTRACTING

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).reshape(-1)
        if not np.all(np.isfinite(times)):
            raise ValueError("clock times must be finite")
        coupling_sign(self.convention)
        object.__setattr__(self, "times", times)

    @property
    def spread(self) -> float:
        return float(clock_spread(self.times))


def edge_coupling(diff: np.ndarray) -> np.ndarray:
    """sign(d) sqrt(|d|) of clock differences d = t_i - t_j, zero inside the
    dead band, as a new array."""
    out = np.abs(diff)
    dead = out < DEAD_BAND
    np.sqrt(out, out=out)
    np.copysign(out, diff, out=out)
    out[dead] = 0.0
    return out


def clock_law(t: float, clocks: np.ndarray, sigma: float, sources, targets) -> np.ndarray:
    """dt_i/dt = 1 + sigma * sum_{j in N_i} edge_coupling(t_i - t_j), summed
    with bincount over the arcs i -> j of Topology.arcs(), sigma being +1 or
    -1 (coupling_sign). The law is autonomous: t is there so that rk4 steps
    it as it is. Returns a new array, which rk4 may overwrite."""
    # t_j - t_i is -(t_i - t_j) exactly and edge_coupling is odd, so for
    # sigma = -1 the sum over t_j - t_i is sigma times the sum, bit for bit,
    # without a multiplication
    first, second = (targets, sources) if sigma < 0.0 else (sources, targets)
    diff = clocks[first]
    diff -= clocks[second]
    rates = np.bincount(sources, edge_coupling(diff), clocks.shape[0])
    rates += 1.0
    return rates


@dataclass(frozen=True)
class SyncResult:
    """Clock trajectory from a synchronization pre-phase."""

    times: np.ndarray  # sample instants, shape (S,)
    clocks: np.ndarray  # clock readings, shape (S, N)
    settled_at: float | None
    horizon: float  # the phase's length in whole steps, whether or not stepping stopped early

    @property
    def spreads(self) -> np.ndarray:
        return clock_spread(self.clocks)

    @property
    def handover(self) -> float:
        """Common clock at the end of the phase: SyncPlan.handover."""
        return _handover(self.clocks[0], self.horizon)


def _handover(initial: np.ndarray, horizon: float) -> float:
    # each edge's coupling is antisymmetric, so the mean clock runs at rate 1
    # and this is where the full-horizon trajectory's mean ends, less roundoff
    return float(initial.mean() + horizon)


@dataclass(frozen=True)
class SyncPlan:
    """A sync pre-phase fixed before it runs: validated initial clocks and a
    whole number of steps of the given size."""

    state: ClockState
    step: float
    steps: int

    @property
    def horizon(self) -> float:
        return self.steps * self.step

    @property
    def handover(self) -> float:
        """Common clock at the end of the phase, mean(initial) + horizon,
        which run_sync's result reports bit for bit."""
        return _handover(self.state.times, self.horizon)


def plan_sync(
    vertex_count: int,
    initial,
    convention: str = ATTRACTING,
    tol: float = 1e-9,
    step: float = 1e-5,
    horizon: float | None = None,
) -> SyncPlan:
    """Checks run_sync's arguments and fixes its length: ValueError for a
    tol or step that is not positive and finite, a horizon that is not
    nonnegative and finite, a step too coarse for tol, bad clocks or
    convention, or a clock count other than vertex_count. The horizon
    defaults to max(1, 4 sqrt(max(spread, tol))), a generous multiple of the
    worst-offset settling estimate, and is rounded to whole steps."""
    for name, value in (("tol", tol), ("step", step)):
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if horizon is not None and not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if 2.0 * step * step >= tol:
        raise ValueError(
            f"step {step} too coarse for tol {tol}: the residual spread of the "
            f"discretized dynamics is about 2*step^2"
        )
    state = ClockState(times=initial, convention=convention)
    if state.times.shape[0] != vertex_count:
        raise ValueError("initial clock vector and topology disagree on the agent count")
    if horizon is None:
        # two-agent closed form settles at sqrt(offset); scale up for safety
        horizon = max(1.0, 4.0 * np.sqrt(max(state.spread, tol)))
    return SyncPlan(state=state, step=step, steps=int(round(horizon / step)))


def run_sync(
    topology: Topology,
    initial: np.ndarray,
    convention: str = ATTRACTING,
    tol: float = 1e-9,
    step: float = 1e-5,
    horizon: float | None = None,
) -> SyncResult:
    """Integrate the clock dynamics until the spread reaches its
    discretization floor.

    Classical fourth-order steps of clock_law at the given size, for the
    length plan_sync fixes (which also checks the arguments). The discrete
    dynamics park on a residual limit cycle of spread roughly 2 * step^2
    around the synchronized manifold, so the step must satisfy
    2 * step^2 < tol (the default pairs with tol = 1e-9), and stepping stops
    at the first step whose spread is at or below 2 * step^2: from there on
    the spread stays below tol. A spread that never gets there (the
    literal-plus convention) is stepped to the horizon.

    Returns the trajectory up to the last step taken, so settling can be
    audited; ``settled_at`` is None when the spread never stayed below tol.
    ``handover`` is the common clock at the horizon either way.
    """
    n = topology.vertex_count
    plan = plan_sync(n, initial, convention, tol, step, horizon)
    times0, steps = plan.state.times, plan.steps
    floor = 2.0 * step * step
    sigma = coupling_sign(convention)
    sources, targets = topology.arcs()

    # sized for the whole horizon, so that a horizon too long to store fails
    # here; rows past the stop are never written, so never resident
    try:
        out_c = np.empty((steps + 1, n))
    except ValueError as exc:  # more rows than numpy can index
        raise MemoryError(f"{steps + 1} rows of {n} clocks") from exc
    out_c[0] = times0
    clk = times0
    k = 0
    while k < steps and clock_spread(clk) > floor:
        clk = rk4(clock_law, k * step, clk, step, sigma, sources, targets)
        k += 1
        out_c[k] = clk
    times = np.arange(k + 1) * step
    clocks = out_c[: k + 1]
    return SyncResult(
        times=times,
        clocks=clocks,
        settled_at=settling_time(times, clock_spread(clocks), tol),
        horizon=plan.horizon,
    )


def settling_time(times, spreads, tol: float) -> float | None:
    """First instant at which the spread drops below tol and stays there for
    the remainder of the trace; None if that never happens."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    times = np.asarray(times, dtype=float)
    spreads = np.asarray(spreads, dtype=float)
    below = spreads < tol
    if not below.any():
        return None
    # last index where the spread was still at or above tol
    above_idx = np.nonzero(~below)[0]
    first_persistent = 0 if above_idx.size == 0 else above_idx[-1] + 1
    if first_persistent >= times.shape[0]:
        return None
    return float(times[first_persistent])
